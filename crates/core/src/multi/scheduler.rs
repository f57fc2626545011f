//! The property scheduler behind `Engine::Portfolio.verify_all`.
//!
//! Two observations shape the schedule:
//!
//! 1. Properties whose sequential cones of influence share no latches
//!    gain nothing from a shared frame trace or unrolling — their
//!    reachable-state facts are disjoint.  The scheduler therefore gets
//!    the COI-overlap groups of the shared narrowing step in
//!    [`crate::multi`], and decides each group on its own narrowed model
//!    (the design re-prepared for the group's properties alone), so each
//!    group's engine instances encode only its members' cones.
//! 2. Within a group, no single backend dominates (the portfolio
//!    argument): multi-BMC retires failing properties fastest, multi-PDR
//!    is the prover.  Each group therefore *races* the two on their own
//!    threads, connected by a retirement board: the moment one backend
//!    decides a property, the other sees the retirement at its next
//!    bound/level and stops spending work on it — per-property
//!    cancellation that never tears down the shared solver state the
//!    survivors depend on.
//!
//! Groups run concurrently, one pair of racing threads each, with at
//! most [`Options::effective_threads`] groups in flight at a time; the
//! outer [`CancelToken`] reaches every backend.  As with the single-property
//! portfolio, racing decides *when* backends stop, never *what* they
//! answer: status kinds and falsified depths are invariant (both
//! backends report structurally minimal depths), while proof bookkeeping
//! and counterexample traces depend on which backend wins the race.

use crate::engines::CancelToken;
use crate::multi::{bmc, RetireBoard, Slice};
use crate::{EngineStats, MultiResult, Options, PropertyStatus, StopReason};
use aig::Aig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use telemetry::ArgValue;

/// A result standing in for a faulted (panicked) backend or group: every
/// property inconclusive with the contained panic as its reason.  The
/// healthy racing partner's statuses win the per-property adoption (a
/// panic carries `bound_reached` 0), so one faulted backend never costs
/// a group its conclusive answers.
fn faulted_result(n: usize, payload: &(dyn std::any::Any + Send)) -> MultiResult {
    let reason = StopReason::Panic(crate::types::panic_message(payload));
    MultiResult {
        statuses: (0..n)
            .map(|_| PropertyStatus::Inconclusive {
                reason: reason.clone(),
                bound_reached: 0,
            })
            .collect(),
        stats: EngineStats {
            panics_contained: 1,
            ..EngineStats::default()
        },
    }
}

/// Decides every property group of `aig`: one racing multi-PDR/multi-BMC
/// pair per group, each on the group's narrowed model when `narrow` (see
/// [`Slice`]).  Returns one result per group, statuses indexed like the
/// group's members.
pub(crate) fn verify_all_with_cancel(
    aig: &Aig,
    groups: &[Vec<usize>],
    narrow: bool,
    options: &Options,
    cancel: &CancelToken,
) -> Vec<MultiResult> {
    let telemetry = &options.telemetry;
    let _sched = telemetry.span_args("scheduler.run", || {
        vec![("props", ArgValue::U64(aig.num_bad() as u64))]
    });

    // Each group races on its own pair of threads, and at most
    // `effective_threads` groups are in flight at once — a design with
    // hundreds of disjoint properties (hundreds of singleton groups)
    // must not fan out hundreds of solver instances simultaneously.
    // Chunking changes scheduling only, never statuses: kinds and depths
    // are deterministic per group.
    let concurrent_groups = options.effective_threads().max(1);
    let mut results = Vec::with_capacity(groups.len());
    for batch in groups.chunks(concurrent_groups) {
        // Narrowed here, on the scheduler's thread: the preprocessing
        // spans stay on one well-nested track.
        let slices: Vec<Slice<'_>> = batch
            .iter()
            .map(|members| Slice::new(aig, members, narrow, options))
            .collect();
        let batch_results: Vec<MultiResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| {
                    scope.spawn(move || {
                        // A panicking group must not tear down the whole
                        // schedule: contain it and report its properties
                        // inconclusive while the other groups finish.
                        let group_id = slice.members[0];
                        catch_unwind(AssertUnwindSafe(|| {
                            slice.run(|model, props| {
                                race_group(model, props, group_id, options, cancel)
                            })
                        }))
                        .unwrap_or_else(|payload| {
                            faulted_result(slice.members.len(), payload.as_ref())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("group panics are caught in the thread"))
                .collect()
        });
        results.extend(batch_results);
    }
    results
}

/// Races multi-PDR against multi-BMC on properties `props` of `aig` (one
/// COI group, traced as group `group_id`); statuses are indexed like
/// `props`.
fn race_group(
    aig: &Aig,
    props: &[usize],
    group_id: usize,
    options: &Options,
    cancel: &CancelToken,
) -> MultiResult {
    let start = Instant::now();
    let board = RetireBoard::new(props.len());
    let telemetry = &options.telemetry;
    telemetry.instant_args("group.dispatch", || {
        vec![
            ("group", ArgValue::U64(group_id as u64)),
            ("props", ArgValue::U64(props.len() as u64)),
        ]
    });
    // Each entrant runs its deterministic sequential internals (on its own
    // named telemetry track, so concurrent groups never interleave spans);
    // the scheduler's parallelism is groups × the two racing threads.
    let scoped = |backend: &str| {
        options
            .clone()
            .with_threads(1)
            .with_telemetry(telemetry.scoped(&format!("group{group_id}.{backend}")))
    };
    let pdr_options = scoped("PDR");
    let bmc_options = scoped("BMC");
    let (pdr, bmc) = std::thread::scope(|scope| {
        // Each entrant is its own containment domain: a panic in one is
        // caught at the thread boundary and the race goes on with the
        // survivor (its board publications up to the fault still stand).
        let pdr = scope.spawn(|| {
            catch_unwind(AssertUnwindSafe(|| {
                crate::engines::pdr::verify_all_with_cancel(
                    aig,
                    props,
                    &pdr_options,
                    cancel,
                    Some(&board),
                )
            }))
        });
        let bmc = scope.spawn(|| {
            catch_unwind(AssertUnwindSafe(|| {
                bmc::verify_all_with_cancel(aig, props, &bmc_options, cancel, Some(&board))
            }))
        });
        (
            pdr.join().expect("entrant panics are caught in the thread"),
            bmc.join().expect("entrant panics are caught in the thread"),
        )
    });
    let pdr = pdr.unwrap_or_else(|payload| faulted_result(props.len(), payload.as_ref()));
    let bmc = bmc.unwrap_or_else(|payload| faulted_result(props.len(), payload.as_ref()));

    let mut stats = EngineStats::default();
    stats.absorb(&pdr.stats);
    stats.absorb(&bmc.stats);
    let statuses = (0..props.len())
        .map(|i| {
            // The board holds whoever decided first; with nothing
            // published both entrants ran out of budget — adopt the one
            // that got further, PDR on ties (the portfolio's precedence).
            board.take(i).unwrap_or_else(|| {
                let bound = |status: &PropertyStatus| match status {
                    PropertyStatus::Inconclusive { bound_reached, .. } => *bound_reached,
                    _ => 0,
                };
                if bound(&bmc.statuses[i]) > bound(&pdr.statuses[i]) {
                    bmc.statuses[i].clone()
                } else {
                    pdr.statuses[i].clone()
                }
            })
        })
        .collect();
    stats.time = start.elapsed();
    MultiResult { statuses, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::time::Duration;

    fn options() -> Options {
        Options::default()
            .with_timeout(Duration::from_secs(20))
            .with_max_bound(40)
    }

    /// Two independent counters in one design: disjoint COIs, so the
    /// scheduler runs them as separate groups.
    fn two_counters() -> Aig {
        let mut aig = Aig::new();
        for (modulus, thresholds) in [(6u64, [2u64, 7]), (5, [6, 3])] {
            let (ids, bits) = aig::builder::latch_word(&mut aig, 3, 0);
            let wrap = aig::builder::word_equals_const(&mut aig, &bits, modulus - 1);
            let inc = aig::builder::word_increment(&mut aig, &bits, aig::Lit::TRUE);
            let zero = aig::builder::word_const(3, 0);
            let next = aig::builder::word_mux(&mut aig, wrap, &zero, &inc);
            for (id, n) in ids.iter().zip(next.iter()) {
                aig.set_next(*id, *n);
            }
            for threshold in thresholds {
                let bad = aig::builder::word_equals_const(&mut aig, &bits, threshold);
                aig.add_bad(bad);
            }
        }
        aig
    }

    #[test]
    fn disjoint_groups_are_scheduled_independently() {
        let aig = two_counters();
        assert_eq!(
            aig::coi::group_bads_by_coi(&aig),
            vec![vec![0, 1], vec![2, 3]]
        );
        let multi = Engine::Portfolio.verify_all(&aig, &options());
        assert_eq!(multi.statuses[0].depth(), Some(2));
        assert!(multi.statuses[1].is_proved(), "{}", multi.statuses[1]);
        assert!(multi.statuses[2].is_proved(), "{}", multi.statuses[2]);
        assert_eq!(multi.statuses[3].depth(), Some(3));
    }

    #[test]
    fn statuses_match_the_per_property_portfolio_loop() {
        let aig = workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
        let multi = Engine::Portfolio.verify_all(&aig, &options());
        for prop in 0..aig.num_bad() {
            let single = Engine::Portfolio.verify(&aig, prop, &options());
            assert!(
                multi.statuses[prop].agrees_with(&single.verdict),
                "property {prop}: {} vs {}",
                multi.statuses[prop],
                single.verdict
            );
        }
    }

    #[test]
    fn design_without_properties_yields_an_empty_result() {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        aig.set_next(l, aig::Lit::FALSE);
        let multi = Engine::Portfolio.verify_all(&aig, &options());
        assert!(multi.statuses.is_empty());
        assert!(multi.all_conclusive(), "vacuously conclusive");
    }

    #[test]
    fn outer_cancellation_stops_every_group() {
        let aig = two_counters();
        let cancel = CancelToken::new();
        cancel.cancel();
        let multi = Engine::Portfolio.verify_all_with_cancel(&aig, &options(), &cancel);
        assert!(
            multi.statuses.iter().all(|s| !s.is_conclusive()),
            "{:?}",
            multi.statuses
        );
    }

    #[test]
    fn racing_is_deterministic_in_kind_and_depth() {
        let aig = workloads::arbiter::round_robin_multi(3, true);
        let reference: Vec<_> = Engine::Portfolio
            .verify_all(&aig, &options())
            .statuses
            .iter()
            .map(PropertyStatus::kind_and_depth)
            .map(|(kind, depth)| (kind.to_string(), depth))
            .collect();
        for _ in 0..3 {
            let again: Vec<_> = Engine::Portfolio
                .verify_all(&aig, &options())
                .statuses
                .iter()
                .map(PropertyStatus::kind_and_depth)
                .map(|(kind, depth)| (kind.to_string(), depth))
                .collect();
            assert_eq!(reference, again);
        }
    }
}
