//! The property scheduler behind `Engine::Portfolio.verify_all`.
//!
//! Properties whose cones of influence share no latches gain nothing from
//! a shared frame trace or unrolling, so the scheduler decides each
//! COI-overlap group of [`crate::multi`] on its own narrowed model.
//! Within a group no backend dominates (the portfolio argument: multi-BMC
//! retires failing properties fastest, multi-PDR is the prover), so each
//! group runs the portfolio's one race (`portfolio::race`) of
//! `GROUP_ENTRANTS`: the moment one backend decides a property, the
//! other sees the retirement at its next bound/level and stops spending
//! work on it, without tearing down the solver state the survivors use.
//!
//! At most [`Options::effective_threads`] groups race at a time; the outer
//! [`CancelToken`] reaches every race.  Racing decides *when* backends
//! stop, never *what* they answer: status kinds and falsified depths are
//! invariant, while proof bookkeeping and counterexample traces depend on
//! which backend's status is adopted.

use crate::engines::portfolio::{self, GROUP_ENTRANTS};
use crate::engines::CancelToken;
use crate::multi::Slice;
use crate::{MultiResult, Options};
use aig::Aig;
use telemetry::ArgValue;

/// Decides every property group of `aig`: one race per group, each on
/// the group's narrowed model when `narrow` (see [`Slice`]).  Returns one
/// result per group, statuses indexed like the group's members.
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
    // Each entrant runs its deterministic sequential internals: the
    // scheduler's parallelism is the groups in flight × their entrants.
    let race_options = options.clone().with_threads(1);

    // At most `effective_threads` groups are in flight at once — a design
    // with hundreds of disjoint properties (hundreds of singleton groups)
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
        let race_options = &race_options;
        std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| {
                    scope.spawn(move || {
                        let group = slice.members[0];
                        telemetry.instant_args("group.dispatch", || {
                            vec![
                                ("group", ArgValue::U64(group as u64)),
                                ("props", ArgValue::U64(slice.members.len() as u64)),
                            ]
                        });
                        let tracks = format!("group{group}.");
                        slice.run(|model, props| {
                            let entrant = |engine, config: &_, token: &_, board: &_| {
                                super::backend(model, props, engine, config, token, Some(board))
                            };
                            portfolio::race(
                                &GROUP_ENTRANTS,
                                props.len(),
                                &tracks,
                                race_options,
                                cancel,
                                entrant,
                            )
                        })
                    })
                })
                .collect();
            for handle in handles {
                results.push(handle.join().expect("entrant runs are contained"));
            }
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, PropertyStatus};
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
