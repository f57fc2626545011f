//! Plain bounded model checking.
//!
//! BMC only ever falsifies properties; it is included both as the baseline
//! the interpolation engines are built on and because the paper repeatedly
//! contrasts the cost of the three target formulations (*bound-k*,
//! *exact-k*, *exact-assume-k*).
//!
//! There is one BMC loop, [`crate::multi::bmc`]: one persistent
//! [`cnf::Unroller`] and one long-lived
//! [`sat::IncrementalSolver`] per run, extended by one frame per bound,
//! with each bound's target as a solve assumption, so the encoding work
//! of a `max_bound = K` run is `O(K)` and learned clauses survive from
//! bound to bound.  Single-property BMC ([`Engine::Bmc`](crate::Engine::Bmc))
//! is that loop over one property, inside a `BMC.run` span.

use crate::engines::run::EngineRun;
use crate::engines::CancelToken;
use crate::{EngineResult, Options};
use aig::Aig;

/// Runs BMC on bad-state property `bad_index`, increasing the bound until
/// a counterexample is found or the bound/time budget is exhausted.
pub(crate) fn run(
    aig: &Aig,
    bad_index: usize,
    options: &Options,
    cancel: &CancelToken,
) -> EngineResult {
    let (mut run, _span) = EngineRun::new("BMC.run", aig, &[], options, cancel);
    let mut statuses = crate::multi::bmc::check(&mut run, aig, &[bad_index], None);
    run.finish_status(statuses.pop().expect("one status per property"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Certificate, Engine, StopReason, Verdict};
    use aig::builder::{latch_word, word_equals_const, word_increment};
    use cnf::BmcCheck;
    use sat::{SolveResult, Solver};
    use std::time::{Duration, Instant};

    /// The engines that run the depth-0 check before their main loop.
    const SEQUENTIAL: [Engine; 6] = [
        Engine::Bmc,
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
    ];

    fn verify(aig: &Aig, bad_index: usize, options: &Options) -> EngineResult {
        Engine::Bmc.dispatch(aig, bad_index, options, &CancelToken::new())
    }

    fn counter(width: usize, bad_at: u64) -> Aig {
        let mut aig = Aig::new();
        let (ids, lits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &lits, aig::Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let bad = word_equals_const(&mut aig, &lits, bad_at);
        aig.add_bad(bad);
        aig
    }

    /// An always-safe design with enough combinational logic that every
    /// frame contributes a measurable clause delta.
    fn safe_counter(width: usize) -> Aig {
        // A modular counter can never reach a value outside its range.
        let mut aig = Aig::new();
        let (ids, lits) = latch_word(&mut aig, width, 0);
        let next = word_increment(&mut aig, &lits, aig::Lit::TRUE);
        for (id, n) in ids.iter().zip(next.iter()) {
            aig.set_next(*id, *n);
        }
        let hi = word_equals_const(&mut aig, &lits, (1 << width) - 1);
        let lo = word_equals_const(&mut aig, &lits, 0);
        // "top value and zero at once" is unsatisfiable combinationally.
        let bad = aig.and(hi, lo);
        aig.add_bad(bad);
        aig
    }

    /// A design whose depth-0 check is a pigeonhole refutation: hostile
    /// for the solver, trivial for a working interrupt hook.
    fn hostile_depth0(holes: usize) -> Aig {
        let mut aig = Aig::new();
        let pigeons = holes + 1;
        let var: Vec<Vec<aig::Lit>> = (0..pigeons)
            .map(|_| {
                (0..holes)
                    .map(|_| aig::Lit::positive(aig.add_input()))
                    .collect()
            })
            .collect();
        let mut formula = aig::Lit::TRUE;
        for row in &var {
            let mut any = aig::Lit::FALSE;
            for &v in row {
                any = aig.or(any, v);
            }
            formula = aig.and(formula, any);
        }
        for h in 0..holes {
            for (p1, row1) in var.iter().enumerate() {
                for row2 in &var[p1 + 1..] {
                    let both = aig.and(row1[h], row2[h]);
                    formula = aig.and(formula, !both);
                }
            }
        }
        let l = aig.add_latch(false);
        aig.set_next(l, aig.latch_lit(l));
        aig.add_bad(formula);
        aig
    }

    /// The pre-incremental reference: rebuild the instance from scratch at
    /// every bound, exactly as the engine did before the unrolling cache.
    fn verify_scratch(aig: &Aig, bad_index: usize, options: &Options) -> (Verdict, u64) {
        let mut sat_calls = 1u64;
        let mut depth0 = cnf::Unroller::new(aig);
        depth0.assert_initial(0);
        let bad = depth0.bad_lit(0, bad_index);
        depth0.assert_lit(bad);
        let mut solver = Solver::new();
        solver.add_cnf(&depth0.into_cnf());
        if solver.solve() == SolveResult::Sat {
            return (Verdict::Falsified { depth: 0 }, sat_calls);
        }
        for k in 1..=options.max_bound {
            let instance = cnf::bmc::build(aig, bad_index, k, options.check);
            let mut solver = Solver::new();
            solver.add_cnf(&instance.cnf);
            sat_calls += 1;
            if solver.solve() == SolveResult::Sat {
                return (Verdict::Falsified { depth: k }, sat_calls);
            }
        }
        (
            Verdict::Inconclusive {
                reason: StopReason::BoundExhausted,
                bound_reached: options.max_bound,
            },
            sat_calls,
        )
    }

    #[test]
    fn finds_counterexample_at_exact_depth() {
        let aig = counter(4, 9);
        let result = verify(&aig, 0, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 9 });
        assert!(result.stats.sat_calls >= 9);
    }

    #[test]
    fn counterexample_comes_with_a_replayable_trace() {
        let aig = counter(4, 9);
        let result = verify(&aig, 0, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 9 });
        let Some(Certificate::Trace(inputs)) = result.certificate else {
            panic!("falsified BMC run must carry a trace certificate");
        };
        assert_eq!(inputs.len(), 10, "depth 9 needs 10 cycles of inputs");
        let sim = aig::simulate(&aig, &inputs);
        assert!(sim.bad[9][0], "replay must hit the bad state at depth 9");
        // The A/B switch: no certificate, same verdict.
        let off = verify(&aig, 0, &Options::default().with_certificates(false));
        assert_eq!(off.verdict, Verdict::Falsified { depth: 9 });
        assert_eq!(off.certificate, None);
    }

    #[test]
    fn input_driven_counterexample_trace_replays() {
        // Bad fires when the input was high two cycles in a row.
        let mut aig = Aig::new();
        let i = aig::Lit::positive(aig.add_input());
        let l = aig.add_latch(false);
        aig.set_next(l, i);
        let seen_two = aig.and(aig.latch_lit(l), i);
        aig.add_bad(seen_two);
        let result = verify(&aig, 0, &Options::default());
        assert_eq!(result.verdict, Verdict::Falsified { depth: 1 });
        let Some(Certificate::Trace(inputs)) = result.certificate else {
            panic!("missing trace");
        };
        let sim = aig::simulate(&aig, &inputs);
        assert!(sim.bad[1][0], "replay must hit the bad state at depth 1");
    }

    #[test]
    fn gives_up_on_true_properties() {
        // A stuck-at-0 latch whose bad state never fires.
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        let cur = aig.latch_lit(l);
        aig.set_next(l, aig::Lit::FALSE);
        aig.add_bad(cur);
        let result = verify(&aig, 0, &Options::default().with_max_bound(5));
        assert!(matches!(
            result.verdict,
            Verdict::Inconclusive {
                bound_reached: 5,
                ..
            }
        ));
    }

    #[test]
    fn bound_check_formulations_agree_on_failing_depth() {
        let aig = counter(3, 5);
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let result = verify(&aig, 0, &Options::default().with_check(check));
            assert_eq!(result.verdict, Verdict::Falsified { depth: 5 }, "{check:?}");
        }
    }

    #[test]
    fn incremental_loop_matches_the_scratch_loop() {
        // Same verdicts, counterexample depths and SAT-call counts as the
        // per-bound rebuild, for every formulation, on failing and safe
        // designs.
        let designs = [counter(3, 5), counter(4, 9), counter(2, 2), safe_counter(3)];
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            for aig in &designs {
                let options = Options::default().with_max_bound(12).with_check(check);
                let incremental = verify(aig, 0, &options);
                let (scratch_verdict, scratch_calls) = verify_scratch(aig, 0, &options);
                assert_eq!(incremental.verdict, scratch_verdict, "{check:?}");
                assert_eq!(incremental.stats.sat_calls, scratch_calls, "{check:?}");
            }
        }
    }

    #[test]
    fn total_encoding_work_grows_linearly_with_the_bound() {
        // The acceptance criterion of the unrolling cache: clauses handed
        // to the solver across a max_bound = K run are O(K).  Doubling the
        // bound must roughly double (not quadruple) the volume, for every
        // formulation.
        let aig = safe_counter(4);
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let run = |bound: usize| {
                let result = verify(
                    &aig,
                    0,
                    &Options::default().with_max_bound(bound).with_check(check),
                );
                assert!(
                    !result.verdict.is_conclusive(),
                    "safe design must exhaust the bound"
                );
                result.stats.clauses_encoded
            };
            let (half, full) = (run(10), run(20));
            assert!(half > 0);
            assert!(
                full < 2 * half,
                "{check:?}: encoding must be linear in the bound, got {half} vs {full}"
            );
        }
    }

    #[test]
    fn hostile_depth0_check_is_cancellable() {
        // Regression: the depth-0 solver used to be built without an
        // interrupt hook, so a pre-cancelled portfolio token still had to
        // sit through the whole (here: pigeonhole-hard) refutation.
        let aig = hostile_depth0(10);
        let cancel = CancelToken::new();
        cancel.cancel();
        for engine in SEQUENTIAL {
            let start = Instant::now();
            let result = engine.dispatch(&aig, 0, &Options::default(), &cancel);
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{engine}: a cancelled depth-0 check must stop promptly"
            );
            assert_eq!(
                result.verdict,
                Verdict::Inconclusive {
                    reason: StopReason::Cancelled,
                    bound_reached: 0,
                },
                "{engine}"
            );
        }
    }

    #[test]
    fn deadline_interrupts_a_single_long_solve() {
        // Regression: the loop only compared `options.timeout` between
        // bounds, so one long SAT call overshot the budget arbitrarily.
        let aig = hostile_depth0(10);
        let options = Options::default().with_timeout(Duration::from_millis(50));
        for engine in SEQUENTIAL {
            let start = Instant::now();
            let result = engine.dispatch(&aig, 0, &options, &CancelToken::new());
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "{engine}: the deadline watchdog must interrupt the solve"
            );
            assert_eq!(
                result.verdict,
                Verdict::Inconclusive {
                    reason: StopReason::Timeout,
                    bound_reached: 0,
                },
                "{engine}"
            );
        }
    }

    #[test]
    fn depth0_conflicts_reach_the_engine_stats() {
        // A small pigeonhole cone makes the depth-0 refutation conflict
        // for real; those conflicts used to be dropped on the floor.  With
        // max_bound = 0 the engine's SAT work is exactly the depth-0
        // check's, so the accumulation is observable end to end.
        let aig = hostile_depth0(4);
        for engine in SEQUENTIAL {
            let options = Options::default().with_max_bound(0);
            let result = engine.dispatch(&aig, 0, &options, &CancelToken::new());
            assert!(!result.verdict.is_conclusive(), "{engine}: php(4) is safe");
            assert!(result.stats.conflicts > 0, "{engine}: php(4) must conflict");
            assert!(result.stats.clauses_encoded > 0, "{engine}");
            assert_eq!(result.stats.sat_calls, 1, "{engine}");
        }
    }
}
