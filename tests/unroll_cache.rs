//! Cross-checks of the incremental unrolling cache against the scratch
//! path: the cached engines must report the same verdicts, counterexample
//! depths and SAT-call counts as per-bound rebuilds, and an
//! [`Unroller`](itpseq::cnf::Unroller) grown to `k` and drained as it
//! grows must be equisatisfiable with one built at `k` in one go.

use itpseq::cnf::{BmcCheck, Unroller};
use itpseq::mc::{Engine, Options, Verdict};
use itpseq::sat::{SolveResult, Solver};
use proptest::prelude::*;
use std::time::Duration;

fn options(check: BmcCheck) -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(10))
        .with_max_bound(40)
        .with_check(check)
}

/// Small designs for which exhaustive cross-checks are cheap.
fn small_designs() -> Vec<itpseq::workloads::Benchmark> {
    itpseq::workloads::suite::mid_size()
        .into_iter()
        .filter(|b| b.aig.num_latches() <= 10)
        .collect()
}

/// The pre-cache BMC reference: a fresh unroller and a fresh solver at
/// every bound.
fn scratch_bmc(aig: &itpseq::aig::Aig, options: &Options) -> (Verdict, u64) {
    let mut sat_calls = 0u64;
    // Depth-0 check.
    let mut unroller = Unroller::new(aig);
    unroller.assert_initial(0);
    let bad = unroller.bad_lit(0, 0);
    unroller.assert_lit(bad);
    let mut solver = Solver::new();
    solver.add_cnf(&unroller.into_cnf());
    sat_calls += 1;
    if solver.solve() == SolveResult::Sat {
        return (Verdict::Falsified { depth: 0 }, sat_calls);
    }
    for k in 1..=options.max_bound {
        let instance = itpseq::cnf::bmc::build(aig, 0, k, options.check);
        let mut solver = Solver::new();
        solver.add_cnf(&instance.cnf);
        sat_calls += 1;
        if solver.solve() == SolveResult::Sat {
            return (Verdict::Falsified { depth: k }, sat_calls);
        }
    }
    (
        Verdict::Inconclusive {
            reason: itpseq::mc::StopReason::BoundExhausted,
            bound_reached: options.max_bound,
        },
        sat_calls,
    )
}

/// The incremental BMC engine must agree with the per-bound scratch
/// rebuild — verdict, counterexample depth and SAT-call count — on the
/// whole engine-agreement suite, for every target formulation.
#[test]
fn incremental_bmc_matches_scratch_on_the_suite() {
    for benchmark in small_designs() {
        for check in [BmcCheck::Bound, BmcCheck::Exact, BmcCheck::ExactAssume] {
            let options = options(check);
            let incremental = Engine::Bmc.verify(&benchmark.aig, 0, &options);
            let (scratch_verdict, scratch_calls) = scratch_bmc(&benchmark.aig, &options);
            assert_eq!(
                incremental.verdict, scratch_verdict,
                "{} with {check:?}",
                benchmark.name
            );
            assert_eq!(
                incremental.stats.sat_calls, scratch_calls,
                "{} with {check:?}",
                benchmark.name
            );
        }
    }
}

/// The sequence engines run their bound loop on the unrolling cache; their
/// verdicts (including `k_fp`/`j_fp`, which depend on the exact refutation
/// proofs) must be unchanged, so they must still agree with BMC's
/// counterexample depths everywhere BMC falsifies.
#[test]
fn cached_sequence_engines_agree_with_bmc_depths() {
    for benchmark in small_designs() {
        let bmc = Engine::Bmc.verify(&benchmark.aig, 0, &options(BmcCheck::ExactAssume));
        if let Verdict::Falsified { depth } = bmc.verdict {
            for engine in [Engine::ItpSeq, Engine::SerialItpSeq, Engine::ItpSeqCba] {
                for check in [BmcCheck::Exact, BmcCheck::ExactAssume] {
                    let result = engine.verify(&benchmark.aig, 0, &options(check));
                    assert_eq!(
                        result.verdict,
                        Verdict::Falsified { depth },
                        "{} on {} with {check:?}",
                        engine.name(),
                        benchmark.name
                    );
                }
            }
        }
    }
}

/// Engine-level O(K) acceptance check: across a `max_bound = K` BMC run
/// on a safe design, the clauses handed to the solver grow linearly in K
/// (the scratch path grew quadratically).
#[test]
fn bmc_encoding_volume_is_linear_in_the_bound() {
    let benchmark = small_designs()
        .into_iter()
        .find(|b| b.expect_fail == Some(false))
        .expect("the suite has safe designs");
    let run = |bound: usize| {
        let result = Engine::Bmc.verify(
            &benchmark.aig,
            0,
            &options(BmcCheck::ExactAssume).with_max_bound(bound),
        );
        assert!(!result.verdict.is_conclusive());
        result.stats.clauses_encoded
    };
    let (half, full) = (run(15), run(30));
    assert!(
        full < 2 * half,
        "doubling the bound must at most double the encoding volume \
         ({half} clauses at K=15, {full} at K=30)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An unroller grown frame by frame to `k` and drained as it grows is
    /// equisatisfiable with one built at `k` in one go, with the
    /// initial states asserted and the bad literal as the target.
    #[test]
    fn grown_unroller_equisatisfiable_with_scratch(
        modulus in 2u64..8,
        // The design uses a 3-bit word: `word_equals_const` truncates the
        // compared constant, so bad_at must stay within the word.
        bad_at in 0u64..8,
        k in 1usize..7,
    ) {
        let design = itpseq::workloads::counter::modular(3, modulus, bad_at);

        let mut incremental = Unroller::new(&design);
        incremental.assert_initial(0);
        for f in 1..=k {
            incremental.add_frame();
            // Drain mid-growth, as the engine does; the formula below
            // must still cover everything.
            incremental.mark_drained();
            prop_assert_eq!(incremental.num_frames(), f + 1);
        }
        let bad = incremental.bad_lit(k, 0);
        incremental.assert_lit(bad);
        let cached = incremental.into_cnf();

        let mut scratch = Unroller::new(&design);
        scratch.assert_initial(0);
        for _ in 1..=k {
            scratch.add_frame();
        }
        let bad = scratch.bad_lit(k, 0);
        scratch.assert_lit(bad);
        let reference = scratch.into_cnf();

        let mut cached_solver = Solver::new();
        cached_solver.add_cnf(&cached);
        let mut reference_solver = Solver::new();
        reference_solver.add_cnf(&reference);
        let cached_sat = cached_solver.solve() == SolveResult::Sat;
        let reference_sat = reference_solver.solve() == SolveResult::Sat;
        prop_assert_eq!(cached_sat, reference_sat);
        // Both must also agree with the arithmetic truth: the counter is
        // deterministic, so its value at step k is exactly k mod modulus.
        let expected = k as u64 % modulus == bad_at;
        prop_assert_eq!(cached_sat, expected);
    }
}
