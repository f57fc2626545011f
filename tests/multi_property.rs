//! The multi-property determinism contract: `verify_all` is *pure speed*.
//!
//! For every suite model (including the multi-bad variants and a
//! concatenation of disjoint designs, whose property groups each run on
//! their own narrowed model) and for every engine, the per-property
//! statuses of `verify_all` must agree with the per-property
//! `Engine::verify` loop — same verdict kind, bit-identical
//! counterexample depths — while multi-BMC's total encoding volume stays
//! `O(K + P)` where the loop pays `O(K·P)`.
//!
//! The small-design loops run everywhere; the full-suite and 10× stress
//! variants are `#[ignore]`d by default and exercised by CI's
//! thread-sanity job in release mode.

use itpseq::mc::{Engine, Options, PropertyStatus, Verdict};
use proptest::prelude::*;
use std::time::Duration;

fn options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(20))
        .with_max_bound(40)
}

/// The engines with genuinely amortized `verify_all` backends.
const MULTI_ENGINES: [Engine; 3] = [Engine::Bmc, Engine::Pdr, Engine::Portfolio];

/// Returns `true` when a verdict's inconclusiveness is a wall-clock
/// artifact (timeout/cancellation) rather than a deterministic outcome
/// (bound exhausted) — those comparisons are skipped so a loaded CI
/// runner cannot turn this into a machine-speed test.
fn budget_artifact(verdict: &Verdict) -> bool {
    matches!(
        verdict,
        Verdict::Inconclusive { reason, .. } if reason == "timeout" || reason == "cancelled"
    )
}

fn status_is_budget_artifact(status: &PropertyStatus) -> bool {
    budget_artifact(&status.verdict())
}

/// Asserts the agreement contract between one `verify_all` run and the
/// per-property loop, for every property of `aig`.
fn assert_agreement(aig: &aig::Aig, name: &str, engine: Engine, options: &Options) {
    let multi = engine.verify_all(aig, options);
    assert_eq!(multi.statuses.len(), aig.num_bad(), "{name}");
    for prop in 0..aig.num_bad() {
        let single = engine.verify(aig, prop, options).verdict;
        if budget_artifact(&single) || status_is_budget_artifact(&multi.statuses[prop]) {
            eprintln!(
                "skipping {name} property {prop} on {}: budget artifact",
                engine.name()
            );
            continue;
        }
        assert!(
            multi.statuses[prop].agrees_with(&single),
            "{} on {name} property {prop}: verify_all said {}, the loop said {}",
            engine.name(),
            multi.statuses[prop],
            single
        );
    }
}

#[test]
fn verify_all_matches_the_per_property_loop_on_the_multi_suite() {
    for benchmark in itpseq::workloads::suite::multi_property() {
        for engine in Engine::ALL {
            assert_agreement(&benchmark.aig, &benchmark.name, engine, &options());
        }
    }
}

#[test]
fn verify_all_matches_the_loop_on_a_concatenation_of_disjoint_designs() {
    // Every part is its own COI group, so each backend decides it on the
    // part's narrowed model; the answers must be the parts' own.
    let benchmark = itpseq::workloads::suite::concatenated();
    for engine in Engine::ALL {
        assert_agreement(&benchmark.aig, &benchmark.name, engine, &options());
        let multi = engine.verify_all(&benchmark.aig, &options());
        for (prop, expect) in benchmark.expect_fail.iter().enumerate() {
            let status = &multi.statuses[prop];
            if engine == Engine::Bmc && !status.is_falsified() {
                continue; // BMC cannot prove
            }
            assert_eq!(
                status.is_falsified(),
                expect.expect("every part's answer is known"),
                "{} property {prop}: {status}",
                engine.name()
            );
        }
    }
}

#[test]
fn sliced_backends_see_only_their_largest_coi_group() {
    // On disjoint parts, the per-property loop and multi-PDR must run on
    // each group's narrowed model: the largest model any of them encodes
    // is the largest COI group, never the union of all cones.
    let benchmark = itpseq::workloads::suite::concatenated();
    let aig = &benchmark.aig;
    let cois = itpseq::aig::coi::bad_cois(aig);
    let group_latches = |group: &Vec<usize>| {
        let mut latches = std::collections::HashSet::new();
        for &prop in group {
            latches.extend(cois[prop].latches.iter().copied());
        }
        latches.len()
    };
    let groups = itpseq::aig::coi::group_bads_by_coi(aig);
    let largest = groups.iter().map(group_latches).max().expect("groups");
    let union = itpseq::aig::coi::property_coi(aig).latches.len();
    assert!(largest < union, "the parts must be disjoint");
    for engine in [
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
    ] {
        let multi = engine.verify_all(aig, &options());
        assert!(
            multi.stats.visible_latches <= largest,
            "{}: {} visible latches, largest group {largest}, union {union}",
            engine.name(),
            multi.stats.visible_latches
        );
    }
}

#[test]
fn verify_all_matches_the_loop_on_single_property_designs() {
    // The degenerate case: on a one-property design, verify_all is the
    // engine run (modulo bookkeeping).
    let suite: Vec<itpseq::workloads::Benchmark> = itpseq::workloads::suite::mid_size()
        .into_iter()
        .filter(|b| b.aig.num_latches() <= 8)
        .collect();
    assert!(suite.len() >= 10, "suite unexpectedly small");
    for benchmark in &suite {
        for engine in MULTI_ENGINES {
            assert_agreement(&benchmark.aig, &benchmark.name, engine, &options());
        }
    }
}

#[test]
#[ignore = "full-suite stress run; exercised in release mode by CI's thread-sanity job"]
fn verify_all_matches_the_per_property_loop_on_the_full_suite() {
    for benchmark in itpseq::workloads::suite::full() {
        for engine in MULTI_ENGINES {
            assert_agreement(&benchmark.aig, &benchmark.name, engine, &options());
        }
    }
    for benchmark in itpseq::workloads::suite::multi_property() {
        for engine in MULTI_ENGINES {
            assert_agreement(&benchmark.aig, &benchmark.name, engine, &options());
        }
    }
}

/// The multi-property determinism pass: repeated `verify_all` runs across
/// thread counts must reproduce identical status kinds and depths.
fn assert_determinism(runs: usize) {
    for benchmark in itpseq::workloads::suite::multi_property() {
        let reference: Vec<_> = Engine::Portfolio
            .verify_all(&benchmark.aig, &options())
            .statuses
            .iter()
            .map(PropertyStatus::kind_and_depth)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(kind, depth)| (kind.to_string(), depth))
            .collect();
        assert!(
            !reference.iter().any(|(kind, _)| kind == "inconclusive"),
            "{}: the multi suite must be decidable within budget: {reference:?}",
            benchmark.name
        );
        for threads in [1usize, 2, 0] {
            for run in 0..runs {
                let again: Vec<_> = Engine::Portfolio
                    .verify_all(&benchmark.aig, &options().with_threads(threads))
                    .statuses
                    .iter()
                    .map(PropertyStatus::kind_and_depth)
                    .map(|(kind, depth)| (kind.to_string(), depth))
                    .collect();
                assert_eq!(
                    reference, again,
                    "{} run {run} with {threads} threads",
                    benchmark.name
                );
            }
        }
    }
}

#[test]
fn verify_all_statuses_are_thread_count_invariant() {
    assert_determinism(1);
}

#[test]
#[ignore = "10x stress repetition; exercised in release mode by CI's thread-sanity job"]
fn verify_all_statuses_are_thread_count_invariant_10x() {
    assert_determinism(10);
}

#[test]
fn multi_bmc_encoding_is_linear_not_quadratic() {
    // The acceptance criterion: on a K-bound, P-property run, multi-BMC's
    // total clauses_encoded is O(K + P); the per-property loop pays
    // O(K·P).  Stuck-at-zero latches with bare latch literals as the bad
    // cones make the frame encoding the only volume, so the ratio is
    // clean: the loop re-encodes all K frames once per property.
    let props = 6usize;
    let mut aig = aig::Aig::new();
    for _ in 0..props {
        let latch = aig.add_latch(false);
        aig.set_next(latch, aig::Lit::FALSE);
        let lit = aig.latch_lit(latch);
        aig.add_bad(lit);
    }
    // exact-k: the per-bound targets are pure assumptions, so the
    // measured volume is exactly the frame encodings (assume-k would add
    // an O(K·P) trickle of unit clauses and blur the ratio).
    let run_options = |bound: usize| {
        options()
            .with_max_bound(bound)
            .with_check(itpseq::cnf::BmcCheck::Exact)
    };

    let multi = Engine::Bmc.verify_all(&aig, &run_options(12));
    assert!(
        multi
            .statuses
            .iter()
            .all(|s| !s.is_conclusive() && !status_is_budget_artifact(s)),
        "all properties are safe: {:?}",
        multi.statuses
    );
    let mut loop_total = 0u64;
    for prop in 0..props {
        loop_total += Engine::Bmc
            .verify(&aig, prop, &run_options(12))
            .stats
            .clauses_encoded;
    }
    let amortized = multi.stats.clauses_encoded;
    // Strictly below the loop, and by roughly the property count — the
    // frame encodings are paid once instead of P times.
    assert!(
        amortized < loop_total,
        "amortized {amortized} must beat the loop {loop_total}"
    );
    assert!(
        amortized * (props as u64 - 1) < loop_total,
        "amortized {amortized} must be ~P times below the loop {loop_total}"
    );
    // And linear in the bound: doubling K must not quadruple the volume.
    let double = Engine::Bmc
        .verify_all(&aig, &run_options(24))
        .stats
        .clauses_encoded;
    assert!(
        double < 3 * amortized,
        "doubling the bound must keep encoding linear: {amortized} -> {double}"
    );
}

#[test]
fn multi_bmc_counterexamples_replay_through_simulation() {
    for benchmark in itpseq::workloads::suite::multi_property() {
        let multi = Engine::Bmc.verify_all(&benchmark.aig, &options());
        for (prop, status) in multi.statuses.iter().enumerate() {
            let PropertyStatus::Falsified { depth, cex } = status else {
                continue;
            };
            let cex = cex.as_ref().unwrap_or_else(|| {
                panic!(
                    "{} property {prop}: multi-BMC attaches traces",
                    benchmark.name
                )
            });
            assert_eq!(cex.len(), depth + 1, "{} property {prop}", benchmark.name);
            let trace = aig::simulate(&benchmark.aig, cex);
            assert!(
                trace.bad[*depth][prop],
                "{} property {prop}: the trace must exhibit the bad state at depth {depth}",
                benchmark.name
            );
        }
    }
}

#[test]
fn suite_expectations_hold_through_verify_all() {
    for benchmark in itpseq::workloads::suite::multi_property() {
        let multi = Engine::Portfolio.verify_all(&benchmark.aig, &options());
        for (prop, expect) in benchmark.expect_fail.iter().enumerate() {
            if let Some(expect_fail) = expect {
                assert_eq!(
                    multi.statuses[prop].is_falsified(),
                    *expect_fail,
                    "{} property {prop}: {}",
                    benchmark.name,
                    multi.statuses[prop]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized multi-property counters: verify_all agrees with the
    /// per-property loop for every amortized backend.
    #[test]
    fn verify_all_agrees_on_random_multi_counters(
        width in 2usize..5,
        modulus_sel in 0u64..1024,
        threshold_seed in 0u64..u64::MAX,
        num_props in 2usize..5,
        engine_sel in 0usize..3,
    ) {
        let modulus = 2 + modulus_sel % ((1 << width) - 1);
        let thresholds: Vec<u64> = (0..num_props)
            // Spread thresholds over [0, 2^width + 2): some reachable,
            // some provably unreachable.
            .map(|i| threshold_seed.rotate_left(13 * i as u32) % ((1 << width) + 2))
            .collect();
        let aig = itpseq::workloads::counter::modular_multi(width, modulus, &thresholds);
        let engine = MULTI_ENGINES[engine_sel];
        let options = options().with_max_bound((1 << width) + 4);
        let multi = engine.verify_all(&aig, &options);
        for prop in 0..aig.num_bad() {
            let single = engine.verify(&aig, prop, &options).verdict;
            prop_assert!(
                multi.statuses[prop].agrees_with(&single),
                "{} on {} property {prop}: {} vs {}",
                engine.name(),
                aig.name(),
                multi.statuses[prop],
                single
            );
        }
    }
}
