//! Chaos suite: deterministic fault injection across the engine stack.
//!
//! The contract under test: an injected fault — a panic, a spurious
//! interrupt or a simulated allocation failure, fired at a solver
//! conflict, a clause-arena allocation or an engine phase — may cost a
//! run its verdict, but it must never
//!
//! 1. crash the process (every engine run's boundary contains the unwind),
//! 2. flip a conclusive answer (a faulted run that still concludes
//!    agrees with the clean run, counterexample depths included), or
//! 3. surface as anything but an `Inconclusive` verdict with a
//!    machine-readable stop reason.
//!
//! The seeded sweep runs everywhere; the full-suite stress variant is
//! `#[ignore]`d and exercised by CI's chaos job
//! (`cargo test --release --test fault_isolation -- --include-ignored`).

use itpseq::mc::{Engine, EngineResult, Options, PropertyStatus, StopReason, Verdict};
use itpseq::sat::{FaultKind, FaultPlan, FaultSite};
use itpseq::telemetry::{Event, EventKind, Telemetry, TelemetrySink};
use itpseq::workloads::Benchmark;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ENGINES: [Engine; 4] = [Engine::ItpSeq, Engine::Pdr, Engine::Bmc, Engine::Portfolio];

fn options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(30))
        .with_max_bound(40)
}

fn small_suite() -> Vec<Benchmark> {
    itpseq::workloads::suite::mid_size()
        .into_iter()
        .take(2)
        .collect()
}

/// The chaos invariant, checked for one faulted run against its clean
/// reference; returns `true` when the fault cost the run its verdict.
fn assert_sound(context: &str, clean: &Verdict, chaos: &EngineResult) -> bool {
    match &chaos.verdict {
        Verdict::Proved { .. } => {
            assert!(
                !clean.is_falsified(),
                "{context}: fault flipped {clean} to {}",
                chaos.verdict
            );
            false
        }
        Verdict::Falsified { depth } => {
            assert!(
                !clean.is_proved(),
                "{context}: fault flipped {clean} to {}",
                chaos.verdict
            );
            if let Verdict::Falsified { depth: reference } = clean {
                assert_eq!(
                    depth, reference,
                    "{context}: counterexample depth must stay minimal"
                );
            }
            false
        }
        Verdict::Inconclusive { reason, .. } => {
            assert!(
                !reason.to_string().is_empty(),
                "{context}: a degraded run must carry a machine-readable reason"
            );
            true
        }
    }
}

/// Seeded sweep over benchmarks × engines: every run survives, no
/// conclusive answer flips, and the sweep lands at least one fault.
#[test]
fn seeded_faults_are_contained_and_sound() {
    let mut fired = 0u64;
    for benchmark in &small_suite() {
        for engine in ENGINES {
            let clean = engine.verify(&benchmark.aig, 0, &options()).verdict;
            for seed in 0..5u64 {
                let chaos = options().with_faults(FaultPlan::seeded(seed));
                let result = engine.verify(&benchmark.aig, 0, &chaos);
                let context = format!("{} / {} / seed {seed}", benchmark.name, engine.name());
                assert_sound(&context, &clean, &result);
                fired += result.stats.faults_injected;
            }
        }
    }
    assert!(fired > 0, "the sweep must land at least one fault");
}

/// Every (site, kind) combination is contained in every sequential
/// engine; an unwind that costs the verdict is counted and reported as a
/// `panic:` reason, and an injected interrupt that costs it is reported
/// as `fault:interrupt`.
#[test]
fn every_fault_site_and_kind_is_contained() {
    let base = options().with_threads(1);
    let engines = [
        Engine::Bmc,
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
    ];
    for engine in engines {
        // A workload with real search: a propagation-only run never ticks
        // the conflict site, so the sweep needs a benchmark whose clean
        // run reports conflicts.
        let (benchmark, clean) = itpseq::workloads::suite::mid_size()
            .into_iter()
            .find_map(|b| {
                let result = engine.verify(&b.aig, 0, &base);
                (result.stats.conflicts > 0).then_some((b, result.verdict))
            })
            .expect("a mid-size benchmark with conflicts");
        for site in [FaultSite::Conflict, FaultSite::Alloc, FaultSite::Phase] {
            for kind in [FaultKind::Panic, FaultKind::Interrupt, FaultKind::AllocFail] {
                let chaos = base.clone().with_faults(FaultPlan::inject(site, kind, 1));
                let result = engine.verify(&benchmark.aig, 0, &chaos);
                let context = format!("{} / {site:?}/{kind:?}", engine.name());
                let degraded = assert_sound(&context, &clean, &result);
                assert_eq!(
                    result.stats.faults_injected, 1,
                    "{context}: the armed fault fires exactly once"
                );
                if !degraded || result.verdict == clean {
                    // The fault cost nothing (an inconclusive clean run
                    // stays what it was).
                    continue;
                }
                match kind {
                    FaultKind::Panic | FaultKind::AllocFail => {
                        assert!(
                            result.stats.panics_contained >= 1,
                            "{context}: the contained unwind must be counted"
                        );
                        assert!(
                            matches!(
                                &result.verdict,
                                Verdict::Inconclusive {
                                    reason: StopReason::Panic(_),
                                    ..
                                }
                            ),
                            "{context}: expected a panic reason, got {}",
                            result.verdict
                        );
                    }
                    FaultKind::Interrupt => assert!(
                        matches!(
                            &result.verdict,
                            Verdict::Inconclusive { reason, .. } if reason == "fault:interrupt"
                        ),
                        "{context}: expected fault:interrupt, got {}",
                        result.verdict
                    ),
                }
            }
        }
    }
}

/// Remembers the span an injected panic fired in: the first span closed
/// while the thread unwinds is the innermost one open at the panic.
#[derive(Default)]
struct LandingSink {
    landed_in: Mutex<Option<String>>,
}

impl TelemetrySink for LandingSink {
    fn record(&self, event: Event) {
        if event.kind == EventKind::End && std::thread::panicking() {
            let mut landed = self.landed_in.lock().expect("never held across a panic");
            landed.get_or_insert(event.name);
        }
    }
}

/// A fault that fires inside a fixpoint containment query (the `contain`
/// span) is contained like any other: the run survives, never flips its
/// verdict and reports a machine-readable panic reason.  The allocation
/// countdown is stepped until the first fault that lands there.
#[test]
fn a_fault_in_the_fixpoint_layer_is_contained() {
    let aig = itpseq::workloads::counter::modular(3, 6, 7);
    let base = options().with_threads(1);
    let clean = Engine::ItpSeq.verify(&aig, 0, &base).verdict;
    assert!(clean.is_proved(), "{clean}");
    let mut at = 0;
    let result = loop {
        at += 1;
        let sink = Arc::new(LandingSink::default());
        let chaos = base
            .clone()
            .with_faults(FaultPlan::inject(FaultSite::Alloc, FaultKind::Panic, at))
            .with_telemetry(Telemetry::new(sink.clone()));
        let result = Engine::ItpSeq.verify(&aig, 0, &chaos);
        let context = format!("allocation {at}");
        assert_sound(&context, &clean, &result);
        assert_eq!(
            result.stats.faults_injected, 1,
            "{context}: the run ended before any fault landed in a containment query"
        );
        let landed = sink.landed_in.lock().expect("unpoisoned").take();
        if landed.as_deref() == Some("contain") {
            break result;
        }
    };
    assert!(result.stats.panics_contained >= 1, "allocation {at}");
    assert!(
        matches!(
            &result.verdict,
            Verdict::Inconclusive {
                reason: StopReason::Panic(_),
                ..
            }
        ),
        "allocation {at}: expected a panic reason, got {}",
        result.verdict
    );
}

/// Chaos runs are reproducible: the same seed yields the same verdict,
/// run after run (single-threaded, so the fault countdown is exact).
#[test]
fn chaos_runs_are_deterministic() {
    let benchmark = &small_suite()[0];
    for seed in [1u64, 7, 23] {
        let chaos = || {
            options()
                .with_threads(1)
                .with_faults(FaultPlan::seeded(seed))
        };
        let reference = Engine::ItpSeq.verify(&benchmark.aig, 0, &chaos()).verdict;
        for run in 0..2 {
            let again = Engine::ItpSeq.verify(&benchmark.aig, 0, &chaos()).verdict;
            assert_eq!(reference, again, "seed {seed} run {run}");
        }
    }
}

/// A panic inside a parallel-PDR pool worker is replayed sequentially:
/// whenever the pool contained the fault, the verdict is the one the
/// unfaulted single-threaded run produces.
#[test]
fn pdr_pool_fault_keeps_verdicts_thread_count_invariant() {
    let benchmark = &small_suite()[0];
    let clean = Engine::Pdr
        .verify(&benchmark.aig, 0, &options().with_threads(1))
        .verdict;
    let parallel = Engine::Pdr
        .verify(&benchmark.aig, 0, &options().with_threads(4))
        .verdict;
    assert_eq!(clean, parallel, "parallel PDR must match sequential PDR");
    for at in [1u64, 5, 20] {
        let chaos = options().with_threads(4).with_faults(FaultPlan::inject(
            FaultSite::Conflict,
            FaultKind::Panic,
            at,
        ));
        let result = Engine::Pdr.verify(&benchmark.aig, 0, &chaos);
        match &result.verdict {
            // The fault fired outside the pool: contained at the run's
            // boundary, reported as a panic.
            Verdict::Inconclusive {
                reason: StopReason::Panic(_),
                ..
            } => assert!(result.stats.panics_contained >= 1, "at={at}"),
            verdict => assert_eq!(verdict, &clean, "at={at}"),
        }
        if result.stats.pool_seq_reruns > 0 {
            assert_eq!(
                result.verdict, clean,
                "at={at}: a pool-contained fault must not cost the verdict"
            );
        }
    }
}

/// Faults in every `verify_all` backend — multi-BMC, multi-PDR, the
/// per-property loop of the interpolation engines and the scheduler's
/// races — degrade statuses, never flip them.  An injected panic is
/// contained by the one boundary of the run it fires in and counted
/// exactly once, under `verify_all` and `verify` alike.
#[test]
fn multi_property_chaos_never_flips_statuses() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let panic_at = |at| FaultPlan::inject(FaultSite::Alloc, FaultKind::Panic, at);
    // Each plan is rebuilt for every run: a plan fires once.  The explicit
    // panics must fire and be counted.
    let seeded = (0..4u64).map(|seed| (FaultPlan::seeded as fn(u64) -> FaultPlan, seed, false));
    let panics = [1u64, 5, 50].map(|at| (panic_at as fn(u64) -> FaultPlan, at, true));
    let plans: Vec<_> = seeded.chain(panics).collect();
    for engine in ENGINES {
        let clean = engine.verify_all(&aig, &options());
        let clean_single = engine.verify(&aig, 0, &options()).verdict;
        for &(plan, n, counted) in &plans {
            let context = format!("{} / {:?}", engine.name(), plan(n));
            let faulted = engine.verify_all(&aig, &options().with_faults(plan(n)));
            let statuses = clean.statuses.iter().zip(&faulted.statuses);
            for (i, (reference, status)) in statuses.enumerate() {
                if status.is_conclusive() {
                    assert_eq!(
                        reference.kind_and_depth(),
                        status.kind_and_depth(),
                        "{context}: property {i}"
                    );
                }
            }
            let single = engine.verify(&aig, 0, &options().with_faults(plan(n)));
            assert_sound(&context, &clean_single, &single);
            if counted {
                for (entry, stats) in [("verify_all", faulted.stats), ("verify", single.stats)] {
                    assert_eq!(stats.panics_contained, 1, "{context} / {entry}");
                    assert_eq!(stats.faults_injected, 1, "{context} / {entry}");
                }
            }
        }
    }
}

/// An industrial run under a starved memory budget terminates with the
/// `memlimit` reason — surfaced exactly like a timeout, plus the hit
/// counter in the stats.  On a multi-property design, under both entries,
/// `memlimit_hits` counts the engine or backend runs that stopped on
/// memory: once per run, and never again for the race around them.
#[test]
fn memory_limited_run_stops_with_memlimit_reason() {
    let benchmark = itpseq::workloads::suite::industrial()
        .into_iter()
        .next()
        .expect("industrial suite is not empty");
    let starved = options()
        .with_timeout(Duration::from_secs(60))
        .with_memory_limit(1 << 16);
    let result = Engine::ItpSeq.verify(&benchmark.aig, 0, &starved);
    match &result.verdict {
        Verdict::Inconclusive {
            reason: StopReason::MemLimit,
            ..
        } => {}
        other => panic!("expected a memlimit stop, got {other}"),
    }
    assert!(
        result.stats.memlimit_hits >= 1,
        "the hit must be observable in the stats"
    );

    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let memlimit = |status: &&PropertyStatus| match status {
        PropertyStatus::Inconclusive { reason, .. } => *reason == StopReason::MemLimit,
        _ => false,
    };
    for engine in ENGINES {
        let single = engine.verify(&aig, 0, &options().with_memory_limit(2000));
        let all = engine.verify_all(&aig, &options().with_memory_limit(2000));
        let single_statuses = vec![PropertyStatus::from_result(&single)];
        let entries = [
            ("verify", single_statuses, single.stats),
            ("verify_all", all.statuses, all.stats),
        ];
        for (entry, statuses, stats) in entries {
            let context = format!("{} / {entry}", engine.name());
            let stopped = statuses.iter().filter(memlimit).count() as u64;
            let hits = stats.memlimit_hits;
            match engine {
                // One hit per entrant that stopped on memory: at least one
                // when the adopted status reads memlimit, at most one per
                // entrant (3 racing on one property, 2 on a group).
                Engine::Portfolio => {
                    let entrants = if entry == "verify" { 3 } else { 2 };
                    assert!(
                        (stopped.min(1)..=entrants).contains(&hits),
                        "{context}: {hits} hits for {stopped} memlimit statuses"
                    );
                }
                // One run per property.
                Engine::ItpSeq => assert_eq!(hits, stopped, "{context}"),
                // One run for all properties (one COI group here).
                _ => assert_eq!(hits, stopped.min(1), "{context}"),
            }
        }
    }
}

/// An interrupt injected at the first clause allocation stops the run
/// even when that solver's formula is refuted while loading (the
/// depth-0 check of a design whose reset state is safe): a fault that
/// fired never vanishes behind an early `Unsat`.
#[test]
fn an_interrupt_injected_while_loading_stops_the_run() {
    let design = itpseq::workloads::counter::modular(3, 6, 7);
    let plan = FaultPlan::inject(FaultSite::Alloc, FaultKind::Interrupt, 1);
    let result = Engine::Itp.verify(&design, 0, &options().with_faults(plan));
    assert_eq!(result.stats.faults_injected, 1);
    match &result.verdict {
        Verdict::Inconclusive { reason, .. } => assert_eq!(reason, "fault:interrupt"),
        other => panic!("the injected interrupt vanished: {other}"),
    }
}

/// Full-suite chaos sweep — the CI chaos job's release-mode workload.
#[test]
#[ignore = "full chaos sweep; CI's chaos job runs this in release mode"]
fn full_suite_chaos_sweep() {
    let mut fired = 0u64;
    for benchmark in &itpseq::workloads::suite::full() {
        for engine in ENGINES {
            let clean = engine.verify(&benchmark.aig, 0, &options()).verdict;
            for seed in 0..4u64 {
                let chaos = options().with_faults(FaultPlan::seeded(seed));
                let result = engine.verify(&benchmark.aig, 0, &chaos);
                let context = format!("{} / {} / seed {seed}", benchmark.name, engine.name());
                assert_sound(&context, &clean, &result);
                fired += result.stats.faults_injected;
            }
        }
    }
    assert!(fired > 0, "the sweep must land at least one fault");
}
