//! Telemetry contract tests: tracing observes a run, it never changes it.
//!
//! * recorded streams are well formed — monotone sequence numbers, the
//!   span vocabulary the engines promise, balanced per-track nesting;
//! * a `threads = 1` run traces the *identical* event stream every time
//!   (timestamps excluded — they are wall-clock, everything else is
//!   deterministic);
//! * verdicts are bit-identical with tracing on and off, including across
//!   the portfolio race (the recording-sink analogue of
//!   `portfolio_determinism.rs`);
//! * the Chrome trace export of a portfolio run carries one named track
//!   per entrant.

use itpseq::mc::{Engine, Options, Telemetry};
use itpseq::telemetry::{check_span_nesting, Event, EventKind, MemorySink};
use std::sync::Arc;
use std::time::Duration;

fn options() -> Options {
    Options::default()
        .with_timeout(Duration::from_secs(20))
        .with_max_bound(40)
}

fn counter(bad_at: u64) -> itpseq::aig::Aig {
    itpseq::workloads::counter::modular(4, 10, bad_at)
}

/// Runs `engine` with a fresh recording sink and returns the events.
fn record(engine: Engine, aig: &itpseq::aig::Aig, options: &Options) -> Vec<Event> {
    let sink = Arc::new(MemorySink::new());
    let traced = options.clone().with_telemetry(Telemetry::new(sink.clone()));
    let _ = engine.verify(aig, 0, &traced);
    sink.snapshot()
}

/// The structural fingerprint of an event stream: everything except the
/// wall-clock timestamp.
fn shape(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!(
                "{}:{}:{}:{}:{}",
                e.seq,
                e.track,
                e.kind.phase(),
                e.name,
                args.join(",")
            )
        })
        .collect()
}

#[test]
fn engine_runs_emit_well_formed_streams() {
    for engine in [Engine::Bmc, Engine::ItpSeq, Engine::Pdr, Engine::Itp] {
        let events = record(engine, &counter(12), &options());
        assert!(!events.is_empty(), "{engine:?} must trace");
        // Sequence numbers are strictly increasing (single-track run).
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "{engine:?}: seq must increase");
        }
        // The stream opens with the preprocessing span (the staged
        // pipeline shrinks the design before the engine starts), and the
        // engine's run span follows once the reduced model is handed over.
        assert!(
            events[0].kind == EventKind::Begin && events[0].name == "preprocess",
            "{engine:?}: first event is the preprocess span, got {:?}",
            events[0].name
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Begin && e.name.ends_with(".run")),
            "{engine:?}: the engine run span must be emitted"
        );
        assert!(
            events.iter().any(|e| e.name == "verdict"),
            "{engine:?}: a verdict instant must be emitted"
        );
        assert!(
            events
                .iter()
                .any(|e| e.name == "bound" || e.name == "level"),
            "{engine:?}: per-bound spans must be emitted"
        );
        let spans = check_span_nesting(&events)
            .unwrap_or_else(|e| panic!("{engine:?}: broken nesting: {e}"));
        assert!(spans > 0, "{engine:?}: at least the run span completes");
    }
}

/// A counter wrapping at `modulus - 1` whose property reads only its top
/// bit: the initial CBA abstraction hides the lower bits, so ITPSEQCBA
/// must refine (the property fails iff the counter reaches 4).
fn top_bit_counter(modulus: u64) -> itpseq::aig::Aig {
    use itpseq::aig::builder::{
        latch_word, word_const, word_equals_const, word_increment, word_mux,
    };
    let mut aig = itpseq::aig::Aig::new();
    let (ids, bits) = latch_word(&mut aig, 3, 0);
    let wrap = word_equals_const(&mut aig, &bits, modulus - 1);
    let inc = word_increment(&mut aig, &bits, itpseq::aig::Lit::TRUE);
    let next = word_mux(&mut aig, wrap, &word_const(3, 0), &inc);
    for (id, n) in ids.iter().zip(next.iter()) {
        aig.set_next(*id, *n);
    }
    aig.add_bad(bits[2]);
    aig
}

/// Every SAT query an engine counts is traced: the `sat` spans plus the
/// containment queries' `contain` spans add up to `sat_calls`, on proved,
/// falsified, depth-0 and CBA-refining runs of every sequential engine.
#[test]
fn every_counted_sat_query_is_traced() {
    let designs = [
        ("proved", counter(12)),
        ("falsified", counter(7)),
        ("depth-0", counter(0)),
        ("refining, proved", top_bit_counter(4)),
        ("refining, falsified", top_bit_counter(5)),
    ];
    let engines = [
        Engine::Bmc,
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
    ];
    let mut refinements = 0;
    for (label, aig) in &designs {
        for engine in engines {
            let sink = Arc::new(MemorySink::new());
            let traced = options().with_telemetry(Telemetry::new(sink.clone()));
            let result = engine.verify(aig, 0, &traced);
            let decided = result.verdict.is_conclusive() || engine == Engine::Bmc;
            assert!(decided, "{engine} / {label}: {}", result.verdict);
            let queries = sink
                .snapshot()
                .iter()
                .filter(|e| e.kind == EventKind::Begin && (e.name == "sat" || e.name == "contain"))
                .count() as u64;
            assert_eq!(queries, result.stats.sat_calls, "{engine} / {label}");
            if engine == Engine::ItpSeqCba {
                refinements += result.stats.refinements;
            }
        }
    }
    assert!(refinements > 0, "the CBA designs must refine");
}

#[test]
fn sequential_traces_are_reproducible() {
    for engine in [Engine::Bmc, Engine::ItpSeq, Engine::Pdr] {
        let aig = counter(12);
        let reference = shape(&record(engine, &aig, &options()));
        for _ in 0..2 {
            let again = shape(&record(engine, &aig, &options()));
            assert_eq!(reference, again, "{engine:?}: threads=1 trace must repeat");
        }
    }
}

#[test]
fn tracing_never_changes_verdicts() {
    for engine in Engine::ALL {
        for bad_at in [7u64, 12] {
            let aig = counter(bad_at);
            let off = engine.verify(&aig, 0, &options());
            let sink = Arc::new(MemorySink::new());
            let traced = options().with_telemetry(Telemetry::new(sink.clone()));
            let on = engine.verify(&aig, 0, &traced);
            assert_eq!(
                off.verdict, on.verdict,
                "{engine:?} bad_at={bad_at}: tracing must not change the verdict"
            );
            assert!(!sink.snapshot().is_empty(), "{engine:?}: sink must record");
        }
    }
}

#[test]
fn multi_property_run_traces_scheduler_events() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let sink = Arc::new(MemorySink::new());
    let traced = options().with_telemetry(Telemetry::new(sink.clone()));
    let multi = Engine::Portfolio.verify_all(&aig, &traced);
    assert_eq!(multi.statuses.len(), 4);
    let events = sink.snapshot();
    for name in [
        "scheduler.run",
        "coi.groups",
        "group.dispatch",
        "prop.decide",
    ] {
        assert!(
            events.iter().any(|e| e.name == name),
            "scheduler run must emit {name}"
        );
    }
    // The racing backends trace onto per-group named tracks.
    assert!(
        events.iter().any(|e| e.track.contains(".PDR")),
        "multi-PDR gets its own track"
    );
    assert!(
        events.iter().any(|e| e.track.contains(".BMC")),
        "multi-BMC gets its own track"
    );
    check_span_nesting(&events).expect("balanced per-track nesting");
}

#[test]
fn portfolio_trace_has_per_entrant_tracks_and_race_markers() {
    let aig = counter(12);
    let sink = Arc::new(MemorySink::new());
    let traced = options().with_telemetry(Telemetry::new(sink.clone()));
    let result = Engine::Portfolio.verify(&aig, 0, &traced);
    assert!(result.verdict.is_proved(), "{}", result.verdict);
    let events = sink.snapshot();
    for entrant in ["PDR", "ITPSEQCBA", "BMC"] {
        assert!(
            events.iter().any(|e| &*e.track == entrant),
            "entrant {entrant} must trace on its own track"
        );
    }
    for marker in ["entrant.start", "entrant.done", "entrant.win"] {
        assert!(
            events.iter().any(|e| e.name == marker),
            "race marker {marker} must be emitted"
        );
    }
    check_span_nesting(&events).expect("balanced per-track nesting");

    // The Chrome export names one tid per track (entrants + main).
    let mut chrome = Vec::new();
    itpseq::telemetry::write_chrome_trace(&events, &mut chrome).expect("vec write");
    let chrome = String::from_utf8(chrome).expect("utf8");
    for entrant in ["PDR", "ITPSEQCBA", "BMC"] {
        assert!(
            chrome.contains(&format!(r#""name":"{entrant}""#)),
            "chrome trace must name the {entrant} track"
        );
    }
    assert!(chrome.contains(r#""ph":"B""#) && chrome.contains(r#""ph":"E""#));
}

/// The recording-sink analogue of `portfolio_determinism.rs`: racing with
/// a sink attached must still reproduce the sequential reference verdict.
#[test]
fn recorded_portfolio_matches_the_sequential_reference() {
    for bad_at in [5u64, 12] {
        let aig = counter(bad_at);
        let reference = if bad_at < 10 {
            Engine::Bmc.verify(&aig, 0, &options()).verdict
        } else {
            Engine::Pdr.verify(&aig, 0, &options()).verdict
        };
        for _ in 0..3 {
            let sink = Arc::new(MemorySink::new());
            let traced = options().with_telemetry(Telemetry::new(sink.clone()));
            let raced = Engine::Portfolio.verify(&aig, 0, &traced).verdict;
            assert_eq!(
                reference.is_proved(),
                raced.is_proved(),
                "bad_at={bad_at}: {reference} vs {raced}"
            );
            if let itpseq::mc::Verdict::Falsified { depth } = reference {
                assert_eq!(raced, itpseq::mc::Verdict::Falsified { depth });
            }
        }
    }
}
