//! Trace-report contract tests: the span-tree analytics over recorded
//! engine runs.
//!
//! * the structural aggregates of a `threads = 1` run are identical
//!   across repeats;
//! * per-track self times sum to the track's busy time and never exceed
//!   its wall time, and the folded flamegraph export balances to the
//!   same totals;
//! * portfolio wasted work equals the run-span totals of the losing
//!   entrants;
//! * `progress` heartbeat instants carry the engine's current bound;
//! * the JSONL round trip preserves the report exactly.

use itpseq::mc::{Engine, Options, Telemetry};
use itpseq::telemetry::folded::write_folded;
use itpseq::telemetry::report::TraceReport;
use itpseq::telemetry::{ArgValue, Event, EventKind, MemorySink};
use std::collections::BTreeMap;
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

/// The time-free projection of a report (wall-clock fields are machine
/// noise, all else repeats).
fn structure(report: &TraceReport) -> Vec<String> {
    let mut out: Vec<String> = report
        .spans
        .iter()
        .map(|s| format!("span:{}:{}:{}", s.track, s.name, s.count))
        .collect();
    out.extend(report.counters.iter().map(|c| {
        format!(
            "counter:{}:{}.{}:{}:{}",
            c.track, c.name, c.key, c.samples, c.total
        )
    }));
    out.extend(
        report
            .tracks
            .iter()
            .map(|t| format!("track:{}:{}:{}:{}", t.track, t.events, t.spans, t.unclosed)),
    );
    out
}

#[test]
fn report_structure_is_deterministic_across_repeats() {
    for engine in [Engine::Bmc, Engine::ItpSeq, Engine::Pdr] {
        let aig = counter(12);
        // A tiny probe interval forces counter samples and heartbeats even
        // on this small design; at threads = 1 they fire at the exact same
        // conflict counts every run.
        let options = options().with_probe_interval(16);
        let reference = structure(&TraceReport::from_events(&record(engine, &aig, &options)));
        assert!(!reference.is_empty(), "{engine:?}: aggregates must exist");
        for _ in 0..2 {
            let again = structure(&TraceReport::from_events(&record(engine, &aig, &options)));
            assert_eq!(reference, again, "{engine:?}: aggregates must repeat");
        }
    }
}

#[test]
fn self_times_balance_against_track_walls_and_folded_export() {
    let events = record(Engine::ItpSeq, &counter(12), &options());
    let report = TraceReport::from_events(&events);
    assert!(report.total_events > 0);

    // Per track: Σ self == busy (telescoping) and busy <= wall.
    for track in &report.tracks {
        assert_eq!(track.unclosed, 0, "{}: clean trace", track.track);
        let self_sum: u64 = report
            .spans
            .iter()
            .filter(|s| s.track == track.track)
            .map(|s| s.self_us)
            .sum();
        assert_eq!(
            self_sum, track.busy_us,
            "{}: self times telescope",
            track.track
        );
        assert!(
            track.busy_us <= track.wall_us,
            "{}: busy {} exceeds wall {}",
            track.track,
            track.busy_us,
            track.wall_us
        );
    }

    // The folded export balances to the identical per-track totals.
    let mut folded = Vec::new();
    write_folded(&events, &mut folded).expect("vec write");
    let folded = String::from_utf8(folded).expect("utf8");
    assert!(!folded.trim().is_empty(), "folded output must not be empty");
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        let track = stack.split(';').next().expect("track frame");
        *weights.entry(track.to_string()).or_default() +=
            weight.parse::<u64>().expect("numeric weight");
    }
    for track in &report.tracks {
        assert_eq!(
            weights.get(&track.track).copied().unwrap_or(0),
            track.busy_us,
            "{}: folded weights must sum to the track's busy time",
            track.track
        );
    }
}

#[test]
fn portfolio_wasted_work_sums_losing_entrant_runs() {
    let events = record(Engine::Portfolio, &counter(12), &options());
    let report = TraceReport::from_events(&events);
    let portfolio = report.portfolio.as_ref().expect("a race was recorded");
    assert_eq!(portfolio.races, 1);
    assert_eq!(portfolio.decided, 1);

    let run_total = |entrant: &str| {
        report
            .spans
            .iter()
            .find(|s| s.track == entrant && s.name == format!("{entrant}.run"))
            .map_or(0, |s| s.total_us)
    };
    let winners: Vec<&str> = portfolio
        .entrants
        .iter()
        .filter(|e| e.wins > 0)
        .map(|e| e.entrant.as_str())
        .collect();
    assert_eq!(winners.len(), 1, "exactly one entrant wins");
    let losing_total: u64 = portfolio
        .entrants
        .iter()
        .filter(|e| e.wins == 0)
        .map(|e| run_total(&e.entrant))
        .sum();
    assert_eq!(
        portfolio.wasted_us, losing_total,
        "wasted work is exactly the losing entrants' run spans"
    );
    assert_eq!(portfolio.winner_us, run_total(winners[0]));
    for entrant in &portfolio.entrants {
        assert_eq!(entrant.runs, 1, "{}: one run in one race", entrant.entrant);
        assert_eq!(entrant.busy_us, run_total(&entrant.entrant));
    }
}

#[test]
fn heartbeats_carry_the_current_bound() {
    // The plain counter unrolls into pure unit propagation, so the
    // conflict-driven probe needs a design with actual search: the
    // industrial pipeline has free inputs and payload logic.
    let aig =
        itpseq::workloads::industrial::pipeline(itpseq::workloads::industrial::IndustrialParams {
            payload_latches: 48,
            ..Default::default()
        });
    let options = options().with_probe_interval(1);
    let events = record(Engine::Bmc, &aig, &options);
    let heartbeats: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "progress")
        .collect();
    assert!(!heartbeats.is_empty(), "heartbeats must fire");
    let bound_of = |event: &Event| {
        event.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == "bound" => Some(*n),
            _ => None,
        })
    };
    assert!(
        heartbeats
            .iter()
            .all(|e| bound_of(e).is_some_and(|b| b >= 1)),
        "every heartbeat names the bound the solver is working on"
    );
    // Counter samples ride along with every heartbeat.
    let report = TraceReport::from_events(&events);
    let conflicts = report
        .counters
        .iter()
        .find(|c| c.name == "solver" && c.key == "conflicts")
        .expect("solver conflict samples");
    assert_eq!(conflicts.samples, heartbeats.len() as u64);
    assert!(conflicts.total > 0);
}

#[test]
fn a_recorded_run_round_trips_through_jsonl() {
    let events = record(Engine::Portfolio, &counter(12), &options());
    let report = TraceReport::from_events(&events);

    // The full JSONL round trip preserves the report exactly.
    let mut jsonl = Vec::new();
    itpseq::telemetry::write_jsonl(&events, &mut jsonl).expect("vec write");
    let parsed = TraceReport::from_jsonl(&String::from_utf8(jsonl).expect("utf8"))
        .expect("recorded stream parses");
    assert_eq!(parsed, report);
    let json = parsed.to_json();
    assert!(json.contains(r#""schema": "itpseq-report/v1""#), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn scheduler_runs_report_group_utilization() {
    let aig = itpseq::workloads::counter::modular_multi(4, 10, &[3, 11, 7, 15]);
    let sink = Arc::new(MemorySink::new());
    let traced = options().with_telemetry(Telemetry::new(sink.clone()));
    let multi = Engine::Portfolio.verify_all(&aig, &traced);
    assert_eq!(multi.statuses.len(), 4);
    let report = TraceReport::from_events(&sink.snapshot());
    assert!(
        !report.scheduler.is_empty(),
        "scheduler runs report group tracks"
    );
    for group in &report.scheduler {
        assert!(group.track.starts_with("group"), "{}", group.track);
        assert!(group.scheduler_us > 0);
        assert!(
            group.utilization >= 0.0,
            "{}: utilization is a ratio",
            group.track
        );
    }
}
