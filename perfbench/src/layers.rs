//! Sample bookkeeping and the per-layer metrics.
//!
//! Per-layer names follow `<layer>.<engine>.<quantity>`, with layers named
//! after the crates and modules: work counters and encoding time come from
//! the returned `EngineStats`; solve, interpolation, containment, PDR phase,
//! portfolio and scheduler times come from the traced runs through
//! `telemetry::report`.

use std::collections::BTreeMap;
use telemetry::report::TraceReport;
use telemetry::Event;

/// Samples per metric per cell (a design, or a design × engine pair).  A
/// metric's value is the sum over its cells of each cell's median, so a
/// sweep slowed by the host counts once per cell at most.
#[derive(Default)]
pub struct Samples(BTreeMap<String, BTreeMap<usize, Vec<f64>>>);

impl Samples {
    pub fn add(&mut self, metric: &str, cell: usize, value: f64) {
        self.0
            .entry(metric.to_string())
            .or_default()
            .entry(cell)
            .or_default()
            .push(value);
    }

    /// A metric measured once per run.
    pub fn set(&mut self, metric: &str, value: f64) {
        self.add(metric, 0, value);
    }

    /// The sum of the cells' medians (0 when the layer never ran).
    pub fn total(&self, metric: &str) -> f64 {
        self.0
            .get(metric)
            .map_or(0.0, |cells| cells.values().map(|s| median(s)).sum())
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The engines whose runs interpolate (and so have `bound` and
/// `interpolate` spans).
const INTERPOLATING: [&str; 4] = ["itp", "itpseq", "sitpseq", "itpseqcba"];
const ALL: [&str; 6] = ["itp", "itpseq", "sitpseq", "itpseqcba", "pdr", "portfolio"];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("aig.parse_s".into(), "s"),
        ("aig.preprocess_s".into(), "s"),
        ("aig.latches_removed".into(), "count"),
    ];
    for e in ALL {
        names.push((format!("sat.{e}.calls"), "count"));
        names.push((format!("sat.{e}.conflicts"), "count"));
        names.push((format!("sat.{e}.propagations"), "count"));
        names.push((format!("sat.{e}.solve_s"), "s"));
        names.push((format!("cnf.{e}.clauses_encoded"), "count"));
        names.push((format!("cnf.{e}.encode_s"), "s"));
    }
    for e in INTERPOLATING {
        names.push((format!("itp.{e}.interpolate_s"), "s"));
        names.push((format!("engines.{e}.bound_self_s"), "s"));
    }
    for (name, unit) in [
        ("pdr.blocking_s", "s"),
        ("pdr.propagate_s", "s"),
        ("portfolio.winner_s", "s"),
        ("portfolio.wasted_s", "s"),
        ("multi.scheduler_s", "s"),
        ("multi.group_busy_s", "s"),
        ("certify.invariant_s", "s"),
        ("certify.invariants", "count"),
        ("certify.trace_s", "s"),
        ("certify.traces", "count"),
        ("telemetry.overhead_s", "s"),
        ("process.peak_rss_mb", "MB"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// Records the layer quantities an untraced run's statistics carry.
pub fn record_stats(layer: &mut Samples, engine: &str, cell: usize, stats: &mc::EngineStats) {
    layer.add(&format!("sat.{engine}.calls"), cell, stats.sat_calls as f64);
    layer.add(
        &format!("sat.{engine}.conflicts"),
        cell,
        stats.conflicts as f64,
    );
    layer.add(
        &format!("sat.{engine}.propagations"),
        cell,
        stats.propagations as f64,
    );
    layer.add(
        &format!("cnf.{engine}.clauses_encoded"),
        cell,
        stats.clauses_encoded as f64,
    );
    layer.add(
        &format!("cnf.{engine}.encode_s"),
        cell,
        stats.encode_time.as_secs_f64(),
    );
}

/// Records the layer times of one traced engine run.
pub fn record_trace(layer: &mut Samples, engine: &str, cell: usize, events: &[Event]) {
    let report = TraceReport::from_events(events);
    // Spans of one name summed over every track (portfolio entrants and
    // scheduler groups each trace onto their own).
    let span = |name: &str, self_time: bool| -> f64 {
        report
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| if self_time { s.self_us } else { s.total_us })
            .sum::<u64>() as f64
            / 1e6
    };
    layer.add(&format!("sat.{engine}.solve_s"), cell, span("sat", false));
    if INTERPOLATING.contains(&engine) {
        layer.add(
            &format!("itp.{engine}.interpolate_s"),
            cell,
            span("interpolate", true),
        );
        layer.add(
            &format!("engines.{engine}.bound_self_s"),
            cell,
            span("bound", true),
        );
    }
    match engine {
        "pdr" => {
            layer.add("pdr.blocking_s", cell, span("blocking", false));
            layer.add("pdr.propagate_s", cell, span("propagate", false));
        }
        "portfolio" => {
            let (winner, wasted) = report
                .portfolio
                .as_ref()
                .map_or((0, 0), |p| (p.winner_us, p.wasted_us));
            layer.add("portfolio.winner_s", cell, winner as f64 / 1e6);
            layer.add("portfolio.wasted_s", cell, wasted as f64 / 1e6);
            layer.add("multi.scheduler_s", cell, span("scheduler.run", false));
            let busy: u64 = report.scheduler.iter().map(|g| g.busy_us).sum();
            layer.add("multi.group_busy_s", cell, busy as f64 / 1e6);
        }
        _ => {}
    }
}
