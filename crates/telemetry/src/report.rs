//! Span-tree analytics over a recorded trace (`itpseq-report/v1`).
//!
//! PR 6 gave every engine an `itpseq-trace/v1` event stream; this module
//! *answers questions* with it.  [`TraceReport`] reconstructs the span
//! tree from a recorded stream (the same per-track pairing discipline as
//! [`check_span_nesting`](crate::check_span_nesting)) and computes:
//!
//! * **per-track, per-span-name aggregates** — count, total and *self*
//!   wall time (total minus child spans), min/max and nearest-rank
//!   p50/p90/p99 of the individual durations, so "where did BMC's time
//!   go, encoding or solving?" is one table lookup;
//! * **counter rollups** — the periodic `solver` progress samples become
//!   per-key totals and rates (conflicts/decisions/propagations per
//!   second over the track's observation window);
//! * **portfolio wasted-work attribution** — for every `portfolio.race`
//!   span, the run time of the losing entrants versus the winner named by
//!   the `entrant.win` marker;
//! * **scheduler group utilization** — busy time of each
//!   `group{id}.{backend}` track relative to the enclosing
//!   `scheduler.run` span.
//!
//! The report renders three ways: a text table ([`TraceReport::to_text`]),
//! machine-readable JSON with schema [`REPORT_SCHEMA`]
//! ([`TraceReport::to_json`]), and — through the sibling
//! [`folded`](crate::folded) module — an inferno-compatible collapsed
//! stack file for flamegraphs.  Wall times are *reported*, never gated:
//! the deterministic work counters of `table1` are what CI gates.

use crate::json::Json;
use crate::{ArgValue, Event, EventKind, TRACE_SCHEMA};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier of the report JSON document.
pub const REPORT_SCHEMA: &str = "itpseq-report/v1";

// ---------------------------------------------------------------------------
// Recorded events: the owned form shared by the in-memory and JSONL paths.
// ---------------------------------------------------------------------------

/// An owned trace event, either converted from a live [`Event`] or parsed
/// back from an `itpseq-trace/v1` JSONL line (where argument keys are no
/// longer `&'static str`).
#[derive(Clone, Debug)]
pub(crate) struct RecEvent {
    pub ts_us: u64,
    pub track: String,
    pub name: String,
    pub kind: EventKind,
    pub args: Vec<(String, ArgValue)>,
}

impl RecEvent {
    fn arg_str(&self, key: &str) -> Option<&str> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

impl From<&Event> for RecEvent {
    fn from(event: &Event) -> RecEvent {
        RecEvent {
            ts_us: event.ts_us,
            track: event.track.to_string(),
            name: event.name.clone(),
            kind: event.kind,
            args: event
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Parses an `itpseq-trace/v1` JSONL stream (header line plus one event
/// per line) back into recorded events.
pub(crate) fn parse_trace_jsonl(text: &str) -> Result<Vec<RecEvent>, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let header = Json::parse(header)?;
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("first line carries no schema field")?;
    if schema != TRACE_SCHEMA {
        return Err(format!("unsupported trace schema {schema:?}"));
    }
    let mut events = Vec::new();
    for (index, line) in lines {
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("line {}: missing field {key:?}", index + 1))
        };
        let kind = match field("ph")?.as_str() {
            Some("B") => EventKind::Begin,
            Some("E") => EventKind::End,
            Some("i") => EventKind::Instant,
            Some("C") => EventKind::Counter,
            other => return Err(format!("line {}: bad phase {other:?}", index + 1)),
        };
        let args = match value.get("args") {
            Some(Json::Object(fields)) => fields
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Number(n) if *n >= 0.0 => Some((k.clone(), ArgValue::U64(*n as u64))),
                    Json::String(s) => Some((k.clone(), ArgValue::Str(s.clone()))),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        events.push(RecEvent {
            ts_us: field("ts_us")?
                .as_u64()
                .ok_or_else(|| format!("line {}: bad ts_us", index + 1))?,
            track: field("track")?
                .as_str()
                .ok_or_else(|| format!("line {}: bad track", index + 1))?
                .to_string(),
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("line {}: bad name", index + 1))?
                .to_string(),
            kind,
            args,
        });
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// The report proper.
// ---------------------------------------------------------------------------

/// Aggregate of every completed span named `name` on `track`, merged over
/// all nesting depths.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanAgg {
    /// Track the spans ran on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Summed wall time, children included.
    pub total_us: u64,
    /// Summed *self* time: total minus the time spent in child spans —
    /// the flamegraph weight, and the quantity whose per-track sum can
    /// never exceed the track's observed wall time.
    pub self_us: u64,
    /// Shortest single span.
    pub min_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Nearest-rank median duration.
    pub p50_us: u64,
    /// Nearest-rank 90th-percentile duration.
    pub p90_us: u64,
    /// Nearest-rank 99th-percentile duration (the SAT-call tail).
    pub p99_us: u64,
}

/// Rollup of one counter key (e.g. `solver` / `conflicts`) on one track.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterAgg {
    /// Track the samples were recorded on.
    pub track: String,
    /// Counter event name.
    pub name: String,
    /// Sample key within the counter payload.
    pub key: String,
    /// Number of samples.
    pub samples: u64,
    /// Largest single sample (cumulative per solver, so this is the
    /// biggest single-solver count seen).
    pub peak: u64,
    /// Progress total: positive deltas summed across samples, which
    /// re-bases whenever a fresh solver's cumulative count restarts from
    /// a smaller value.
    pub total: u64,
    /// `total` per second of the track's observation window.
    pub rate_per_sec: f64,
}

/// Wall-clock summary of one track.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackSummary {
    /// Track name.
    pub track: String,
    /// Observation window: last event timestamp minus first.
    pub wall_us: u64,
    /// Summed duration of the track's *root* spans (equals the sum of
    /// the track's self times, and is `<= wall_us` by construction).
    pub busy_us: u64,
    /// Events recorded on the track.
    pub events: u64,
    /// Completed spans.
    pub spans: u64,
    /// Spans left open at the end of the stream (0 in a clean trace).
    pub unclosed: u64,
}

/// One portfolio entrant's work across every race in the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct EntrantAgg {
    /// Entrant track (the engine name).
    pub entrant: String,
    /// Completed entrant runs.
    pub runs: u64,
    /// Total run time across races.
    pub busy_us: u64,
    /// Races this entrant won.
    pub wins: u64,
    /// Run time spent in races some *other* entrant won.
    pub wasted_us: u64,
}

/// Wasted-work attribution over every `portfolio.race` span.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioReport {
    /// Races observed.
    pub races: u64,
    /// Races that produced an `entrant.win` marker.
    pub decided: u64,
    /// Total run time of winning entrants, in the races they won.
    pub winner_us: u64,
    /// Total run time of losing entrants in decided races — the price of
    /// racing, the number solver-state sharing would shrink.
    pub wasted_us: u64,
    /// Per-entrant breakdown.
    pub entrants: Vec<EntrantAgg>,
}

/// Busy time of one scheduler backend track relative to the scheduler
/// run that dispatched it.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupUtilization {
    /// Backend track (`group{id}.PDR` / `group{id}.BMC`).
    pub track: String,
    /// Root-span busy time of the track.
    pub busy_us: u64,
    /// Total duration of the `scheduler.run` spans.
    pub scheduler_us: u64,
    /// `busy_us / scheduler_us` (0 when the scheduler span is empty).
    pub utilization: f64,
}

/// The full analysis of one recorded trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Events analysed.
    pub total_events: u64,
    /// Per-track wall/busy summaries, sorted by track name.
    pub tracks: Vec<TrackSummary>,
    /// Per-track per-name span aggregates, sorted by (track, name).
    pub spans: Vec<SpanAgg>,
    /// Counter rollups, sorted by (track, name, key).
    pub counters: Vec<CounterAgg>,
    /// Portfolio race attribution, when the trace contains races.
    pub portfolio: Option<PortfolioReport>,
    /// Scheduler group utilization, when the trace contains a scheduler
    /// run.
    pub scheduler: Vec<GroupUtilization>,
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Default)]
struct TrackState {
    stack: Vec<OpenSpan>,
    first_ts: Option<u64>,
    last_ts: u64,
    busy_us: u64,
    events: u64,
    spans: u64,
}

struct OpenSpan {
    name: String,
    begin_ts: u64,
    child_us: u64,
}

struct RaceState {
    track: String,
    winner: Option<String>,
    entrant_runs: Vec<(String, u64)>,
}

impl TraceReport {
    /// Builds the report from an in-memory event stream (the path the
    /// bench binaries' `--report` flag uses).
    pub fn from_events(events: &[Event]) -> TraceReport {
        let rec: Vec<RecEvent> = events.iter().map(RecEvent::from).collect();
        TraceReport::from_rec(&rec)
    }

    /// Builds the report from a recorded `itpseq-trace/v1` JSONL document
    /// (the path the `trace-report` binary uses).
    pub fn from_jsonl(text: &str) -> Result<TraceReport, String> {
        Ok(TraceReport::from_rec(&parse_trace_jsonl(text)?))
    }

    fn from_rec(events: &[RecEvent]) -> TraceReport {
        // Keyed (track, counter name, key); the value accumulates
        // (samples, peak, total, last cumulative sample).
        type CounterState = BTreeMap<(String, String, String), (u64, u64, u64, u64)>;
        let mut tracks: BTreeMap<String, TrackState> = BTreeMap::new();
        let mut durations: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
        let mut self_times: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut counters: CounterState = BTreeMap::new();
        let mut races: Vec<RaceState> = Vec::new();
        let mut race_totals = PortfolioReport {
            races: 0,
            decided: 0,
            winner_us: 0,
            wasted_us: 0,
            entrants: Vec::new(),
        };
        let mut entrants: BTreeMap<String, EntrantAgg> = BTreeMap::new();
        let mut scheduler_us = 0u64;

        for event in events {
            let state = tracks.entry(event.track.clone()).or_default();
            state.events += 1;
            state.first_ts.get_or_insert(event.ts_us);
            state.last_ts = state.last_ts.max(event.ts_us);
            match event.kind {
                EventKind::Begin => {
                    state.stack.push(OpenSpan {
                        name: event.name.clone(),
                        begin_ts: event.ts_us,
                        child_us: 0,
                    });
                    if event.name == "portfolio.race" {
                        races.push(RaceState {
                            track: event.track.clone(),
                            winner: None,
                            entrant_runs: Vec::new(),
                        });
                    }
                }
                EventKind::End => {
                    // Pair with the innermost open span of the same name —
                    // mirrors `check_span_nesting`, but tolerates a
                    // malformed stream by skipping unmatched ends.
                    let Some(open_at) = state.stack.iter().rposition(|s| s.name == event.name)
                    else {
                        continue;
                    };
                    let open = state.stack.remove(open_at);
                    let duration = event.ts_us.saturating_sub(open.begin_ts);
                    let self_us = duration.saturating_sub(open.child_us);
                    state.spans += 1;
                    if let Some(parent) = state.stack.last_mut() {
                        parent.child_us += duration;
                    } else {
                        state.busy_us += duration;
                        // A root engine-run span on a non-race track while
                        // a race is open is an entrant's contribution to
                        // that race.
                        if event.name.ends_with(".run") {
                            if let Some(race) =
                                races.iter_mut().rev().find(|r| r.track != event.track)
                            {
                                race.entrant_runs.push((event.track.clone(), duration));
                            }
                        }
                    }
                    let key = (event.track.clone(), event.name.clone());
                    durations.entry(key.clone()).or_default().push(duration);
                    *self_times.entry(key).or_default() += self_us;
                    if event.name == "scheduler.run" {
                        scheduler_us += duration;
                    }
                    if event.name == "portfolio.race"
                        && event.track == races.last().map_or("", |r| r.track.as_str())
                    {
                        let race = races.pop().expect("race begin recorded");
                        race_totals.races += 1;
                        if let Some(winner) = &race.winner {
                            race_totals.decided += 1;
                            for (entrant, us) in &race.entrant_runs {
                                let agg =
                                    entrants
                                        .entry(entrant.clone())
                                        .or_insert_with(|| EntrantAgg {
                                            entrant: entrant.clone(),
                                            runs: 0,
                                            busy_us: 0,
                                            wins: 0,
                                            wasted_us: 0,
                                        });
                                agg.runs += 1;
                                agg.busy_us += us;
                                if entrant == winner {
                                    agg.wins += 1;
                                    race_totals.winner_us += us;
                                } else {
                                    agg.wasted_us += us;
                                    race_totals.wasted_us += us;
                                }
                            }
                        } else {
                            for (entrant, us) in &race.entrant_runs {
                                let agg =
                                    entrants
                                        .entry(entrant.clone())
                                        .or_insert_with(|| EntrantAgg {
                                            entrant: entrant.clone(),
                                            runs: 0,
                                            busy_us: 0,
                                            wins: 0,
                                            wasted_us: 0,
                                        });
                                agg.runs += 1;
                                agg.busy_us += us;
                            }
                        }
                    }
                }
                EventKind::Instant => {
                    if event.name == "entrant.win" {
                        if let (Some(race), Some(winner)) =
                            (races.last_mut(), event.arg_str("entrant"))
                        {
                            race.winner = Some(winner.to_string());
                        }
                    }
                }
                EventKind::Counter => {
                    for (key, value) in &event.args {
                        if let ArgValue::U64(value) = value {
                            let slot = counters
                                .entry((event.track.clone(), event.name.clone(), key.clone()))
                                .or_insert((0, 0, 0, 0));
                            slot.0 += 1;
                            slot.1 = slot.1.max(*value);
                            // Cumulative per solver: a drop below the last
                            // sample means a fresh solver took over, and
                            // its first sample is all new progress.
                            slot.2 += if *value >= slot.3 {
                                *value - slot.3
                            } else {
                                *value
                            };
                            slot.3 = *value;
                        }
                    }
                }
            }
        }

        let track_summaries: Vec<TrackSummary> = tracks
            .iter()
            .map(|(track, state)| TrackSummary {
                track: track.clone(),
                wall_us: state.last_ts - state.first_ts.unwrap_or(state.last_ts),
                busy_us: state.busy_us,
                events: state.events,
                spans: state.spans,
                unclosed: state.stack.len() as u64,
            })
            .collect();

        let spans: Vec<SpanAgg> = durations
            .into_iter()
            .map(|((track, name), mut samples)| {
                samples.sort_unstable();
                let total: u64 = samples.iter().sum();
                SpanAgg {
                    self_us: self_times[&(track.clone(), name.clone())],
                    count: samples.len() as u64,
                    total_us: total,
                    min_us: samples[0],
                    max_us: *samples.last().expect("non-empty"),
                    p50_us: percentile(&samples, 50.0),
                    p90_us: percentile(&samples, 90.0),
                    p99_us: percentile(&samples, 99.0),
                    track,
                    name,
                }
            })
            .collect();

        let wall_of = |track: &str| {
            track_summaries
                .iter()
                .find(|t| t.track == track)
                .map_or(0, |t| t.wall_us)
        };
        let counter_aggs: Vec<CounterAgg> = counters
            .into_iter()
            .map(|((track, name, key), (samples, peak, total, _))| {
                let window = wall_of(&track);
                CounterAgg {
                    rate_per_sec: if window > 0 {
                        total as f64 / (window as f64 / 1e6)
                    } else {
                        0.0
                    },
                    track,
                    name,
                    key,
                    samples,
                    peak,
                    total,
                }
            })
            .collect();

        race_totals.entrants = entrants.into_values().collect();
        let portfolio = (race_totals.races > 0).then_some(race_totals);

        let scheduler: Vec<GroupUtilization> = if scheduler_us > 0 {
            track_summaries
                .iter()
                .filter(|t| t.track.starts_with("group") && t.track.contains('.'))
                .map(|t| GroupUtilization {
                    track: t.track.clone(),
                    busy_us: t.busy_us,
                    scheduler_us,
                    utilization: t.busy_us as f64 / scheduler_us as f64,
                })
                .collect()
        } else {
            Vec::new()
        };

        TraceReport {
            total_events: events.len() as u64,
            tracks: track_summaries,
            spans,
            counters: counter_aggs,
            portfolio,
            scheduler,
        }
    }

    /// The aligned text rendering (what `trace-report` prints).
    pub fn to_text(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {REPORT_SCHEMA} — {} events, {} tracks",
            self.total_events,
            self.tracks.len()
        );
        let _ = writeln!(
            out,
            "\n{:<20} {:>10} {:>10} {:>8} {:>7} {:>8}",
            "track", "wall_ms", "busy_ms", "events", "spans", "unclosed"
        );
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "{:<20} {:>10.1} {:>10.1} {:>8} {:>7} {:>8}",
                t.track,
                ms(t.wall_us),
                ms(t.busy_us),
                t.events,
                t.spans,
                t.unclosed
            );
        }
        let _ = writeln!(
            out,
            "\n{:<20} {:<18} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "track", "span", "count", "total_ms", "self_ms", "p50_us", "p90_us", "p99_us", "max_us"
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{:<20} {:<18} {:>6} {:>10.1} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                s.track,
                s.name,
                s.count,
                ms(s.total_us),
                ms(s.self_us),
                s.p50_us,
                s.p90_us,
                s.p99_us,
                s.max_us
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<20} {:<24} {:>8} {:>12} {:>12} {:>12}",
                "track", "counter", "samples", "peak", "total", "rate/s"
            );
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "{:<20} {:<24} {:>8} {:>12} {:>12} {:>12.0}",
                    c.track,
                    format!("{}.{}", c.name, c.key),
                    c.samples,
                    c.peak,
                    c.total,
                    c.rate_per_sec
                );
            }
        }
        if let Some(p) = &self.portfolio {
            let _ = writeln!(
                out,
                "\nportfolio: {} races ({} decided), winners {:.1} ms, wasted {:.1} ms",
                p.races,
                p.decided,
                ms(p.winner_us),
                ms(p.wasted_us)
            );
            for e in &p.entrants {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>4} runs {:>10.1} busy_ms {:>4} wins {:>10.1} wasted_ms",
                    e.entrant,
                    e.runs,
                    ms(e.busy_us),
                    e.wins,
                    ms(e.wasted_us)
                );
            }
        }
        if !self.scheduler.is_empty() {
            let _ = writeln!(out, "\nscheduler group utilization:");
            for g in &self.scheduler {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>10.1} busy_ms / {:>10.1} sched_ms = {:>5.1}%",
                    g.track,
                    ms(g.busy_us),
                    ms(g.scheduler_us),
                    g.utilization * 100.0
                );
            }
        }
        out
    }

    /// The `itpseq-report/v1` JSON document.
    pub fn to_json(&self) -> String {
        let esc = crate::json_escape;
        let tracks: Vec<String> = self
            .tracks
            .iter()
            .map(|t| {
                format!(
                    concat!(
                        r#"{{"track":"{}","wall_us":{},"busy_us":{},"events":{},"#,
                        r#""spans":{},"unclosed":{}}}"#
                    ),
                    esc(&t.track),
                    t.wall_us,
                    t.busy_us,
                    t.events,
                    t.spans,
                    t.unclosed
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    concat!(
                        r#"{{"track":"{}","name":"{}","count":{},"total_us":{},"self_us":{},"#,
                        r#""min_us":{},"max_us":{},"p50_us":{},"p90_us":{},"p99_us":{}}}"#
                    ),
                    esc(&s.track),
                    esc(&s.name),
                    s.count,
                    s.total_us,
                    s.self_us,
                    s.min_us,
                    s.max_us,
                    s.p50_us,
                    s.p90_us,
                    s.p99_us
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        r#"{{"track":"{}","name":"{}","key":"{}","samples":{},"peak":{},"#,
                        r#""total":{},"rate_per_sec":{:.3}}}"#
                    ),
                    esc(&c.track),
                    esc(&c.name),
                    esc(&c.key),
                    c.samples,
                    c.peak,
                    c.total,
                    c.rate_per_sec
                )
            })
            .collect();
        let portfolio = match &self.portfolio {
            None => "null".to_string(),
            Some(p) => {
                let entrants: Vec<String> = p
                    .entrants
                    .iter()
                    .map(|e| {
                        format!(
                            concat!(
                                r#"{{"entrant":"{}","runs":{},"busy_us":{},"wins":{},"#,
                                r#""wasted_us":{}}}"#
                            ),
                            esc(&e.entrant),
                            e.runs,
                            e.busy_us,
                            e.wins,
                            e.wasted_us
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        r#"{{"races":{},"decided":{},"winner_us":{},"wasted_us":{},"#,
                        r#""entrants":[{}]}}"#
                    ),
                    p.races,
                    p.decided,
                    p.winner_us,
                    p.wasted_us,
                    entrants.join(",")
                )
            }
        };
        let scheduler: Vec<String> = self
            .scheduler
            .iter()
            .map(|g| {
                format!(
                    concat!(
                        r#"{{"track":"{}","busy_us":{},"scheduler_us":{},"#,
                        r#""utilization":{:.4}}}"#
                    ),
                    esc(&g.track),
                    g.busy_us,
                    g.scheduler_us,
                    g.utilization
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n  \"schema\": \"{}\",\n  \"total_events\": {},\n",
                "  \"tracks\": [{}],\n  \"spans\": [{}],\n  \"counters\": [{}],\n",
                "  \"portfolio\": {},\n  \"scheduler\": [{}]\n}}\n"
            ),
            REPORT_SCHEMA,
            self.total_events,
            tracks.join(","),
            spans.join(","),
            counters.join(","),
            portfolio,
            scheduler.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, Telemetry};
    use std::sync::Arc;

    /// A handcrafted event with a chosen timestamp (the report only reads
    /// structure and timestamps, so tests fix both).
    fn ev(ts_us: u64, track: &str, name: &str, kind: EventKind, args: Args) -> RecEvent {
        RecEvent {
            ts_us,
            track: track.to_string(),
            name: name.to_string(),
            kind,
            args,
        }
    }

    type Args = Vec<(String, ArgValue)>;

    fn no_args() -> Args {
        Vec::new()
    }

    #[test]
    fn span_aggregates_compute_self_time_and_percentiles() {
        // main: run [0..100] containing sat [10..30] and sat [40..50].
        let events = vec![
            ev(0, "main", "run", EventKind::Begin, no_args()),
            ev(10, "main", "sat", EventKind::Begin, no_args()),
            ev(30, "main", "sat", EventKind::End, no_args()),
            ev(40, "main", "sat", EventKind::Begin, no_args()),
            ev(50, "main", "sat", EventKind::End, no_args()),
            ev(100, "main", "run", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        let run = report
            .spans
            .iter()
            .find(|s| s.name == "run")
            .expect("run agg");
        assert_eq!(run.count, 1);
        assert_eq!(run.total_us, 100);
        assert_eq!(run.self_us, 70); // 100 - 20 - 10
        let sat = report
            .spans
            .iter()
            .find(|s| s.name == "sat")
            .expect("sat agg");
        assert_eq!(sat.count, 2);
        assert_eq!(sat.total_us, 30);
        assert_eq!(sat.self_us, 30);
        assert_eq!((sat.min_us, sat.max_us), (10, 20));
        assert_eq!((sat.p50_us, sat.p90_us, sat.p99_us), (10, 20, 20));
        let track = &report.tracks[0];
        assert_eq!(track.wall_us, 100);
        assert_eq!(track.busy_us, 100);
        assert_eq!(track.unclosed, 0);
        // Self times sum to exactly the root total.
        let self_sum: u64 = report.spans.iter().map(|s| s.self_us).sum();
        assert_eq!(self_sum, track.busy_us);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 90.0), 90);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn counter_rollups_rebase_across_solver_switches() {
        let sample = |ts: u64, value: u64| {
            ev(
                ts,
                "main",
                "solver",
                EventKind::Counter,
                vec![("conflicts".to_string(), ArgValue::U64(value))],
            )
        };
        // Two solvers: cumulative 100, 300, then a fresh solver restarts
        // at 50 and reaches 150.  Progress total = 300 + 150.
        let events = vec![
            ev(0, "main", "run", EventKind::Begin, no_args()),
            sample(10, 100),
            sample(20, 300),
            sample(30, 50),
            sample(1_000_000, 150),
            ev(1_000_000, "main", "run", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        let agg = &report.counters[0];
        assert_eq!(agg.samples, 4);
        assert_eq!(agg.peak, 300);
        assert_eq!(agg.total, 450);
        assert!(
            (agg.rate_per_sec - 450.0).abs() < 1e-6,
            "{}",
            agg.rate_per_sec
        );
    }

    #[test]
    fn portfolio_wasted_work_sums_losing_entrants() {
        let win = |ts: u64, entrant: &str| {
            ev(
                ts,
                "main",
                "entrant.win",
                EventKind::Instant,
                vec![("entrant".to_string(), ArgValue::Str(entrant.to_string()))],
            )
        };
        let events = vec![
            // Race 1: PDR wins (100 us), BMC loses (80 us).
            ev(0, "main", "portfolio.race", EventKind::Begin, no_args()),
            ev(0, "PDR", "PDR.run", EventKind::Begin, no_args()),
            ev(0, "BMC", "BMC.run", EventKind::Begin, no_args()),
            ev(80, "BMC", "BMC.run", EventKind::End, no_args()),
            ev(100, "PDR", "PDR.run", EventKind::End, no_args()),
            win(105, "PDR"),
            ev(110, "main", "portfolio.race", EventKind::End, no_args()),
            // Race 2: BMC wins (30 us), PDR loses (40 us).
            ev(200, "main", "portfolio.race", EventKind::Begin, no_args()),
            ev(200, "PDR", "PDR.run", EventKind::Begin, no_args()),
            ev(200, "BMC", "BMC.run", EventKind::Begin, no_args()),
            ev(230, "BMC", "BMC.run", EventKind::End, no_args()),
            ev(240, "PDR", "PDR.run", EventKind::End, no_args()),
            win(245, "BMC"),
            ev(250, "main", "portfolio.race", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        let p = report.portfolio.expect("portfolio section");
        assert_eq!(p.races, 2);
        assert_eq!(p.decided, 2);
        assert_eq!(p.winner_us, 130); // 100 + 30
        assert_eq!(p.wasted_us, 120); // 80 + 40
        let pdr = p.entrants.iter().find(|e| e.entrant == "PDR").unwrap();
        assert_eq!(
            (pdr.runs, pdr.wins, pdr.busy_us, pdr.wasted_us),
            (2, 1, 140, 40)
        );
        let bmc = p.entrants.iter().find(|e| e.entrant == "BMC").unwrap();
        assert_eq!(
            (bmc.runs, bmc.wins, bmc.busy_us, bmc.wasted_us),
            (2, 1, 110, 80)
        );
    }

    #[test]
    fn scheduler_utilization_relates_group_tracks_to_the_run() {
        let events = vec![
            ev(0, "main", "scheduler.run", EventKind::Begin, no_args()),
            ev(10, "group0.PDR", "PDR.multi", EventKind::Begin, no_args()),
            ev(60, "group0.PDR", "PDR.multi", EventKind::End, no_args()),
            ev(10, "group0.BMC", "BMC.multi", EventKind::Begin, no_args()),
            ev(35, "group0.BMC", "BMC.multi", EventKind::End, no_args()),
            ev(100, "main", "scheduler.run", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        assert_eq!(report.scheduler.len(), 2);
        let pdr = report
            .scheduler
            .iter()
            .find(|g| g.track == "group0.PDR")
            .unwrap();
        assert_eq!(pdr.busy_us, 50);
        assert_eq!(pdr.scheduler_us, 100);
        assert!((pdr.utilization - 0.5).abs() < 1e-9);
        // No portfolio.race span: the .multi roots are not misattributed.
        assert!(report.portfolio.is_none());
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        {
            let _run = telemetry.span_args("run", || {
                vec![("engine", ArgValue::Str("BMC \"q\"".into()))]
            });
            telemetry.counter("solver", || vec![("conflicts", ArgValue::U64(42))]);
            telemetry.instant("verdict");
        }
        let events = sink.snapshot();
        let mut buffer = Vec::new();
        crate::write_jsonl(&events, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let direct = TraceReport::from_events(&events);
        let parsed = TraceReport::from_jsonl(&text).expect("parse back");
        assert_eq!(direct, parsed);
        assert_eq!(parsed.total_events, events.len() as u64);
        assert_eq!(parsed.counters.len(), 1);
        assert_eq!(parsed.counters[0].peak, 42);
    }

    #[test]
    fn jsonl_parser_rejects_garbage() {
        assert!(TraceReport::from_jsonl("").is_err());
        assert!(TraceReport::from_jsonl("{\"schema\":\"bogus/v9\"}\n").is_err());
        assert!(TraceReport::from_jsonl("{\"schema\":\"itpseq-trace/v1\"}\nnot json\n").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,2,").is_err());
        // Escapes round-trip.
        let doc = Json::parse(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn report_json_is_balanced() {
        let events = vec![
            ev(0, "main", "run", EventKind::Begin, no_args()),
            ev(10, "main", "run", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        let json = report.to_json();
        assert!(json.contains(r#""schema": "itpseq-report/v1""#), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn unclosed_spans_are_reported_not_aggregated() {
        let events = vec![
            ev(0, "main", "run", EventKind::Begin, no_args()),
            ev(10, "main", "sat", EventKind::Begin, no_args()),
            ev(20, "main", "sat", EventKind::End, no_args()),
        ];
        let report = TraceReport::from_rec(&events);
        assert_eq!(report.tracks[0].unclosed, 1);
        assert!(report.spans.iter().all(|s| s.name != "run"));
        // busy only counts completed roots; sat is a child of the open run.
        assert_eq!(report.tracks[0].busy_us, 0);
    }
}
