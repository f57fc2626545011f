//! Structured span/event tracing for the verification engines.
//!
//! The stack's only window into a run used to be the final
//! [`EngineStats`](../mc/struct.EngineStats.html) blob — a stuck PDR
//! generalization, a portfolio entrant that never got cancelled and a
//! scheduler group starving behind the in-flight cap were all
//! indistinguishable from "still working".  This crate adds a lightweight,
//! deterministic instrumentation layer:
//!
//! * [`Telemetry`] — a cheap, cloneable handle the engines thread through
//!   their call stacks.  A disabled handle ([`Telemetry::off`], the
//!   default) is a single `Option` check per call site: no allocation, no
//!   formatting, no lock.
//! * [`TelemetrySink`] — the consumer trait.  [`MemorySink`] records into
//!   a vector (tests, batch export), [`JsonlSink`] streams newline-
//!   delimited JSON (`itpseq-trace/v1`) to any writer.
//! * [`write_chrome_trace`] — renders recorded events in the Chrome
//!   trace-event format, so a portfolio race or a parallel-PDR run opens
//!   in [Perfetto](https://ui.perfetto.dev) / `chrome://tracing` as named
//!   per-entrant tracks.
//! * [`report`] — span-tree analytics over a recorded stream: per-track
//!   aggregate timings, counter rates, portfolio wasted-work attribution
//!   and a CI-gateable baseline (`itpseq-report/v1`), consumed by the
//!   `trace-report` binary.
//! * [`folded`] — inferno-compatible collapsed-stack export for
//!   flamegraphs.
//! * [`json`] — the workspace's one std-only JSON reader, for traces,
//!   baselines and (in `certify`) certificate documents.
//!
//! # Event model
//!
//! Every [`Event`] carries a monotonic per-run sequence number (the
//! determinism anchor: at `threads = 1` the sequence of structural fields
//! is identical across runs), a microsecond timestamp relative to the
//! handle's creation, a *track* (one timeline in the trace viewer — e.g.
//! one portfolio entrant), a name and a kind:
//!
//! * [`EventKind::Begin`] / [`EventKind::End`] — a span.  Spans are
//!   emitted through the RAII [`Span`] guard so early returns still close
//!   them, and must nest properly *within a track*.
//! * [`EventKind::Instant`] — a point marker (entrant won, property
//!   retired, fixpoint hit).
//! * [`EventKind::Counter`] — a progress sample (conflicts, decisions,
//!   propagations, restarts so far).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::{ArgValue, MemorySink, Telemetry};
//!
//! let sink = Arc::new(MemorySink::new());
//! let telemetry = Telemetry::new(sink.clone());
//! {
//!     let _run = telemetry.span("run");
//!     telemetry.instant_args("bound", || vec![("k", ArgValue::U64(3))]);
//! } // the guard closes the span here
//! let events = sink.snapshot();
//! assert_eq!(events.len(), 3); // Begin, Instant, End
//! assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
//! ```

pub mod folded;
pub mod json;
pub mod report;

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema identifier written as the header line of every JSONL trace.
pub const TRACE_SCHEMA: &str = "itpseq-trace/v1";

/// A value attached to an event under a named key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned counter or index.
    U64(u64),
    /// A label (engine name, verdict kind, stop reason, ...).
    Str(String),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(n) => write!(f, "{n}"),
            ArgValue::Str(s) => f.write_str(s),
        }
    }
}

/// Event payload: named values, in emission order.
pub type Args = Vec<(&'static str, ArgValue)>;

/// What an [`Event`] marks (the Chrome trace-event phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens (`ph: "B"`).
    Begin,
    /// A span closes (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A progress sample (`ph: "C"`).
    Counter,
}

impl EventKind {
    /// The single-letter Chrome trace-event phase code.
    pub fn phase(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        }
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic per-run sequence number; the total order of emission
    /// and the determinism anchor (timestamps vary between runs, `seq`
    /// ordering at `threads = 1` does not).
    pub seq: u64,
    /// Microseconds since the [`Telemetry`] handle was created.
    pub ts_us: u64,
    /// The timeline this event belongs to (one named track per portfolio
    /// entrant / scheduler backend in the trace viewer).
    pub track: Arc<str>,
    /// Event name (span or marker label).
    pub name: String,
    /// Span begin/end, instant marker or counter sample.
    pub kind: EventKind,
    /// Named payload values.
    pub args: Args,
}

/// Consumer of trace events.
///
/// Implementations must be cheap and non-blocking where possible: sinks
/// are called from inside engine loops (though never from the innermost
/// SAT propagation loop — solver progress arrives as periodic
/// [`EventKind::Counter`] samples).
pub trait TelemetrySink: Send + Sync {
    /// Records one event.  Events arrive in `seq` order per handle when
    /// the producing run is single-threaded; concurrent producers (a
    /// portfolio race) interleave tracks but each still carries its
    /// globally unique `seq`.
    fn record(&self, event: Event);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

struct Inner {
    sink: Arc<dyn TelemetrySink>,
    seq: AtomicU64,
    epoch: Instant,
}

/// A cheap, cloneable tracing handle.
///
/// The disabled handle ([`Telemetry::off`], also `Default`) reduces every
/// call site to a single `None` check — argument closures are never
/// invoked, nothing allocates.  Clones share the sink, the sequence
/// counter and the epoch; [`Telemetry::scoped`] re-labels the track so
/// concurrent subsystems (portfolio entrants, scheduler backends) render
/// as separate timelines.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    track: Arc<str>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::off()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.is_some() {
            write!(f, "Telemetry(on, track={:?})", self.track)
        } else {
            f.write_str("Telemetry(off)")
        }
    }
}

/// Handles are equal when they feed the same sink (or are both
/// disabled) and label the same track — the notion of "same
/// configuration" that keeps `Options: PartialEq` meaningful.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Telemetry) -> bool {
        let same_sink = match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_sink && self.track == other.track
    }
}

impl Telemetry {
    /// The disabled handle: every emission is a no-op.
    pub fn off() -> Telemetry {
        Telemetry {
            inner: None,
            track: Arc::from("main"),
        }
    }

    /// A handle recording into `sink`, on the default track `"main"`.
    pub fn new(sink: Arc<dyn TelemetrySink>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink,
                seq: AtomicU64::new(0),
                epoch: Instant::now(),
            })),
            track: Arc::from("main"),
        }
    }

    /// Returns `true` when events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The track label events from this handle carry.
    pub fn track(&self) -> &str {
        &self.track
    }

    /// A clone of this handle that emits onto the track `track`
    /// (sharing the sink, sequence counter and epoch).  The portfolio
    /// hands each entrant `scoped(entrant_name)` so the race renders as
    /// parallel named timelines.
    pub fn scoped(&self, track: &str) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            track: Arc::from(track),
        }
    }

    fn emit(&self, kind: EventKind, name: &str, args: Args) {
        if let Some(inner) = &self.inner {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            let ts_us = inner.epoch.elapsed().as_micros() as u64;
            inner.sink.record(Event {
                seq,
                ts_us,
                track: self.track.clone(),
                name: name.to_string(),
                kind,
                args,
            });
        }
    }

    /// Opens a span; the returned guard closes it on drop (early returns
    /// included).
    pub fn span(&self, name: &str) -> Span {
        self.span_args(name, Vec::new)
    }

    /// Opens a span with arguments; `args` is only invoked when the
    /// handle is enabled.
    pub fn span_args(&self, name: &str, args: impl FnOnce() -> Args) -> Span {
        if self.inner.is_none() {
            return Span { owner: None };
        }
        self.emit(EventKind::Begin, name, args());
        Span {
            owner: Some((self.clone(), name.to_string())),
        }
    }

    /// Emits a point-in-time marker.
    pub fn instant(&self, name: &str) {
        self.instant_args(name, Vec::new);
    }

    /// Emits a point-in-time marker with arguments; `args` is only
    /// invoked when the handle is enabled.
    pub fn instant_args(&self, name: &str, args: impl FnOnce() -> Args) {
        if self.inner.is_some() {
            self.emit(EventKind::Instant, name, args());
        }
    }

    /// Emits a progress sample; `args` is only invoked when the handle
    /// is enabled.
    pub fn counter(&self, name: &str, args: impl FnOnce() -> Args) {
        if self.inner.is_some() {
            self.emit(EventKind::Counter, name, args());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard of an open span: emits the matching [`EventKind::End`]
/// when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    owner: Option<(Telemetry, String)>,
}

impl Span {
    /// Closes the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((telemetry, name)) = self.owner.take() {
            telemetry.emit(EventKind::End, &name, Vec::new());
        }
    }
}

/// A sink that records events into memory — the test sink, and the
/// staging buffer behind batch exporters ([`write_chrome_trace`]).
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: Event) {
        self.events.lock().unwrap().push(event);
    }
}

/// Bytes of formatted lines a [`JsonlSink`] accumulates before handing
/// them to the writer in one call.
const JSONL_BUFFER_LIMIT: usize = 32 * 1024;

/// A sink that streams events as newline-delimited JSON
/// (`itpseq-trace/v1`): a header line, then one object per event.
///
/// Lines are batched in an internal buffer and written out once it
/// crosses a 32 KiB limit, on [`TelemetrySink::flush`], and on
/// drop — an engine loop never pays a write syscall per event, and a
/// streaming consumer (the future daemon) sees whole lines only.
pub struct JsonlSink {
    state: Mutex<JsonlState>,
}

struct JsonlState {
    writer: Box<dyn Write + Send>,
    buffer: String,
}

impl JsonlState {
    /// Hands the accumulated lines to the writer.  A full disk mid-trace
    /// must not take the verification run down with it, so errors are
    /// swallowed (the final flush in `Drop` surfaces nothing either, by
    /// the same argument).
    fn drain(&mut self) {
        if !self.buffer.is_empty() {
            let _ = self.writer.write_all(self.buffer.as_bytes());
            self.buffer.clear();
        }
    }
}

impl JsonlSink {
    /// Streams to an arbitrary writer, emitting the schema header line
    /// immediately (so even an empty trace identifies itself).
    pub fn new(mut writer: Box<dyn Write + Send>) -> io::Result<JsonlSink> {
        writeln!(writer, "{{\"schema\":\"{TRACE_SCHEMA}\"}}")?;
        Ok(JsonlSink {
            state: Mutex::new(JsonlState {
                writer,
                buffer: String::with_capacity(JSONL_BUFFER_LIMIT + 256),
            }),
        })
    }

    /// Creates (truncating) the file at `path` and streams to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        JsonlSink::new(Box::new(File::create(path)?))
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: Event) {
        let line = event_to_jsonl(&event);
        let mut state = self.state.lock().unwrap();
        state.buffer.push_str(&line);
        state.buffer.push('\n');
        if state.buffer.len() >= JSONL_BUFFER_LIMIT {
            state.drain();
        }
    }

    fn flush(&self) {
        let mut state = self.state.lock().unwrap();
        state.drain();
        let _ = state.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut state) = self.state.lock() {
            state.drain();
            let _ = state.writer.flush();
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn args_json(args: &Args) -> String {
    let fields: Vec<String> = args
        .iter()
        .map(|(key, value)| match value {
            ArgValue::U64(n) => format!("\"{key}\":{n}"),
            ArgValue::Str(s) => format!("\"{key}\":\"{}\"", json_escape(s)),
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The `itpseq-trace/v1` JSONL line of one event (no trailing newline).
pub fn event_to_jsonl(event: &Event) -> String {
    format!(
        "{{\"seq\":{},\"ts_us\":{},\"track\":\"{}\",\"ph\":\"{}\",\"name\":\"{}\",\"args\":{}}}",
        event.seq,
        event.ts_us,
        json_escape(&event.track),
        event.kind.phase(),
        json_escape(&event.name),
        args_json(&event.args)
    )
}

/// Writes a full `itpseq-trace/v1` JSONL document (header plus one line
/// per event) — the batch counterpart of [`JsonlSink`].
pub fn write_jsonl(events: &[Event], writer: &mut impl Write) -> io::Result<()> {
    writeln!(writer, "{{\"schema\":\"{TRACE_SCHEMA}\"}}")?;
    for event in events {
        writeln!(writer, "{}", event_to_jsonl(event))?;
    }
    Ok(())
}

/// Writes the events as a Chrome trace-event JSON document that loads in
/// Perfetto / `chrome://tracing`.
///
/// Each distinct track becomes a named thread (tid assigned in order of
/// first appearance), so a portfolio race renders as one timeline per
/// entrant with the begin/end spans nested and the instant markers
/// (start/cancel/win) pinned at their emission times.
pub fn write_chrome_trace(events: &[Event], writer: &mut impl Write) -> io::Result<()> {
    let mut tracks: Vec<Arc<str>> = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    for event in events {
        let tid = match tracks.iter().position(|t| *t == event.track) {
            Some(i) => i + 1,
            None => {
                tracks.push(event.track.clone());
                let tid = tracks.len();
                entries.push(format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&event.track)
                ));
                tid
            }
        };
        let name = json_escape(&event.name);
        let ts = event.ts_us;
        entries.push(match event.kind {
            EventKind::Begin => format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\
                 \"args\":{}}}",
                args_json(&event.args)
            ),
            EventKind::End => {
                format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}")
            }
            EventKind::Instant => format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\
                 \"s\":\"t\",\"args\":{}}}",
                args_json(&event.args)
            ),
            EventKind::Counter => {
                // Chrome counter tracks plot numbers only; labels would
                // corrupt the series, so keep the numeric samples.
                let numeric: Args = event
                    .args
                    .iter()
                    .filter(|(_, v)| matches!(v, ArgValue::U64(_)))
                    .cloned()
                    .collect();
                format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"name\":\"{name}\",\
                     \"args\":{}}}",
                    args_json(&numeric)
                )
            }
        });
    }
    writeln!(writer, "{{\"traceEvents\":[")?;
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        writeln!(writer, "{entry}{comma}")?;
    }
    writeln!(writer, "]}}")
}

/// Asserts the span tree of `events` is well-formed: every
/// [`EventKind::End`] matches the innermost open [`EventKind::Begin`] of
/// its track, and no span stays open.  Returns the number of complete
/// spans, or a description of the first violation.
///
/// This is the structural invariant the trace viewers rely on; the
/// telemetry tests check it on every engine.
pub fn check_span_nesting(events: &[Event]) -> Result<usize, String> {
    let mut open: Vec<(Arc<str>, String)> = Vec::new();
    let mut complete = 0;
    for event in events {
        match event.kind {
            EventKind::Begin => open.push((event.track.clone(), event.name.clone())),
            EventKind::End => {
                let innermost = open
                    .iter()
                    .rposition(|(track, _)| *track == event.track)
                    .ok_or_else(|| {
                        format!(
                            "seq {}: end of \"{}\" on track \"{}\" with no open span",
                            event.seq, event.name, event.track
                        )
                    })?;
                let (_, name) = open.remove(innermost);
                if name != event.name {
                    return Err(format!(
                        "seq {}: end of \"{}\" on track \"{}\" but innermost open span is \"{}\"",
                        event.seq, event.name, event.track, name
                    ));
                }
                complete += 1;
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    if let Some((track, name)) = open.first() {
        return Err(format!("span \"{name}\" on track \"{track}\" never closed"));
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> (Arc<MemorySink>, Telemetry) {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        (sink, telemetry)
    }

    #[test]
    fn disabled_handle_is_inert_and_never_builds_args() {
        let telemetry = Telemetry::off();
        assert!(!telemetry.is_enabled());
        let span = telemetry.span_args("run", || panic!("args built while disabled"));
        telemetry.instant_args("marker", || panic!("args built while disabled"));
        telemetry.counter("progress", || panic!("args built while disabled"));
        drop(span);
        telemetry.flush();
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_scoped_clones() {
        let (sink, telemetry) = recording();
        let scoped = telemetry.scoped("worker");
        telemetry.instant("a");
        scoped.instant("b");
        telemetry.instant("c");
        let events = sink.snapshot();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(&*events[1].track, "worker");
        assert_eq!(&*events[0].track, "main");
    }

    #[test]
    fn span_guard_closes_on_early_return() {
        let (sink, telemetry) = recording();
        fn inner(telemetry: &Telemetry, bail: bool) -> u32 {
            let _span = telemetry.span("inner");
            if bail {
                return 1;
            }
            2
        }
        inner(&telemetry, true);
        inner(&telemetry, false);
        let events = sink.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(check_span_nesting(&events), Ok(2));
    }

    #[test]
    fn nesting_checker_rejects_mismatches() {
        let (sink, telemetry) = recording();
        let outer = telemetry.span("outer");
        let inner = telemetry.span("inner");
        drop(outer); // wrong order: outer closes while inner is open
        drop(inner);
        let events = sink.snapshot();
        assert!(check_span_nesting(&events).is_err());
    }

    #[test]
    fn nesting_is_tracked_per_track() {
        let (sink, telemetry) = recording();
        let worker = telemetry.scoped("worker");
        let main_span = telemetry.span("main-work");
        let worker_span = worker.span("worker-work");
        drop(main_span); // fine: different track than worker's open span
        drop(worker_span);
        assert_eq!(check_span_nesting(&sink.snapshot()), Ok(2));
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let (sink, telemetry) = recording();
        let span = telemetry.span_args("run", || {
            vec![
                ("engine", ArgValue::Str("BMC \"quoted\"".into())),
                ("k", ArgValue::U64(7)),
            ]
        });
        span.end();
        let events = sink.snapshot();
        let line = event_to_jsonl(&events[0]);
        assert!(line.starts_with("{\"seq\":0,"));
        assert!(line.contains("\"ph\":\"B\""));
        assert!(line.contains("\"engine\":\"BMC \\\"quoted\\\"\""));
        assert!(line.contains("\"k\":7"));
        let mut buffer = Vec::new();
        write_jsonl(&events, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"schema\":\"itpseq-trace/v1\"}"));
        assert_eq!(lines.count(), events.len());
    }

    #[test]
    fn jsonl_sink_streams_header_and_events() {
        // Route the sink into a shared buffer to check the stream shape.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buffer = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::new(JsonlSink::new(Box::new(Shared(buffer.clone()))).unwrap());
        let telemetry = Telemetry::new(sink.clone());
        telemetry.instant_args("marker", || vec![("k", ArgValue::U64(1))]);
        telemetry.flush();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"schema\":\"itpseq-trace/v1\"}"));
        let event_line = lines.next().unwrap();
        assert!(event_line.contains("\"ph\":\"i\""));
        assert!(event_line.contains("\"name\":\"marker\""));
    }

    #[test]
    fn jsonl_sink_batches_lines_until_flush_or_drop() {
        #[derive(Clone)]
        struct CountingWriter {
            data: Arc<Mutex<Vec<u8>>>,
            writes: Arc<AtomicU64>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.data.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let writer = CountingWriter {
            data: Arc::new(Mutex::new(Vec::new())),
            writes: Arc::new(AtomicU64::new(0)),
        };
        let (data, writes) = (writer.data.clone(), writer.writes.clone());
        let sink = Arc::new(JsonlSink::new(Box::new(writer)).unwrap());
        let telemetry = Telemetry::new(sink.clone());
        let header_writes = writes.load(Ordering::Relaxed);
        for _ in 0..100 {
            telemetry.instant("tick");
        }
        // 100 short lines fit well inside the buffer: no writes yet.
        assert_eq!(writes.load(Ordering::Relaxed), header_writes);
        telemetry.flush();
        assert_eq!(writes.load(Ordering::Relaxed), header_writes + 1);
        for _ in 0..100 {
            telemetry.instant("tock");
        }
        drop(telemetry);
        drop(sink); // drop drains the tail without an explicit flush
        let text = String::from_utf8(data.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 201); // header + 200 events
        assert!(text.ends_with('\n'));

        // A sustained stream does cross the limit and drains mid-run.
        let writer = CountingWriter {
            data: Arc::new(Mutex::new(Vec::new())),
            writes: Arc::new(AtomicU64::new(0)),
        };
        let writes = writer.writes.clone();
        let sink = Arc::new(JsonlSink::new(Box::new(writer)).unwrap());
        let telemetry = Telemetry::new(sink);
        let before = writes.load(Ordering::Relaxed);
        for _ in 0..2_000 {
            telemetry.instant("a-somewhat-longer-event-name-to-fill-the-buffer");
        }
        assert!(writes.load(Ordering::Relaxed) > before);
    }

    #[test]
    fn chrome_trace_names_tracks_and_drops_counter_labels() {
        let (sink, telemetry) = recording();
        let entrant = telemetry.scoped("PDR");
        let span = entrant.span("run");
        entrant.counter("progress", || {
            vec![
                ("conflicts", ArgValue::U64(10)),
                ("engine", ArgValue::Str("PDR".into())),
            ]
        });
        span.end();
        telemetry.instant("win");
        let mut buffer = Vec::new();
        write_chrome_trace(&sink.snapshot(), &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"thread_name\",\"args\":{\"name\":\"PDR\"}"));
        assert!(text.contains("\"thread_name\",\"args\":{\"name\":\"main\"}"));
        // The counter sample keeps the number, drops the label.
        let counter_line = text.lines().find(|l| l.contains("\"ph\":\"C\"")).unwrap();
        assert!(counter_line.contains("\"conflicts\":10"));
        assert!(!counter_line.contains("engine"));
    }

    #[test]
    fn equality_tracks_sink_identity_and_track() {
        let (_, a) = recording();
        let (_, b) = recording();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_ne!(a, a.scoped("other"));
        assert_eq!(Telemetry::off(), Telemetry::off());
        assert_ne!(a, Telemetry::off());
    }
}
