//! Time to verdict per engine on three workloads, with per-layer
//! attribution and independent verdict checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|deep|multi --seed N --seconds S --trace 0|1 [--self-test]
//! ```
//!
//! One process: a cold set-up (parse and preprocess every generated
//! design), then sweeps for `--seconds` (a sweep starts only when it is
//! expected to end in time).  A sweep runs every engine on every design,
//! the engines interleaved per design, so drift of the host's speed hits
//! all engines alike.  A fixed-work kernel is timed before and after each
//! engine run, and each run's time is scaled to the kernel's
//! reference speed (`calibrate`), which cancels slower phases of the host.
//! Each (design, engine) cell's time is the median over the run's sweeps;
//! an engine's metric is the sum of its cells.
//! With `--trace 1` every engine run is repeated with telemetry on and the
//! run prints the per-layer metrics instead of the end-to-end ones.  The BDD
//! references are computed after the sweeps, so they enter no metric.  The
//! last line of stdout is one JSON object; the exit code is non-zero when
//! any operation failed.

mod calibrate;
mod check;
mod designs;
mod layers;

use check::Outcome;
use designs::Design;
use layers::Samples;
use mc::certificate::{document_json, CertRecord};
use mc::{Engine, Options, Prepared, PropertyStatus};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{MemorySink, Telemetry};

/// The engines of the paper's Table I plus PDR and the portfolio, with the
/// names the metrics use.
const ENGINES: [(Engine, &str); 6] = [
    (Engine::Itp, "itp"),
    (Engine::ItpSeq, "itpseq"),
    (Engine::SerialItpSeq, "sitpseq"),
    (Engine::ItpSeqCba, "itpseqcba"),
    (Engine::Pdr, "pdr"),
    (Engine::Portfolio, "portfolio"),
];

/// Per-run wall budget: the slowest engine run of any workload takes about
/// a second, and hitting the budget counts as a failure.
const ENGINE_TIMEOUT: Duration = Duration::from_secs(20);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !designs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            designs::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A design after the cold set-up.
struct Loaded {
    /// The parsed original design: `certify` checks against it.
    original: aig::Aig,
    prepared: Prepared,
}

/// The self-test's deliberate faults: one certificate with an input bit
/// flipped (`certificate`, first sweep, first engine), and one reference
/// depth off by one (`reference`).
struct Corruption {
    certificate: usize,
    reference: usize,
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let options = Options::default()
        .with_threads(1)
        .with_timeout(ENGINE_TIMEOUT);
    let mut layer = Samples::default();
    let mut kernel = calibrate::Kernel::new();
    // The AIGER texts stand in for design files: making them is not set-up.
    let designs = designs::build(&args.workload, args.seed).expect("workload checked");

    // Cold set-up: the process's first parse and preprocessing of every
    // design, between two sets of kernel runs.
    let kernel_before = kernel.median(3);
    let setup_start = Instant::now();
    let mut loaded = Vec::with_capacity(designs.len());
    let (mut parse_s, mut preprocess_s, mut latches_removed) = (0.0, 0.0, 0u64);
    for design in &designs {
        let t = Instant::now();
        let original = aig::parse_aag(&design.text).map_err(|e| format!("{}: {e}", design.name))?;
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let prepared = if design.multi {
            mc::prepare(&original, &options)
        } else {
            mc::prepare_property(&original, 0, &options)
        };
        preprocess_s += t.elapsed().as_secs_f64();
        latches_removed += prepared.stats.latches_removed();
        loaded.push(Loaded { original, prepared });
    }
    let setup_host_s = setup_start.elapsed().as_secs_f64();
    let setup_kernel_s = (kernel_before + kernel.median(3)) / 2.0;
    let setup_s = setup_host_s * calibrate::REFERENCE_S / setup_kernel_s;
    layer.set("aig.parse_s", parse_s);
    layer.set("aig.preprocess_s", preprocess_s);
    layer.set("aig.latches_removed", latches_removed as f64);

    let corruption = args
        .self_test
        .then(|| self_test_target(&designs))
        .transpose()?;

    // Sweeps.
    let sink = Arc::new(MemorySink::new());
    let traced_options = options.clone().with_telemetry(Telemetry::new(sink.clone()));
    // Engine and certify times scaled to the kernel's reference speed, and
    // as the host measured them.
    let mut wall = Samples::default();
    let mut host = Samples::default();
    let mut kernel_times = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut first_counters: Vec<Option<(u64, u64, u64)>> =
        vec![None; designs.len() * ENGINES.len()];
    let run_start = Instant::now();
    let mut sweep = 0;
    let mut last_sweep_s = 0.0;
    // A sweep starts only when it is expected to end within `--seconds`.
    while sweep == 0 || run_start.elapsed().as_secs_f64() + last_sweep_s <= args.seconds {
        let sweep_start = Instant::now();
        // (metric, cell, kernel sample before it, host seconds) of this
        // sweep, and the kernel times before each engine run and after the
        // last.
        let mut timed: Vec<(String, usize, usize, f64)> = Vec::new();
        let mut kernel_s = Vec::new();
        for (d, (design, model)) in designs.iter().zip(&loaded).enumerate() {
            for k in 0..ENGINES.len() {
                let e = (k + sweep) % ENGINES.len();
                let cell = d * ENGINES.len() + e;
                let (engine, name) = ENGINES[e];
                let before = kernel_s.len();
                kernel_s.push(kernel.time());
                // With `--trace 1` every untraced run is paired with a traced
                // run of the same cell, their order alternating by sweep, so
                // the tracing overhead is measured at one host speed.
                let mut modes = vec![false];
                if args.trace {
                    modes.insert(sweep % 2, true);
                }
                let mut seconds = [0.0; 2];
                for traced in modes {
                    let corrupt = !traced
                        && corruption
                            .as_ref()
                            .is_some_and(|c| (c.certificate, e, sweep) == (d, 0, 0));
                    let opts = if traced { &traced_options } else { &options };
                    let run = decide(design, model, engine, opts, corrupt);
                    seconds[usize::from(traced)] = run.seconds;
                    if traced {
                        layers::record_trace(&mut layer, name, cell, &sink.take());
                    } else {
                        timed.push((format!("{name}_s"), d, before, run.seconds));
                        layers::record_stats(&mut layer, name, d, &run.stats);
                    }

                    let t = Instant::now();
                    let verdicts =
                        certify_document(&run.document, &model.original, &mut layer, cell, traced);
                    if !traced {
                        timed.push(("certify_s".into(), cell, before, t.elapsed().as_secs_f64()));
                    }

                    let stats = &run.stats;
                    let counters = (stats.sat_calls, stats.conflicts, stats.clauses_encoded);
                    let drifted = engine != Engine::Portfolio
                        && *first_counters[cell].get_or_insert(counters) != counters;
                    for (p, status) in run.statuses.iter().enumerate() {
                        outcomes.push(Outcome {
                            design: d,
                            prop: p,
                            engine: e,
                            verdict: status.is_conclusive().then(|| status.depth()),
                            certificate: verdicts
                                .as_ref()
                                .map_err(Clone::clone)
                                .and_then(|v| v[p].clone()),
                            counters_drifted: drifted,
                        });
                    }
                }
                if args.trace {
                    layer.add("telemetry.overhead_s", cell, seconds[1] - seconds[0]);
                }
            }
        }
        kernel_s.push(kernel.time());
        for (metric, cell, before, seconds) in timed {
            let speed = calibrate::REFERENCE_S / ((kernel_s[before] + kernel_s[before + 1]) / 2.0);
            wall.add(&metric, cell, seconds * speed);
            host.add(&metric, cell, seconds);
        }
        kernel_times.extend(kernel_s);
        if sweep == 0 {
            // The high-water mark after one sweep: a fixed amount of work.
            // Later sweeps raise it further as the portfolio's short-lived
            // threads leave memory in fresh allocator arenas, so a reading
            // at the end would grow with the number of sweeps that fit.
            layer.set("process.peak_rss_mb", peak_rss_kib()? as f64 / 1024.0);
        }
        last_sweep_s = sweep_start.elapsed().as_secs_f64();
        sweep += 1;
    }

    // References, after every timed phase.
    let mut refs = check::references(&designs)?;
    if let Some(c) = &corruption {
        let r = &mut refs[c.reference][0];
        r.depth = r.depth.map(|d| d + 1);
    }
    let names: Vec<&str> = designs.iter().map(|d| d.name.as_str()).collect();
    let engine_names: Vec<&str> = ENGINES.iter().map(|(_, n)| *n).collect();
    let failed = check::count_failures(&outcomes, &refs, &names, &engine_names);
    let attempted = outcomes.len() as u64;

    // (name, value, unit, host seconds): the last is what the host measured
    // before scaling, printed for reading only.
    let mut metrics: Vec<(String, f64, &str, Option<f64>)> = Vec::new();
    if args.trace {
        for (name, unit) in layers::per_layer_names() {
            metrics.push((name.clone(), layer.total(&name), unit, None));
        }
    } else {
        metrics.push(("setup_s".into(), setup_s, "s", Some(setup_host_s)));
        let names = ENGINES.iter().map(|(_, n)| format!("{n}_s"));
        for metric in names.chain(["certify_s".to_string()]) {
            let value = wall.total(&metric);
            metrics.push((metric.clone(), value, "s", Some(host.total(&metric))));
        }
    }

    println!(
        "workload {} seed {} sweeps {sweep} designs {} properties {} nproc {} kernel median {:.6} s",
        args.workload,
        args.seed,
        designs.len(),
        designs.iter().map(Design::num_props).sum::<usize>(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        layers::median(&kernel_times),
    );
    for (name, value, unit, host_s) in &metrics {
        match host_s {
            Some(h) => println!("{name:32} {value:>16.6} {unit}   (host {h:.6} s)"),
            None => println!("{name:32} {value:>16.6} {unit}"),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One engine run on one design.
struct Decided {
    statuses: Vec<PropertyStatus>,
    stats: mc::EngineStats,
    /// The certificates as an `itpseq-cert/v1` document.
    document: String,
    /// Wall time of verification, reconstruction and certificate emission.
    seconds: f64,
}

/// Runs `engine` on every property of `design`; `corrupt` flips an input
/// bit of the first certificate (the self-test).
fn decide(
    design: &Design,
    model: &Loaded,
    engine: Engine,
    options: &Options,
    corrupt: bool,
) -> Decided {
    let t = Instant::now();
    let (statuses, stats) = if design.multi {
        let result = model.prepared.verify_all(engine, options);
        (result.statuses, result.stats)
    } else {
        let result = model.prepared.verify(engine, 0, options);
        (vec![PropertyStatus::from_result(&result)], result.stats)
    };
    let mut records: Vec<CertRecord> = statuses
        .iter()
        .enumerate()
        .map(|(p, s)| CertRecord::from_status(p, Some(engine.name()), s))
        .collect();
    if corrupt {
        flip_first_input(&mut records);
    }
    let document = document_json(&format!("{}.aag", design.name), &records);
    Decided {
        statuses,
        stats,
        document,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Parses an `itpseq-cert/v1` document back and checks every entry against
/// the parsed original design.  Returns one verdict per property, or `Err`
/// when the document does not parse.
fn certify_document(
    document: &str,
    original: &aig::Aig,
    layer: &mut Samples,
    cell: usize,
    traced: bool,
) -> Result<Vec<Result<(), String>>, String> {
    let parsed =
        certify::parse_document(document).map_err(|e| format!("certificate document: {e}"))?;
    // Per kind: checking time and number of certificates checked.
    let mut spent = [(0.0, 0u32); 2];
    let verdicts = parsed
        .entries
        .iter()
        .map(|entry| {
            let kind = match entry.certificate {
                Some(certify::Cert::Invariant { .. }) => 0,
                Some(certify::Cert::Trace(_)) => 1,
                None => return Err("no certificate".to_string()),
            };
            let t = Instant::now();
            let outcome = certify::check_entry(original, entry);
            spent[kind].0 += t.elapsed().as_secs_f64();
            spent[kind].1 += 1;
            match outcome {
                certify::Outcome::Accepted => Ok(()),
                other => Err(format!("certificate {other:?}")),
            }
        })
        .collect();
    if !traced {
        for ((seconds, count), kind) in spent.into_iter().zip(["invariant", "trace"]) {
            layer.add(&format!("certify.{kind}_s"), cell, seconds);
            layer.add(&format!("certify.{kind}s"), cell, count.into());
        }
    }
    Ok(verdicts)
}

/// The self-test corrupts the first sweep's ITP certificate of
/// `gatedcounter3m7b3`: its counterexample must raise the enable input at
/// every cycle, so flipping the enable bit of cycle 0 leaves a trace that
/// no longer reaches the bad state.  It also moves the reference depth of
/// `counter4m10b9` from 9 to 10, so every engine's operation on that
/// design fails the depth check.
fn self_test_target(designs: &[Design]) -> Result<Corruption, String> {
    let find = |name: &str| {
        designs
            .iter()
            .position(|d| d.name == name)
            .ok_or("--self-test runs on the table1 workload")
    };
    Ok(Corruption {
        certificate: find("gatedcounter3m7b3")?,
        reference: find("counter4m10b9")?,
    })
}

fn flip_first_input(records: &mut [CertRecord]) {
    if let Some(mc::Certificate::Trace(frames)) = &mut records[0].certificate {
        frames[0][0] = !frames[0][0];
    }
}

/// The process's resident-set high-water mark in KiB (`VmHWM` of
/// `/proc/self/status`).
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
