//! HWMCC-style benchmark-directory runner.
//!
//! Walks a directory of ASCII AIGER (`.aag`) files, runs `verify_all`
//! on every design and emits a per-design/per-property report — the
//! real-benchmark ingestion path next to the synthetic `table1` suite.
//!
//! Run with
//! `cargo run --release -p itpseq-bench --bin hwmcc -- tests/data`.
//!
//! Options:
//!
//! * `--engine NAME` — the `verify_all` engine, any [`Engine::name`]
//!   case-insensitively: `bmc`, `itp`, `itpseq`, `sitpseq`, `itpseqcba`,
//!   `pdr` or `portfolio` (default `portfolio`: COI grouping + racing
//!   multi-PDR/multi-BMC),
//! * `--json PATH` — additionally write the machine-readable report
//!   (schema `itpseq-hwmcc/v2`, with a per-design `preprocess` reduction
//!   report), the artifact CI uploads,
//! * `--trace PATH` — record engine telemetry for every design into one
//!   `itpseq-trace/v1` JSONL stream,
//! * `--chrome-trace PATH` — the same telemetry as a Chrome trace-event
//!   file (load in Perfetto or `chrome://tracing`),
//! * `--report PATH` — the span-tree analysis of the recorded telemetry
//!   (schema `itpseq-report/v1`),
//! * `--folded PATH` — the telemetry as inferno-compatible collapsed
//!   stacks (pipe through `inferno-flamegraph` for an SVG),
//! * `--timeout-ms N` / `--max-bound N` — per-design budget (defaults:
//!   5000 ms, bound 40),
//! * `--certify` / `--cert-dir DIR` — write per-design certificate
//!   bundles (schema `itpseq-cert/v1`) for the independent checker; the
//!   `.aag` written next to each document is the *post-promotion* design
//!   (before preprocessing — certificates are reconstructed back to it),
//!   so property indices match the certified statuses.
//!
//! Files without an AIGER 1.9 `B` section fall back to the pre-1.9 HWMCC
//! convention: every *output* is a bad-state property
//! ([`aig::Aig::promote_outputs_to_bad`]).  Unparsable files are reported
//! (and counted as errors in the exit code) but do not abort the run, and
//! each design runs inside its own panic-containment domain: a fault in
//! one design is reported as its error while the rest of the directory
//! still completes.

use itpseq_bench::{
    cert_file_stem, hwmcc_records_to_json, with_capture, write_cert_bundle, HwmccRecord,
    TraceCapture, TracePaths,
};
use mc::{CertRecord, Engine, Options};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn usage() -> ! {
    let engines: Vec<String> = Engine::ALL
        .iter()
        .map(|engine| engine.name().to_ascii_lowercase())
        .collect();
    eprintln!(
        "usage: hwmcc DIR [--engine {}] [--json PATH] \
         [--trace PATH] [--chrome-trace PATH] [--report PATH] [--folded PATH] \
         [--timeout-ms N] [--max-bound N] [--certify] [--cert-dir DIR]",
        engines.join("|")
    );
    std::process::exit(2);
}

/// The engine whose [`Engine::name`] is `name`, case-insensitively.
fn engine_by_name(name: &str) -> Option<Engine> {
    Engine::ALL
        .into_iter()
        .find(|engine| engine.name().eq_ignore_ascii_case(name))
}

/// The `.aag` files of `dir`, sorted by file name for a stable report.
fn aag_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.is_file() && path.extension().is_some_and(|ext| ext == "aag"))
        .collect();
    files.sort();
    Ok(files)
}

/// The panic payload's message, for the per-design fault report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Runs one file; the returned design is the parsed, *post-promotion*
/// AIG (the one the engines actually saw), used for certificate bundles.
fn run_file(path: &Path, engine: Engine, options: &Options) -> (HwmccRecord, Option<aig::Aig>) {
    let file = file_name(path);
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return (
                HwmccRecord {
                    file,
                    inputs: 0,
                    latches: 0,
                    ands: 0,
                    promoted_outputs: false,
                    result: Err(format!("cannot read: {e}")),
                    preprocess: None,
                },
                None,
            )
        }
    };
    let mut aig = match aig::parse_aag(&text) {
        Ok(aig) => aig,
        Err(e) => {
            return (
                HwmccRecord {
                    file,
                    inputs: 0,
                    latches: 0,
                    ands: 0,
                    promoted_outputs: false,
                    result: Err(e.to_string()),
                    preprocess: None,
                },
                None,
            )
        }
    };
    let promoted_outputs = aig.promote_outputs_to_bad() > 0;
    // The staged pipeline, spelled out so the report can carry the
    // per-pass reduction statistics: preprocess once, solve every
    // property on the reduced model, reconstruct statuses/certificates
    // back to the post-promotion design the bundle ships.
    let (result, preprocess) = if options.preprocess.enabled() {
        let prepared = mc::prepare(&aig, options);
        let stats = prepared.stats.clone();
        (prepared.verify_all(engine, options), Some(stats))
    } else {
        (engine.verify_all(&aig, options), None)
    };
    let record = HwmccRecord {
        file,
        inputs: aig.num_inputs(),
        latches: aig.num_latches(),
        ands: aig.num_ands(),
        promoted_outputs,
        result: Ok(result),
        preprocess,
    };
    (record, Some(aig))
}

fn main() {
    let mut dir: Option<String> = None;
    let mut engine = Engine::Portfolio;
    let mut json_path: Option<String> = None;
    let mut trace = TracePaths::default();
    let mut timeout = Duration::from_secs(5);
    let mut max_bound = 40usize;
    let mut cert_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--certify" => {
                cert_dir.get_or_insert_with(|| PathBuf::from("certs"));
            }
            "--cert-dir" => cert_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--engine" => {
                let name = args.next().unwrap_or_else(|| usage());
                engine = engine_by_name(&name).unwrap_or_else(|| usage());
            }
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace.jsonl = Some(args.next().unwrap_or_else(|| usage())),
            "--chrome-trace" => trace.chrome = Some(args.next().unwrap_or_else(|| usage())),
            "--report" => trace.report = Some(args.next().unwrap_or_else(|| usage())),
            "--folded" => trace.folded = Some(args.next().unwrap_or_else(|| usage())),
            "--timeout-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                timeout = Duration::from_millis(ms);
            }
            "--max-bound" => {
                max_bound = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_string()),
            _ => usage(),
        }
    }
    let dir = dir.unwrap_or_else(|| usage());
    let files = aag_files(Path::new(&dir)).unwrap_or_else(|e| {
        eprintln!("hwmcc: cannot list {dir}: {e}");
        std::process::exit(2);
    });
    if files.is_empty() {
        eprintln!("hwmcc: no .aag files under {dir}");
        std::process::exit(2);
    }

    let capture = TraceCapture::new(trace);
    let options = with_capture(
        Options::default()
            .with_timeout(timeout)
            .with_max_bound(max_bound),
        capture.as_ref(),
    );
    println!(
        "# hwmcc run — {} designs, engine {}, timeout {} ms, bound {}",
        files.len(),
        engine.name(),
        timeout.as_millis(),
        max_bound
    );
    println!(
        "{:<28} {:>4} {:>4} {:>5} | per-property statuses",
        "file", "#PI", "#FF", "#P"
    );

    let mut records = Vec::with_capacity(files.len());
    let mut errors = 0usize;
    for path in &files {
        // One design is one containment domain: a panic that escapes the
        // engines' own containment becomes this design's error record and
        // the remaining designs still run.
        let (record, design) = catch_unwind(AssertUnwindSafe(|| run_file(path, engine, &options)))
            .unwrap_or_else(|payload| {
                (
                    HwmccRecord {
                        file: file_name(path),
                        inputs: 0,
                        latches: 0,
                        ands: 0,
                        promoted_outputs: false,
                        result: Err(format!("panic: {}", panic_message(payload.as_ref()))),
                        preprocess: None,
                    },
                    None,
                )
            });
        match &record.result {
            Ok(result) => {
                let cells: Vec<String> = result
                    .statuses
                    .iter()
                    .enumerate()
                    .map(|(i, s)| format!("p{i}: {s}"))
                    .collect();
                println!(
                    "{:<28} {:>4} {:>4} {:>5} | {}{}",
                    record.file,
                    record.inputs,
                    record.latches,
                    result.statuses.len(),
                    cells.join("; "),
                    if record.promoted_outputs {
                        "  [outputs promoted]"
                    } else {
                        ""
                    }
                );
            }
            Err(message) => {
                errors += 1;
                println!("{:<28} skipped: {message}", record.file);
            }
        }
        if let (Some(dir), Ok(result), Some(design)) = (&cert_dir, &record.result, &design) {
            let _write = options.telemetry.span("certificate.write");
            let cert_records: Vec<CertRecord> = result
                .statuses
                .iter()
                .enumerate()
                .map(|(i, status)| CertRecord::from_status(i, Some(engine.name()), status))
                .collect();
            let stem = cert_file_stem(record.file.trim_end_matches(".aag"));
            write_cert_bundle(dir, &stem, design, &cert_records).unwrap_or_else(|e| {
                eprintln!("hwmcc: cannot write certificates to {}: {e}", dir.display());
                std::process::exit(1);
            });
        }
        records.push(record);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, hwmcc_records_to_json(engine, &records)).unwrap_or_else(|e| {
            eprintln!("hwmcc: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} design records to {path}", records.len());
    }
    if let Some(capture) = &capture {
        if let Err(message) = capture.write() {
            eprintln!("hwmcc: {message}");
            std::process::exit(1);
        }
    }
    if errors > 0 {
        eprintln!("hwmcc: {errors} file(s) failed to parse");
        std::process::exit(1);
    }
}
