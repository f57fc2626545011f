//! `trace-report` — span-tree analytics over any recorded
//! `itpseq-trace/v1` JSONL file (a `table1 --trace` / `hwmcc --trace`
//! run, or anything else that speaks the schema).
//!
//! ```text
//! trace-report TRACE.jsonl [options]
//!   --json PATH             write the itpseq-report/v1 JSON document
//!   --folded PATH           write the inferno-compatible folded stacks
//!   --quiet                 suppress the text table
//! ```
//!
//! Exits 0 on success, 2 on usage or I/O errors.

use telemetry::folded::folded_from_jsonl;
use telemetry::report::TraceReport;

fn usage() -> ! {
    eprintln!("usage: trace-report TRACE.jsonl [--json PATH] [--folded PATH] [--quiet]");
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("trace-report: {message}");
    std::process::exit(2);
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--folded" => folded_path = Some(args.next().unwrap_or_else(|| usage())),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_string())
            }
            other => fail(format!("unexpected argument {other:?}")),
        }
    }
    let trace_path = trace_path.unwrap_or_else(|| usage());

    let text =
        std::fs::read_to_string(&trace_path).unwrap_or_else(|e| fail(format!("{trace_path}: {e}")));
    let report =
        TraceReport::from_jsonl(&text).unwrap_or_else(|e| fail(format!("{trace_path}: {e}")));

    if !quiet {
        print!("{}", report.to_text());
    }
    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    }
    if let Some(path) = &folded_path {
        let folded = folded_from_jsonl(&text).unwrap_or_else(|e| fail(e));
        std::fs::write(path, folded).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    }
}
