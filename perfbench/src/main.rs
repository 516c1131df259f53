//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a record line (workload, seed, nproc, commit, `rustc -V`), one
//! `name value unit` line per metric and per deterministic outcome value,
//! and, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Bad arguments exit with code 2, a failed run with code 1.

use cyclosa_util::json::Json;
use perfbench::cli;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let head = read(&git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(name) => read(&git.join(name))
            .map(|h| h.trim().to_owned())
            .or_else(|| {
                read(&git.join("packed-refs"))?.lines().find_map(|line| {
                    line.strip_suffix(name)?
                        .strip_suffix(' ')
                        .map(str::to_owned)
                })
            }),
    };
    hash.filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned()))
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(argv.iter().map(String::as_str)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(message) = cli::check_threads(args.workload, nproc) {
        eprintln!("perfbench: {message}");
        return ExitCode::from(2);
    }

    let record = Json::Obj(vec![
        (
            "workload".to_owned(),
            Json::Str(args.workload.as_str().to_owned()),
        ),
        ("seed".to_owned(), Json::U64(args.seed)),
        ("seconds".to_owned(), Json::U64(args.seconds)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        (
            "threads".to_owned(),
            Json::U64(args.workload.threads() as u64),
        ),
        ("nproc".to_owned(), Json::U64(nproc as u64)),
        ("commit".to_owned(), Json::Str(commit())),
        ("rustc".to_owned(), Json::Str(rustc_version())),
    ]);
    println!("# record {}", record.compact());

    let report = match perfbench::run(&args) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    for (name, value) in &report.outcome {
        println!("# outcome {name} {value}");
    }
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    for (metric, value) in &report.metrics {
        println!("{:<36} {value} {}", metric.name, metric.unit);
    }
    let metrics = report
        .metrics
        .iter()
        .map(|(metric, value)| {
            let entry = Json::Obj(vec![
                ("value".to_owned(), Json::F64(*value)),
                ("unit".to_owned(), Json::Str(metric.unit.to_owned())),
            ]);
            (metric.name.to_owned(), entry)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(report.correct())),
        ("attempted".to_owned(), Json::U64(report.attempted)),
        ("failed".to_owned(), Json::U64(report.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}
