//! `cc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric of the run by name and unit, then, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 if any answer was wrong, 2 on a usage or environment error.
//! `--workload all` runs each workload in a child process of its own
//! (so `peak_rss_mb` belongs to one workload) and merges the results,
//! prefixing each metric with its workload name.

use std::process::{Command, ExitCode};

use cc_perfbench::run::{run_traced, run_untraced, Metric, Report, Settings};
use cc_perfbench::workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: cc-perfbench --workload <laplacian_stream|graph_churn|flow_ipm|all> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Caps the `cc-par` pool at the host's core count through
/// `CC_NUM_THREADS` (a lower cap already set is kept) and returns the
/// resulting pool size.
fn cap_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let set = std::env::var("CC_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0 && n <= cores);
    if set.is_none() {
        std::env::set_var("CC_NUM_THREADS", cores.to_string());
    }
    cc_par::max_threads()
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<36} {:>20} frac ({} of {} requests failed)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("# FAILED: {e}");
    }
}

fn run_one(workload: Workload, args: &Args, threads: usize) -> Result<ExitCode, String> {
    println!(
        "# cc-perfbench workload={} seed={} seconds={} trace={} | closed loop, 1 client | \
         cc-par threads={threads} (CC_NUM_THREADS capped at available cores)",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let settings = Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
    };
    let report = if args.trace {
        run_traced(&settings)
    } else {
        run_untraced(&settings)?
    };
    print_report(&report);
    println!(
        "{}",
        json(
            report.correct(),
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs every workload in a child process and merges their results.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let child = parse_result(last)
            .ok_or_else(|| format!("{} printed no result (status {})", w.name(), out.status))?;
        correct &= child.0 && out.status.success();
        attempted += child.1;
        failed += child.2;
        metrics.extend(child.3.into_iter().map(|m| Metric {
            name: format!("{}.{}", w.name(), m.name),
            ..m
        }));
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Parses the result line [`json`] writes.
fn parse_result(line: &str) -> Option<(bool, u64, u64, Vec<Metric>)> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        if entry.is_empty() {
            continue;
        }
        let name = entry.split('"').nth(1)?.to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }
    Some((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = cap_threads();
    let result = match (args.workload.as_str(), Workload::parse(&args.workload)) {
        ("all", _) => run_all(&args),
        (_, Some(w)) => run_one(w, &args, threads),
        (other, None) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
