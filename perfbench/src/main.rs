//! The repository benchmark: the paper's pipeline (hierarchy build, then
//! permutation routing and the paper's MST) and the CONGEST simulator's
//! Borůvka, timed from outside the library. See `README.md` beside this
//! package for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <amt_route|amt_mst|sim_boruvka|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The exit code is non-zero when any check failed.

mod calib;
mod host;
mod spans;
mod stats;
mod workloads;

use spans::{json_string, Tracer};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{Run, Sizes, END_TO_END, NAMES, PER_LAYER};

const USAGE: &str =
    "usage: amt-perfbench --workload <amt_route|amt_mst|sim_boruvka|all> --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amt-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host = host::Fingerprint::read();
    let mut tracer = Tracer::new(args.trace);
    let mut run = workloads::run(
        &args.workload,
        &Sizes::BENCH,
        args.seed,
        args.seconds,
        args.trace,
        &host,
        &mut tracer,
    );
    if args.trace {
        if let Some(&run_s) = run.metrics.get("run_s") {
            run.metrics.insert("trace.run_s", run_s);
        }
    }
    let sim_threads = host.sim_threads(usize::MAX);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host.line(sim_threads));
    print_human(&run, &tracer);
    if args.trace {
        write_spans(&args, &host.line(sim_threads), &tracer);
    }
    let line = result_line(
        &run,
        if args.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        },
    );
    println!("{line}");
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(run: &Run, tracer: &Tracer) {
    for (name, value, unit) in &run.notes {
        println!("metric {name} = {value} {unit}");
    }
    for (name, value) in &run.counters {
        println!("counter {name} = {value}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = run.metrics.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    let failed = run.failures.len() as f64;
    println!(
        "metric error_rate = {} ratio",
        failed / (run.attempted.max(1) as f64)
    );
    if let (Some(sched), Some(setup)) = (
        run.metrics.get("walks.schedule.full_round_s"),
        run.metrics.get("setup_wall_s"),
    ) {
        println!(
            "share walks.schedule.full_round_s {sched} s of setup_wall_s {setup} s = {:.1}%",
            100.0 * sched / setup
        );
    }
    for (name, t) in tracer.totals() {
        println!(
            "span {name}: count {} total {} s self {} s",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    for f in &run.failures {
        println!("FAILED {f}");
    }
}

/// The final JSON line. Metrics the run did not reach read 0.
fn result_line(run: &Run, metrics: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failures.is_empty(),
        run.attempted,
        run.failures.len()
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let v = run
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Writes the recorded spans under `out/` in this package.
fn write_spans(args: &Args, host: &str, tracer: &Tracer) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"spans\": {}}}\n",
        json_string(&args.workload),
        args.seed,
        json_string(host),
        tracer.to_json()
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("amt-perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Runs every workload untraced, then traced, each in its own process,
/// and reports the tracing overhead as traced minus untraced `run_s`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("amt-perfbench: cannot locate itself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut overhead = Vec::new();
    for name in NAMES {
        let mut run_s = [None, None];
        for (trace, slot) in ["0", "1"].into_iter().zip(&mut run_s) {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("amt-perfbench: cannot run {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            let key = if trace == "1" { "trace.run_s" } else { "run_s" };
            *slot = stdout.lines().last().and_then(|l| metric_value(l, key));
        }
        if let [Some(plain), Some(traced)] = run_s {
            overhead.push(format!(
                "trace overhead {name}: traced run_s {traced} s - untraced run_s {plain} s = {} s",
                traced - plain
            ));
        }
    }
    for line in overhead {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `value` of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("{}: {{\"value\": ", json_string(name)))?;
    let rest = &line[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload amt_mst --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("amt_mst", 7, 2.5, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload amt_mst --seed x --seconds 1").is_err());
        assert!(args("--workload amt_mst --seed 1").is_err());
        assert!(args("--workload amt_mst --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn result_line_round_trips_metric_values() {
        let mut run = Run {
            attempted: 3,
            ..Run::default()
        };
        run.metrics.insert("run_s", 0.125);
        run.metrics.insert("setup_s", 1.5);
        let line = result_line(&run, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert_eq!(metric_value(&line, "run_s"), Some(0.125));
        assert_eq!(metric_value(&line, "setup_s"), Some(1.5));
        assert_eq!(metric_value(&line, "peak_rss_mb"), Some(0.0));
    }
}
