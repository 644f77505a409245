//! Benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session-churn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); a log line with the host, the
//! revision and every other measured value goes to standard error.
//! `--scale tiny` runs toy sizes; `--spans FILE` (with `--trace 1`)
//! also writes every span as CSV.
//!
//! An untraced run is split over up to [`PROCESSES`] child processes of
//! this executable, run one after another. The first runs passes for its
//! share of `--seconds`; the others replay exactly those passes
//! (`--passes`). On a shared virtual machine the same pass ran up to 1.9×
//! slower from one second to the next as other guests came and went, so
//! each request is timed in every replay, the least time is kept, and the
//! kept times are scaled by a probe kernel timed before every pass (see
//! [`combine`]).

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use msd_perfbench::{
    combine, host, run, Options, Outcome, Scale, Workload, MIN_TIMED_REQUESTS, PROBE_REFERENCE_MS,
};

/// Child processes per untraced run, at most: one that sets the passes,
/// the rest replay them. Fewer replay when the first child needs more
/// than its share of the time to complete its minimum of requests.
const PROCESSES: u64 = 10;

/// glibc's initial `mmap` threshold, pinned in the children: left dynamic,
/// it rises after the first large block is freed, and whether later large
/// blocks then stay on the heap depended on the seed, moving peak RSS by
/// up to 1 MiB (20%) between runs.
const MMAP_THRESHOLD: &str = "131072";

/// A replay stops early once it has run this many times the first
/// process's time, so a slow spell of the host cannot stretch a run far
/// past its budget.
const REPLAY_SLACK: f64 = 1.25;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale full|tiny] [--spans FILE] [--passes <n|time>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut spans = None;
    let mut passes = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return usage(&format!("unknown scale {value}")),
                }
            }
            "--spans" => spans = Some(value.into()),
            "--passes" => match (value.as_str(), value.parse::<u64>()) {
                ("time", _) => passes = Some(None),
                (_, Ok(n)) if n > 0 => passes = Some(Some(n)),
                _ => return usage(&format!("bad --passes {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        spans,
        passes: passes.flatten(),
        min_timed_requests: MIN_TIMED_REQUESTS,
    };
    let outcome = if trace || passes.is_some() {
        let outcome = run(&opts);
        eprintln!("{}", outcome.detail_json(&opts));
        if !trace {
            println!("{}", outcome.sample_lines());
        }
        outcome
    } else {
        let runs = children(&args, seconds);
        let per_process: Vec<String> = [
            "setup_s",
            "throughput_rps",
            "latency_p50_ms",
            "latency_p99_ms",
        ]
        .iter()
        .map(|&name| {
            let values: Vec<String> = runs
                .iter()
                .flatten()
                .filter_map(|o| o.metrics.iter().find(|m| m.0 == name))
                .map(|m| m.1.to_string())
                .collect();
            format!("\"{name}\": [{}]", values.join(", "))
        })
        .collect();
        eprintln!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"processes\": {}, \
             \"nproc\": {}, \"revision\": \"{}\", \"per_process\": {{{}}}}}",
            workload.name(),
            seed,
            runs.len(),
            host::nproc(),
            host::revision(),
            per_process.join(", ")
        );
        let combined = combine(&runs);
        // Reported times are the least times multiplied by this scale.
        let probe_ms = msd_perfbench::stats::median(&combined.probes_ms);
        eprintln!(
            "{{\"probe_ms\": {probe_ms}, \"scale\": {}}}",
            PROBE_REFERENCE_MS / probe_ms
        );
        combined
    };
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

/// Runs the untraced workload in up to [`PROCESSES`] children, one after
/// another, and reads back their results. The first runs passes for an
/// equal share of `seconds` (longer if it needs to, to complete its
/// minimum of passes and requests); at least two others, and as many as
/// fit in `seconds`, replay the same passes, each stopping early after
/// [`REPLAY_SLACK`] times the first child's time. A child that fails to
/// start or to report yields `None`.
fn children(args: &[String], seconds: f64) -> Vec<Option<Outcome>> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return vec![None];
        }
    };
    let child = |seconds: f64, passes: String| {
        let output = Command::new(&exe)
            .args(args)
            .env("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD)
            .args(["--seconds", &seconds.to_string()])
            .args(["--passes", &passes])
            .stderr(Stdio::inherit())
            .output();
        match output {
            Ok(out) if out.status.success() => {
                Outcome::parse_process(&String::from_utf8_lossy(&out.stdout))
            }
            Ok(out) => {
                eprintln!("perfbench: child process failed: {}", out.status);
                None
            }
            Err(e) => {
                eprintln!("perfbench: cannot start child process: {e}");
                None
            }
        }
    };
    let share = seconds / PROCESSES as f64;
    let started = Instant::now();
    let first = child(share, "time".into());
    let Some(passes) = first.as_ref().map(|o| o.passes) else {
        return vec![first];
    };
    let cap = started.elapsed().as_secs_f64() * REPLAY_SLACK;
    let mut runs = vec![first];
    let mut last = 0.0;
    // Replay while the next replay, taking as long as the last, still
    // ends within `seconds`.
    while runs.len() < 3
        || (runs.len() < PROCESSES as usize && started.elapsed().as_secs_f64() + last <= seconds)
    {
        let replay_started = Instant::now();
        runs.push(child(cap, passes.to_string()));
        last = replay_started.elapsed().as_secs_f64();
    }
    runs
}
