//! Toy-scale self-test of the benchmark: every workload runs untraced and
//! traced, prints every metric by name with its unit, fails no request,
//! and answers bit-identically with and without the counting wrappers.
//! `BENCHMARK.json` must list exactly the metrics the benchmark prints.

use msd_perfbench::{
    combine, end_to_end_names, per_layer_names, run, Options, Outcome, Scale, Workload,
    PROBE_REFERENCE_MS,
};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        spans: None,
        passes: None,
        min_timed_requests: 100,
    }
}

fn assert_printed(json: &str, names: impl Iterator<Item = (&'static str, &'static str)>) {
    for (name, unit) in names {
        let entry = format!("\"{name}\": {{\"value\": ");
        let start = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {json}"));
        let rest = &json[start + entry.len()..];
        let end = rest.find(',').expect("value ends");
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{name} has no numeric value"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_end_to_end_metrics_without_errors() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, false));
        let json = outcome.result_json();
        assert!(outcome.correct, "{}: {json}", workload.name());
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.metrics.len(), end_to_end_names().count());
        assert_printed(&json, end_to_end_names());
        for &(name, value, _) in &outcome.metrics {
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let error_rate = outcome.detail.iter().find(|m| m.0 == "error_rate");
        assert_eq!(error_rate.map(|m| m.1), Some(0.0));
    }
}

#[test]
fn traced_runs_print_per_layer_metrics_and_match_untraced_answers() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, true));
        let json = outcome.result_json();
        assert!(outcome.correct, "{}: {json}", workload.name());
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        for &(plain, traced) in &outcome.digests {
            assert_eq!(
                Some(plain),
                traced,
                "{}: traced answers differ",
                workload.name()
            );
        }
        assert_eq!(outcome.metrics.len(), per_layer_names().count());
        assert_printed(&json, per_layer_names());
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.1)
                .expect("metric present")
        };
        assert_eq!(value("error_rate"), 0.0);
        assert!(value("trace.overhead_ratio") > 0.0);
        assert!(value("host.nproc") >= 1.0);
    }
}

#[test]
fn traced_spans_are_written_with_children_under_their_request() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serving-spans.csv");
    let mut opts = tiny(Workload::ServingFleet, true);
    opts.spans = Some(path.clone());
    assert!(run(&opts).correct);
    let csv = std::fs::read_to_string(&path).expect("spans written");
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let children: Vec<&Vec<&str>> = rows.iter().filter(|r| !r[1].is_empty()).collect();
    assert!(!children.is_empty());
    for child in children {
        let parent = &rows[child[1].parse::<usize>().expect("parent index")];
        assert_eq!(parent[2], "request");
        assert_eq!(parent[0], child[0], "child shares its request id");
        let ns = |row: &[&str], i: usize| row[i].parse::<u64>().expect("timestamp");
        assert!(ns(parent, 3) <= ns(child, 3) && ns(child, 4) <= ns(parent, 4));
    }
}

#[test]
fn the_command_combines_its_child_processes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "sharded-corpus",
            "--seed",
            "3",
            "--seconds",
            "0.05",
        ])
        .args(["--trace", "0", "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    let outcome = Outcome::parse_result(line).expect("a parsable result");
    assert!(outcome.correct, "{line}");
    assert_eq!(outcome.failed, 0);
    assert_printed(line, end_to_end_names());
    assert!(outcome.metrics.iter().all(|m| m.1 > 0.0), "{line}");
}

#[test]
fn replays_combine_to_the_least_time_of_each_request() {
    let replay = |latencies_ms: Vec<f64>, setups_s: Vec<f64>, probe_ms: f64| {
        let mut outcome = run(&tiny(Workload::SessionChurn, false));
        outcome.probes_ms = vec![probe_ms; setups_s.len()];
        outcome.latencies_ms = latencies_ms;
        outcome.setups_s = setups_s;
        Some(outcome)
    };
    // The second replay stopped early: it covers a prefix only. Both saw
    // the reference probe time, so nothing is scaled.
    let combined = combine(&[
        replay(vec![2.0, 1.0, 4.0], vec![0.3, 0.1], PROBE_REFERENCE_MS),
        replay(vec![1.0, 3.0], vec![0.2], PROBE_REFERENCE_MS),
    ]);
    assert!(combined.correct);
    assert_eq!(combined.latencies_ms, vec![1.0, 1.0, 4.0]);
    assert_eq!(combined.setups_s, vec![0.2, 0.1]);
    let value = |name: &str| combined.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    assert_eq!(value("throughput_rps"), Some(500.0));
    assert_eq!(value("latency_p50_ms"), Some(1.0));
    assert!((value("setup_s").unwrap() - 0.15).abs() < 1e-12);
    // A host running at half speed doubles the probe time; the scaled
    // timings read as at reference speed.
    let slow = combine(&[replay(vec![2.0, 2.0], vec![0.4], 2.0 * PROBE_REFERENCE_MS)]);
    let slow_value = |name: &str| slow.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    assert_eq!(slow_value("throughput_rps"), Some(1000.0));
    assert_eq!(slow_value("latency_p99_ms"), Some(1.0));
    assert!(!combine(&[replay(vec![1.0], vec![0.1], PROBE_REFERENCE_MS), None]).correct);
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn the_same_seed_replays_the_same_answers() {
    let a = run(&tiny(Workload::SessionChurn, false));
    let b = run(&tiny(Workload::SessionChurn, false));
    let first = |o: &msd_perfbench::Outcome| o.digests[..3].to_vec();
    assert_eq!(first(&a), first(&b));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = spec.matches("\"name\": ").count();
    let printed = end_to_end_names().count() + per_layer_names().count() + Workload::ALL.len();
    assert_eq!(listed, printed, "BENCHMARK.json lists {listed} names");
    for (name, unit) in end_to_end_names().chain(per_layer_names()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
