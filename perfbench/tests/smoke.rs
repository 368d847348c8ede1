//! Tiny-size runs of every workload: every metric `BENCHMARK.json` names
//! is emitted under a valid name, timings carry sample counts, and two
//! seeds pass every output check (the traced runs also pass the replay
//! fidelity check).

use std::path::PathBuf;

use perfbench::report::valid_name;
use perfbench::{run, Options, Report, Sizes, Workload};

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()))
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let tag = format!("{}-{seed}-{trace}", workload.name());
    let dir = scratch(&tag);
    let report = run(&Options {
        workload,
        seed,
        seconds: 0.8,
        trace,
        sizes: Sizes::tiny(),
        work_dir: dir.join("db"),
        out_dir: dir.clone(),
    });
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("db"))
        .map(|d| d.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "database files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let rest = &text[start..];
    let end = rest.find(']').expect("section is a list");
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = s.trim_start().trim_start_matches(':').trim_start();
            s[1..].split('"').next().expect("quoted name").to_string()
        })
        .collect()
}

fn check(report: &Report, section: &str) {
    assert!(report.correct, "output checks failed: {:?}", report.errors);
    assert_eq!(report.failed, 0, "no operation may fail");
    assert!(report.attempted > 0);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        declared(section),
        "emitted metrics differ from BENCHMARK.json"
    );
    for m in report.metrics.iter().chain(&report.shown) {
        assert!(valid_name(&m.name), "invalid metric name {}", m.name);
        assert!(m.value.is_finite(), "{} is not a number", m.name);
        if matches!(m.unit, "s" | "ms" | "us" | "ns") {
            assert!(m.samples.is_some(), "timing {} has no sample count", m.name);
        }
    }
    let line = report.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
}

#[test]
fn every_workload_reports_every_end_to_end_metric_on_two_seeds() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let r = tiny(workload, seed, false);
            check(&r, "end_to_end");
            assert!(
                r.metric("error_rate").is_some(),
                "error_rate is not printed"
            );
            let write_metrics = ["write_p50_ms", "write_p99_ms", "write_ops_s"];
            for name in write_metrics {
                assert_eq!(
                    r.metric(name).is_some(),
                    workload.writes(),
                    "{name} is printed exactly where the workload writes"
                );
            }
            let mut timed = vec!["setup_s", "read_p50_ms", "read_p75_ms", "read_p95_ms"];
            if workload.writes() {
                timed.extend(["write_p50_ms", "write_p99_ms"]);
            }
            for name in timed {
                let m = r.metric(name).expect("emitted");
                assert!(
                    m.value > 0.0,
                    "{name} must be measured on {}",
                    workload.name()
                );
                assert!(m.samples.unwrap_or(0) > 0, "{name} has no samples");
            }
            assert!(r.metric("read_qps").expect("emitted").value > 0.0);
        }
    }
}

#[test]
fn every_traced_run_reports_every_per_layer_metric_and_replays_faithfully() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let r = tiny(workload, seed, true);
            check(&r, "per_layer");
            let coverage = r.metric("trace.self_time_coverage").expect("emitted").value;
            assert!(
                coverage > 0.0 && coverage <= 1.0 + 1e-9,
                "coverage {coverage}"
            );
            let pages = r.metric("heap.pages_per_read").expect("emitted").value
                + r.metric("index.pages_per_read").expect("emitted").value;
            assert!(pages > 0.0, "a traced read touches pages");
        }
    }
}

#[test]
fn unknown_workload_names_are_rejected() {
    assert!(Workload::parse("paper").is_none());
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
