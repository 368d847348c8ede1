//! Command-line entry: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the metric table, a context line (host fingerprint, seed,
//! parameters, flush policy) and, last, the JSON result line. Exits 1 when
//! an output check failed, 2 on a usage error (without a result line).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Options, Sizes, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-auto|wire-restricted|wire-rw> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let out_dir = PathBuf::from(".perfbench");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::paper(),
        work_dir: work_dir.clone(),
        out_dir,
    };
    let report = run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    // Leaves no empty scratch directory behind (traced runs keep theirs,
    // which holds the spans).
    let _ = std::fs::remove_dir(&opts.out_dir);
    print!("{}", report.table());
    for e in &report.errors {
        println!("check failed: {e}");
    }
    println!("{}", report.context_json());
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
