//! Metrics, sample summaries, the host fingerprint and the output lines.

use std::fmt::Write as _;

/// Timing samples in one unit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` without samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The `p`-quantile by nearest rank; 0 without samples.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Samples split into consecutive windows of a run. Quantiles and rates
/// are taken per window and the median over the windows is reported, so a
/// burst of host noise moves one window rather than the result.
#[derive(Clone, Debug, Default)]
pub struct Windows {
    windows: Vec<(Samples, f64)>,
}

impl Windows {
    /// Starts a new window.
    pub fn open(&mut self) {
        self.windows.push((Samples::default(), 0.0));
    }

    /// Adds a sample to the current window.
    pub fn push(&mut self, v: f64) {
        if self.windows.is_empty() {
            self.open();
        }
        self.windows.last_mut().expect("opened").0.push(v);
    }

    /// Sets every window's length to `width`, except the last, which gets
    /// what remains of `total`.
    pub fn close_uniform(&mut self, width: f64, total: f64) {
        let n = self.windows.len();
        for (i, w) in self.windows.iter_mut().enumerate() {
            w.1 = if i + 1 == n {
                total - width * (n - 1) as f64
            } else {
                width
            };
        }
    }

    /// Windows opened so far.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// Samples over all windows.
    pub fn count(&self) -> usize {
        self.windows.iter().map(|w| w.0.len()).sum()
    }

    /// Median over the windows of each window's `p`-quantile; 0 without
    /// samples.
    pub fn quantile(&self, p: f64) -> f64 {
        let mut per = Samples::default();
        for (s, _) in self.windows.iter().filter(|w| !w.0.is_empty()) {
            per.push(s.quantile(p));
        }
        per.median()
    }

    /// Median over the windows of samples per second; 0 without windows.
    pub fn rate(&self) -> f64 {
        let mut per = Samples::default();
        for (s, secs) in self.windows.iter().filter(|w| w.1 > 0.0) {
            per.push(s.len() as f64 / secs);
        }
        per.median()
    }

    /// All samples in one set.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for (s, _) in &self.windows {
            for &v in s.values() {
                all.push(v);
            }
        }
        all
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind a timing (`None` for counts and ratios).
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run):
    /// the result line's `metrics`.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table only: measured and shown, but too
    /// dependent on the host's disk and steal time to carry a bound.
    pub shown: Vec<Metric>,
    /// Run context: host fingerprint, seed, workload parameters, flush
    /// policy, sample counts.
    pub context: Vec<(String, String)>,
    /// What failed, when something did.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric without a sample count.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: None,
        });
    }

    /// Adds a timing with the number of samples behind it.
    pub fn put_timing(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: Some(samples),
        });
    }

    /// Adds a metric to the table only.
    pub fn show(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<usize>) {
        self.shown.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Adds a context entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.into(), value.to_string()));
    }

    /// The metric with this name, from the result line or the table.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .chain(&self.shown)
            .find(|m| m.name == name)
    }

    /// The human-readable table: one metric per line, timings with their
    /// sample count; table-only metrics last, marked as such.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let rows = self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.shown.iter().map(|m| (m, "  [table only]")));
        for (m, tag) in rows {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(
                out,
                "{:<32} {:>16.6} {:<6}{n}{tag}",
                m.name, m.value, m.unit
            );
        }
        out
    }

    /// The context as one JSON object.
    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as JSON: every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `true` when `name` is a valid metric name: a letter or digit first,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Host fingerprint: git sha (read from `.git` in the working directory,
/// when the run starts in a git checkout), core count and CPU model.
pub fn host_context(report: &mut Report) {
    report.note(
        "git_sha",
        git_sha().unwrap_or_else(|| "unknown (not a git checkout)".into()),
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    report.note("cores", cores);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    report.note("cpu_model", cpu);
}

/// The commit `.git/HEAD` names, following one symbolic ref through the
/// loose refs or `packed-refs`.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`, when
/// readable: the share of time the hypervisor gave this VM's CPUs to
/// others, recorded with each run as a noise indicator.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.95), 95.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn windowed_quantiles_ignore_one_noisy_window() {
        let mut w = Windows::default();
        for k in 0..5 {
            w.open();
            for v in 1..=100 {
                w.push(if k == 2 { 10.0 * v as f64 } else { v as f64 });
            }
        }
        w.close_uniform(2.0, 10.0);
        assert_eq!(w.count(), 500);
        assert_eq!(w.quantile(0.5), 50.0);
        assert_eq!(w.quantile(0.95), 95.0);
        assert_eq!(w.rate(), 50.0);
    }

    #[test]
    fn names_follow_the_benchmark_rules() {
        assert!(valid_name("read_p50_ms"));
        assert!(valid_name("refine.ns_per_candidate"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        r.put("x", "ms", 1.25);
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
