//! The blazer benchmark: three workloads driven through the crates'
//! public APIs, end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run. See `README.md` for the metric
//! definitions and the layer-to-end-to-end map.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod serve_mix;
pub mod spans;

use std::path::PathBuf;
use std::time::Duration;

/// Every workload name the benchmark accepts.
pub const WORKLOADS: [&str; 3] = ["prove-safe", "find-attack", "serve-mix"];

/// Environment variables that change what an analysis does (engine,
/// seeding, faults, width, backend, domain, cost model) or how long it
/// takes (bound tracing to stderr). A run refuses to start while any is set.
pub const PINNED_ENV: [&str; 10] = [
    "BLAZER_AUTOMATA",
    "BLAZER_NO_SEED",
    "BLAZER_CHECK_SEEDS",
    "BLAZER_ASSERT_SEEDS",
    "BLAZER_FAULT",
    "BLAZER_THREADS",
    "BLAZER_BACKEND",
    "BLAZER_DOMAIN",
    "BLAZER_COST_MODEL",
    "BLAZER_TRACE_BOUNDS",
];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Permutes program order (and, for `serve-mix`, hit order, miss
    /// positions and miss tags).
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans (JSON lines); `None` keeps them
    /// in memory only.
    pub spans_path: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run: the verdict accounting plus its metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output checked out (verdicts, replies, determinism).
    pub correct: bool,
    /// Operations attempted: analyses, or requests.
    pub attempted: u64,
    /// Operations that errored, panicked, answered a non-200 status or a
    /// verdict other than the expected one, or were not deterministic.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Reported figures that are not in the final line (they may be 0, so
    /// they carry no bound): printed as `# name value unit`.
    pub extra: Vec<Metric>,
    /// Human-readable findings (failures, determinism mismatches).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric of the final line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a figure printed beside the final line.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric { name, value, unit });
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Looks a metric up by name (final-line metrics first).
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().chain(&self.extra).find(|m| m.name == name)
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
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

/// A JSON number with every digit the measurement has (non-finite values,
/// which JSON cannot carry, print as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// `a ÷ b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 for an empty slice); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `pct`-th percentile of an ascending slice (nearest rank; 0 for an
/// empty slice).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

/// A small deterministic generator (SplitMix64): the same seed yields the
/// same program orders, miss positions and miss tags on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Refuses to run while an analysis-altering variable is set.
pub fn check_env() -> Result<(), String> {
    let set: Vec<&str> =
        PINNED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with analysis-altering variables set: {}", set.join(", ")))
    }
}

/// The machine and build a result was measured on, as one JSON object:
/// logical CPUs, CPU model, rustc version, and the git commit of the
/// checkout (`unknown` outside a git work tree).
pub fn machine_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        blazer_ir::json::escape(&model),
        blazer_ir::json::escape(&rustc),
        blazer_ir::json::escape(&git_commit())
    )
}

/// The commit checked out in the current directory, read from `.git`
/// without running git.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l.split(' ').next().unwrap_or("").to_string())
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

/// The end-to-end metrics (untraced run), every workload: name and unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("safety_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")];

/// The per-layer metrics (traced run): name and unit. A workload that does
/// not exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("lang.compile_s", "s"),
    ("lang.blocks", "count"),
    ("taint.s", "s"),
    ("core.analyze_s", "s"),
    ("core.safety_s", "s"),
    ("core.attack_s", "s"),
    ("core.trails", "count"),
    ("core.refinement_steps", "count"),
    ("core.trails_evaluated", "count"),
    ("core.seeded_frac", "ratio"),
    ("core.seeds_rejected", "count"),
    ("core.degradations", "count"),
    ("core.fixpoint_passes", "count"),
    ("refine.partition_calls", "count"),
    ("refine.partition_s", "s"),
    ("refine.block_split_calls", "count"),
    ("refine.block_split_s", "s"),
    ("refine.split_frac", "ratio"),
    ("automata.macro_states", "count"),
    ("automata.prunes", "count"),
    ("automata.prune_frac", "ratio"),
    ("automata.dfa_s", "s"),
    ("automata.dfa_states", "count"),
    ("absint.product_s", "s"),
    ("absint.product_nodes", "count"),
    ("absint.product_edges", "count"),
    ("absint.fixpoint_s", "s"),
    ("absint.fixpoint_passes", "count"),
    ("domains.lp_calls", "count"),
    ("domains.lp_per_pass", "ratio"),
    ("domains.overflow_events", "count"),
    ("bounds.s", "s"),
    ("bounds.self_s", "s"),
    ("bounds.lp_calls", "count"),
    ("bounds.unbounded", "count"),
    ("observer.judge_calls", "count"),
    ("observer.judge_s", "s"),
    ("observer.narrow_frac", "ratio"),
    ("attack.concretize_s", "s"),
    ("attack.witness_frac", "ratio"),
    ("http.parse_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.key_s", "s"),
    ("serve.cache_get_s", "s"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.analyses_run", "count"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.replay_s", "s"),
];

/// Whether a per-layer metric is an analysis count that must repeat
/// exactly across traced runs and seeds (serve and trace counts grow with
/// the measuring time).
pub fn is_count(name: &str) -> bool {
    PER_LAYER.iter().any(|&(n, u)| n == name && u == "count")
        && !name.starts_with("serve.")
        && !name.starts_with("trace.")
}

/// Runs one workload and puts its metrics in the order (and set) of
/// [`END_TO_END`] or [`PER_LAYER`].
pub fn run(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    let mut out = match workload {
        "prove-safe" | "find-attack" => {
            let benches = analysis::workload_programs(workload);
            let mut out = analysis::run(&benches, settings);
            if settings.trace {
                serve_mix::trace_serve_layers(&mut out, settings)?;
            }
            out
        }
        "serve-mix" => serve_mix::run(&serve_mix::hit_set(), settings)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    normalize(&mut out, settings.trace);
    Ok(out)
}

/// Orders the final-line metrics by the canonical list, moves any other
/// figure beside it, and fills layers the workload does not exercise with
/// 0. A missing end-to-end metric is a failed run.
pub fn normalize(out: &mut Outcome, trace: bool) {
    let canonical: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut measured = std::mem::take(&mut out.metrics);
    for &(name, unit) in canonical {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(measured.remove(i)),
            None if trace => out.metrics.push(Metric { name, value: 0.0, unit }),
            None => {
                out.correct = false;
                out.notes.push(format!("end-to-end metric {name} was not measured"));
                out.metrics.push(Metric { name, value: 0.0, unit });
            }
        }
    }
    out.extra.extend(measured);
}
