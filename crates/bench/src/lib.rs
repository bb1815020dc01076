//! # blazer-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. 6). See the `table1`, `figure1`, and
//! `selfcomp_compare` binaries plus the Criterion benches under `benches/`.

#![forbid(unsafe_code)]

use blazer_benchmarks::{Benchmark, Expected, Group};
use blazer_core::{
    AnalysisOutcome, AntichainStats, Blazer, Config, DomainKind, SeedStats, Verdict,
};
use blazer_ir::cost::CostModel;
use blazer_portfolio::{analyze_portfolio, Backend, PortfolioReport};
use std::str::FromStr;
use std::time::Duration;

/// The table-wide overrides a harness run takes from its environment:
/// `BLAZER_DOMAIN` (domain ablation), `BLAZER_COST_MODEL` (cross-model
/// oracle sweeps) and `BLAZER_BACKEND` (portfolio rows). An unset variable
/// keeps the default; a value that names nothing is an error naming the
/// variable and the values it accepts, so a typo in a job's environment
/// cannot silently run (and pass) the default configuration.
#[derive(Debug, PartialEq)]
pub struct EnvOverrides {
    /// The numeric domain replacing the groups' polyhedra default.
    pub domain: Option<DomainKind>,
    /// The observer cost model replacing the unit default.
    pub cost_model: Option<CostModel>,
    /// The backend answering each row (decomposition when unset).
    pub backend: Backend,
}

impl EnvOverrides {
    /// Reads the overrides from the process environment.
    ///
    /// # Errors
    ///
    /// Names the first variable whose value is not one it accepts.
    pub fn from_env() -> Result<EnvOverrides, String> {
        EnvOverrides::parse(|name| std::env::var(name).ok())
    }

    /// Parses the overrides from a variable lookup.
    fn parse(get: impl Fn(&str) -> Option<String>) -> Result<EnvOverrides, String> {
        fn var<T: FromStr>(
            get: &impl Fn(&str) -> Option<String>,
            name: &str,
            accepted: &str,
        ) -> Result<Option<T>, String> {
            get(name)
                .map(|value| {
                    value
                        .parse()
                        .map_err(|_| format!("{name} must be one of {accepted}, got {value:?}"))
                })
                .transpose()
        }
        Ok(EnvOverrides {
            domain: var(&get, "BLAZER_DOMAIN", "interval|zone|octagon|polyhedra")?,
            cost_model: var(&get, "BLAZER_COST_MODEL", "unit|weighted|cache")?,
            backend: var(&get, "BLAZER_BACKEND", "decomp|selfcomp|portfolio")?
                .unwrap_or(Backend::Decomp),
        })
    }
}

/// The analysis configuration for a benchmark group (the two observer
/// models of Sec. 6.1), with the environment's [`EnvOverrides`] applied.
///
/// # Panics
///
/// When an override variable holds a value it does not accept.
pub fn config_for(group: Group) -> Config {
    let mut c = match group {
        Group::MicroBench => Config::microbench(),
        Group::Stac | Group::Literature => Config::stac(),
    };
    let overrides = EnvOverrides::from_env().unwrap_or_else(|e| panic!("{e}"));
    if let Some(domain) = overrides.domain {
        c.domain = domain;
    }
    if let Some(cost_model) = overrides.cost_model {
        c.cost_model = cost_model;
    }
    c
}

/// One Table-1 row.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub group: Group,
    pub size: usize,
    pub verdict: Verdict,
    pub expected: Expected,
    pub safety_time: Duration,
    pub with_attack_time: Option<Duration>,
    /// Total fixpoint passes the analysis consumed (from the budget
    /// ledger: top-level trail fixpoints, nested loop summaries, and the
    /// attack phase alike). Deterministic at every thread width, so the
    /// snapshot can track the incremental-seeding savings across commits.
    pub fixpoint_passes: u64,
    /// Per-trail seeding counters (trails seeded vs from-⊥, top-level pass
    /// split, rejected seeds).
    pub seed_stats: SeedStats,
    /// Antichain automata-engine counters (macro-states explored, prunes,
    /// classic fallbacks). All zeros for portfolio rows whose winning run
    /// produced no decomposition outcome.
    pub antichain_stats: AntichainStats,
    /// Which backend won, when the row came from a portfolio race (`None`
    /// for plain decomposition rows and undecided races).
    pub winner: Option<&'static str>,
    /// Quantified leakage in bits under the group's observer (`None` for
    /// plain decomposition rows).
    pub leakage_bits: Option<f64>,
}

impl Row {
    /// Whether the verdict matches the paper's.
    pub fn matches_paper(&self) -> bool {
        matches!(
            (&self.verdict, self.expected),
            (Verdict::Safe, Expected::Safe)
                | (Verdict::Attack(_), Expected::Attack)
                | (Verdict::Unknown(_), Expected::Unknown)
        )
    }
}

/// Analyzes one benchmark `runs` times and reports the median-timing run
/// (the paper takes the median of five runs).
pub fn run_benchmark(b: &Benchmark, runs: usize) -> Row {
    let program = b.compile();
    let blazer = Blazer::new(config_for(b.group));
    let mut outcomes: Vec<AnalysisOutcome> = (0..runs.max(1))
        .map(|_| blazer.analyze(&program, b.function).expect("benchmark analyzes"))
        .collect();
    outcomes.sort_by_key(|o| o.safety_time);
    let o = outcomes.swap_remove(outcomes.len() / 2);
    Row {
        name: b.name,
        group: b.group,
        size: o.n_blocks,
        with_attack_time: o.attack_time.map(|a| o.safety_time + a),
        fixpoint_passes: o.budget_report.fixpoint_passes,
        seed_stats: o.seed_stats,
        antichain_stats: o.antichain_stats,
        verdict: o.verdict,
        expected: b.expected,
        safety_time: o.safety_time,
        winner: None,
        leakage_bits: None,
    }
}

/// Analyzes one benchmark `runs` times under the portfolio race (the
/// decomposition driver vs the self-composition baseline on one shared
/// budget) and reports the median-wall-time run with its winner and
/// quantified leakage.
pub fn run_benchmark_portfolio(b: &Benchmark, runs: usize) -> Row {
    let program = b.compile();
    let config = config_for(b.group);
    let mut reports: Vec<PortfolioReport> = (0..runs.max(1))
        .map(|_| analyze_portfolio(&program, b.function, &config).expect("benchmark analyzes"))
        .collect();
    reports.sort_by_key(|r| r.wall);
    let r = reports.swap_remove(reports.len() / 2);
    let (size, safety_time, with_attack_time, seed_stats, antichain_stats) = match &r.outcome {
        Some(o) => (
            o.n_blocks,
            o.safety_time,
            o.attack_time.map(|a| o.safety_time + a),
            o.seed_stats,
            o.antichain_stats,
        ),
        None => (0, r.wall, None, SeedStats::default(), AntichainStats::default()),
    };
    Row {
        name: b.name,
        group: b.group,
        size,
        verdict: r.verdict,
        expected: b.expected,
        safety_time,
        with_attack_time,
        fixpoint_passes: r.budget_report.fixpoint_passes,
        seed_stats,
        antichain_stats,
        winner: r.winner.map(Backend::as_str),
        leakage_bits: Some(r.leakage.bits),
    }
}

/// [`run_benchmark`] or [`run_benchmark_portfolio`] by backend selection.
/// `Selfcomp` alone has no Table-1 row shape of its own; it is reported
/// through the portfolio path (where its verdict soundness is handled).
pub fn run_benchmark_with_backend(b: &Benchmark, runs: usize, backend: Backend) -> Row {
    match backend {
        Backend::Decomp => run_benchmark(b, runs),
        Backend::Selfcomp | Backend::Portfolio => run_benchmark_portfolio(b, runs),
    }
}

/// Like [`run_benchmark`], but isolates panics (injected faults, genuine
/// bugs) so one crashing benchmark cannot abort a whole table run. Returns
/// the panic payload as the error.
pub fn try_run_benchmark(b: &Benchmark, runs: usize) -> Result<Row, String> {
    try_run_benchmark_with_backend(b, runs, Backend::Decomp)
}

/// [`try_run_benchmark`] with an explicit backend selection.
pub fn try_run_benchmark_with_backend(
    b: &Benchmark,
    runs: usize,
    backend: Backend,
) -> Result<Row, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_benchmark_with_backend(b, runs, backend)
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_core::Verdict;

    #[test]
    fn config_selection_by_group() {
        // MicroBench gets the degree observer; STAC/Literature the
        // threshold observer.
        let micro = config_for(Group::MicroBench);
        assert!(matches!(micro.observer, blazer_bounds::Observer::DegreeEquivalence { .. }));
        for g in [Group::Stac, Group::Literature] {
            let c = config_for(g);
            assert!(matches!(c.observer, blazer_bounds::Observer::ConcreteThreshold { .. }));
        }
    }

    #[test]
    fn env_overrides_reject_unknown_values() {
        let unset = EnvOverrides::parse(|_| None).unwrap();
        assert_eq!(
            unset,
            EnvOverrides { domain: None, cost_model: None, backend: Backend::Decomp }
        );
        let set = EnvOverrides::parse(|name| {
            Some(
                match name {
                    "BLAZER_DOMAIN" => "zone",
                    "BLAZER_COST_MODEL" => "cache",
                    _ => "portfolio",
                }
                .to_string(),
            )
        })
        .unwrap();
        assert_eq!(set.domain, Some(DomainKind::Zone));
        assert_eq!(set.cost_model, Some(CostModel::cache_aware()));
        assert_eq!(set.backend, Backend::Portfolio);
        for (var, bad, accepted) in [
            ("BLAZER_DOMAIN", "polyhedron", "interval|zone|octagon|polyhedra"),
            ("BLAZER_COST_MODEL", "cached", "unit|weighted|cache"),
            ("BLAZER_BACKEND", "decmp", "decomp|selfcomp|portfolio"),
        ] {
            let err =
                EnvOverrides::parse(|name| (name == var).then(|| bad.to_string())).expect_err(var);
            assert!(err.contains(var) && err.contains(accepted) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn rows_compare_verdicts_to_expectations() {
        let row = |verdict: Verdict, expected: Expected| Row {
            name: "x",
            group: Group::MicroBench,
            size: 1,
            verdict,
            expected,
            safety_time: Duration::from_millis(1),
            with_attack_time: None,
            fixpoint_passes: 0,
            seed_stats: SeedStats::default(),
            antichain_stats: AntichainStats::default(),
            winner: None,
            leakage_bits: None,
        };
        let unknown = || Verdict::Unknown(blazer_core::UnknownReason::SearchExhausted);
        assert!(row(Verdict::Safe, Expected::Safe).matches_paper());
        assert!(row(unknown(), Expected::Unknown).matches_paper());
        assert!(!row(Verdict::Safe, Expected::Attack).matches_paper());
        assert!(!row(unknown(), Expected::Safe).matches_paper());
    }

    #[test]
    fn run_benchmark_fast_case() {
        let b = blazer_benchmarks::by_name("nosecret_safe").unwrap();
        let row = run_benchmark(&b, 3);
        assert!(row.matches_paper());
        assert!(row.with_attack_time.is_none());
        assert_eq!(row.size, 4);
    }
}
