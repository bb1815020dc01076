//! The `POST /analyze` request model and execution path.
//!
//! A request carries surface-language source plus per-request analysis
//! options (domain, observer, deadline, LP cap). Execution is fully
//! isolated: the driver runs under `catch_unwind` with its own installed
//! budget, so a pathological or crashing submission is answered with a
//! structured error while the server keeps serving.

use crate::cache::CacheKey;
use crate::report;
use blazer_core::{Blazer, Config, DomainKind, UnknownReason, Verdict};
use blazer_ir::cost::CostModel;
use blazer_ir::json::Json;
use blazer_portfolio::{analyze_portfolio, epsilon_for, Backend};
use std::time::{Duration, Instant};

/// A parsed `POST /analyze` body.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Surface-language source text.
    pub source: String,
    /// Function to analyze; the program's first function when `None`.
    pub function: Option<String>,
    /// Numeric abstract domain (default polyhedra).
    pub domain: DomainKind,
    /// Observer model: `"degree"` (default) or `"stac"`.
    pub observer: String,
    /// Per-request wall-clock deadline in seconds.
    pub timeout_s: Option<f64>,
    /// Per-request LP-call cap.
    pub max_lp_calls: Option<u64>,
    /// Skip attack synthesis after a failed safety proof.
    pub no_attack: bool,
    /// Verification backend: the decomposition driver (default), the
    /// self-composition baseline, or a portfolio race of both.
    pub backend: Backend,
    /// Observer cost model: `"unit"` (default), `"weighted"`, `"cache"`,
    /// or a `{"kind": ...}` parameter object.
    pub cost_model: CostModel,
}

impl AnalyzeRequest {
    /// A request with default options for `source`.
    pub fn new(source: impl Into<String>) -> AnalyzeRequest {
        AnalyzeRequest {
            source: source.into(),
            function: None,
            domain: DomainKind::Polyhedra,
            observer: "degree".to_string(),
            timeout_s: None,
            max_lp_calls: None,
            no_attack: false,
            backend: Backend::Decomp,
            cost_model: CostModel::unit(),
        }
    }

    /// Parses a request from its JSON body. Unknown members are rejected
    /// so a typoed option fails loudly instead of silently analyzing with
    /// defaults.
    pub fn from_json(doc: &Json) -> Result<AnalyzeRequest, String> {
        let Json::Obj(pairs) = doc else {
            return Err("request body must be a JSON object".to_string());
        };
        let mut req = AnalyzeRequest::new(String::new());
        let mut saw_source = false;
        for (key, value) in pairs {
            match key.as_str() {
                "source" => {
                    req.source = value
                        .as_str()
                        .ok_or("\"source\" must be a string of surface-language code")?
                        .to_string();
                    saw_source = true;
                }
                "function" => {
                    req.function =
                        Some(value.as_str().ok_or("\"function\" must be a string")?.to_string());
                }
                "domain" => {
                    req.domain = value
                        .as_str()
                        .and_then(|s| s.parse().ok())
                        .ok_or("\"domain\" must be interval|zone|octagon|polyhedra")?;
                }
                "observer" => {
                    req.observer = match value.as_str() {
                        Some(o @ ("degree" | "stac")) => o.to_string(),
                        _ => return Err("\"observer\" must be degree|stac".to_string()),
                    };
                }
                "timeout_s" => {
                    req.timeout_s = Some(
                        value
                            .as_f64()
                            .filter(|s| *s > 0.0)
                            .ok_or("\"timeout_s\" must be a positive number")?,
                    );
                }
                "max_lp_calls" => {
                    req.max_lp_calls = Some(value.as_u64().ok_or(
                        "\"max_lp_calls\" must be a non-negative \
                                                   integer",
                    )?);
                }
                "no_attack" => {
                    req.no_attack = value.as_bool().ok_or("\"no_attack\" must be a boolean")?;
                }
                "backend" => {
                    req.backend = value
                        .as_str()
                        .ok_or("\"backend\" must be a string")?
                        .parse()
                        .map_err(|e| format!("\"backend\": {e}"))?;
                }
                "cost_model" => {
                    req.cost_model =
                        CostModel::from_json(value).map_err(|e| format!("\"cost_model\": {e}"))?;
                }
                other => return Err(format!("unknown request member \"{other}\"")),
            }
        }
        if !saw_source {
            return Err("missing required member \"source\"".to_string());
        }
        Ok(req)
    }

    /// Serializes the request (the client subcommand's wire format).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("source".to_string(), Json::from(self.source.clone()))];
        if let Some(f) = &self.function {
            pairs.push(("function".to_string(), Json::from(f.clone())));
        }
        if self.domain != DomainKind::Polyhedra {
            pairs.push(("domain".to_string(), Json::from(self.domain.to_string())));
        }
        if self.observer != "degree" {
            pairs.push(("observer".to_string(), Json::from(self.observer.clone())));
        }
        if let Some(t) = self.timeout_s {
            pairs.push(("timeout_s".to_string(), Json::Num(t)));
        }
        if let Some(n) = self.max_lp_calls {
            pairs.push(("max_lp_calls".to_string(), Json::from(n)));
        }
        if self.no_attack {
            pairs.push(("no_attack".to_string(), Json::Bool(true)));
        }
        if self.backend != Backend::Decomp {
            pairs.push(("backend".to_string(), Json::from(self.backend.as_str())));
        }
        if self.cost_model != CostModel::unit() {
            pairs.push(("cost_model".to_string(), self.cost_model.to_json()));
        }
        Json::Obj(pairs)
    }

    /// The configuration fingerprint half of the cache key: every option
    /// that can change the response. Thread width is deliberately absent —
    /// verdicts are identical at every width. The backend is present: a
    /// self-composition or portfolio response carries backend-specific
    /// members (winner, leakage, verification status), so serving one for
    /// a plain decomposition request would be a cache-poisoning collision.
    /// (The cost model is likewise present — bounds, verdicts, leakage, and
    /// attack witnesses are all priced under it, so two requests differing
    /// only in `cost_model` must never share a cache entry or a
    /// single-flight slot.)
    pub fn fingerprint(&self) -> String {
        format!(
            "domain={};observer={};timeout_s={:?};max_lp_calls={:?};no_attack={};backend={};\
             cost_model={}",
            self.domain,
            self.observer,
            self.timeout_s,
            self.max_lp_calls,
            self.no_attack,
            self.backend,
            self.cost_model
        )
    }

    /// The content-addressed cache key for this request.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new(&self.source, self.function.as_deref(), &self.fingerprint())
    }

    /// The driver configuration this request asks for. `max_timeout`
    /// clamps the deadline server-side; `threads` pins the per-analysis
    /// trail-evaluation width (a busy server parallelizes across requests,
    /// not within one).
    pub fn to_config(&self, max_timeout: Option<Duration>, threads: usize) -> Config {
        let mut config = match self.observer.as_str() {
            "stac" => Config::stac(),
            _ => Config::microbench(),
        };
        config.domain = self.domain;
        config.cost_model = self.cost_model.clone();
        config.synthesize_attack = !self.no_attack;
        config.threads = Some(threads);
        let requested = self.timeout_s.map(Duration::from_secs_f64);
        if let Some(deadline) = match (requested, max_timeout) {
            (Some(r), Some(cap)) => Some(r.min(cap)),
            (r, cap) => r.or(cap),
        } {
            config = config.with_timeout(deadline);
        }
        if let Some(n) = self.max_lp_calls {
            config = config.with_max_lp_calls(n);
        }
        config
    }
}

/// The executed result of one analyze request, before HTTP framing.
pub struct AnalyzeResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: Json,
    /// Whether the (successful) response should enter the verdict cache.
    pub cacheable: bool,
    /// Which backend won, when this response came from a portfolio race
    /// (`None` for plain requests, cache hits, and failed races).
    pub winner: Option<Backend>,
    /// Whether a portfolio race revoked the shared ledger to cancel the
    /// losing backend.
    pub revoked: bool,
}

impl AnalyzeResponse {
    fn plain(status: u16, body: Json, cacheable: bool) -> AnalyzeResponse {
        AnalyzeResponse { status, body, cacheable, winner: None, revoked: false }
    }
}

fn error_body(error: impl Into<String>) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(error.into()))])
}

fn crash_response(msg: &str) -> AnalyzeResponse {
    AnalyzeResponse::plain(500, error_body(format!("analysis crashed: {msg}")), false)
}

/// The non-cacheable 422 answer of a budget-exhausted analysis: the
/// budget describes this request, not the program, so the result must
/// never be served to a future (possibly better-funded) submission.
fn exhausted_response(
    resource: &impl std::fmt::Display,
    wall_s: f64,
    budget: &blazer_core::BudgetReport,
) -> AnalyzeResponse {
    let body = Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::from(format!("analysis budget exhausted: {resource}"))),
        ("verdict", Json::from("unknown")),
        ("wall_s", Json::secs(wall_s)),
        ("budget", report::budget_json(budget)),
    ]);
    AnalyzeResponse::plain(422, body, false)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// A structured client error (malformed body, compile failure, unknown
/// function).
pub fn bad_request(error: impl Into<String>) -> AnalyzeResponse {
    AnalyzeResponse::plain(400, error_body(error), false)
}

/// Compiles and analyzes one request end to end, dispatching to the
/// requested backend. Never panics: driver crashes become structured 500
/// responses.
pub fn execute(
    req: &AnalyzeRequest,
    max_timeout: Option<Duration>,
    threads: usize,
) -> AnalyzeResponse {
    let started = Instant::now();
    let program = match blazer_lang::compile(&req.source) {
        Ok(p) => p,
        Err(e) => return bad_request(format!("compile error: {e}")),
    };
    let function = match &req.function {
        Some(f) => f.clone(),
        None => match program.functions().next() {
            Some(f) => f.name().to_string(),
            None => return bad_request("program contains no functions"),
        },
    };
    let config = req.to_config(max_timeout, threads);
    match req.backend {
        Backend::Decomp => execute_decomp(req, &program, &function, config, started),
        Backend::Selfcomp => execute_selfcomp(req, &program, &function, &config, started),
        Backend::Portfolio => execute_portfolio(req, &program, &function, &config, started),
    }
}

/// The default path: the decomposition driver alone.
fn execute_decomp(
    req: &AnalyzeRequest,
    program: &blazer_ir::Program,
    function: &str,
    config: Config,
    started: Instant,
) -> AnalyzeResponse {
    let analyzed = std::panic::catch_unwind({
        let program = program.clone();
        let function = function.to_string();
        move || Blazer::new(config).analyze(&program, &function)
    });
    let outcome = match analyzed {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return bad_request(format!("analysis error: {e}")),
        Err(payload) => return crash_response(&panic_text(payload)),
    };
    let wall_s = started.elapsed().as_secs_f64();
    if let Verdict::Unknown(UnknownReason::BudgetExhausted(resource)) = &outcome.verdict {
        return exhausted_response(resource, wall_s, &outcome.budget_report);
    }
    let Json::Obj(mut pairs) = report::outcome_json(program, &outcome, wall_s) else {
        unreachable!("outcome_json returns an object");
    };
    pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
    pairs.insert(1, ("key".to_string(), Json::Str(req.cache_key().address())));
    AnalyzeResponse::plain(200, Json::Obj(pairs), true)
}

/// The self-composition baseline alone: a sound safety proof when it
/// verifies, an honest `unknown` (never an attack claim) when it does not.
fn execute_selfcomp(
    req: &AnalyzeRequest,
    program: &blazer_ir::Program,
    function: &str,
    config: &Config,
    started: Instant,
) -> AnalyzeResponse {
    if program.function(function).is_none() {
        return bad_request(format!("analysis error: no such function: {function}"));
    }
    let epsilon = epsilon_for(&config.observer);
    let _guard = config.budget.install();
    let verified = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        blazer_selfcomp::verify(program, function, epsilon, &config.cost_model)
    }));
    let budget = blazer_ir::budget::report();
    let wall_s = started.elapsed().as_secs_f64();
    let result = match verified {
        Ok(r) => r,
        Err(payload) => return crash_response(&panic_text(payload)),
    };
    if let Some(resource) = &budget.exhausted {
        return exhausted_response(resource, wall_s, &budget);
    }
    let body = Json::obj([
        ("ok", Json::Bool(true)),
        ("key", Json::Str(req.cache_key().address())),
        ("function", Json::from(function)),
        ("backend", Json::from(Backend::Selfcomp.as_str())),
        ("verdict", Json::from(if result.verified { "safe" } else { "unknown" })),
        ("verified", Json::Bool(result.verified)),
        ("epsilon", Json::from(epsilon)),
        ("cost_model", config.cost_model.to_json()),
        ("diff_lower", result.diff_bounds.0.map(|r| r.to_f64()).map(Json::Num).into()),
        ("diff_upper", result.diff_bounds.1.map(|r| r.to_f64()).map(Json::Num).into()),
        ("composed_blocks", Json::from(result.composed_blocks)),
        ("wall_s", Json::secs(wall_s)),
        ("budget", report::budget_json(&budget)),
    ]);
    AnalyzeResponse::plain(200, body, true)
}

/// The portfolio race: both backends under one shared budget, first sound
/// verdict wins, quantified leakage attached.
fn execute_portfolio(
    req: &AnalyzeRequest,
    program: &blazer_ir::Program,
    function: &str,
    config: &Config,
    started: Instant,
) -> AnalyzeResponse {
    let report = match analyze_portfolio(program, function, config) {
        Ok(r) => r,
        Err(e) => return bad_request(format!("analysis error: {e}")),
    };
    let wall_s = started.elapsed().as_secs_f64();
    if report.winner.is_none() {
        if let Verdict::Unknown(UnknownReason::BudgetExhausted(resource)) = &report.verdict {
            return exhausted_response(resource, wall_s, &report.budget_report);
        }
        if report.outcome.is_none() {
            let msg = report.crash.as_deref().unwrap_or("both backends failed");
            return crash_response(msg);
        }
    }
    let Json::Obj(mut pairs) = report::portfolio_json(program, function, &report, wall_s) else {
        unreachable!("portfolio_json returns an object");
    };
    pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
    pairs.insert(1, ("key".to_string(), Json::Str(req.cache_key().address())));
    AnalyzeResponse {
        status: 200,
        body: Json::Obj(pairs),
        cacheable: true,
        winner: report.winner,
        revoked: report.revoked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_request_and_roundtrips() {
        let doc = Json::parse(
            r#"{"source": "fn f() { }", "function": "f", "domain": "zone",
                "observer": "stac", "timeout_s": 2.5, "max_lp_calls": 100,
                "no_attack": true}"#,
        )
        .unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req.domain, DomainKind::Zone);
        assert_eq!(req.observer, "stac");
        assert_eq!(req.timeout_s, Some(2.5));
        assert_eq!(req.max_lp_calls, Some(100));
        assert!(req.no_attack);
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn rejects_bad_members() {
        for (body, needle) in [
            (r#"{"function": "f"}"#, "source"),
            (r#"{"source": "x", "domain": "cube"}"#, "domain"),
            (r#"{"source": "x", "observer": "nsa"}"#, "observer"),
            (r#"{"source": "x", "timeout_s": -1}"#, "timeout_s"),
            (r#"{"source": "x", "frobnicate": 1}"#, "frobnicate"),
            (r#"[1, 2]"#, "object"),
        ] {
            let err = AnalyzeRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn fingerprint_separates_configs_but_not_threads() {
        let base = AnalyzeRequest::new("fn f() { }");
        let mut zoned = base.clone();
        zoned.domain = DomainKind::Zone;
        assert_ne!(base.fingerprint(), zoned.fingerprint());
        // Same request analyzed at different widths is the same key.
        assert_eq!(base.cache_key(), base.cache_key());
    }

    #[test]
    fn cache_key_separates_backends() {
        // Regression: the fingerprint once omitted the backend, so a
        // selfcomp or portfolio verdict (different body shape, different
        // soundness guarantees) could be cached and then served to a plain
        // decomposition request for the same source.
        let mut keys = Vec::new();
        for backend in [Backend::Decomp, Backend::Selfcomp, Backend::Portfolio] {
            let mut req = AnalyzeRequest::new("fn f(h: int #high) { tick(1); }");
            req.backend = backend;
            keys.push(req.cache_key());
        }
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn cache_key_separates_cost_models() {
        // Regression: the fingerprint once omitted the cost model, so a
        // verdict priced under the unit model could be cached (or joined
        // as an in-flight single-flight follower — the flight table is
        // keyed by the same cache key) and then served to a request asking
        // for the cache-aware observer, whose bounds, leakage, and attack
        // epsilon are all different.
        let mut keys = Vec::new();
        for model in [CostModel::unit(), CostModel::weighted(), CostModel::cache_aware()] {
            let mut req = AnalyzeRequest::new("fn f(a: int[] #high) { let x: int = a[0]; }");
            req.cost_model = model;
            keys.push(req.cache_key());
        }
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // A custom table is distinct from every preset too.
        let mut custom = AnalyzeRequest::new("fn f(a: int[] #high) { let x: int = a[0]; }");
        custom.cost_model =
            CostModel::from_json(&Json::parse(r#"{"kind": "weighted", "assign": 5}"#).unwrap())
                .unwrap();
        assert!(!keys.contains(&custom.cache_key()));
    }

    #[test]
    fn cost_model_roundtrips_and_default_is_omitted_from_wire() {
        // Preset by name.
        let doc = Json::parse(r#"{"source": "fn f() { }", "cost_model": "cache"}"#).unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req.cost_model, CostModel::cache_aware());
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
        // Custom object form.
        let doc = Json::parse(
            r#"{"source": "fn f() { }",
                "cost_model": {"kind": "cache", "hit": 2, "miss": 20, "ways": 2}}"#,
        )
        .unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        let params = req.cost_model.cache_params().expect("cache model");
        assert_eq!((params.hit, params.miss, params.ways), (2, 20, 2));
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
        // The default unit model stays off the wire for old-client parity.
        let plain = AnalyzeRequest::new("fn f() { }");
        assert!(plain.to_json().get("cost_model").is_none());
    }

    #[test]
    fn bad_cost_models_are_rejected_with_messages() {
        for (body, needle) in [
            (r#"{"source": "x", "cost_model": "l33t"}"#, "unknown cost model"),
            (r#"{"source": "x", "cost_model": {"assign": 1}}"#, "kind"),
            (
                r#"{"source": "x", "cost_model": {"kind": "cache", "hit": 9, "miss": 3}}"#,
                "miss >= hit",
            ),
            (r#"{"source": "x", "cost_model": {"kind": "cache", "ways": 0}}"#, ">= 1"),
            (r#"{"source": "x", "cost_model": {"kind": "weighted", "assign": -2}}"#, "negative"),
            (r#"{"source": "x", "cost_model": 17}"#, "name string or an object"),
        ] {
            let err = AnalyzeRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains("cost_model"), "{body} -> {err}");
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn backend_roundtrips_and_default_is_omitted_from_wire() {
        let doc = Json::parse(r#"{"source": "fn f() { }", "backend": "portfolio"}"#).unwrap();
        let req = AnalyzeRequest::from_json(&doc).unwrap();
        assert_eq!(req.backend, Backend::Portfolio);
        assert_eq!(AnalyzeRequest::from_json(&req.to_json()).unwrap(), req);
        // The default backend stays off the wire for old-client parity.
        let plain = AnalyzeRequest::new("fn f() { }");
        assert!(plain.to_json().get("backend").is_none());
        let bad = Json::parse(r#"{"source": "x", "backend": "quantum"}"#).unwrap();
        assert!(AnalyzeRequest::from_json(&bad).unwrap_err().contains("backend"));
    }

    #[test]
    fn execute_portfolio_reports_winner_and_leakage() {
        let mut req = AnalyzeRequest::new(
            "fn f(h: int #high) { if (h == 0) { tick(500); } else { tick(1); } }",
        );
        req.backend = Backend::Portfolio;
        let resp = execute(&req, None, 1);
        assert_eq!(resp.status, 200);
        assert!(resp.cacheable);
        // Selfcomp can never soundly report an attack: decomp must win.
        assert_eq!(resp.winner, Some(Backend::Decomp));
        assert_eq!(resp.body.get("verdict").and_then(Json::as_str), Some("attack"));
        assert_eq!(resp.body.get("winner").and_then(Json::as_str), Some("decomp"));
        assert!(resp
            .body
            .get("leakage_bits")
            .and_then(Json::as_f64)
            .is_some_and(|bits| bits >= 1.0));
        assert!(resp.body.get("portfolio").and_then(|p| p.get("decomp")).is_some());
    }

    #[test]
    fn execute_selfcomp_verifies_balanced_program() {
        let mut req =
            AnalyzeRequest::new("fn f(h: int #high) { if (h > 0) { tick(3); } else { tick(3); } }");
        req.backend = Backend::Selfcomp;
        let resp = execute(&req, None, 1);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.get("verdict").and_then(Json::as_str), Some("safe"));
        assert_eq!(resp.body.get("verified").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.body.get("backend").and_then(Json::as_str), Some("selfcomp"));
    }

    #[test]
    fn execute_reports_compile_errors_as_400() {
        let resp = execute(&AnalyzeRequest::new("fn broken( {"), None, 1);
        assert_eq!(resp.status, 400);
        assert!(!resp.cacheable);
        assert_eq!(resp.body.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn execute_clamps_deadline_and_reports_exhaustion_as_422() {
        let src = "fn f(h: int #high, low: int) { \
            if (h == 0) { let i: int = 0; while (i < low) { i = i + 1; } } \
            else { let i: int = low; while (i > 0) { i = i - 1; } } }";
        let mut req = AnalyzeRequest::new(src);
        req.timeout_s = Some(3600.0);
        let resp = execute(&req, Some(Duration::from_nanos(1)), 1);
        assert_eq!(resp.status, 422);
        assert!(!resp.cacheable);
        assert!(resp
            .body
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("budget exhausted")));
    }

    #[test]
    fn execute_analyzes_safe_program() {
        let resp = execute(
            &AnalyzeRequest::new(
                "fn f(h: int #high) { if (h > 0) { tick(3); } else { tick(3); } }",
            ),
            None,
            1,
        );
        assert_eq!(resp.status, 200);
        assert!(resp.cacheable);
        assert_eq!(resp.body.get("verdict").and_then(Json::as_str), Some("safe"));
        assert_eq!(resp.body.get("key").and_then(Json::as_str).map(str::len), Some(16));
    }
}
