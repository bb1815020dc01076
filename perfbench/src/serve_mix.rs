//! The `serve-mix` workload: an in-process `blazer_serve::Server` driven
//! by a closed loop over one keep-alive connection. Nine requests in ten
//! are cache hits cycling over preloaded MicroBench sources; the tenth, at
//! a seeded position in each block of ten, submits a never-seen tiny
//! program and pays one driver run plus a cache insert.

use crate::spans::Recorder;
use crate::{median, percentile, ratio, Outcome, Rng, Settings};
use blazer_benchmarks::{Benchmark, Expected};
use blazer_ir::json::Json;
use blazer_serve::client::Session;
use blazer_serve::{AnalyzeRequest, ServeOptions, Server};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Requests per pass; `wall_s` is the median pass time.
pub const PASS_REQUESTS: usize = 1000;

/// One miss in every block of this many requests.
const MISS_EVERY: usize = 10;

/// Replays of each recorded hit request through the hit-path functions
/// in a traced run.
const REPLAY_ROUNDS: usize = 200;

/// The hit set: the 12 MicroBench sources, analyzed under the observer the
/// service defaults to (degree), which is their Table-1 observer.
pub fn hit_set() -> Vec<Benchmark> {
    blazer_benchmarks::micro::benchmarks()
}

/// A tiny safe program, distinct per `tag` (the tick constant makes the
/// source, and so the cache key, unique).
fn miss_source(tag: u64) -> String {
    format!("fn f(h: int #high) {{ if (h > 0) {{ tick({tag}); }} else {{ tick({tag}); }} }}")
}

fn expected_code(e: Expected) -> &'static str {
    match e {
        Expected::Safe => "safe",
        Expected::Attack => "attack",
        Expected::Unknown => "unknown",
    }
}

fn request_for(b: &Benchmark) -> AnalyzeRequest {
    let mut req = AnalyzeRequest::new(b.source);
    req.function = Some(b.function.to_string());
    req
}

/// Sends one request and checks the reply: a 200 with the expected
/// verdict.
fn exchange(
    session: &mut Session,
    req: &AnalyzeRequest,
    expected: &str,
    what: &dyn Fn() -> String,
) -> Result<(), String> {
    let (status, doc) = session.analyze(req).map_err(|e| format!("{}: {e}", what()))?;
    let verdict = doc.get("verdict").and_then(Json::as_str).unwrap_or("");
    if status != 200 || verdict != expected {
        return Err(format!(
            "{}: status {status}, verdict `{verdict}`, expected `{expected}`",
            what()
        ));
    }
    Ok(())
}

/// How long the serve part of an analysis workload's traced run drives
/// the server.
const LAYER_TRACE_SECONDS: f64 = 4.0;

/// Adds the serve and http layers to an analysis workload's traced run: a
/// short traced `serve-mix` over the usual hit set, whose `serve.*` and
/// `http.*` metrics, request accounting and span file join `out`. The
/// benchmark's gated workloads are the analysis ones (`serve-mix` on its
/// own spreads too much on a shared host, see README.md), so this is where
/// those layers are measured.
pub fn trace_serve_layers(out: &mut Outcome, settings: &Settings) -> Result<(), String> {
    let serve_settings = Settings {
        seconds: settings.seconds.min(std::time::Duration::from_secs_f64(LAYER_TRACE_SECONDS)),
        spans_path: settings.spans_path.as_ref().map(|p| p.with_extension("serve.jsonl")),
        ..settings.clone()
    };
    let serve = run(&hit_set(), &serve_settings)?;
    out.correct &= serve.correct;
    out.attempted += serve.attempted;
    out.failed += serve.failed;
    out.notes.extend(serve.notes);
    out.metrics.extend(
        serve
            .metrics
            .into_iter()
            .filter(|m| m.name.starts_with("serve.") || m.name.starts_with("http.")),
    );
    Ok(())
}

/// Runs `serve-mix` with `hits` as the preloaded hit set.
pub fn run(hits: &[Benchmark], settings: &Settings) -> Result<Outcome, String> {
    if hits.is_empty() {
        return Err("serve-mix needs at least one hit program".to_string());
    }
    let mut out = Outcome { correct: true, ..Outcome::default() };
    // One worker serves the one client connection; every analysis runs at
    // width 1. (A second client on a second connection doubled throughput
    // but did not narrow the run-to-run spread, and raised that of memory.)
    let setup = Instant::now();
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(1),
        queue_depth: 4,
        analysis_threads: 1,
        max_requests_per_connection: u64::MAX,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("serve-mix: server start: {e}"))?;
    let addr = server.addr().to_string();
    let result = drive(&server, &addr, hits, settings, setup, &mut out);
    server.stop();
    result.map(|()| {
        out.correct = out.correct && out.failed == 0;
        out
    })
}

/// The hit set as requests, with expected verdicts and names.
type HitRequests = [(AnalyzeRequest, &'static str, &'static str)];

/// What the client measured.
#[derive(Default)]
struct Client {
    rec: Recorder,
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    miss_times: Vec<f64>,
    hit_lats: Vec<f64>,
    miss_lats: Vec<f64>,
    attempted: u64,
    failure: Option<String>,
}

/// The closed-loop client on one keep-alive connection: passes of
/// [`PASS_REQUESTS`] until `settings.seconds` have passed. A traced run
/// alternates plain and traced passes, so the difference of their medians
/// is the tracing overhead.
fn run_client(
    addr: &str,
    hit_reqs: &HitRequests,
    settings: &Settings,
    mut rng: Rng,
    mut next_tag: u64,
    start: Instant,
) -> Client {
    let mut client = Client { rec: Recorder::with_origin(start), ..Client::default() };
    let mut session = match Session::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            client.attempted = 1;
            client.failure = Some(format!("serve-mix: connect: {e}"));
            return client;
        }
    };
    let mut order: Vec<usize> = (0..hit_reqs.len()).collect();
    let mut seq: u64 = 0;
    for pass in 0.. {
        if pass > 0 && start.elapsed() >= settings.seconds {
            break;
        }
        let traced = settings.trace && pass % 2 == 1;
        rng.shuffle(&mut order);
        let mut next_hit = 0;
        let mut miss_time = 0.0;
        let pass_start = Instant::now();
        for _ in 0..PASS_REQUESTS / MISS_EVERY {
            let miss_at = rng.below(MISS_EVERY);
            for slot in 0..MISS_EVERY {
                let miss = slot == miss_at;
                let span = traced.then(|| {
                    client.rec.open(if miss { "request.miss" } else { "request.hit" }, seq, None)
                });
                let t = Instant::now();
                let result = if miss {
                    let tag = next_tag;
                    next_tag += 1;
                    exchange(&mut session, &AnalyzeRequest::new(miss_source(tag)), "safe", &|| {
                        format!("miss {tag}")
                    })
                } else {
                    let (req, expected, name) = &hit_reqs[order[next_hit % order.len()]];
                    next_hit += 1;
                    exchange(&mut session, req, expected, &|| format!("hit {name}"))
                };
                let lat = t.elapsed().as_secs_f64();
                if let Some(id) = span {
                    client.rec.close(id);
                }
                client.attempted += 1;
                seq += 1;
                if let Err(e) = result {
                    // The connection state is unknown after a failure.
                    client.failure = Some(e);
                    return client;
                }
                if miss {
                    client.miss_lats.push(lat);
                    miss_time += lat;
                } else {
                    client.hit_lats.push(lat);
                }
            }
        }
        let wall = pass_start.elapsed().as_secs_f64();
        if traced {
            client.traced_walls.push(wall);
        } else {
            client.plain_walls.push(wall);
        }
        client.miss_times.push(miss_time);
    }
    client
}

fn drive(
    server: &Server,
    addr: &str,
    hits: &[Benchmark],
    settings: &Settings,
    setup: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let hit_reqs: Vec<(AnalyzeRequest, &'static str, &'static str)> =
        hits.iter().map(|b| (request_for(b), expected_code(b.expected), b.name)).collect();
    {
        let mut session = Session::connect(addr).map_err(|e| format!("serve-mix: connect: {e}"))?;
        for (req, expected, name) in &hit_reqs {
            out.attempted += 1;
            if let Err(e) = exchange(&mut session, req, expected, &|| format!("preload {name}")) {
                out.fail(e);
                return Ok(());
            }
        }
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let cache = server.cache();
    let stats = server.stats();
    let (hits_before, misses_before, evictions_before) =
        (cache.hits(), cache.misses(), cache.evictions());
    let (runs_before, coalesced_before) =
        (stats.analyses_run.load(Ordering::SeqCst), stats.coalesced.load(Ordering::SeqCst));

    let mut rng = Rng::new(settings.seed);
    // Seeded, run-unique miss tags: a tag never repeats within the run, so
    // every miss really misses.
    let first_tag = 1_000_000 + rng.below(1_000_000) as u64 * 1_000_000;
    let start = Instant::now();
    let client = run_client(addr, &hit_reqs, settings, rng, first_tag, start);
    let measured = start.elapsed().as_secs_f64();
    out.attempted += client.attempted;
    if let Some(e) = client.failure {
        out.fail(e);
        return Ok(());
    }
    let Client {
        mut rec,
        mut plain_walls,
        mut traced_walls,
        mut miss_times,
        mut hit_lats,
        mut miss_lats,
        ..
    } = client;
    let mut all_lats: Vec<f64> = hit_lats.iter().chain(&miss_lats).copied().collect();
    all_lats.sort_by(f64::total_cmp);
    hit_lats.sort_by(f64::total_cmp);
    miss_lats.sort_by(f64::total_cmp);
    let served = cache.hits() - hits_before;
    let looked_up = served + cache.misses() - misses_before;

    if !settings.trace {
        out.metric("wall_s", median(&mut plain_walls), "s");
        // The server reports safety times rounded to milliseconds, so the
        // miss requests' client time stands in: each runs one safety phase.
        out.metric("safety_s", median(&mut miss_times), "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        out.metric("setup_s", setup_s, "s");
        out.extra("attack_s", 0.0, "s");
        out.extra("rps", ratio(all_lats.len() as f64, measured), "1/s");
        out.extra("p50_us", percentile(&all_lats, 50) * 1e6, "us");
        out.extra("p99_us", percentile(&all_lats, 99) * 1e6, "us");
        out.extra("passes", plain_walls.len() as f64, "count");
        return Ok(());
    }

    out.metric("serve.hit_p50_us", percentile(&hit_lats, 50) * 1e6, "us");
    out.metric("serve.miss_p50_us", percentile(&miss_lats, 50) * 1e6, "us");
    out.metric("serve.hit_rate", ratio(served as f64, looked_up as f64), "ratio");
    out.metric(
        "serve.analyses_run",
        (stats.analyses_run.load(Ordering::SeqCst) - runs_before) as f64,
        "count",
    );
    out.metric(
        "serve.coalesced",
        (stats.coalesced.load(Ordering::SeqCst) - coalesced_before) as f64,
        "count",
    );
    out.metric("serve.evictions", (cache.evictions() - evictions_before) as f64, "count");
    let untraced = median(&mut plain_walls);
    out.metric("trace.untraced_wall_s", untraced, "s");
    out.metric("trace.overhead_frac", ratio(median(&mut traced_walls), untraced) - 1.0, "ratio");
    replay_hit_path(&mut rec, server, addr, &hit_reqs, out);
    crate::analysis::write_spans(&rec, settings, out);
    Ok(())
}

/// Replays the recorded bytes of every hit request through the public
/// hit-path functions the server calls: framing, JSON decoding, the cache
/// key and the cache read. Reports mean seconds per request for each.
fn replay_hit_path(
    rec: &mut Recorder,
    server: &Server,
    addr: &str,
    hit_reqs: &[(AnalyzeRequest, &'static str, &'static str)],
    out: &mut Outcome,
) {
    let recorded: Vec<Vec<u8>> = hit_reqs
        .iter()
        .map(|(req, ..)| {
            blazer_http::format_request("POST", "/analyze", addr, &req.to_json().to_string(), false)
                .into_bytes()
        })
        .collect();
    // Replay traces are numbered after every request's.
    let mut trace = 1 << 48;
    let mut calls = 0u64;
    for _ in 0..REPLAY_ROUNDS {
        for bytes in &recorded {
            let root = rec.open("replay", trace, None);
            let (parsed, _) = rec.time("http.read_request", trace, Some(root), || {
                blazer_http::read_request(&mut bytes.as_slice(), 1 << 20)
            });
            let Ok(request) = parsed else {
                out.fail("replay: recorded request does not parse".to_string());
                return;
            };
            let (decoded, _) = rec.time("serve.decode", trace, Some(root), || {
                let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
                let doc = Json::parse(text).map_err(|e| e.to_string())?;
                AnalyzeRequest::from_json(&doc)
            });
            let Ok(req) = decoded else {
                out.fail("replay: recorded body does not decode".to_string());
                return;
            };
            let (key, _) = rec.time("serve.cache_key", trace, Some(root), || req.cache_key());
            let (body, _) =
                rec.time("serve.cache_get", trace, Some(root), || server.cache().get(&key));
            if body.is_none() {
                out.fail("replay: preloaded entry missing from the cache".to_string());
            }
            rec.close(root);
            calls += 1;
            trace += 1;
        }
    }
    let totals = rec.totals();
    let per_call = |name: &str| ratio(totals.get(name).copied().unwrap_or(0.0), calls as f64);
    out.metric("http.parse_s", per_call("http.read_request"), "s");
    out.metric("serve.decode_s", per_call("serve.decode"), "s");
    out.metric("serve.key_s", per_call("serve.cache_key"), "s");
    out.metric("serve.cache_get_s", per_call("serve.cache_get"), "s");
    out.metric("trace.spans", rec.spans().len() as f64, "count");
    out.metric("trace.replay_s", totals.get("replay").copied().unwrap_or(0.0), "s");
}
