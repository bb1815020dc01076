//! The analysis workloads, `prove-safe` and `find-attack`: Table-1
//! programs analyzed one at a time at driver width 1, every verdict checked
//! against the paper's, and (traced run) each evaluated trail replayed
//! through the same public calls the driver makes.

use crate::spans::Recorder;
use crate::{median, percentile, ratio, Outcome, Rng, Settings};
use blazer_absint::transfer::entry_state;
use blazer_absint::{analyze_from, DimMap, EdgeAlphabet, ProductGraph};
use blazer_automata::Dfa;
use blazer_benchmarks::{Benchmark, Expected, Group};
use blazer_bounds::{graph_bounds, Observer};
use blazer_core::refine::{block_split, refine_partition, RefineMode};
use blazer_core::trail::BranchSyms;
use blazer_core::{
    concretize_outcome, AnalysisOutcome, Blazer, Config, DomainKind, SplitKind, Verdict,
};
use blazer_domains::Polyhedron;
use blazer_ir::budget::{self, Budget};
use blazer_ir::cost::CostModel;
use blazer_ir::{Cfg, Edge, Function, NodeId, Program, Terminator};
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `*_unsafe` programs left out of `find-attack`: together they take
/// about 70 s per pass on a 2-core box (modPow2_unsafe and login_unsafe
/// about 28 s each, pwdEqual_unsafe about 16 s), which does not fit one
/// run. The nine kept still run every attack-phase layer, including the
/// give-up of gpt14_unsafe.
const FIND_ATTACK_EXCLUDED: [&str; 3] = ["modPow2_unsafe", "login_unsafe", "pwdEqual_unsafe"];

/// How often set-up (compiling every source) is repeated; its median is
/// `setup_s`.
const SETUP_REPS: usize = 31;

/// Concretization attempts per attack verdict (as many as the CLI makes).
const WITNESS_ATTEMPTS: u32 = 500;

/// The programs of an analysis workload, in Table-1 order.
pub fn workload_programs(workload: &str) -> Vec<Benchmark> {
    let all = blazer_benchmarks::all();
    match workload {
        "prove-safe" => all.into_iter().filter(|b| b.name.ends_with("_safe")).collect(),
        "find-attack" => all
            .into_iter()
            .filter(|b| b.name.ends_with("_unsafe") && !FIND_ATTACK_EXCLUDED.contains(&b.name))
            .collect(),
        _ => Vec::new(),
    }
}

/// The Table-1 configuration of a group, built explicitly: degree observer
/// for MicroBench, threshold observer for STAC and Literature; polyhedra,
/// unit cost, seeding on, one evaluation thread.
fn config_for(group: Group) -> Config {
    let observer = match group {
        Group::MicroBench => Observer::degree(),
        Group::Stac | Group::Literature => Observer::stac(),
    };
    Config::microbench()
        .with_observer(observer)
        .with_domain(DomainKind::Polyhedra)
        .with_cost_model(CostModel::unit())
        .with_seeding(true)
        .with_threads(1)
}

/// Whether a verdict is the one Table 1 reports (a give-up counts as
/// correct where the paper's tool gives up too).
fn verdict_matches(verdict: &Verdict, expected: Expected) -> bool {
    matches!(
        (verdict, expected),
        (Verdict::Safe, Expected::Safe)
            | (Verdict::Attack(_), Expected::Attack)
            | (Verdict::Unknown(_), Expected::Unknown)
    )
}

/// One workload program, compiled during set-up.
struct Prepared {
    bench: Benchmark,
    program: Program,
    blazer: Blazer,
}

fn prepare(benches: &[Benchmark]) -> Result<Vec<Prepared>, String> {
    benches
        .iter()
        .map(|b| {
            let program = blazer_lang::compile(b.source).map_err(|e| format!("{}: {e}", b.name))?;
            Ok(Prepared { bench: *b, program, blazer: Blazer::new(config_for(b.group)) })
        })
        .collect()
}

/// Runs the driver with panics isolated, so one crash counts as one
/// failure instead of ending the run.
fn analyze_isolated(p: &Prepared) -> Result<AnalysisOutcome, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        p.blazer.analyze(&p.program, p.bench.function)
    })) {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(e)) => Err(format!("{}: {e}", p.bench.name)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("{}: panicked: {msg}", p.bench.name))
        }
    }
}

/// Why one analysis result is a failure: it errored, or its verdict
/// disagrees with Table 1.
fn mismatch(p: &Prepared, result: &Result<AnalysisOutcome, String>) -> Option<String> {
    match result {
        Ok(o) if verdict_matches(&o.verdict, p.bench.expected) => None,
        Ok(o) => Some(format!(
            "{}: verdict {} but Table 1 expects {:?}",
            p.bench.name,
            o.verdict.code(),
            p.bench.expected
        )),
        Err(e) => Some(e.clone()),
    }
}

/// Counts one analysis as attempted and, when [`mismatch`] finds fault
/// with it, as failed. Returns whether it passed.
fn account(out: &mut Outcome, p: &Prepared, result: &Result<AnalysisOutcome, String>) -> bool {
    out.attempted += 1;
    match mismatch(p, result) {
        None => true,
        Some(why) => {
            out.fail(why);
            false
        }
    }
}

/// The driver's own counters for one analysis: deterministic at width 1,
/// so two passes (in different program orders) must agree exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Counts {
    verdict: &'static str,
    trails: u64,
    refinement_steps: u64,
    trails_seeded: u64,
    trails_unseeded: u64,
    seeds_rejected: u64,
    degradations: u64,
    fixpoint_passes: u64,
    lp_calls: u64,
    overflow_events: u64,
    macro_states: u64,
    prunes: u64,
}

impl Counts {
    fn of(o: &AnalysisOutcome) -> Counts {
        Counts {
            verdict: o.verdict.code(),
            trails: o.tree.len() as u64,
            refinement_steps: o.budget_report.refinement_steps,
            trails_seeded: o.seed_stats.trails_seeded,
            trails_unseeded: o.seed_stats.trails_unseeded,
            seeds_rejected: o.seed_stats.seeds_rejected,
            degradations: o.degradations.len() as u64,
            fixpoint_passes: o.budget_report.fixpoint_passes,
            lp_calls: o.budget_report.lp_calls,
            overflow_events: o.budget_report.overflow_events,
            macro_states: o.antichain_stats.macro_states_explored,
            prunes: o.antichain_stats.antichain_prunes,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.trails += o.trails;
        self.refinement_steps += o.refinement_steps;
        self.trails_seeded += o.trails_seeded;
        self.trails_unseeded += o.trails_unseeded;
        self.seeds_rejected += o.seeds_rejected;
        self.degradations += o.degradations;
        self.fixpoint_passes += o.fixpoint_passes;
        self.lp_calls += o.lp_calls;
        self.overflow_events += o.overflow_events;
        self.macro_states += o.macro_states;
        self.prunes += o.prunes;
    }
}

/// Runs an analysis workload over `benches`.
pub fn run(benches: &[Benchmark], settings: &Settings) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    // Set-up: compile every source. It takes milliseconds, so it is
    // repeated and its median reported.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(prepare(benches));
        setups.push(t.elapsed().as_secs_f64());
    }
    let prepared = match prepared.expect("set-up runs at least once") {
        Ok(p) => p,
        Err(e) => {
            out.attempted = benches.len().max(1) as u64;
            out.failed = out.attempted;
            out.correct = false;
            out.notes.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    let setup_s = median(&mut setups);
    let mut rng = Rng::new(settings.seed);
    if settings.trace {
        traced(&prepared, &mut rng, settings, &mut out);
    } else {
        untraced(&prepared, &mut rng, settings, setup_s, &mut out);
    }
    out.correct = out.failed == 0 && out.correct;
    out
}

/// What one lane measured.
#[derive(Default)]
struct Lane {
    walls: Vec<f64>,
    safeties: Vec<f64>,
    attacks: Vec<f64>,
    latencies: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

/// One lane: whole passes over the workload in `order`, while another pass
/// still fits in `settings.seconds`.
fn lane(prepared: &[Prepared], order: &[usize], settings: &Settings, start: Instant) -> Lane {
    let mut lane = Lane::default();
    loop {
        let pass = Instant::now();
        let (mut safety, mut attack) = (0.0, 0.0);
        for &i in order {
            let t = Instant::now();
            let result = analyze_isolated(&prepared[i]);
            lane.latencies.push(t.elapsed().as_secs_f64());
            lane.attempted += 1;
            if let Ok(o) = &result {
                safety += o.safety_time.as_secs_f64();
                attack += o.attack_time.unwrap_or(Duration::ZERO).as_secs_f64();
            }
            lane.failures.extend(mismatch(&prepared[i], &result));
        }
        lane.walls.push(pass.elapsed().as_secs_f64());
        lane.safeties.push(safety);
        lane.attacks.push(attack);
        let typical = median(&mut lane.walls.clone());
        if start.elapsed().as_secs_f64() + typical > settings.seconds.as_secs_f64() {
            return lane;
        }
    }
}

/// The end-to-end measurement: one lane per core, running whole passes at
/// the same time; every figure is a median over all lanes' passes. On a
/// shared machine each core's speed drifts on its own, so a run samples
/// every core instead of the one the scheduler happened to pick. Lane `k`
/// takes the seeded order rotated by `k/lanes` of a pass, so the lanes
/// analyze a given program at times far apart.
fn untraced(
    prepared: &[Prepared],
    rng: &mut Rng,
    settings: &Settings,
    setup_s: f64,
    out: &mut Outcome,
) {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = prepared.len();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let gate = std::sync::Barrier::new(lanes);
    let start = Instant::now();
    let results: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|k| {
                let mut lane_order = order.clone();
                lane_order.rotate_left(k * n / lanes);
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    lane(prepared, &lane_order, settings, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("analysis panics are isolated")).collect()
    });
    let measured = start.elapsed().as_secs_f64();
    let mut all = Lane::default();
    for lane in results {
        all.walls.extend(lane.walls);
        all.safeties.extend(lane.safeties);
        all.attacks.extend(lane.attacks);
        all.latencies.extend(lane.latencies);
        out.attempted += lane.attempted;
        for why in lane.failures {
            out.fail(why);
        }
    }
    all.latencies.sort_by(f64::total_cmp);
    out.metric("wall_s", median(&mut all.walls), "s");
    out.metric("safety_s", median(&mut all.safeties), "s");
    out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    out.metric("setup_s", setup_s, "s");
    out.extra("attack_s", median(&mut all.attacks), "s");
    out.extra("rps", ratio(all.latencies.len() as f64, measured), "1/s");
    out.extra("p50_us", percentile(&all.latencies, 50) * 1e6, "us");
    out.extra("p99_us", percentile(&all.latencies, 99) * 1e6, "us");
    out.extra("passes", all.walls.len() as f64, "count");
    out.extra("lanes", lanes as f64, "count");
}

/// Per-layer sums of a traced run.
#[derive(Debug, Default)]
struct Layers {
    counts: Counts,
    blocks: u64,
    safety_s: f64,
    attack_s: f64,
    dfa_states: u64,
    product_nodes: u64,
    product_edges: u64,
    fixpoint_passes: u64,
    bounds_lp_calls: u64,
    bounds_self_s: f64,
    unbounded: u64,
    judge_calls: u64,
    narrow: u64,
    partition_calls: u64,
    block_split_calls: u64,
    splits_found: u64,
    attacks: u64,
    witnesses: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.counts.add(&o.counts);
        self.blocks += o.blocks;
        self.safety_s += o.safety_s;
        self.attack_s += o.attack_s;
        self.dfa_states += o.dfa_states;
        self.product_nodes += o.product_nodes;
        self.product_edges += o.product_edges;
        self.fixpoint_passes += o.fixpoint_passes;
        self.bounds_lp_calls += o.bounds_lp_calls;
        self.bounds_self_s += o.bounds_self_s;
        self.unbounded += o.unbounded;
        self.judge_calls += o.judge_calls;
        self.narrow += o.narrow;
        self.partition_calls += o.partition_calls;
        self.block_split_calls += o.block_split_calls;
        self.splits_found += o.splits_found;
        self.attacks += o.attacks;
        self.witnesses += o.witnesses;
    }
}

/// One side of a traced run: a pass over the workload, then replay jobs
/// taken from the shared queue.
struct Side {
    rec: Recorder,
    layers: Layers,
    results: Vec<Option<Result<AnalysisOutcome, String>>>,
    wall: f64,
}

/// Runs one pass in `order` (with spans when `traced`), then replays the
/// programs it claims from `queue` using its own outcomes.
fn side(
    prepared: &[Prepared],
    order: &[usize],
    traced: bool,
    queue: &AtomicUsize,
    origin: Instant,
) -> Side {
    let mut rec = Recorder::with_origin(origin);
    let mut layers = Layers::default();
    let mut results: Vec<Option<Result<AnalysisOutcome, String>>> =
        prepared.iter().map(|_| None).collect();
    let start = Instant::now();
    for &i in order {
        let p = &prepared[i];
        let result = if traced {
            let trace = i as u64;
            let root = rec.open("program", trace, None);
            let (compiled, _) = rec
                .time("lang.compile", trace, Some(root), || blazer_lang::compile(p.bench.source));
            if let Some(f) = compiled.as_ref().ok().and_then(|prog| prog.function(p.bench.function))
            {
                layers.blocks += f.blocks().len() as u64;
            }
            if let Some(f) = p.program.function(p.bench.function) {
                rec.time("taint.analyze", trace, Some(root), || {
                    blazer_taint::analyze_function(&p.program, f)
                });
            }
            let (result, _) = rec.time("core.analyze", trace, Some(root), || analyze_isolated(p));
            rec.close(root);
            if let Ok(o) = &result {
                layers.counts.add(&Counts::of(o));
                layers.safety_s += o.safety_time.as_secs_f64();
                layers.attack_s += o.attack_time.unwrap_or(Duration::ZERO).as_secs_f64();
            }
            result
        } else {
            analyze_isolated(p)
        };
        results[i] = Some(result);
    }
    let wall = start.elapsed().as_secs_f64();
    loop {
        let i = queue.fetch_add(1, Ordering::SeqCst);
        let Some(Some(Ok(outcome))) = results.get(i) else { break };
        let root = rec.open("replay", i as u64, None);
        replay(&mut rec, &mut layers, i as u64, root, &prepared[i], outcome);
        rec.close(root);
    }
    Side { rec, layers, results, wall }
}

/// The traced run. Side A analyzes every program untraced in one seeded
/// order; side B analyzes them in another order with spans around compile,
/// taint and `Blazer::analyze`. Both sides then replay every evaluated
/// trail, each program once, under a separate `replay` root span. The
/// sides run on two threads when there are two cores. The driver's
/// counters and verdicts of the two passes must match program by program.
fn traced(prepared: &[Prepared], rng: &mut Rng, settings: &Settings, out: &mut Outcome) {
    let n = prepared.len();
    let mut order_a: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order_a);
    let mut order_b = order_a.clone();
    rng.shuffle(&mut order_b);
    let queue = AtomicUsize::new(0);
    let origin = Instant::now();
    let (a, b) = if std::thread::available_parallelism().map_or(1, |c| c.get()) >= 2 {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| side(prepared, &order_a, false, &queue, origin));
            let b = side(prepared, &order_b, true, &queue, origin);
            (a.join().expect("analysis panics are isolated"), b)
        })
    } else {
        let b = side(prepared, &order_b, true, &queue, origin);
        (side(prepared, &order_a, false, &queue, origin), b)
    };
    for (p, (ra, rb)) in prepared.iter().zip(a.results.iter().zip(&b.results)) {
        let (Some(ra), Some(rb)) = (ra, rb) else { continue };
        let passed = account(out, p, ra) & account(out, p, rb);
        if let (true, Ok(oa), Ok(ob)) = (passed, ra, rb) {
            let (ca, cb) = (Counts::of(oa), Counts::of(ob));
            if ca != cb {
                out.fail(format!(
                    "{}: counters differ between two passes: {ca:?} vs {cb:?}",
                    p.bench.name
                ));
            }
        }
    }
    let mut layers = b.layers;
    layers.add(&Layers {
        counts: Counts::default(),
        blocks: 0,
        safety_s: 0.0,
        attack_s: 0.0,
        ..a.layers
    });
    let mut rec = b.rec;
    rec.absorb(a.rec);
    let totals = rec.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let l = &layers;
    let c = &l.counts;
    let evaluated = (c.trails_seeded + c.trails_unseeded) as f64;
    let refine_calls = (l.partition_calls + l.block_split_calls) as f64;
    out.metric("lang.compile_s", t("lang.compile"), "s");
    out.metric("lang.blocks", l.blocks as f64, "count");
    out.metric("taint.s", t("taint.analyze"), "s");
    out.metric("core.analyze_s", t("core.analyze"), "s");
    out.metric("core.safety_s", l.safety_s, "s");
    out.metric("core.attack_s", l.attack_s, "s");
    out.metric("core.trails", c.trails as f64, "count");
    out.metric("core.refinement_steps", c.refinement_steps as f64, "count");
    out.metric("core.trails_evaluated", evaluated, "count");
    out.metric("core.seeded_frac", ratio(c.trails_seeded as f64, evaluated), "ratio");
    out.metric("core.seeds_rejected", c.seeds_rejected as f64, "count");
    out.metric("core.degradations", c.degradations as f64, "count");
    out.metric("core.fixpoint_passes", c.fixpoint_passes as f64, "count");
    out.metric("refine.partition_calls", l.partition_calls as f64, "count");
    out.metric("refine.partition_s", t("refine.partition"), "s");
    out.metric("refine.block_split_calls", l.block_split_calls as f64, "count");
    out.metric("refine.block_split_s", t("refine.block_split"), "s");
    out.metric("refine.split_frac", ratio(l.splits_found as f64, refine_calls), "ratio");
    out.metric("automata.macro_states", c.macro_states as f64, "count");
    out.metric("automata.prunes", c.prunes as f64, "count");
    out.metric(
        "automata.prune_frac",
        ratio(c.prunes as f64, (c.macro_states + c.prunes) as f64),
        "ratio",
    );
    out.metric("automata.dfa_s", t("automata.dfa"), "s");
    out.metric("automata.dfa_states", l.dfa_states as f64, "count");
    out.metric("absint.product_s", t("absint.product"), "s");
    out.metric("absint.product_nodes", l.product_nodes as f64, "count");
    out.metric("absint.product_edges", l.product_edges as f64, "count");
    out.metric("absint.fixpoint_s", t("absint.fixpoint"), "s");
    out.metric("absint.fixpoint_passes", l.fixpoint_passes as f64, "count");
    out.metric("domains.lp_calls", c.lp_calls as f64, "count");
    out.metric("domains.lp_per_pass", ratio(c.lp_calls as f64, c.fixpoint_passes as f64), "ratio");
    out.metric("domains.overflow_events", c.overflow_events as f64, "count");
    out.metric("bounds.s", t("bounds.graph_bounds"), "s");
    out.metric("bounds.self_s", l.bounds_self_s, "s");
    out.metric("bounds.lp_calls", l.bounds_lp_calls as f64, "count");
    out.metric("bounds.unbounded", l.unbounded as f64, "count");
    out.metric("observer.judge_calls", l.judge_calls as f64, "count");
    out.metric("observer.judge_s", t("observer.is_narrow"), "s");
    out.metric("observer.narrow_frac", ratio(l.narrow as f64, l.judge_calls as f64), "ratio");
    out.metric("attack.concretize_s", t("attack.concretize"), "s");
    out.metric("attack.witness_frac", ratio(l.witnesses as f64, l.attacks as f64), "ratio");
    out.metric("trace.untraced_wall_s", a.wall, "s");
    out.metric("trace.overhead_frac", ratio(t("core.analyze"), a.wall) - 1.0, "ratio");
    out.metric("trace.spans", rec.spans().len() as f64, "count");
    out.metric("trace.replay_s", t("replay"), "s");
    out.extra("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    write_spans(&rec, settings, out);
}

/// Writes the span file of a traced run; a failed write fails the run.
pub(crate) fn write_spans(rec: &Recorder, settings: &Settings, out: &mut Outcome) {
    if let Some(path) = &settings.spans_path {
        if let Err(e) = rec.write_jsonl(path) {
            out.correct = false;
            out.notes.push(format!("could not write spans to {}: {e}", path.display()));
        } else {
            out.notes.push(format!("spans written to {}", path.display()));
        }
    }
}

/// The tainted-branch symbols the driver refines with, rebuilt from the
/// public taint report and edge alphabet.
fn branch_syms(
    f: &Function,
    alphabet: &EdgeAlphabet,
    taint: &blazer_taint::TaintReport,
) -> Vec<BranchSyms> {
    f.iter_blocks()
        .filter_map(|(bid, block)| {
            let Terminator::Branch { then_bb, else_bb, .. } = &block.term else { return None };
            if then_bb == else_bb {
                return None;
            }
            let taint = taint.branch_taint(bid)?;
            let from = NodeId::block(bid);
            Some(BranchSyms {
                then_sym: alphabet.sym(Edge::new(from, NodeId::block(*then_bb))),
                else_sym: alphabet.sym(Edge::new(from, NodeId::block(*else_bb))),
                taint,
            })
        })
        .collect()
}

/// Replays one analysis layer by layer: every evaluated trail (once per
/// distinct trail, as the driver's bound cache does) from ⊥ through DFA,
/// product, fixpoint, bounds and the observer's judgment; every split node
/// through `refine_partition`, falling back to `block_split`; and every
/// attack verdict through witness concretization.
fn replay(
    rec: &mut Recorder,
    l: &mut Layers,
    trace: u64,
    root: u64,
    p: &Prepared,
    o: &AnalysisOutcome,
) {
    let program = &p.program;
    let Some(f) = program.function(p.bench.function) else { return };
    let config = p.blazer.config();
    let cfg = Cfg::new(f);
    let alphabet = EdgeAlphabet::new(&cfg);
    let dims = DimMap::new(f);
    let seeds: BTreeSet<usize> = dims.seeds().collect();
    let high_seeds: BTreeSet<usize> = f
        .params()
        .iter()
        .enumerate()
        .filter(|(_, param)| param.label.is_high())
        .map(|(i, _)| dims.seed(i))
        .collect();
    let init: Polyhedron = entry_state(f, &dims);
    let tree = &o.tree;
    let mut seen = BTreeSet::new();
    for id in 0..tree.len() {
        let node = tree.node(id);
        if node.bounds.is_none() || !seen.insert(node.trail.to_string()) {
            continue;
        }
        let trail = &node.trail;
        let (dfa, _) = rec.time("automata.dfa", trace, Some(root), || {
            Dfa::from_regex(trail, alphabet.len() as u32).minimize()
        });
        l.dfa_states += dfa.n_states() as u64;
        let (graph, _) = rec.time("absint.product", trace, Some(root), || {
            ProductGraph::restricted(f, &cfg, &dfa, &alphabet)
        });
        l.product_nodes += graph.len() as u64;
        l.product_edges += graph.edges().len() as u64;
        let ((_, stats), fixpoint_s) = rec.time("absint.fixpoint", trace, Some(root), || {
            analyze_from::<Polyhedron>(program, f, &dims, &graph, init.clone(), None)
        });
        l.fixpoint_passes += stats.passes;
        // A fresh ledger counts this call's LP solves on this thread only,
        // so concurrent work cannot leak into the count.
        let ledger = Budget::unlimited().install();
        let (bounds, bounds_s) = rec.time("bounds.graph_bounds", trace, Some(root), || {
            graph_bounds::<Polyhedron>(program, f, &dims, &graph, &init, &config.cost_model, &seeds)
        });
        l.bounds_lp_calls += budget::report().lp_calls;
        drop(ledger);
        l.bounds_self_s += (bounds_s - fixpoint_s).max(0.0);
        l.unbounded += u64::from(bounds.upper.is_none());
        if let (Some(lo), Some(hi)) = (&bounds.lower, &bounds.upper) {
            let (narrow, _) = rec.time("observer.is_narrow", trace, Some(root), || {
                config.observer.is_narrow(lo, hi, &high_seeds)
            });
            l.judge_calls += 1;
            l.narrow += u64::from(narrow);
        }
    }

    let taint = blazer_taint::analyze_function(program, f);
    let branches = branch_syms(f, &alphabet, &taint);
    // Star-unrolling depth per node, rebuilt from the replayed splits
    // (children always have larger ids than their parent).
    let mut star_depth = vec![0usize; tree.len()];
    for id in 0..tree.len() {
        let node = tree.node(id);
        let Some(&first_child) = node.children.first() else { continue };
        let mode = match tree.node(first_child).split_kind {
            Some(SplitKind::Secret) => RefineMode::Vulnerable,
            _ => RefineMode::Safe,
        };
        let allow_star = star_depth[id] < config.max_star_unrollings;
        let (mut split, _) = rec.time("refine.partition", trace, Some(root), || {
            refine_partition(&node.trail, &branches, mode, allow_star)
        });
        l.partition_calls += 1;
        l.splits_found += u64::from(split.is_some());
        for br in &branches {
            if split.is_some() {
                break;
            }
            let (s, _) = rec.time("refine.block_split", trace, Some(root), || {
                block_split(
                    &node.trail,
                    br,
                    alphabet.len() as u32,
                    mode,
                    config.max_trail_size,
                    false,
                )
            });
            l.block_split_calls += 1;
            l.splits_found += u64::from(s.is_some());
            split = s;
        }
        let unrolled = split.is_some_and(|s| s.is_star);
        for &child in &node.children {
            star_depth[child] = star_depth[id] + usize::from(unrolled);
        }
    }

    if o.verdict.is_attack() {
        let (witness, _) = rec.time("attack.concretize", trace, Some(root), || {
            concretize_outcome(program, o, WITNESS_ATTEMPTS)
        });
        l.attacks += 1;
        l.witnesses += u64::from(witness.is_some());
    }
}
