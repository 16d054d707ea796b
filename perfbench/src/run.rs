//! One run of one workload: set-up, the measured closed loop, the oracle
//! checks, and the metrics.
//!
//! A single client submits one call at a time and waits for its reply
//! (closed loop, one client). Only engine work is timed: input
//! generation and oracle checks run between calls, outside the window.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use cc_model::{Clique, Communicator, PhaseCost};
use cc_service::{FlowEngine, Request, Response, ServiceError, ServiceOutcome};

use crate::check::{fingerprint, fnv, Checker, FINGERPRINT_SEED};
use crate::trace::{Recorder, Timed};
use crate::workload::{Call, Expect, Stream, Workload};

/// Timed set-ups in an untraced run, one per window segment; `setup_s`
/// is their median.
const SETUPS: usize = 6;
/// Fewest requests a window may hold, so that at least ten latency
/// samples lie beyond the 90th percentile.
const MIN_REQUESTS: u64 = 100;
/// Leaf phases reported as `model.rounds.<phase>`; rounds of any other
/// phase go to `model.rounds.other`.
pub const ROUND_PHASES: [&str; 14] = [
    "sparsify",
    "sparsify_from_template",
    "laplacian_solve",
    "maxflow",
    "maxflow_ipm",
    "maxflow_cleanup",
    "mincostflow",
    "mcf_ipm",
    "mcf_repair_deficits",
    "mcf_cycle_cancelling",
    "eulerian_orientation",
    "flow_rounding",
    "repair_augmenting_paths",
    "apsp",
];

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the only source of the inputs.
    pub seed: u64,
    /// Engine time the measured window holds.
    pub seconds: f64,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted (warm-ups included).
    pub attempted: u64,
    /// Requests that failed: typed error, panic, oracle mismatch, or (in
    /// a traced run) a response differing from the untraced engine's.
    pub failed: u64,
    /// Descriptions of the first failures, and of any other check that
    /// did not hold.
    pub errors: Vec<String>,
    /// The metrics of the run.
    pub metrics: Vec<Metric>,
    /// Further lines for a human reader.
    pub notes: Vec<String>,
    /// `rounds_per_req` over the deterministic prefix.
    pub rounds_per_req: f64,
    /// FNV fingerprint of every response of the deterministic prefix.
    pub prefix_fingerprint: u64,
}

impl Report {
    /// True when no request failed and every other check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Counts `expects.len()` attempted requests and fails those whose
    /// result the oracle rejects.
    fn check(&mut self, checker: &mut Checker, stream: &Stream, expects: &[Expect], out: &Served) {
        self.attempted += expects.len() as u64;
        match out {
            Ok(results) => {
                for (expect, result) in expects.iter().zip(results) {
                    if let Err(e) = checker.check(stream, expect, result) {
                        self.fail(e);
                    }
                }
            }
            Err(panic) => {
                for _ in expects {
                    self.fail(format!("engine panicked: {panic}"));
                }
            }
        }
    }
}

/// The engine's results for one call, or the message of a panic that
/// failed the whole call.
type Served = Result<Vec<Result<ServiceOutcome, ServiceError>>, String>;

/// Serves one call, inside `register` and `submit_batch` spans when a
/// recorder is given.
fn serve<C: Communicator>(
    engine: &mut FlowEngine<C>,
    call: Call,
    rec: Option<&RefCell<Recorder>>,
) -> Served {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some((name, spec)) = call.register {
            match rec {
                Some(rec) => Recorder::span(rec, "register", || engine.register(&name, spec)),
                None => engine.register(&name, spec),
            };
        }
        match rec {
            Some(rec) => Recorder::span(rec, "submit_batch", || engine.submit_batch(call.requests)),
            None => engine.submit_batch(call.requests),
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// Registers every graph and serves one warm-up request per graph.
/// Returns the engine, the set-up time in seconds and the warm-ups'
/// results.
fn set_up<C: Communicator>(stream: &Stream, comm: C) -> (FlowEngine<C>, f64, Vec<Expect>, Served) {
    let registrations = stream.registrations();
    let (requests, expects): (Vec<Request>, Vec<Expect>) = stream.warmups().into_iter().unzip();
    let start = Instant::now();
    let mut engine = FlowEngine::new(comm);
    for (name, spec) in registrations {
        engine.register(&name, spec);
    }
    let served = catch_unwind(AssertUnwindSafe(|| {
        requests.into_iter().map(|r| engine.submit(r)).collect()
    }))
    .map_err(|_| "engine panicked during warm-up".to_string());
    (engine, start.elapsed().as_secs_f64(), expects, served)
}

/// When the window may end: enough engine time, the whole deterministic
/// prefix, and enough latency samples.
fn window_done(settings: &Settings, busy_ns: u64, calls: u64, requests: u64) -> bool {
    busy_ns as f64 * 1e-9 >= settings.seconds
        && calls >= settings.workload.prefix_calls()
        && requests >= MIN_REQUESTS
}

/// The `q`-quantile of `sorted` by the nearest-rank rule.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Folds the call's responses into `h`; a typed error folds
/// `u64::MAX` and a panic `u64::MAX - 1`.
fn fold_served(h: u64, out: &Served) -> u64 {
    match out {
        Ok(results) => results.iter().fold(h, |h, r| match r {
            Ok(o) => fingerprint(h, &o.response),
            Err(_) => fnv(h, u64::MAX),
        }),
        Err(_) => fnv(h, u64::MAX - 1),
    }
}

/// The deterministic prefix of a window: ledger rounds and responses of
/// the first `prefix_calls` calls.
#[derive(Debug)]
struct Prefix {
    rounds: u64,
    requests: u64,
    fingerprint: u64,
    rounds_per_req: Option<f64>,
}

impl Prefix {
    fn new() -> Self {
        Prefix {
            rounds: 0,
            requests: 0,
            fingerprint: FINGERPRINT_SEED,
            rounds_per_req: None,
        }
    }

    /// Accounts call number `calls` (1-based) of the window, which cost
    /// `rounds` ledger rounds.
    fn after_call(
        &mut self,
        workload: Workload,
        calls: u64,
        requests: usize,
        out: &Served,
        rounds: u64,
    ) {
        if self.rounds_per_req.is_some() {
            return;
        }
        self.rounds += rounds;
        self.requests += requests as u64;
        self.fingerprint = fold_served(self.fingerprint, out);
        if calls == workload.prefix_calls() {
            self.rounds_per_req = Some(self.rounds as f64 / self.requests as f64);
        }
    }
}

/// The end-to-end run: tracing off, engines over a bare [`Clique`].
///
/// The window is served in `SETUPS` segments of equal engine time. Each
/// segment starts from a fresh, timed set-up (after the previous engine
/// is dropped, so one engine is alive at a time), which spreads the
/// `setup_s` samples over the whole run. The first segment covers the
/// deterministic prefix.
///
/// # Errors
///
/// Only if the peak resident set cannot be read.
pub fn run_untraced(settings: &Settings) -> Result<Report, String> {
    let mut stream = Stream::new(settings.workload, settings.seed);
    let mut checker = Checker::default();
    let mut report = Report::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut engine = None;
    let mut prefix = Prefix::new();
    let mut latencies_ms = Vec::new();
    let (mut busy_ns, mut calls, mut requests) = (0u64, 0u64, 0u64);
    while setup_s.len() < SETUPS || !window_done(settings, busy_ns, calls, requests) {
        let segment_due = busy_ns as f64 * 1e-9
            >= settings.seconds * setup_s.len() as f64 / SETUPS as f64
            && (setup_s.is_empty() || calls >= settings.workload.prefix_calls());
        if setup_s.len() < SETUPS && segment_due {
            drop(engine.take());
            let (e, secs, expects, served) = set_up(&stream, Clique::new(stream.clique_n()));
            setup_s.push(secs);
            report.check(&mut checker, &stream, &expects, &served);
            engine = Some(e);
        }
        let engine = engine.as_mut().expect("the first segment set up an engine");
        let (call, expects) = stream.next_call();
        let width = call.requests.len();
        let rounds_before = engine.ledger().total_rounds();
        let start = Instant::now();
        let out = serve(engine, call, None);
        let ns = start.elapsed().as_nanos() as u64;
        busy_ns += ns;
        calls += 1;
        requests += width as u64;
        latencies_ms.extend(std::iter::repeat_n(ns as f64 * 1e-6, width));
        let rounds = engine.ledger().total_rounds() - rounds_before;
        prefix.after_call(settings.workload, calls, width, &out, rounds);
        report.check(&mut checker, &stream, &expects, &out);
    }

    latencies_ms.sort_by(f64::total_cmp);
    setup_s.sort_by(f64::total_cmp);
    let busy_s = busy_ns as f64 * 1e-9;
    report.rounds_per_req = prefix.rounds_per_req.expect("window covers the prefix");
    report.prefix_fingerprint = prefix.fingerprint;
    report.push("req_per_s", requests as f64 / busy_s, "1/s");
    report.push("latency_p50_ms", quantile(&latencies_ms, 0.5), "ms");
    report.push("latency_p90_ms", quantile(&latencies_ms, 0.9), "ms");
    report.push("rounds_per_req", report.rounds_per_req, "rounds");
    report.push("setup_s", quantile(&setup_s, 0.5), "s");
    report.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    report.notes.push(format!(
        "window: {calls} calls, {requests} requests (latency samples), {busy_s:.3} s engine time; \
         rounds_per_req over the first {} calls; setup_s = median of {setup_s:?}",
        settings.workload.prefix_calls()
    ));
    Ok(report)
}

/// Counters read from `RequestStats`, `RequestStats.engine` and the
/// responses of the traced window.
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    built: u64,
    batched: u64,
    attempts: u64,
    cache_hits: u64,
    solves: u64,
    cheby_iters: u64,
    matvec_nnz: u64,
    ipm_solves: u64,
}

impl Counters {
    fn add(&mut self, stream: &Stream, expects: &[Expect], out: &Served) {
        let Ok(results) = out else { return };
        for (expect, result) in expects.iter().zip(results) {
            let Ok(o) = result else { continue };
            let s = &o.stats;
            self.requests += 1;
            self.built += s.built as u64;
            self.batched += (s.batched_with > 1) as u64;
            self.attempts += s.attempts as u64;
            self.cache_hits += s.template_cache_hits;
            let (solves, iters) = match (&o.response, &s.engine) {
                (Response::Potentials { iterations, .. }, _)
                | (Response::Resistance { iterations, .. }, _) => (1, *iterations as u64),
                (_, Some(e)) => {
                    self.ipm_solves += e.total_solves() as u64;
                    (
                        e.total_solves() as u64,
                        e.total_chebyshev_iterations() as u64,
                    )
                }
                _ => (0, 0),
            };
            self.solves += solves;
            self.cheby_iters += iters;
            self.matvec_nnz += iters * laplacian_nnz(stream, expect);
        }
    }
}

/// `n + 2m` of the graph a request runs on: the nonzeros of its
/// Laplacian, counting parallel arcs separately.
fn laplacian_nnz(stream: &Stream, expect: &Expect) -> u64 {
    let (n, m) = match expect {
        Expect::Potentials { graph, .. } | Expect::Resistance { graph, .. } => stream
            .laplacian
            .iter()
            .find(|g| &g.name == graph)
            .map_or((0, 0), |g| (g.graph.n(), g.graph.m())),
        Expect::MaxFlow { index, .. } | Expect::MinCostFlow { index } => {
            let g = &stream.flows[*index].graph;
            (g.n(), g.m())
        }
    };
    (n + 2 * m) as u64
}

/// Compares the bare and the traced engine's results of one call:
/// bitwise-equal responses and equal round accounting.
fn transparent(bare: &Served, traced: &Served) -> Result<(), String> {
    let (Ok(b), Ok(t)) = (bare, traced) else {
        return match (bare, traced) {
            (Err(a), Err(b)) if a == b => Ok(()),
            _ => Err("one engine panicked, the other did not".to_string()),
        };
    };
    for (b, t) in b.iter().zip(t) {
        let same = match (b, t) {
            (Ok(b), Ok(t)) => {
                fingerprint(0, &b.response) == fingerprint(0, &t.response)
                    && b.stats.rounds == t.stats.rounds
                    && b.stats.charged_rounds == t.stats.charged_rounds
            }
            (Err(b), Err(t)) => b.to_string() == t.to_string(),
            _ => false,
        };
        if !same {
            return Err("traced and bare engines answered differently".to_string());
        }
    }
    Ok(())
}

/// Rounds per ledger phase charged since `base`, summed by the phase's
/// leaf name.
fn rounds_by_leaf(
    base: &BTreeMap<String, PhaseCost>,
    now: &BTreeMap<String, PhaseCost>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (path, cost) in now {
        let before = base.get(path).map_or(0, PhaseCost::total);
        let leaf = path.rsplit('/').next().unwrap_or_default();
        *out.entry(leaf.to_string()).or_insert(0) += cost.total() - before;
    }
    out
}

/// The traced run: a bare engine and an engine over [`Timed`] serve the
/// same stream call by call, in alternating order. Every pair of
/// results must agree bitwise (the wrapper is transparent), the traced
/// results are oracle-checked, and the spans give the layer metrics.
/// `seconds` bounds the two engines' time together.
pub fn run_traced(settings: &Settings) -> Report {
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let mut stream = Stream::new(settings.workload, settings.seed);
    let mut checker = Checker::default();
    let mut report = Report::default();

    let n = stream.clique_n();
    let (mut bare, _, _, warm_bare) = set_up(&stream, Clique::new(n));
    let (mut traced, _, expects, warm) = set_up(&stream, Timed::new(Clique::new(n), rec.clone()));
    if let Err(e) = transparent(&warm_bare, &warm) {
        report.errors.push(format!("warm-up: {e}"));
    }
    report.check(&mut checker, &stream, &expects, &warm);
    rec.borrow_mut().clear();
    let base = traced.ledger().phases().clone();

    let mut prefix = Prefix::new();
    let mut bare_prefix = Prefix::new();
    let mut counters = Counters::default();
    let (mut bare_ns, mut traced_ns, mut calls, mut requests) = (0u64, 0u64, 0u64, 0u64);
    while !window_done(settings, bare_ns + traced_ns, calls, requests) {
        let (call, expects) = stream.next_call();
        let twin = call.clone();
        let width = call.requests.len();
        rec.borrow_mut().call = calls;
        let rounds_before = (bare.ledger().total_rounds(), traced.ledger().total_rounds());
        let run_bare = || {
            let start = Instant::now();
            let out = serve(&mut bare, twin, None);
            (out, start.elapsed().as_nanos() as u64)
        };
        let run_traced = || {
            let start = Instant::now();
            let out = serve(&mut traced, call, Some(&*rec));
            (out, start.elapsed().as_nanos() as u64)
        };
        let ((out_bare, ns_bare), (out, ns)) = if calls % 2 == 0 {
            let b = run_bare();
            (b, run_traced())
        } else {
            let t = run_traced();
            (run_bare(), t)
        };
        bare_ns += ns_bare;
        traced_ns += ns;
        calls += 1;
        requests += width as u64;
        let rounds = traced.ledger().total_rounds() - rounds_before.1;
        prefix.after_call(settings.workload, calls, width, &out, rounds);
        let rounds = bare.ledger().total_rounds() - rounds_before.0;
        bare_prefix.after_call(settings.workload, calls, width, &out_bare, rounds);
        if let Err(e) = transparent(&out_bare, &out) {
            report.attempted += width as u64;
            for _ in 0..width {
                report.fail(format!("call {calls}: {e}"));
            }
            continue;
        }
        counters.add(&stream, &expects, &out);
        report.check(&mut checker, &stream, &expects, &out);
    }
    if bare.ledger().phases() != traced.ledger().phases()
        || bare.ledger().total_rounds() != traced.ledger().total_rounds()
    {
        report
            .errors
            .push("per-phase ledger rounds differ between bare and traced engines".to_string());
    }
    report.rounds_per_req = prefix.rounds_per_req.expect("window covers the prefix");
    report.prefix_fingerprint = prefix.fingerprint;
    if bare_prefix.rounds_per_req != prefix.rounds_per_req
        || bare_prefix.fingerprint != prefix.fingerprint
    {
        report.errors.push(
            "prefix rounds or fingerprint differ between bare and traced engines".to_string(),
        );
    }

    let rounds = rounds_by_leaf(&base, traced.ledger().phases());
    layer_metrics(
        &mut report,
        &rec.borrow(),
        &counters,
        &rounds,
        requests,
        traced_ns,
        bare_ns,
    );
    report.notes.push(format!(
        "traced window: {calls} calls, {requests} requests; engine time traced {:.3} s, bare {:.3} s; \
         rounds_per_req (first {} calls) {} traced = {} bare",
        traced_ns as f64 * 1e-9,
        bare_ns as f64 * 1e-9,
        settings.workload.prefix_calls(),
        report.rounds_per_req,
        bare_prefix.rounds_per_req.unwrap_or(f64::NAN),
    ));
    report
}

/// Per-span-name totals of a trace.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    spans: u64,
    total_ns: u64,
    self_ns: u64,
    comm_ns: u64,
}

/// Reduces spans and counters to the per-layer metrics, normalized per
/// request of the window.
fn layer_metrics(
    report: &mut Report,
    rec: &Recorder,
    c: &Counters,
    rounds: &BTreeMap<String, u64>,
    requests: u64,
    traced_ns: u64,
    bare_ns: u64,
) {
    let mut by_path: BTreeMap<&str, Totals> = BTreeMap::new();
    let mut by_leaf: BTreeMap<&str, Totals> = BTreeMap::new();
    let (mut comm_ns, mut comm_calls, mut comm_words, mut service_ns, mut service_self_ns) =
        (0, 0, 0, 0, 0);
    for s in &rec.spans {
        let name = rec.names[s.name].as_str();
        for (map, key) in [
            (&mut by_path, name),
            (&mut by_leaf, name.rsplit('/').next().unwrap_or_default()),
        ] {
            let t = map.entry(key).or_default();
            t.spans += 1;
            t.total_ns += s.total_ns;
            t.self_ns += s.self_ns();
            t.comm_ns += s.comm_ns;
        }
        comm_ns += s.comm_ns;
        comm_calls += s.comm_calls;
        comm_words += s.comm_words;
        if s.parent.is_none() {
            service_ns += s.total_ns;
            service_self_ns += s.self_ns();
        }
    }
    let per_req = |v: f64| v / requests.max(1) as f64;
    let ms = |ns: u64| per_req(ns as f64 * 1e-6);
    let leaf = |name: &str| by_leaf.get(name).copied().unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let builds = leaf("sparsify").spans;
    let reuses = leaf("sparsify_from_template").spans;
    let named: u64 = ROUND_PHASES
        .iter()
        .map(|p| rounds.get(*p).copied().unwrap_or(0))
        .sum();
    let all_rounds: u64 = rounds.values().sum();
    let metrics: Vec<(String, f64, &'static str)> = [
        ("service.self_ms", ms(service_self_ns), "ms/req"),
        ("service.build_frac", ratio(c.built, c.requests), "frac"),
        ("service.batched_frac", ratio(c.batched, c.requests), "frac"),
        (
            "service.attempts_per_req",
            ratio(c.attempts, c.requests),
            "count/req",
        ),
        (
            "service.cache_hits_per_req",
            ratio(c.cache_hits, c.requests),
            "count/req",
        ),
        ("sparsify.build_ms", ms(leaf("sparsify").total_ns), "ms/req"),
        ("sparsify.builds", per_req(builds as f64), "count/req"),
        (
            "sparsify.instantiate_ms",
            ms(leaf("sparsify_from_template").total_ns),
            "ms/req",
        ),
        (
            "sparsify.instantiations",
            per_req(reuses as f64),
            "count/req",
        ),
        (
            "sparsify.template_reuse_ratio",
            ratio(reuses, builds + reuses),
            "frac",
        ),
        (
            "core.solve_ms",
            ms(leaf("laplacian_solve").total_ns),
            "ms/req",
        ),
        (
            "core.solves",
            per_req(leaf("laplacian_solve").spans as f64),
            "count/req",
        ),
        (
            "linalg.cheby_iters_per_solve",
            ratio(c.cheby_iters, c.solves),
            "count",
        ),
        (
            "linalg.matvec_nnz",
            per_req(c.matvec_nnz as f64),
            "count/req",
        ),
        (
            "ipm.self_ms",
            ms(leaf("maxflow_ipm").self_ns + leaf("mcf_ipm").self_ns),
            "ms/req",
        ),
        (
            "ipm.solves_per_req",
            ratio(c.ipm_solves, c.requests),
            "count/req",
        ),
        ("maxflow.ms", ms(leaf("maxflow").total_ns), "ms/req"),
        (
            "maxflow.cleanup_ms",
            ms(leaf("maxflow_cleanup").total_ns),
            "ms/req",
        ),
        ("mcf.ms", ms(leaf("mincostflow").total_ns), "ms/req"),
        (
            "mcf.repair_ms",
            ms(leaf("mcf_repair_deficits").total_ns + leaf("mcf_cycle_cancelling").total_ns),
            "ms/req",
        ),
        (
            "euler.orientation_ms",
            ms(leaf("eulerian_orientation").total_ns),
            "ms/req",
        ),
        (
            "euler.rounding_self_ms",
            ms(leaf("flow_rounding").self_ns),
            "ms/req",
        ),
        ("apsp.ms", ms(leaf("apsp").total_ns), "ms/req"),
        ("model.comm_ms", ms(comm_ns), "ms/req"),
        ("model.calls", per_req(comm_calls as f64), "count/req"),
        ("model.words", per_req(comm_words as f64), "count/req"),
        ("trace.coverage_frac", ratio(service_ns, traced_ns), "frac"),
        (
            "trace.overhead_frac",
            ratio(traced_ns, bare_ns) - 1.0,
            "frac",
        ),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .chain(ROUND_PHASES.iter().map(|p| {
        let r = rounds.get(*p).copied().unwrap_or(0);
        (format!("model.rounds.{p}"), per_req(r as f64), "rounds/req")
    }))
    .chain(std::iter::once((
        "model.rounds.other".to_string(),
        per_req((all_rounds - named) as f64),
        "rounds/req",
    )))
    .collect();
    for (name, value, unit) in metrics {
        report.push(&name, value, unit);
    }

    report.notes.push(format!(
        "{:<58} {:>8} {:>11} {:>11} {:>11}",
        "span (ledger phase path or service boundary)",
        "spans",
        "total ms/r",
        "self ms/r",
        "comm ms/r"
    ));
    let mut rows: Vec<_> = by_path.into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.total_ns));
    for (path, t) in rows {
        report.notes.push(format!(
            "{path:<58} {:>8} {:>11.4} {:>11.4} {:>11.4}",
            t.spans,
            ms(t.total_ns),
            ms(t.self_ns),
            ms(t.comm_ns)
        ));
    }
    report.notes.push(format!(
        "unattributed (window time outside named spans): {:.4} ms/req",
        ms(traced_ns.saturating_sub(service_ns))
    ));
}
