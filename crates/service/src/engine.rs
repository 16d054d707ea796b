//! The long-lived request/response engine.

use std::collections::BTreeMap;

use cc_apsp::{ApspSession, RoundModel, SsspOutcome};
use cc_core::{SolverOptions, SolverSession};
use cc_graph::Graph;
use cc_maxflow::{IpmOptions, MaxFlowSession};
use cc_mcf::{McfOptions, McfSession};
use cc_model::Communicator;
use cc_sparsify::TemplateCache;

use crate::error::{ServiceError, ServiceErrorKind};
use crate::request::{GraphSpec, Request, Response};

/// Bounded retry with deterministic round-charged backoff, applied to
/// **comm-rooted** request failures (the transient class: injected
/// faults, adversary omissions). Validation errors, numerical failures,
/// and round-budget violations are never retried.
///
/// Before retry `k` (1-based) the engine charges
/// `backoff_rounds · 2^(k-1)` implemented rounds to the dedicated
/// `service_retry` ledger phase — deterministic "waiting time" that,
/// against a crash–recover adversary
/// ([`cc_model::AdversaryStrategy::CrashRecover`]), pushes the ledger
/// past the crash window so the retried attempt runs fault-free. Each
/// retry also degrades gracefully: the target graph's cached artifacts
/// (solver factorization, sparsifier templates, APSP matrix) are
/// dropped, so the retry rebuilds from scratch rather than trusting
/// state a faulty transport may have poisoned.
///
/// The default (`max_attempts = 1`) disables retry entirely, preserving
/// the engine's baseline behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); 1 = no retry.
    pub max_attempts: u32,
    /// Implemented rounds charged before the first retry (doubling on
    /// each further retry); 0 charges nothing.
    pub backoff_rounds: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff_rounds: 0,
        }
    }
}

impl RetryPolicy {
    /// A retrying policy: up to `max_attempts` total attempts, charging
    /// `backoff_rounds` (doubling) before each retry.
    pub fn retries(max_attempts: u32, backoff_rounds: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_rounds,
        }
    }

    /// Implemented rounds charged before 1-based retry `k`.
    fn backoff_for(&self, retry: u32) -> u64 {
        self.backoff_rounds
            .saturating_mul(1u64 << (retry - 1).min(32))
    }
}

/// Recovery accounting of a request that needed more than one attempt
/// (surfaced in [`RequestStats::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded {
    /// Attempts the request took (≥ 2).
    pub attempts: u32,
    /// Transport faults observed across the failed attempts.
    pub faults_observed: u64,
}

/// Engine-wide defaults applied to every request.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Laplacian solver construction options (Laplacian solves and
    /// effective resistances). Defaults to `skip_reference = true`: the
    /// engine issues many solves and never reads the `O(n³)` reference.
    pub solver: SolverOptions,
    /// Max-flow pipeline options.
    pub maxflow: IpmOptions,
    /// Min-cost-flow pipeline options.
    pub mcf: McfOptions,
    /// Round-accounting model of APSP requests.
    pub round_model: RoundModel,
    /// Retry/backoff policy for comm-rooted failures (default: no
    /// retry).
    pub retry: RetryPolicy,
    /// Per-request round budget: a request whose ledger-round cost
    /// exceeds it fails with
    /// [`ServiceErrorKind::RoundBudgetExceeded`] (default: unlimited).
    /// The wall-clock analogue is the process watchdog
    /// (`CC_WATCHDOG_SECS`, [`cc_par::watchdog_timeout`]), which also
    /// bounds how long the retry loop keeps trying.
    pub round_budget: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            solver: SolverOptions {
                skip_reference: true,
                ..SolverOptions::default()
            },
            maxflow: IpmOptions::default(),
            mcf: McfOptions::default(),
            round_model: RoundModel::FastMatMul,
            retry: RetryPolicy::default(),
            round_budget: None,
        }
    }
}

/// Per-request accounting: what the request cost and which per-graph
/// state it built or reused.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestStats {
    /// Engine-assigned request ID (submission order).
    pub request_id: u64,
    /// Name of the graph served.
    pub graph: String,
    /// Generation of the graph entry that served the request.
    pub generation: u64,
    /// Ledger rounds the request cost (batched solves: the group's
    /// solve rounds split evenly over its `k` members — exact, because a
    /// batched iteration broadcasts once per column).
    pub rounds: u64,
    /// Charged (oracle + implemented) rounds, same attribution.
    pub charged_rounds: u64,
    /// Sparsifier-template cache hits this request scored against the
    /// graph's generation-scoped [`TemplateCache`].
    pub template_cache_hits: u64,
    /// True if this request paid a per-graph build (Laplacian solver
    /// construction or APSP matrix); false when it reused one a previous
    /// request built.
    pub built: bool,
    /// Size of the admitted batch this request was answered in (1 =
    /// solo).
    pub batched_with: usize,
    /// Barrier-engine accounting of flow requests (`None` otherwise).
    pub engine: Option<cc_ipm::EngineStats>,
    /// Attempts the request took under the engine's [`RetryPolicy`]
    /// (1 = first try succeeded).
    pub attempts: u32,
    /// Recovery accounting when the request needed a retry (`None` on a
    /// clean first attempt).
    pub degraded: Option<Degraded>,
}

/// A successful request: the response plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// The computed value.
    pub response: Response,
    /// What it cost and what it reused.
    pub stats: RequestStats,
}

/// One registered graph: its spec, generation, and the lazily built
/// per-generation state every request against it reuses.
#[derive(Debug, Clone)]
struct GraphEntry {
    generation: u64,
    spec: GraphSpec,
    /// Generation-scoped sparsifier template cache shared by the flow
    /// sessions (max-flow and MCF key by edge support, so one cache
    /// serves both).
    cache: TemplateCache,
    /// Laplacian solver + workspace (undirected graphs; carries the
    /// sparsifier Cholesky factorization reused across requests).
    solver: Option<SolverSession>,
    maxflow: Option<MaxFlowSession>,
    mcf: Option<McfSession>,
    apsp: Option<ApspSession>,
    /// Connected-component label per vertex (undirected graphs), filled
    /// by the first effective-resistance request.
    components: Option<Vec<usize>>,
}

/// A long-lived engine over one communicator: a registry of named
/// graphs, session state reused across requests, batch admission for
/// same-graph Laplacian solves, and per-request accounting.
///
/// Determinism: the engine adds no ordering or threading of its own —
/// requests execute in submission order (batched groups at their first
/// member's slot), all per-graph state is rebuilt deterministically, so
/// the same request stream yields bitwise-identical responses at any
/// worker-thread count, matching fresh-engine-per-request execution.
#[derive(Debug)]
pub struct FlowEngine<C: Communicator> {
    clique: C,
    config: EngineConfig,
    graphs: BTreeMap<String, GraphEntry>,
    next_request_id: u64,
}

impl<C: Communicator> FlowEngine<C> {
    /// An engine over `clique` with default configuration.
    pub fn new(clique: C) -> Self {
        Self::with_config(clique, EngineConfig::default())
    }

    /// An engine over `clique` with explicit configuration.
    pub fn with_config(clique: C, config: EngineConfig) -> Self {
        Self {
            clique,
            config,
            graphs: BTreeMap::new(),
            next_request_id: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The communicator's round ledger (all requests charge here).
    pub fn ledger(&self) -> &cc_model::RoundLedger {
        self.clique.ledger()
    }

    /// Registers (or re-registers) `name`. Re-registration bumps the
    /// entry's generation and drops every cached artifact — solver
    /// factorization, sparsifier templates, APSP matrix — so no request
    /// can ever be served from a previous generation's state. Returns
    /// the new generation (1 for a first registration).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more vertices than the clique has nodes.
    pub fn register(&mut self, name: &str, spec: GraphSpec) -> u64 {
        assert!(
            spec.n() <= self.clique.n(),
            "graph {:?} has {} vertices but the clique only {} nodes",
            name,
            spec.n(),
            self.clique.n()
        );
        let generation = self.graphs.get(name).map_or(1, |e| e.generation + 1);
        self.graphs.insert(
            name.to_string(),
            GraphEntry {
                generation,
                spec,
                cache: TemplateCache::new(),
                solver: None,
                maxflow: None,
                mcf: None,
                apsp: None,
                components: None,
            },
        );
        generation
    }

    /// Current generation of a registered graph.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.graphs.get(name).map(|e| e.generation)
    }

    /// The registered spec of a graph.
    pub fn graph_spec(&self, name: &str) -> Option<&GraphSpec> {
        self.graphs.get(name).map(|e| &e.spec)
    }

    /// Submits one request.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] on unknown graphs, malformed requests, or any
    /// typed failure of the underlying pipeline.
    pub fn submit(&mut self, request: Request) -> Result<ServiceOutcome, ServiceError> {
        self.submit_batch(vec![request])
            .pop()
            .expect("one request in, one result out")
    }

    /// Submits a batch. Admission: [`Request::LaplacianSolve`] entries
    /// sharing `(graph, eps)` are answered by one `solve_multi_into`
    /// call (each response is its column of the batched solve —
    /// bitwise-identical to a solo solve by the multi-RHS kernel
    /// contract); everything else runs solo, in submission order.
    /// Results are returned in submission order.
    pub fn submit_batch(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        let base_id = self.next_request_id;
        self.next_request_id += requests.len() as u64;

        // Group batchable solves by (graph, eps). BTreeMap keeps the
        // grouping deterministic; members stay in submission order.
        let mut groups: BTreeMap<(String, u64), Vec<usize>> = BTreeMap::new();
        for (i, r) in requests.iter().enumerate() {
            if let Request::LaplacianSolve { graph, eps, .. } = r {
                groups
                    .entry((graph.clone(), eps.to_bits()))
                    .or_default()
                    .push(i);
            }
        }

        let mut slots: Vec<Option<Result<ServiceOutcome, ServiceError>>> =
            requests.iter().map(|_| None).collect();
        for ((graph, eps_bits), members) in groups {
            if members.len() < 2 {
                continue; // solo path below
            }
            let eps = f64::from_bits(eps_bits);
            self.execute_solve_group(&graph, eps, &members, base_id, &requests, &mut slots);
        }
        for (i, r) in requests.iter().enumerate() {
            if slots[i].is_none() {
                slots[i] = Some(self.execute(base_id + i as u64, r.clone()));
            }
        }
        self.retry_failed(&requests, base_id, &mut slots);
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }

    /// The retry pass: re-executes every comm-rooted failure under the
    /// engine's [`RetryPolicy`], degrading to a fresh per-graph build
    /// and charging deterministic backoff rounds before each attempt.
    /// The process watchdog deadline ([`cc_par::watchdog_timeout`])
    /// bounds how long the loop keeps retrying.
    fn retry_failed(
        &mut self,
        requests: &[Request],
        base_id: u64,
        slots: &mut [Option<Result<ServiceOutcome, ServiceError>>],
    ) {
        let policy = self.config.retry;
        if policy.max_attempts <= 1 {
            return;
        }
        let deadline = cc_par::watchdog_timeout().map(|d| std::time::Instant::now() + d);
        for (i, slot) in slots.iter_mut().enumerate() {
            let mut faults = match slot {
                Some(Err(e)) if e.comm_rooted() => e.faults_observed,
                _ => continue,
            };
            let id = base_id + i as u64;
            let mut attempts: u32 = 1;
            while attempts < policy.max_attempts {
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    break;
                }
                attempts += 1;
                // Graceful degradation: drop every cached artifact of
                // the graph, so the retry rebuilds fresh instead of
                // trusting state a faulty transport may have poisoned.
                if let Some(entry) = self.graphs.get_mut(requests[i].graph()) {
                    entry.cache = TemplateCache::new();
                    entry.solver = None;
                    entry.maxflow = None;
                    entry.mcf = None;
                    entry.apsp = None;
                }
                let backoff = policy.backoff_for(attempts - 1);
                if backoff > 0 {
                    self.clique
                        .phase("service_retry", |c| c.charge_implemented(backoff));
                }
                match self.execute(id, requests[i].clone()) {
                    Ok(mut outcome) => {
                        outcome.stats.attempts = attempts;
                        outcome.stats.degraded = Some(Degraded {
                            attempts,
                            faults_observed: faults,
                        });
                        *slot = Some(Ok(outcome));
                        break;
                    }
                    Err(mut e) => {
                        faults += e.faults_observed;
                        e.faults_observed = faults;
                        e.attempts = attempts;
                        let transient = e.comm_rooted();
                        *slot = Some(Err(e));
                        if !transient {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Runs one admitted group of same-graph same-`eps` Laplacian
    /// solves through `solve_multi_into`, filling the members' slots.
    fn execute_solve_group(
        &mut self,
        graph: &str,
        eps: f64,
        members: &[usize],
        base_id: u64,
        requests: &[Request],
        slots: &mut [Option<Result<ServiceOutcome, ServiceError>>],
    ) {
        let fail_all = |slots: &mut [Option<Result<ServiceOutcome, ServiceError>>],
                        kind: ServiceErrorKind,
                        faults: u64| {
            for &i in members {
                let mut e = ServiceError::new(base_id + i as u64, graph, kind.clone());
                e.faults_observed = faults;
                slots[i] = Some(Err(e));
            }
        };
        let Some(entry) = self.graphs.get_mut(graph) else {
            fail_all(slots, ServiceErrorKind::UnknownGraph, 0);
            return;
        };
        // Per-member validation: malformed members error out solo and
        // leave the group; the rest still batch (k may drop to 1, which
        // is just a width-1 batch — same bits either way).
        let mut valid: Vec<usize> = Vec::with_capacity(members.len());
        let mut laplacian = None;
        for &i in members {
            let Request::LaplacianSolve { b, .. } = &requests[i] else {
                unreachable!("group members are Laplacian solves");
            };
            match check_solve(&entry.spec, b, eps) {
                Ok(g) => {
                    laplacian = Some(g);
                    valid.push(i);
                }
                Err(kind) => {
                    slots[i] = Some(Err(ServiceError::new(base_id + i as u64, graph, kind)));
                }
            }
        }
        let Some(g) = laplacian else {
            return;
        };
        let n = g.n();
        let k = valid.len();

        let clique = &mut self.clique;
        let faults0 = clique.faults_observed();
        let rounds0 = clique.ledger().total_rounds();
        let charged0 = clique.ledger().charged_rounds();
        let mut built = false;
        if entry.solver.is_none() {
            match SolverSession::build(clique, g, &self.config.solver) {
                Ok(s) => entry.solver = Some(s),
                Err(e) => {
                    let faults = clique.faults_observed() - faults0;
                    fail_all(slots, ServiceErrorKind::Core(e), faults);
                    return;
                }
            }
            built = true;
        }
        let rounds_built = clique.ledger().total_rounds();
        let charged_built = clique.ledger().charged_rounds();

        let mut bs = vec![0.0; n * k];
        for (j, &i) in valid.iter().enumerate() {
            let Request::LaplacianSolve { b, .. } = &requests[i] else {
                unreachable!("validated above");
            };
            for v in 0..n {
                bs[v * k + j] = b[v];
            }
        }
        let mut xs = Vec::new();
        let session = entry.solver.as_mut().expect("solver just ensured");
        let iterations = match session.solve_multi_into(clique, &bs, k, eps, &mut xs) {
            Ok(it) => it,
            Err(e) => {
                let faults = clique.faults_observed() - faults0;
                fail_all(slots, ServiceErrorKind::Core(e), faults);
                return;
            }
        };
        let solve_rounds = clique.ledger().total_rounds() - rounds_built;
        let solve_charged = clique.ledger().charged_rounds() - charged_built;

        for (j, &i) in valid.iter().enumerate() {
            let x: Vec<f64> = (0..n).map(|v| xs[v * k + j]).collect();
            // The build is attributed to the group's first member; the
            // solve rounds split evenly (each iteration broadcasts once
            // per column, so the share is exact).
            let (build_r, build_c, paid_build) = if j == 0 {
                (rounds_built - rounds0, charged_built - charged0, built)
            } else {
                (0, 0, false)
            };
            let member_rounds = build_r + solve_rounds / k as u64;
            if let Some(budget) = self.config.round_budget {
                if member_rounds > budget {
                    slots[i] = Some(Err(ServiceError::new(
                        base_id + i as u64,
                        graph,
                        ServiceErrorKind::RoundBudgetExceeded {
                            rounds: member_rounds,
                            budget,
                        },
                    )));
                    continue;
                }
            }
            slots[i] = Some(Ok(ServiceOutcome {
                response: Response::Potentials { x, iterations },
                stats: RequestStats {
                    request_id: base_id + i as u64,
                    graph: graph.to_string(),
                    generation: entry.generation,
                    rounds: member_rounds,
                    charged_rounds: build_c + solve_charged / k as u64,
                    template_cache_hits: 0,
                    built: paid_build,
                    batched_with: k,
                    engine: None,
                    attempts: 1,
                    degraded: None,
                },
            }));
        }
    }

    /// Executes one request solo: runs it, stamps observed transport
    /// faults onto any failure, and enforces the per-request round
    /// budget.
    fn execute(&mut self, id: u64, request: Request) -> Result<ServiceOutcome, ServiceError> {
        let faults0 = self.clique.faults_observed();
        match self.execute_inner(id, request) {
            Ok(outcome) => {
                if let Some(budget) = self.config.round_budget {
                    if outcome.stats.rounds > budget {
                        let mut e = ServiceError::new(
                            id,
                            &outcome.stats.graph,
                            ServiceErrorKind::RoundBudgetExceeded {
                                rounds: outcome.stats.rounds,
                                budget,
                            },
                        );
                        e.faults_observed = self.clique.faults_observed() - faults0;
                        return Err(e);
                    }
                }
                Ok(outcome)
            }
            Err(mut e) => {
                e.faults_observed = self.clique.faults_observed() - faults0;
                Err(e)
            }
        }
    }

    /// The raw single-request dispatch (no fault stamping, no budget).
    fn execute_inner(&mut self, id: u64, request: Request) -> Result<ServiceOutcome, ServiceError> {
        let name = request.graph().to_string();
        let err = |kind| Err(ServiceError::new(id, &name, kind));
        let Some(entry) = self.graphs.get_mut(&name) else {
            return err(ServiceErrorKind::UnknownGraph);
        };
        let clique = &mut self.clique;
        let rounds0 = clique.ledger().total_rounds();
        let charged0 = clique.ledger().charged_rounds();
        let hits0 = entry.cache.hits();
        let mut built = false;
        let mut engine_stats = None;

        let response = match request {
            Request::LaplacianSolve { b, eps, .. } => {
                if let Err(kind) = check_solve(&entry.spec, &b, eps) {
                    return err(kind);
                }
                built = ensure_solver(entry, clique, &self.config.solver)
                    .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Core(e)))?;
                let session = entry.solver.as_mut().expect("solver just ensured");
                let mut x = Vec::new();
                let iterations = session
                    .solve_into(clique, &b, eps, &mut x)
                    .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Core(e)))?;
                Response::Potentials { x, iterations }
            }
            Request::EffectiveResistance { s, t, eps, .. } => {
                let GraphSpec::Undirected(g) = &entry.spec else {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "effective resistance needs an undirected graph",
                    });
                };
                if s >= g.n() || t >= g.n() || s == t {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "terminals must be distinct in-range vertices",
                    });
                }
                if eps.is_nan() || eps <= 0.0 {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "eps must be positive",
                    });
                }
                // No current flows between components: the resistance
                // is infinite, and answering it needs no solve.
                let components = entry.components.get_or_insert_with(|| g.components());
                if components[s] != components[t] {
                    Response::Resistance {
                        value: f64::INFINITY,
                        iterations: 0,
                    }
                } else {
                    built = ensure_solver(entry, clique, &self.config.solver)
                        .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Core(e)))?;
                    let session = entry.solver.as_mut().expect("solver just ensured");
                    let mut b = vec![0.0; session.n()];
                    b[s] = 1.0;
                    b[t] = -1.0;
                    let mut x = Vec::new();
                    let iterations = session
                        .solve_into(clique, &b, eps, &mut x)
                        .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Core(e)))?;
                    Response::Resistance {
                        value: x[s] - x[t],
                        iterations,
                    }
                }
            }
            Request::MaxFlow { s, t, .. } => {
                let GraphSpec::Directed(g) = &entry.spec else {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "max flow needs a directed graph",
                    });
                };
                if s >= g.n() || t >= g.n() || s == t {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "terminals must be distinct in-range vertices",
                    });
                }
                let session = entry.maxflow.get_or_insert_with(|| {
                    MaxFlowSession::with_cache(self.config.maxflow, entry.cache.clone())
                });
                let out = session
                    .max_flow(clique, g, s, t)
                    .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::MaxFlow(e)))?;
                engine_stats = Some(out.stats.engine);
                Response::MaxFlow {
                    flow: out.flow,
                    value: out.value,
                }
            }
            Request::MinCostFlow { demands, .. } => {
                let GraphSpec::Directed(g) = &entry.spec else {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "min-cost flow needs a directed graph",
                    });
                };
                if clique.n() < g.n() + 2 {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "clique too small for MCF rounding (needs n + 2 nodes)",
                    });
                }
                let session = entry.mcf.get_or_insert_with(|| {
                    McfSession::with_cache(self.config.mcf, entry.cache.clone())
                });
                let out = session
                    .min_cost_flow(clique, g, &demands)
                    .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Mcf(e)))?;
                engine_stats = Some(out.stats.engine);
                Response::MinCostFlow {
                    flow: out.flow,
                    cost: out.cost,
                }
            }
            Request::Sssp { source, .. } => {
                let Some(arcs) = spec_arcs(&entry.spec) else {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "SSSP needs a directed or arc graph",
                    });
                };
                let n = entry.spec.n();
                if source >= n {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "source out of range",
                    });
                }
                let session = entry
                    .apsp
                    .get_or_insert_with(|| ApspSession::new(n, arcs, self.config.round_model));
                match session
                    .sssp(clique, source)
                    .map_err(|e| ServiceError::new(id, &name, ServiceErrorKind::Apsp(e)))?
                {
                    SsspOutcome::Converged { dist, .. } => Response::Sssp {
                        dist,
                        negative_cycle: false,
                    },
                    SsspOutcome::NegativeCycle { .. } => Response::Sssp {
                        dist: Vec::new(),
                        negative_cycle: true,
                    },
                }
            }
            Request::Apsp { .. } => {
                let Some(arcs) = spec_arcs(&entry.spec) else {
                    return err(ServiceErrorKind::BadRequest {
                        reason: "APSP needs a directed or arc graph",
                    });
                };
                let n = entry.spec.n();
                let session = entry
                    .apsp
                    .get_or_insert_with(|| ApspSession::new(n, arcs, self.config.round_model));
                built = session.apsp_cached().is_none();
                let apsp = session.apsp(clique);
                let dist = (0..n)
                    .map(|u| (0..n).map(|v| apsp.dist(u, v)).collect())
                    .collect();
                Response::Apsp { dist }
            }
        };

        Ok(ServiceOutcome {
            response,
            stats: RequestStats {
                request_id: id,
                graph: name.clone(),
                generation: entry.generation,
                rounds: clique.ledger().total_rounds() - rounds0,
                charged_rounds: clique.ledger().charged_rounds() - charged0,
                template_cache_hits: entry.cache.hits() - hits0,
                built,
                batched_with: 1,
                engine: engine_stats,
                attempts: 1,
                degraded: None,
            },
        })
    }
}

/// Validates a Laplacian solve against the graph it targets: the graph
/// must be undirected, `eps` positive, and `b` a finite vector with one
/// entry per vertex. The solo and batched paths both call this, so a
/// request is refused the same way whichever path serves it, before any
/// round is charged.
fn check_solve<'a>(
    spec: &'a GraphSpec,
    b: &[f64],
    eps: f64,
) -> Result<&'a Graph, ServiceErrorKind> {
    let GraphSpec::Undirected(g) = spec else {
        return Err(ServiceErrorKind::BadRequest {
            reason: "Laplacian solve needs an undirected graph",
        });
    };
    if eps.is_nan() || eps <= 0.0 {
        return Err(ServiceErrorKind::BadRequest {
            reason: "eps must be positive",
        });
    }
    if b.len() != g.n() {
        return Err(ServiceErrorKind::BadRequest {
            reason: "rhs length must equal the vertex count",
        });
    }
    if !b.iter().all(|v| v.is_finite()) {
        return Err(ServiceErrorKind::BadRequest {
            reason: "rhs entries must be finite",
        });
    }
    Ok(g)
}

/// Builds the entry's Laplacian solver if absent; returns whether this
/// call paid the build.
fn ensure_solver<C: Communicator>(
    entry: &mut GraphEntry,
    clique: &mut C,
    options: &SolverOptions,
) -> Result<bool, cc_core::CoreError> {
    if entry.solver.is_some() {
        return Ok(false);
    }
    let GraphSpec::Undirected(g) = &entry.spec else {
        unreachable!("callers checked the spec kind");
    };
    entry.solver = Some(SolverSession::build(clique, g, options)?);
    Ok(true)
}

/// The shortest-path arc list of a spec (directed graphs contribute
/// `(from, to, cost)`), or `None` for undirected graphs.
fn spec_arcs(spec: &GraphSpec) -> Option<Vec<(usize, usize, i64)>> {
    match spec {
        GraphSpec::Undirected(_) => None,
        GraphSpec::Directed(g) => Some(g.edges().iter().map(|e| (e.from, e.to, e.cost)).collect()),
        GraphSpec::Arcs { arcs, .. } => Some(arcs.clone()),
    }
}
