//! The three workloads: seeded graphs, the warm-up set, and the call
//! stream a single closed-loop client submits.
//!
//! Every input is a pure function of the workload seed. The engine only
//! ever sees the generated graphs and requests; the [`Expect`] attached
//! to each request is what the client keeps for the oracle check.

use cc_graph::{generators, DiGraph, Graph};
use cc_service::{GraphSpec, Request};

/// Accuracy of every Laplacian solve and effective resistance.
pub const EPS: f64 = 1e-6;
/// Right-hand sides are random combinations of this many fixed seeded
/// zero-sum vectors per graph, so the oracle factors each graph's
/// Laplacian a fixed number of times, not once per request.
pub const BASIS: usize = 4;
/// Effective-resistance terminals are drawn from this many seeded
/// vertices per graph (28 pairs), bounding oracle solves per graph.
pub const TERMINALS: usize = 8;

const LAPLACIAN_N: usize = 256;
const LAPLACIAN_GRAPHS: usize = 4;
const FLOW_N: usize = 40;
const ASSIGN_K: usize = 16;
/// `graph_churn` re-registers the target graph before every this-many-th
/// call.
const CHURN_EVERY: u64 = 4;
/// Seed of the fixed `flow_ipm` graph corpus. The interior-point cost of
/// random instances of these shapes varies up to fivefold between
/// seeds, which would swamp any bound on a per-seed figure, so the
/// workload seed orders the requests and the graphs stay fixed.
const FLOW_CORPUS_SEED: u64 = 0;
/// `flow_ipm` sinks: the last this-many vertices of a flow network.
const SINKS: usize = 3;
/// Laplacian calls carry 1 to this many requests.
const MAX_WIDTH: usize = 4;
/// Effective resistances per ten requests of a Laplacian block.
const RESISTANCE_TENTHS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm Laplacian solves and effective resistances on four fixed
    /// graphs, 1–4 requests per call.
    LaplacianStream,
    /// The same mix, with the target graph re-registered before every
    /// fourth call.
    GraphChurn,
    /// One max-flow or min-cost-flow request per call.
    FlowIpm,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::LaplacianStream,
        Workload::GraphChurn,
        Workload::FlowIpm,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LaplacianStream => "laplacian_stream",
            Workload::GraphChurn => "graph_churn",
            Workload::FlowIpm => "flow_ipm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calls at the head of the measured window over which
    /// `rounds_per_req` is taken. Every run completes them, so the figure
    /// repeats exactly for a seed whatever the host speed.
    pub fn prefix_calls(self) -> u64 {
        match self {
            Workload::LaplacianStream | Workload::GraphChurn => {
                4 * (LAPLACIAN_GRAPHS * MAX_WIDTH) as u64
            }
            Workload::FlowIpm => 2 * (4 * SINKS) as u64,
        }
    }
}

/// SplitMix64: the generator behind every seeded choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a purpose tag.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// One registered generation of an undirected graph, with the seeded
/// right-hand-side basis and terminal set its requests draw from.
#[derive(Debug)]
pub struct LaplacianInstance {
    /// Registered name.
    pub name: String,
    /// Client-side generation counter (matches the engine's).
    pub generation: u64,
    /// The graph.
    pub graph: Graph,
    /// `BASIS` zero-sum vectors.
    pub basis: Vec<Vec<f64>>,
    /// `TERMINALS` distinct vertices.
    pub terminals: Vec<usize>,
}

impl LaplacianInstance {
    fn generate(name: String, generation: u64, seed: u64) -> Self {
        let graph = generators::random_connected(LAPLACIAN_N, 4 * LAPLACIAN_N, 16, seed);
        let mut rng = Rng::new(seed, 1);
        let basis = (0..BASIS)
            .map(|_| {
                let mut b: Vec<f64> = (0..LAPLACIAN_N).map(|_| rng.signed_unit()).collect();
                let mean = b.iter().sum::<f64>() / LAPLACIAN_N as f64;
                b.iter_mut().for_each(|v| *v -= mean);
                b
            })
            .collect();
        let mut terminals = Vec::with_capacity(TERMINALS);
        while terminals.len() < TERMINALS {
            let v = rng.below(LAPLACIAN_N);
            if !terminals.contains(&v) {
                terminals.push(v);
            }
        }
        LaplacianInstance {
            name,
            generation,
            graph,
            basis,
            terminals,
        }
    }
}

/// A flow-domain graph of `flow_ipm`.
#[derive(Debug)]
pub struct FlowInstance {
    /// Registered name.
    pub name: String,
    /// The graph.
    pub graph: DiGraph,
    /// `Some(demands)` for a min-cost-flow graph, `None` for max flow.
    pub demands: Option<Vec<i64>>,
}

/// What the client expects of one request, for the oracle check.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `LaplacianSolve` with `b = Σ coeffs[j]·basis[j]` of the named
    /// graph generation.
    Potentials {
        /// Graph name.
        graph: String,
        /// Client generation counter.
        generation: u64,
        /// Basis coefficients.
        coeffs: Vec<f64>,
    },
    /// `EffectiveResistance` between two terminals.
    Resistance {
        /// Graph name.
        graph: String,
        /// Client generation counter.
        generation: u64,
        /// First terminal.
        s: usize,
        /// Second terminal.
        t: usize,
    },
    /// `MaxFlow` from `s` to `t` on flow graph `index`.
    MaxFlow {
        /// Index into [`Stream::flows`].
        index: usize,
        /// Source.
        s: usize,
        /// Sink.
        t: usize,
    },
    /// `MinCostFlow` of flow graph `index` with its generated demands.
    MinCostFlow {
        /// Index into [`Stream::flows`].
        index: usize,
    },
}

/// One client call: an optional re-registration, then one batch.
#[derive(Debug, Clone)]
pub struct Call {
    /// Graph to re-register first (`graph_churn` only).
    pub register: Option<(String, GraphSpec)>,
    /// The batch.
    pub requests: Vec<Request>,
}

/// The seeded inputs of one workload and the call stream over them.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    rng: Rng,
    calls: u64,
    /// Calls left in the current block, as (graph index, batch width or
    /// sink).
    block: Vec<(usize, usize)>,
    /// Kinds of the requests left in the current Laplacian block (`true`
    /// for an effective resistance).
    kinds: Vec<bool>,
    /// Current generation of each Laplacian graph (empty for `flow_ipm`).
    pub laplacian: Vec<LaplacianInstance>,
    /// Flow graphs (empty unless `flow_ipm`): two max-flow networks, then
    /// two assignment instances.
    pub flows: Vec<FlowInstance>,
}

impl Stream {
    /// The inputs of `workload` under `seed`, positioned before the first
    /// call.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut laplacian = Vec::new();
        let mut flows = Vec::new();
        match workload {
            Workload::LaplacianStream | Workload::GraphChurn => {
                for i in 0..LAPLACIAN_GRAPHS {
                    let name = format!("lap{i}");
                    let gseed = graph_seed(seed, i as u64, 1);
                    laplacian.push(LaplacianInstance::generate(name, 1, gseed));
                }
            }
            Workload::FlowIpm => {
                for i in 0..2u64 {
                    flows.push(FlowInstance {
                        name: format!("maxflow{i}"),
                        graph: generators::random_flow_network(
                            FLOW_N,
                            3 * FLOW_N,
                            8,
                            graph_seed(FLOW_CORPUS_SEED, i, 1),
                        ),
                        demands: None,
                    });
                }
                for i in 0..2u64 {
                    let (graph, demands) = generators::bipartite_assignment(
                        ASSIGN_K,
                        3,
                        8,
                        graph_seed(FLOW_CORPUS_SEED, 2 + i, 1),
                    );
                    flows.push(FlowInstance {
                        name: format!("assign{i}"),
                        graph,
                        demands: Some(demands),
                    });
                }
            }
        }
        Stream {
            workload,
            seed,
            rng: Rng::new(seed, 2),
            calls: 0,
            block: Vec::new(),
            kinds: Vec::new(),
            laplacian,
            flows,
        }
    }

    /// Clique size: the largest graph, plus the two extra nodes the
    /// min-cost-flow rounding stage needs.
    pub fn clique_n(&self) -> usize {
        match self.workload {
            Workload::FlowIpm => FLOW_N.max(2 * ASSIGN_K) + 2,
            _ => LAPLACIAN_N,
        }
    }

    /// Every graph to register at setup, in registration order.
    pub fn registrations(&self) -> Vec<(String, GraphSpec)> {
        self.laplacian
            .iter()
            .map(|g| (g.name.clone(), GraphSpec::Undirected(g.graph.clone())))
            .chain(
                self.flows
                    .iter()
                    .map(|f| (f.name.clone(), GraphSpec::Directed(f.graph.clone()))),
            )
            .collect()
    }

    /// One warm-up request per graph, so solver builds and template
    /// caches fill before timing starts.
    pub fn warmups(&self) -> Vec<(Request, Expect)> {
        let mut out = Vec::new();
        for i in 0..self.laplacian.len() {
            let mut coeffs = vec![0.0; BASIS];
            coeffs[i % BASIS] = 1.0;
            out.push(self.solve_request(i, coeffs));
        }
        for (index, f) in self.flows.iter().enumerate() {
            out.push(match f.demands {
                None => self.max_flow_request(index, f.graph.n() - 1),
                Some(_) => self.min_cost_request(index),
            });
        }
        out
    }

    /// The next call of the stream, with what the client expects of each
    /// of its requests.
    pub fn next_call(&mut self) -> (Call, Vec<Expect>) {
        self.calls += 1;
        if self.block.is_empty() {
            self.refill_block();
        }
        let (index, param) = self.block.pop().expect("block just refilled");
        match self.workload {
            Workload::LaplacianStream => self.laplacian_call(index, param, false),
            Workload::GraphChurn => {
                self.laplacian_call(index, param, self.calls.is_multiple_of(CHURN_EVERY))
            }
            Workload::FlowIpm => {
                let request = match self.flows[index].demands {
                    None => self.max_flow_request(index, param),
                    Some(_) => self.min_cost_request(index),
                };
                call(None, vec![request])
            }
        }
    }

    /// The next block of calls, in seeded order. Blocks fix the mix, so
    /// every run and seed sees the same proportions:
    /// * Laplacian workloads: every (graph, width `1..=MAX_WIDTH`) pair
    ///   once, and exactly `RESISTANCE_TENTHS`/10 of the block's requests
    ///   are effective resistances;
    /// * `flow_ipm`: every (graph, one of the last `SINKS` vertices) pair
    ///   once. The vertex is the sink of a max-flow call and unused by a
    ///   min-cost-flow call, so the two kinds alternate evenly.
    fn refill_block(&mut self) {
        if self.workload == Workload::FlowIpm {
            for (index, f) in self.flows.iter().enumerate() {
                let n = f.graph.n();
                self.block.extend((0..SINKS).map(|k| (index, n - 1 - k)));
            }
        } else {
            for index in 0..self.laplacian.len() {
                self.block.extend((1..=MAX_WIDTH).map(|w| (index, w)));
            }
            let requests: usize = self.block.iter().map(|&(_, w)| w).sum();
            let resistances = requests * RESISTANCE_TENTHS / 10;
            self.kinds = (0..requests).map(|i| i < resistances).collect();
            shuffle(&mut self.kinds, &mut self.rng);
        }
        shuffle(&mut self.block, &mut self.rng);
    }

    fn laplacian_call(&mut self, index: usize, width: usize, churn: bool) -> (Call, Vec<Expect>) {
        let mut register = None;
        if churn {
            let old = &self.laplacian[index];
            let generation = old.generation + 1;
            let gseed = graph_seed(self.seed, index as u64, generation);
            let fresh = LaplacianInstance::generate(old.name.clone(), generation, gseed);
            register = Some((
                fresh.name.clone(),
                GraphSpec::Undirected(fresh.graph.clone()),
            ));
            self.laplacian[index] = fresh;
        }
        let requests: Vec<(Request, Expect)> = (0..width)
            .map(|_| {
                if !self
                    .kinds
                    .pop()
                    .expect("the block holds a kind per request")
                {
                    let coeffs = (0..BASIS).map(|_| self.rng.signed_unit()).collect();
                    self.solve_request(index, coeffs)
                } else {
                    let s = self.rng.below(TERMINALS);
                    let t = (s + 1 + self.rng.below(TERMINALS - 1)) % TERMINALS;
                    let g = &self.laplacian[index];
                    let (s, t) = (g.terminals[s], g.terminals[t]);
                    (
                        Request::EffectiveResistance {
                            graph: g.name.clone(),
                            s,
                            t,
                            eps: EPS,
                        },
                        Expect::Resistance {
                            graph: g.name.clone(),
                            generation: g.generation,
                            s,
                            t,
                        },
                    )
                }
            })
            .collect();
        call(register, requests)
    }

    fn solve_request(&self, index: usize, coeffs: Vec<f64>) -> (Request, Expect) {
        let g = &self.laplacian[index];
        let mut b = vec![0.0; g.graph.n()];
        for (c, basis) in coeffs.iter().zip(&g.basis) {
            for (bi, di) in b.iter_mut().zip(basis) {
                *bi += c * di;
            }
        }
        (
            Request::LaplacianSolve {
                graph: g.name.clone(),
                b,
                eps: EPS,
            },
            Expect::Potentials {
                graph: g.name.clone(),
                generation: g.generation,
                coeffs,
            },
        )
    }

    fn max_flow_request(&self, index: usize, t: usize) -> (Request, Expect) {
        let f = &self.flows[index];
        (
            Request::MaxFlow {
                graph: f.name.clone(),
                s: 0,
                t,
            },
            Expect::MaxFlow { index, s: 0, t },
        )
    }

    fn min_cost_request(&self, index: usize) -> (Request, Expect) {
        let f = &self.flows[index];
        (
            Request::MinCostFlow {
                graph: f.name.clone(),
                demands: f.demands.clone().expect("an assignment instance"),
            },
            Expect::MinCostFlow { index },
        )
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn call(
    register: Option<(String, GraphSpec)>,
    requests: Vec<(Request, Expect)>,
) -> (Call, Vec<Expect>) {
    let (requests, expects) = requests.into_iter().unzip();
    (Call { register, requests }, expects)
}

/// Seed of graph `index`, generation `generation`, under workload seed
/// `seed`.
fn graph_seed(seed: u64, index: u64, generation: u64) -> u64 {
    Rng::new(seed, 3 + (index << 32) + generation).next_u64()
}
