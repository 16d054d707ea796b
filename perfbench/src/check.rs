//! Correctness of every answer against the `cc-conform` sequential
//! oracles, and the bitwise response fingerprint.
//!
//! Oracle answers are memoized per graph generation: a Laplacian solve's
//! oracle is the same combination of the graph's basis solutions the
//! right-hand side was made from, so each generation costs at most
//! `BASIS` dense solves plus one per distinct resistance pair.

use std::collections::BTreeMap;

use cc_conform::oracle;
use cc_service::{Response, ServiceError, ServiceOutcome};

use crate::workload::{Expect, Stream, BASIS, EPS};

/// Relative slack over `EPS` allowed by the checks, absorbing the
/// fixed-point quantization of broadcast values (as in the conformance
/// soak).
const SLACK: f64 = 10.0;

/// Oracle answers of one Laplacian graph generation.
#[derive(Debug)]
struct LaplacianOracle {
    generation: u64,
    n: usize,
    edges: Vec<(usize, usize, f64)>,
    basis_x: Vec<Vec<f64>>,
    resistance: BTreeMap<(usize, usize), f64>,
}

/// Memoizing oracle checker for one stream.
#[derive(Debug, Default)]
pub struct Checker {
    laplacian: BTreeMap<String, LaplacianOracle>,
    max_flow: BTreeMap<(usize, usize), i64>,
    min_cost: BTreeMap<usize, i64>,
}

impl Checker {
    /// Checks one result against the oracle. `Err` describes the failure:
    /// a typed engine error or a disagreement with the oracle.
    pub fn check(
        &mut self,
        stream: &Stream,
        expect: &Expect,
        result: &Result<ServiceOutcome, ServiceError>,
    ) -> Result<(), String> {
        let outcome = result.as_ref().map_err(|e| format!("engine error: {e}"))?;
        match (expect, &outcome.response) {
            (
                Expect::Potentials {
                    graph,
                    generation,
                    coeffs,
                },
                Response::Potentials { x, .. },
            ) => {
                let o = self.laplacian_oracle(stream, graph, *generation)?;
                let mut diff = x.clone();
                let mut want = vec![0.0; x.len()];
                for (c, bx) in coeffs.iter().zip(&o.basis_x) {
                    for ((w, d), v) in want.iter_mut().zip(diff.iter_mut()).zip(bx) {
                        *w += c * v;
                        *d -= c * v;
                    }
                }
                let err = oracle::quadratic_form(&o.edges, &diff).sqrt();
                let scale = oracle::quadratic_form(&o.edges, &want).sqrt();
                if err > SLACK * EPS * scale.max(1e-12) {
                    return Err(format!(
                        "{graph}: solve off by {err:.3e} in L-norm (scale {scale:.3e})"
                    ));
                }
            }
            (
                Expect::Resistance {
                    graph,
                    generation,
                    s,
                    t,
                },
                Response::Resistance { value, .. },
            ) => {
                let o = self.laplacian_oracle(stream, graph, *generation)?;
                let n = o.n;
                let want = match o.resistance.get(&(*s, *t)) {
                    Some(w) => *w,
                    None => {
                        let w = oracle::effective_resistance_dense(n, &o.edges, *s, *t)
                            .map_err(|e| format!("{graph}: oracle failed: {e}"))?;
                        o.resistance.insert((*s, *t), w);
                        w
                    }
                };
                if (value - want).abs() > SLACK * EPS * want.abs() {
                    return Err(format!(
                        "{graph}: R_eff({s},{t}) = {value:e}, oracle {want:e}"
                    ));
                }
            }
            (Expect::MaxFlow { index, s, t }, Response::MaxFlow { flow, value }) => {
                let g = &stream.flows[*index].graph;
                let want = *self
                    .max_flow
                    .entry((*index, *t))
                    .or_insert_with(|| oracle::edmonds_karp(g, *s, *t).1);
                if *value != want || !g.is_feasible_flow(flow, &g.st_demand(*s, *t, *value)) {
                    return Err(format!(
                        "{}: max flow {value} (oracle {want}) or infeasible flow",
                        stream.flows[*index].name
                    ));
                }
            }
            (Expect::MinCostFlow { index }, Response::MinCostFlow { flow, cost }) => {
                let f = &stream.flows[*index];
                let demands = f.demands.as_ref().expect("an assignment instance");
                let want = match self.min_cost.get(index) {
                    Some(w) => *w,
                    None => {
                        let (_, w) = oracle::ssp_mcf(&f.graph, demands)
                            .ok_or_else(|| format!("{}: oracle says infeasible", f.name))?;
                        self.min_cost.insert(*index, w);
                        w
                    }
                };
                if *cost != want
                    || f.graph.flow_cost(flow) != *cost
                    || !f.graph.is_feasible_flow(flow, demands)
                {
                    return Err(format!(
                        "{}: min-cost flow cost {cost} (oracle {want}) or infeasible flow",
                        f.name
                    ));
                }
            }
            (expect, response) => {
                return Err(format!("response {response:?} does not answer {expect:?}"));
            }
        }
        Ok(())
    }

    /// The oracle of `graph` at `generation`, (re)built on first use; an
    /// older generation's answers are dropped.
    fn laplacian_oracle(
        &mut self,
        stream: &Stream,
        graph: &str,
        generation: u64,
    ) -> Result<&mut LaplacianOracle, String> {
        let inst = stream
            .laplacian
            .iter()
            .find(|g| g.name == graph && g.generation == generation)
            .ok_or_else(|| format!("{graph}: generation {generation} is not current"))?;
        let stale = self
            .laplacian
            .get(graph)
            .is_none_or(|o| o.generation != generation);
        if stale {
            let n = inst.graph.n();
            let edges = inst.graph.edge_triples();
            let basis_x = inst
                .basis
                .iter()
                .map(|b| oracle::dense_laplacian_solve(n, &edges, b))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{graph}: oracle failed: {e}"))?;
            debug_assert_eq!(basis_x.len(), BASIS);
            self.laplacian.insert(
                graph.to_string(),
                LaplacianOracle {
                    generation,
                    n,
                    edges,
                    basis_x,
                    resistance: BTreeMap::new(),
                },
            );
        }
        Ok(self.laplacian.get_mut(graph).expect("just ensured"))
    }
}

/// FNV-1a over one 64-bit word.
pub fn fnv(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Initial value of a response fingerprint.
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a response into a fingerprint, floats by their bits, so two
/// fingerprints agree only for bitwise-identical responses.
pub fn fingerprint(h: u64, response: &Response) -> u64 {
    let words = |h: u64, tag: u64, head: u64, body: &mut dyn Iterator<Item = u64>| {
        body.fold(fnv(fnv(h, tag), head), fnv)
    };
    match response {
        Response::Potentials { x, iterations } => {
            words(h, 1, *iterations as u64, &mut x.iter().map(|v| v.to_bits()))
        }
        Response::Resistance { value, iterations } => words(
            h,
            2,
            *iterations as u64,
            &mut std::iter::once(value.to_bits()),
        ),
        Response::MaxFlow { flow, value } => {
            words(h, 3, *value as u64, &mut flow.iter().map(|&f| f as u64))
        }
        Response::MinCostFlow { flow, cost } => {
            words(h, 4, *cost as u64, &mut flow.iter().map(|&f| f as u64))
        }
        // The workloads send no shortest-path requests; fold the debug
        // form so an unexpected kind still fingerprints deterministically.
        other => format!("{other:?}")
            .bytes()
            .fold(fnv(h, 5), |h, b| fnv(h, b as u64)),
    }
}
