//! Ingress correctness of the service layer: inputs the solver cannot
//! answer meaningfully get a typed error or a documented answer, never
//! NaN potentials or a silently wrong value.

use cc_graph::{generators, Graph};
use cc_model::Clique;
use cc_service::{FlowEngine, GraphSpec, Request, Response, ServiceErrorKind};

const N: usize = 12;

fn engine() -> FlowEngine<Clique> {
    let mut engine = FlowEngine::new(Clique::new(N));
    engine.register(
        "lap",
        GraphSpec::Undirected(generators::random_connected(N, 20, 4, 5)),
    );
    engine
}

fn good_rhs() -> Vec<f64> {
    let mut b = vec![0.0; N];
    b[1] = 1.5;
    b[8] = -1.5;
    b
}

fn solve(b: Vec<f64>) -> Request {
    Request::LaplacianSolve {
        graph: "lap".into(),
        b,
        eps: 1e-8,
    }
}

fn bits(response: &Response) -> Vec<u64> {
    match response {
        Response::Potentials { x, iterations } => {
            let mut out: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            out.push(*iterations as u64);
            out
        }
        other => panic!("expected potentials, got {other:?}"),
    }
}

fn non_finite_rhs() -> Vec<Vec<f64>> {
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .map(|bad| {
            let mut b = good_rhs();
            b[3] = bad;
            b
        })
        .collect()
}

#[test]
fn non_finite_rhs_is_a_bad_request_on_the_solo_path() {
    for b in non_finite_rhs() {
        let mut engine = engine();
        let err = engine.submit(solve(b)).unwrap_err();
        assert!(
            matches!(err.kind, ServiceErrorKind::BadRequest { .. }),
            "{err:?}"
        );
        assert_eq!(engine.ledger().total_rounds(), 0, "refusal charges nothing");
    }
}

#[test]
fn non_finite_batch_member_is_refused_and_its_partner_matches_solo() {
    let mut solo = engine();
    let want = solo.submit(solve(good_rhs())).unwrap();
    let solo_rounds = solo.ledger().total_rounds();

    for b in non_finite_rhs() {
        let mut engine = engine();
        let out = engine.submit_batch(vec![solve(good_rhs()), solve(b)]);
        let err = out[1].as_ref().unwrap_err();
        assert!(
            matches!(err.kind, ServiceErrorKind::BadRequest { .. }),
            "{err:?}"
        );
        let got = out[0].as_ref().unwrap();
        assert_eq!(bits(&got.response), bits(&want.response));
        assert_eq!(got.stats.rounds, want.stats.rounds);
        // The bad member adds no rounds to the ledger.
        assert_eq!(engine.ledger().total_rounds(), solo_rounds);
    }
}

#[test]
fn resistance_across_components_is_infinite() {
    // Two disjoint 3-paths: {0, 1, 2} and {3, 4, 5}.
    let two_paths = Graph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]);
    let mut engine = FlowEngine::new(Clique::new(6));
    engine.register("paths", GraphSpec::Undirected(two_paths));
    let resistance = |s, t| Request::EffectiveResistance {
        graph: "paths".into(),
        s,
        t,
        eps: 1e-8,
    };

    let out = engine.submit(resistance(0, 4)).unwrap();
    assert_eq!(
        out.response,
        Response::Resistance {
            value: f64::INFINITY,
            iterations: 0,
        }
    );
    assert_eq!(out.stats.rounds, 0);
    assert!(
        !out.stats.built,
        "no solver is built for an infinite answer"
    );
    assert_eq!(engine.ledger().total_rounds(), 0);

    // A same-component pair is still solved, with the bits this pair
    // had before the component check existed.
    let out = engine.submit(resistance(0, 2)).unwrap();
    let Response::Resistance { value, iterations } = out.response else {
        panic!("expected a resistance, got {:?}", out.response);
    };
    assert_eq!(value.to_bits(), SAME_COMPONENT_BITS, "R = {value}");
    assert_eq!(iterations, SAME_COMPONENT_ITERATIONS);
}

/// `R_eff(0, 2) = 2` on a unit 3-path, as the solver computes it (one
/// Chebyshev iteration, within one ulp of the exact value).
const SAME_COMPONENT_BITS: u64 = 0x3fff_ffff_ffff_ffff;
const SAME_COMPONENT_ITERATIONS: usize = 1;
