//! `broadcast_all_into` — the per-iteration Chebyshev primitive — through
//! every wrapping transport: each layer, and a 4-deep stack of all of
//! them, must treat it exactly like `broadcast_all`. Same view, same
//! ledger, trace events labelled `"broadcast_all"`, one fault-stream
//! draw, and the same adversary events and corrupted word.

use cc_model::{
    AdversaryComm, AdversarySchedule, AdversaryStrategy, BroadcastComm, Clique, Communicator,
    FaultComm, FaultPlan, ModelError, TracingComm,
};

const N: usize = 5;
const VALUES: [u64; N] = [10, 11, 12, 13, 14];

/// Runs `broadcast_all` on one fresh communicator and
/// `broadcast_all_into` on another, inside a phase, and asserts the two
/// agree on the outcome and the ledger. Returns both communicators and
/// the shared outcome.
fn both<C: Communicator>(make: impl Fn() -> C) -> (C, C, Result<Vec<u64>, ModelError>) {
    let mut alloc = make();
    let mut into = make();
    let view = alloc.phase("p", |c| c.broadcast_all(&VALUES));
    let mut out = vec![99; 2]; // stale contents must be replaced
    let filled = into
        .phase("p", |c| c.broadcast_all_into(&VALUES, &mut out))
        .map(|()| out);
    assert_eq!(view, filled, "same view or error");
    assert_eq!(alloc.ledger().phases(), into.ledger().phases());
    assert_eq!(alloc.ledger().total_rounds(), into.ledger().total_rounds());
    (alloc, into, view)
}

/// A seeded fault stream failing half the data primitives. Seed 11's
/// first draw fails and seed 12's passes, so the tests below see both
/// outcomes.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        failure_rate: 0.5,
        ..FaultPlan::default()
    }
}

fn corrupt_node_1() -> AdversarySchedule {
    AdversarySchedule::new(7).with(1, AdversaryStrategy::Corrupt)
}

/// The next 32 pass/fail outcomes of a fault stream: equal patterns mean
/// equal stream positions.
fn next_outcomes<C: Communicator>(comm: &mut C) -> Vec<bool> {
    (0..32)
        .map(|_| comm.broadcast_all(&VALUES).is_ok())
        .collect()
}

#[test]
fn tracing_labels_both_variants_broadcast_all() {
    let (alloc, into, view) = both(|| TracingComm::new(Clique::new(N)));
    assert_eq!(view.unwrap(), VALUES);
    assert_eq!(alloc.events(), into.events());
    assert_eq!(alloc.trace_json(), into.trace_json());
    let labels: Vec<&str> = into.events().iter().map(|e| e.primitive).collect();
    assert_eq!(labels, ["phase_enter", "broadcast_all", "phase_exit"]);
    assert_eq!(into.events()[1].rounds, 1);
    assert_eq!(into.phases()["p"].messages, N as u64);
}

#[test]
fn fault_layer_draws_once_for_either_variant() {
    let (mut alloc, mut into, _) = both(|| FaultComm::new(Clique::new(N), fault_plan(11)));
    assert_eq!(alloc.injected_faults(), into.injected_faults());
    // One draw: the stream then continues exactly where it does after
    // any other single data primitive, and not where it starts.
    let mut one_draw = FaultComm::new(Clique::new(N), fault_plan(11));
    let _ = one_draw.sort(&vec![Vec::new(); N]);
    let mut no_draw = FaultComm::new(Clique::new(N), fault_plan(11));
    let expected = next_outcomes(&mut one_draw);
    assert_eq!(next_outcomes(&mut alloc), expected);
    assert_eq!(next_outcomes(&mut into), expected);
    assert_ne!(next_outcomes(&mut no_draw), expected);
}

#[test]
fn adversary_corrupts_the_same_word_in_either_variant() {
    let (alloc, into, view) = both(|| AdversaryComm::new(Clique::new(N), corrupt_node_1()));
    let mut want = VALUES.to_vec();
    want[1] ^= 1;
    assert_eq!(view.unwrap(), want);
    assert_eq!(alloc.events(), into.events());
    assert_eq!(alloc.events_json(), into.events_json());
    assert_eq!(into.corruptions(), 1);
    assert_eq!(into.events()[0].primitive, "broadcast_all");

    // A silent node is detected identically by both variants.
    let silent = || {
        AdversaryComm::new(
            Clique::new(N),
            AdversarySchedule::new(7).with(3, AdversaryStrategy::Silent),
        )
    };
    let (alloc, into, view) = both(silent);
    assert!(matches!(
        view,
        Err(ModelError::NodeSilenced { node: 3, .. })
    ));
    assert_eq!(alloc.events_json(), into.events_json());
}

#[test]
fn broadcast_layer_passes_both_variants_to_the_substrate() {
    for make in [BroadcastComm::strict, BroadcastComm::measured] {
        let (_, into, view) = both(|| make(Clique::new(N)));
        assert_eq!(view.unwrap(), VALUES);
        assert_eq!(into.ledger().total_rounds(), 1);
    }
}

#[test]
fn four_deep_stack_agrees_on_every_layer() {
    let stack = || {
        TracingComm::new(AdversaryComm::new(
            FaultComm::new(BroadcastComm::measured(Clique::new(N)), fault_plan(12)),
            corrupt_node_1(),
        ))
    };
    let (mut alloc, mut into, view) = both(stack);
    // Tracing: both variants recorded as `broadcast_all`.
    assert_eq!(alloc.trace_json(), into.trace_json());
    let labels: Vec<&str> = into.events().iter().map(|e| e.primitive).collect();
    assert_eq!(labels, ["phase_enter", "broadcast_all", "phase_exit"]);
    // Adversary: same events and the same corrupted word.
    assert_eq!(alloc.inner().events_json(), into.inner().events_json());
    assert_eq!(into.inner().events()[0].primitive, "broadcast_all");
    assert_eq!(view.unwrap()[1], VALUES[1] ^ 1);
    // Fault: one draw each, so the streams continue in step.
    assert_eq!(into.inner().inner().injected_faults(), 0);
    assert_eq!(next_outcomes(&mut alloc), next_outcomes(&mut into));
    assert_eq!(alloc.faults_observed(), into.faults_observed());
    // Broadcast: the regime reaches the top of the stack.
    assert!(into.is_broadcast());
    assert_eq!(alloc.ledger().phases(), into.ledger().phases());
}
