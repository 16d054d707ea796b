//! The transport abstraction every algorithm layer is written against.
//!
//! [`Communicator`] captures the primitive surface of the congested clique
//! — the message-moving primitives plus round accounting — without naming
//! a concrete substrate. [`crate::Clique`] is the canonical
//! implementation (the deterministic simulator) and
//! [`crate::ThreadedComm`] its concurrent twin; the wrapping transports
//! [`crate::TracingComm`], [`crate::FaultComm`], [`crate::AdversaryComm`]
//! and [`crate::BroadcastComm`] decorate any communicator with
//! observability, fault injection, node-level adversaries and the
//! broadcast-clique restriction (cf. the companion paper
//! arXiv:2205.12059, which re-targets the same algorithms to the
//! broadcast clique). All four are one generic implementation,
//! [`crate::Layered`], over a per-wrapper [`crate::Layer`].
//!
//! Algorithms are generic over `C: Communicator`; nothing outside
//! `cc-model` needs to know which substrate is charging the rounds.

use crate::{CliqueConfig, CostKind, Envelope, ModelError, NodeId, RoundLedger, Words};

/// Runs `f` inside a named ledger phase of `comm`, popping the phase even
/// if `f` unwinds (drop guard), so a panicking solve cannot leave the
/// phase stack unbalanced.
pub fn scoped_phase<C: Communicator, R>(
    comm: &mut C,
    name: &str,
    f: impl FnOnce(&mut C) -> R,
) -> R {
    struct Guard<'a, C: Communicator>(&'a mut C);
    impl<C: Communicator> Drop for Guard<'_, C> {
        fn drop(&mut self) {
            self.0.pop_phase();
        }
    }
    comm.push_phase(name);
    let guard = Guard(comm);
    f(guard.0)
}

/// The communication substrate of a congested clique algorithm.
///
/// The trait mirrors the primitive surface of [`crate::Clique`] (which is
/// its canonical implementation): point-to-point
/// [`exchange`](Communicator::exchange), Lenzen
/// [`route`](Communicator::route)/[`route_strict`](Communicator::route_strict),
/// the broadcast family, [`allgather`](Communicator::allgather),
/// [`sort`](Communicator::sort), [`gather_to`](Communicator::gather_to),
/// plus phase scoping and oracle charging. Every
/// algorithm entry point in the workspace takes `&mut C` with
/// `C: Communicator`, so substrates can be swapped without touching
/// algorithm code:
///
/// * [`crate::Clique`] — the deterministic simulator;
/// * [`crate::ThreadedComm`] — the same delivery kernel sharded over a
///   worker pool, bitwise identical to `Clique`;
/// * [`crate::Layered`] — a [`crate::Layer`] over any communicator, the
///   one implementation behind the wrapping transports:
///   [`crate::TracingComm`] (structured event trace and per-phase
///   congestion statistics), [`crate::FaultComm`] (deterministic, seeded
///   fault injection), [`crate::AdversaryComm`] (node-level adversaries)
///   and [`crate::BroadcastComm`] (the Broadcast Congested Clique).
///
/// # Contract
///
/// Implementations must be *transparent* about round accounting: the
/// rounds charged for a primitive call are defined by the substrate, and
/// wrapping transports must not change them ([`crate::TracingComm`]
/// charges bitwise-identical totals to a bare [`crate::Clique`]; the
/// workspace tests verify this over every experiment in `cc-bench`).
///
/// # Example
///
/// ```
/// use cc_model::{Clique, Communicator, TracingComm};
///
/// fn min_consensus<C: Communicator>(comm: &mut C, mine: u64) -> u64 {
///     comm.phase("consensus", |comm| {
///         let view = comm.broadcast_all(&vec![mine; comm.n()]).unwrap();
///         view.into_iter().min().unwrap()
///     })
/// }
///
/// let mut bare = Clique::new(4);
/// let mut traced = TracingComm::new(Clique::new(4));
/// assert_eq!(min_consensus(&mut bare, 7), 7);
/// assert_eq!(min_consensus(&mut traced, 7), 7);
/// assert_eq!(
///     bare.ledger().total_rounds(),
///     traced.ledger().total_rounds()
/// );
/// ```
pub trait Communicator {
    /// Number of nodes of the clique.
    fn n(&self) -> usize;

    /// The accounting constants in effect.
    fn config(&self) -> CliqueConfig;

    /// Read access to the round ledger.
    fn ledger(&self) -> &RoundLedger;

    /// Mutable access to the round ledger (e.g. to reset between phases
    /// of a benchmark).
    fn ledger_mut(&mut self) -> &mut RoundLedger;

    /// Enters a named ledger phase. Prefer [`Communicator::phase`], which
    /// guarantees the matching [`Communicator::pop_phase`].
    fn push_phase(&mut self, name: &str) {
        self.ledger_mut().push_phase(name);
    }

    /// Leaves the innermost ledger phase.
    fn pop_phase(&mut self) {
        self.ledger_mut().pop_phase();
    }

    /// Runs `f` inside a named ledger phase, so all rounds charged by `f`
    /// are attributed under `name`. The phase is popped even if `f`
    /// unwinds.
    fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        scoped_phase(self, name, f)
    }

    /// Number of transport-layer faults this substrate has injected or
    /// detected so far. Honest substrates report 0 (the default);
    /// wrapping transports add their own count to the wrapped
    /// substrate's ([`crate::FaultComm`] counts injected faults,
    /// [`crate::AdversaryComm`] counts adversary events), so engine
    /// layers can surface fault totals through their error types
    /// without naming a concrete transport stack.
    fn faults_observed(&self) -> u64 {
        0
    }

    /// True if this communicator is (or wraps) the Broadcast Congested
    /// Clique, i.e. a unicast-shaped message set is attributed as one
    /// sender broadcasting to the other `n − 1` nodes. Substrates are
    /// unicast (the default); [`crate::BroadcastComm`] reports `true` and
    /// [`crate::Layered`] forwards it, so [`crate::TracingComm`] stacked
    /// anywhere above attributes congestion broadcast-style.
    fn is_broadcast(&self) -> bool {
        false
    }

    /// Charges `rounds` rounds for an oracle subroutine that is simulated
    /// rather than executed distributedly (tagged [`CostKind::Charged`];
    /// see `DESIGN.md` §2).
    fn charge_oracle(&mut self, rounds: u64) {
        self.ledger_mut().charge(rounds, CostKind::Charged);
    }

    /// Charges `rounds` implemented rounds without moving data — used by
    /// primitives built on top of the substrate whose data movement is
    /// performed by the caller (rare; prefer the message primitives).
    fn charge_implemented(&mut self, rounds: u64) {
        self.ledger_mut().charge(rounds, CostKind::Implemented);
    }

    /// Direct point-to-point exchange; see [`crate::Clique::exchange`]
    /// for the canonical accounting (max per-ordered-pair words).
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `outboxes.len() != n`;
    /// [`ModelError::InvalidNode`] on an out-of-range destination;
    /// [`ModelError::UnicastInBroadcastModel`] in the strict broadcast
    /// clique.
    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// Routed exchange via Lenzen's routing theorem; see
    /// [`crate::Clique::route`] for the canonical accounting.
    ///
    /// # Errors
    ///
    /// Same structural errors as [`Communicator::exchange`].
    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// Like [`Communicator::route`], but fails instead of batching when a
    /// node's load exceeds one application of the routing theorem.
    ///
    /// # Errors
    ///
    /// [`ModelError::CongestionExceeded`] if some node would send or
    /// receive more than `capacity·n` words, plus the structural errors
    /// of [`Communicator::exchange`].
    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError>;

    /// Every node broadcasts one word; everyone learns all `n` words.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `values.len() != n`;
    /// fault-injecting transports ([`crate::FaultComm`]) additionally
    /// return [`ModelError::CongestionExceeded`] for injected faults.
    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError>;

    /// [`Communicator::broadcast_all`] into a caller-owned buffer: `out`
    /// is cleared and refilled with the shared view. The default delegates
    /// to [`Communicator::broadcast_all`] (so wrapping transports trace and
    /// charge it identically); substrates with an allocation-free fast path
    /// override it ([`crate::Clique`] does). Round accounting must be
    /// identical to `broadcast_all`.
    ///
    /// # Errors
    ///
    /// Same errors as [`Communicator::broadcast_all`] (leaving `out`
    /// untouched on failure).
    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        let view = self.broadcast_all(values)?;
        out.clear();
        out.extend_from_slice(&view);
        Ok(())
    }

    /// Every node broadcasts a word vector; everyone learns all of them.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`;
    /// fault-injecting transports additionally return
    /// [`ModelError::CongestionExceeded`] for injected faults.
    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;

    /// One node broadcasts its word vector to everyone.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `src` is out of range.
    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError>;

    /// Everyone learns everyone's word vector, load-balanced (all-gather).
    /// Returns the concatenation in node order plus per-node offsets.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`;
    /// fault-injecting transports additionally return
    /// [`ModelError::CongestionExceeded`] for injected faults.
    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError>;

    /// Globally sorts all keys across the clique (Lenzen's deterministic
    /// sorting theorem); node `i` receives the `i`-th sorted block.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnicastInBroadcastModel`] in the strict broadcast
    /// clique.
    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;

    /// Every node sends its word vector to a single destination.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `dst` is out of range.
    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clique;

    fn generic_round<C: Communicator>(comm: &mut C) -> u64 {
        comm.phase("generic", |comm| {
            let n = comm.n();
            comm.broadcast_all(&vec![1; n]).unwrap();
            comm.charge_oracle(3);
        });
        comm.ledger().total_rounds()
    }

    #[test]
    fn clique_is_a_communicator() {
        let mut clique = Clique::new(4);
        assert_eq!(generic_round(&mut clique), 4);
        assert_eq!(clique.ledger().phase("generic").implemented, 1);
        assert_eq!(clique.ledger().phase("generic").charged, 3);
    }

    #[test]
    fn scoped_phase_pops_on_unwind() {
        let mut clique = Clique::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clique.phase("doomed", |c| {
                c.charge_oracle(1);
                panic!("mid-phase failure");
            })
        }));
        assert!(result.is_err());
        // The drop guard popped the phase despite the unwind.
        assert_eq!(clique.ledger().current_phase(), "");
        assert_eq!(clique.ledger().phase("doomed").charged, 1);
    }

    #[test]
    fn nested_phases_balance() {
        let mut clique = Clique::new(2);
        clique.phase("a", |c| {
            c.phase("b", |c| {
                c.phase("c", |c| c.charge_oracle(1));
                assert_eq!(c.ledger().current_phase(), "a/b");
            });
            assert_eq!(c.ledger().current_phase(), "a");
        });
        assert_eq!(clique.ledger().current_phase(), "");
        assert_eq!(clique.ledger().phase("a/b/c").charged, 1);
    }
}
