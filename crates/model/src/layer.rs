//! [`Layered`]: the one [`Communicator`] implementation shared by every
//! wrapping transport.
//!
//! A wrapping transport decorates a substrate: it screens a primitive
//! call, observes it, or replaces its execution, and otherwise delegates.
//! Instead of re-implementing the whole trait per wrapper, a primitive
//! call is reified as one [`Op`] value and a wrapper is a [`Layer`] — a
//! handful of hooks around that value. [`Layered<L, C>`] writes the
//! delegation once:
//!
//! 1. [`Layer::before`] screens the op: it may mutate its arguments
//!    (adversarial corruption) or reject the call (injected faults,
//!    omissions, strict broadcast rejections) before anything runs;
//! 2. [`Layer::around`] executes it — by default [`Op::run`] on the
//!    wrapped substrate; [`crate::BroadcastComm`] substitutes its own
//!    broadcast-priced execution;
//! 3. [`Layer::after`] observes the substrate's ledger delta
//!    ([`crate::TracingComm`] records the event).
//!
//! Phase transitions and charges bypass `before`/`around` (no layer
//! screens them) and are observed through [`Layer::phase_entered`],
//! [`Layer::phase_exiting`] and [`Layer::charged`].
//!
//! Borrowed arguments travel as [`Cow`], so an honest pass-through never
//! copies; a layer that rewrites a row calls [`Cow::to_mut`], which
//! clones the rows once, on the first write.

use std::borrow::Cow;

use crate::{
    CliqueConfig, Communicator, CostKind, Envelope, ModelError, NodeId, RoundLedger, Words,
};

/// Per-source outboxes: `outboxes[src] = [(dst, payload), …]`.
pub(crate) type Outboxes = Vec<Vec<(NodeId, Words)>>;

/// One primitive call of the [`Communicator`] surface, with its arguments.
#[derive(Debug)]
pub enum Op<'a> {
    /// [`Communicator::exchange`].
    Exchange(Outboxes),
    /// [`Communicator::route`].
    Route(Outboxes),
    /// [`Communicator::route_strict`].
    RouteStrict(Outboxes),
    /// [`Communicator::broadcast_all`].
    BroadcastAll(Cow<'a, [u64]>),
    /// [`Communicator::broadcast_all_into`]: the same call as
    /// [`Op::BroadcastAll`] (same name, screening and cost), refilling
    /// the caller's buffer instead of allocating.
    BroadcastAllInto(Cow<'a, [u64]>, &'a mut Vec<u64>),
    /// [`Communicator::broadcast_all_words`].
    BroadcastAllWords(Cow<'a, [Words]>),
    /// [`Communicator::broadcast_from`]: source and payload.
    BroadcastFrom(NodeId, Cow<'a, Words>),
    /// [`Communicator::allgather`].
    Allgather(Cow<'a, [Words]>),
    /// [`Communicator::sort`].
    Sort(Cow<'a, [Words]>),
    /// [`Communicator::gather_to`]: destination and per-node rows.
    GatherTo(NodeId, Cow<'a, [Words]>),
}

/// The result of an executed [`Op`], one variant per result shape.
#[derive(Debug)]
pub enum Reply {
    /// Per-destination inboxes (`exchange`, `route`, `route_strict`).
    Inboxes(Vec<Vec<Envelope>>),
    /// A word vector (`broadcast_all`, `broadcast_from`).
    Words(Words),
    /// Per-node rows (`broadcast_all_words`, `sort`, `gather_to`).
    Rows(Vec<Words>),
    /// Concatenation plus offsets (`allgather`).
    Gathered(Words, Vec<usize>),
    /// The caller's buffer was refilled (`broadcast_all_into`).
    Filled,
}

impl Op<'_> {
    /// The primitive's name as traces and adversary events label it;
    /// `broadcast_all_into` is labelled `"broadcast_all"`.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Exchange(_) => "exchange",
            Op::Route(_) => "route",
            Op::RouteStrict(_) => "route_strict",
            Op::BroadcastAll(_) | Op::BroadcastAllInto(..) => "broadcast_all",
            Op::BroadcastAllWords(_) => "broadcast_all_words",
            Op::BroadcastFrom(..) => "broadcast_from",
            Op::Allgather(_) => "allgather",
            Op::Sort(_) => "sort",
            Op::GatherTo(..) => "gather_to",
        }
    }

    /// True for the primitives with no Broadcast Congested Clique
    /// counterpart (point-to-point message sets, `sort`, `gather_to`).
    pub(crate) fn is_unicast(&self) -> bool {
        matches!(
            self,
            Op::Exchange(_) | Op::Route(_) | Op::RouteStrict(_) | Op::Sort(_) | Op::GatherTo(..)
        )
    }

    /// Executes the call on `comm` through its trait method of the same
    /// name.
    ///
    /// # Errors
    ///
    /// Whatever that method returns.
    pub fn run<C: Communicator>(self, comm: &mut C) -> Result<Reply, ModelError> {
        match self {
            Op::Exchange(o) => comm.exchange(o).map(Reply::Inboxes),
            Op::Route(o) => comm.route(o).map(Reply::Inboxes),
            Op::RouteStrict(o) => comm.route_strict(o).map(Reply::Inboxes),
            Op::BroadcastAll(v) => comm.broadcast_all(&v).map(Reply::Words),
            Op::BroadcastAllInto(v, out) => {
                comm.broadcast_all_into(&v, out).map(|()| Reply::Filled)
            }
            Op::BroadcastAllWords(rows) => comm.broadcast_all_words(&rows).map(Reply::Rows),
            Op::BroadcastFrom(src, w) => comm.broadcast_from(src, &w).map(Reply::Words),
            Op::Allgather(rows) => comm
                .allgather(&rows)
                .map(|(all, offsets)| Reply::Gathered(all, offsets)),
            Op::Sort(rows) => comm.sort(&rows).map(Reply::Rows),
            Op::GatherTo(dst, rows) => comm.gather_to(dst, &rows).map(Reply::Rows),
        }
    }
}

/// Unpacks the [`Reply`] variant a primitive's result shape dictates.
macro_rules! expect_reply {
    ($layered:ident, $op:expr, $variant:pat => $out:expr) => {
        match $layered.call($op)? {
            $variant => Ok($out),
            other => unreachable!("layer answered with the wrong result shape: {other:?}"),
        }
    };
}

/// The hooks of one wrapping transport; see the module docs for the call
/// order. Every hook defaults to "no effect", so a layer implements only
/// what it screens, replaces or observes.
pub trait Layer {
    /// Screens a primitive call before it runs: mutate `op`'s arguments,
    /// or reject the call (nothing below runs, nothing is charged).
    ///
    /// # Errors
    ///
    /// The error the call fails with.
    fn before<C: Communicator>(&mut self, inner: &C, op: &mut Op<'_>) -> Result<(), ModelError> {
        let _ = (inner, op);
        Ok(())
    }

    /// Executes a screened call; the default delegates to `inner`.
    ///
    /// # Errors
    ///
    /// The call's error.
    fn around<C: Communicator>(&mut self, inner: &mut C, op: Op<'_>) -> Result<Reply, ModelError> {
        op.run(inner)
    }

    /// Observes a call that passed [`Layer::before`], successful or not:
    /// `rounds` is the ledger delta of the execution.
    fn after(&mut self, ledger: &RoundLedger, primitive: &'static str, rounds: u64) {
        let _ = (ledger, primitive, rounds);
    }

    /// Observes `charge_oracle` / `charge_implemented` (`kind` tells
    /// which) after the substrate charged `rounds`.
    fn charged(&mut self, ledger: &RoundLedger, kind: CostKind, rounds: u64) {
        let _ = (ledger, kind, rounds);
    }

    /// Runs right after the substrate entered a phase.
    fn phase_entered(&mut self, ledger: &RoundLedger) {
        let _ = ledger;
    }

    /// Runs right before the substrate leaves the innermost phase.
    fn phase_exiting(&mut self, ledger: &RoundLedger) {
        let _ = ledger;
    }

    /// Faults this layer injected or detected (added to the substrate's
    /// count by [`Communicator::faults_observed`]).
    fn faults_observed(&self) -> u64 {
        0
    }

    /// True if this layer prices primitives as the Broadcast Congested
    /// Clique (reported through [`Communicator::is_broadcast`]).
    fn is_broadcast(&self) -> bool {
        false
    }
}

/// A [`Communicator`] made of a [`Layer`] over a wrapped substrate —
/// the single implementation behind [`crate::TracingComm`],
/// [`crate::FaultComm`], [`crate::AdversaryComm`] and
/// [`crate::BroadcastComm`]. Layers stack: the substrate may itself be a
/// `Layered`.
#[derive(Debug, Clone)]
pub struct Layered<L, C> {
    layer: L,
    inner: C,
}

impl<L: Layer, C: Communicator> Layered<L, C> {
    /// Puts `layer` over `inner`.
    pub fn wrap(layer: L, inner: C) -> Self {
        Self { layer, inner }
    }

    /// The layer's state.
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps, discarding the layer and returning the substrate (and
    /// its ledger).
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn call(&mut self, mut op: Op<'_>) -> Result<Reply, ModelError> {
        self.layer.before(&self.inner, &mut op)?;
        let primitive = op.name();
        let start = self.inner.ledger().total_rounds();
        let reply = self.layer.around(&mut self.inner, op);
        let ledger = self.inner.ledger();
        self.layer
            .after(ledger, primitive, ledger.total_rounds() - start);
        reply
    }

    fn charge(&mut self, kind: CostKind, rounds: u64) {
        let start = self.inner.ledger().total_rounds();
        match kind {
            CostKind::Charged => self.inner.charge_oracle(rounds),
            CostKind::Implemented => self.inner.charge_implemented(rounds),
        }
        let ledger = self.inner.ledger();
        self.layer
            .charged(ledger, kind, ledger.total_rounds() - start);
    }
}

impl<L: Layer, C: Communicator> Communicator for Layered<L, C> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn config(&self) -> CliqueConfig {
        self.inner.config()
    }

    fn ledger(&self) -> &RoundLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut RoundLedger {
        self.inner.ledger_mut()
    }

    fn push_phase(&mut self, name: &str) {
        self.inner.push_phase(name);
        self.layer.phase_entered(self.inner.ledger());
    }

    fn pop_phase(&mut self) {
        self.layer.phase_exiting(self.inner.ledger());
        self.inner.pop_phase();
    }

    fn faults_observed(&self) -> u64 {
        self.layer.faults_observed() + self.inner.faults_observed()
    }

    fn is_broadcast(&self) -> bool {
        self.layer.is_broadcast() || self.inner.is_broadcast()
    }

    fn charge_oracle(&mut self, rounds: u64) {
        self.charge(CostKind::Charged, rounds);
    }

    fn charge_implemented(&mut self, rounds: u64) {
        self.charge(CostKind::Implemented, rounds);
    }

    fn exchange(&mut self, outboxes: Outboxes) -> Result<Vec<Vec<Envelope>>, ModelError> {
        expect_reply!(self, Op::Exchange(outboxes), Reply::Inboxes(i) => i)
    }

    fn route(&mut self, outboxes: Outboxes) -> Result<Vec<Vec<Envelope>>, ModelError> {
        expect_reply!(self, Op::Route(outboxes), Reply::Inboxes(i) => i)
    }

    fn route_strict(&mut self, outboxes: Outboxes) -> Result<Vec<Vec<Envelope>>, ModelError> {
        expect_reply!(self, Op::RouteStrict(outboxes), Reply::Inboxes(i) => i)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        expect_reply!(self, Op::BroadcastAll(values.into()), Reply::Words(w) => w)
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        expect_reply!(self, Op::BroadcastAllInto(values.into(), out), Reply::Filled => ())
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        expect_reply!(self, Op::BroadcastAllWords(per_node.into()), Reply::Rows(r) => r)
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        expect_reply!(self, Op::BroadcastFrom(src, Cow::Borrowed(words)), Reply::Words(w) => w)
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        expect_reply!(self, Op::Allgather(per_node.into()), Reply::Gathered(a, o) => (a, o))
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        expect_reply!(self, Op::Sort(per_node.into()), Reply::Rows(r) => r)
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        expect_reply!(self, Op::GatherTo(dst, per_node.into()), Reply::Rows(r) => r)
    }
}
