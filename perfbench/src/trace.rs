//! The benchmark-side trace: a [`Communicator`] wrapper that turns every
//! ledger phase into a span and times every primitive call, plus the
//! service-boundary spans the client opens around `register` and
//! `submit_batch`.
//!
//! Spans stay in memory ([`Recorder::spans`]) and are reduced to layer
//! metrics when the run ends. The wrapper only observes: every call is
//! delegated unchanged, so results and ledgers are bitwise those of the
//! wrapped communicator (checked on every call of a traced run).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use cc_model::{CliqueConfig, Communicator, Envelope, ModelError, NodeId, RoundLedger, Words};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Client call the span belongs to.
    pub call: u64,
    /// Index into [`Recorder::names`]: a ledger phase path such as
    /// `maxflow/maxflow_ipm/laplacian_solve`, or a service boundary
    /// (`register`, `submit_batch`).
    pub name: usize,
    /// Enclosing span (index into [`Recorder::spans`]), `None` at the
    /// service boundary.
    pub parent: Option<usize>,
    /// Wall time from open to close, in nanoseconds.
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    pub child_ns: u64,
    /// Part of `total_ns` spent in primitive calls made directly inside
    /// this span (not inside a child).
    pub comm_ns: u64,
    /// Primitive calls made directly inside this span.
    pub comm_calls: u64,
    /// Words the nodes handed to those calls.
    pub comm_words: u64,
}

impl Span {
    /// Time inside the span but outside its children and its primitive
    /// calls: the span's own layer's work.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns + self.comm_ns)
    }
}

/// Span storage shared between the wrapper and the client.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Interned span names.
    pub names: Vec<String>,
    ids: BTreeMap<String, usize>,
    /// Closed and open spans, in opening order.
    pub spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    /// Call tag stamped onto every span opened from now on.
    pub call: u64,
}

impl Recorder {
    /// Opens a span named `name` inside the innermost open one.
    pub fn open(&mut self, name: &str) {
        let name = match self.ids.get(name) {
            Some(&id) => id,
            None => {
                self.names.push(name.to_string());
                self.ids.insert(name.to_string(), self.names.len() - 1);
                self.names.len() - 1
            }
        };
        self.spans.push(Span {
            call: self.call,
            name,
            parent: self.open.last().map(|&(i, _)| i),
            total_ns: 0,
            child_ns: 0,
            comm_ns: 0,
            comm_calls: 0,
            comm_words: 0,
        });
        self.open.push((self.spans.len() - 1, Instant::now()));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let (i, start) = self.open.pop().expect("close matches an open span");
        let ns = start.elapsed().as_nanos() as u64;
        self.spans[i].total_ns = ns;
        if let Some(p) = self.spans[i].parent {
            self.spans[p].child_ns += ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(rec: &RefCell<Recorder>, name: &str, f: impl FnOnce() -> R) -> R {
        rec.borrow_mut().open(name);
        let out = f();
        rec.borrow_mut().close();
        out
    }

    fn primitive(&mut self, ns: u64, words: usize) {
        if let Some(&(i, _)) = self.open.last() {
            let s = &mut self.spans[i];
            s.comm_ns += ns;
            s.comm_calls += 1;
            s.comm_words += words as u64;
        }
    }

    /// Drops every recorded span (the open stack must be empty).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }
}

/// A communicator that records phase spans and primitive timings into a
/// shared [`Recorder`] and otherwise delegates to `C`.
#[derive(Debug)]
pub struct Timed<C> {
    inner: C,
    rec: Rc<RefCell<Recorder>>,
}

impl<C: Communicator> Timed<C> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: C, rec: Rc<RefCell<Recorder>>) -> Self {
        Timed { inner, rec }
    }

    fn timed<R>(&mut self, words: usize, f: impl FnOnce(&mut C) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        self.rec.borrow_mut().primitive(ns, words);
        out
    }
}

fn outbox_words(outboxes: &[Vec<(NodeId, Words)>]) -> usize {
    outboxes.iter().flatten().map(|(_, w)| w.len()).sum()
}

fn vec_words(per_node: &[Words]) -> usize {
    per_node.iter().map(Vec::len).sum()
}

impl<C: Communicator> Communicator for Timed<C> {
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
        self.rec
            .borrow_mut()
            .open(self.inner.ledger().current_phase());
    }

    fn pop_phase(&mut self) {
        self.rec.borrow_mut().close();
        self.inner.pop_phase();
    }

    fn faults_observed(&self) -> u64 {
        self.inner.faults_observed()
    }

    fn charge_oracle(&mut self, rounds: u64) {
        self.inner.charge_oracle(rounds);
    }

    fn charge_implemented(&mut self, rounds: u64) {
        self.inner.charge_implemented(rounds);
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.timed(outbox_words(&outboxes), |c| c.exchange(outboxes))
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.timed(outbox_words(&outboxes), |c| c.route(outboxes))
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        self.timed(outbox_words(&outboxes), |c| c.route_strict(outboxes))
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        self.timed(values.len(), |c| c.broadcast_all(values))
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        self.timed(values.len(), |c| c.broadcast_all_into(values, out))
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.timed(vec_words(per_node), |c| c.broadcast_all_words(per_node))
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        self.timed(words.len(), |c| c.broadcast_from(src, words))
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        self.timed(vec_words(per_node), |c| c.allgather(per_node))
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.timed(vec_words(per_node), |c| c.sort(per_node))
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        self.timed(vec_words(per_node), |c| c.gather_to(dst, per_node))
    }
}
