use crate::{delivery, Communicator, CostKind, ModelError, NodeId, RoundLedger, Words};

/// Tunable accounting constants of the simulated model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliqueConfig {
    /// Rounds charged per application of Lenzen's routing theorem
    /// \[Len13\]. The theorem proves 16; the paper only uses that it is
    /// `O(1)`. Default: 2.
    pub lenzen_rounds: u64,
    /// Per-node word budget of one routing application, as a multiple of
    /// `n`. Lenzen's theorem uses factor 1 (send ≤ n, receive ≤ n words).
    pub routing_capacity_factor: usize,
}

impl Default for CliqueConfig {
    fn default() -> Self {
        Self {
            lenzen_rounds: 2,
            routing_capacity_factor: 1,
        }
    }
}

/// A message as seen by its recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender of the message.
    pub src: NodeId,
    /// Payload words.
    pub payload: Words,
}

/// A simulated congested clique of `n` nodes.
///
/// The struct owns no per-node state — algorithms keep their node states in
/// ordinary `Vec`s indexed by [`NodeId`] and call the communication
/// primitives here, which deliver messages deterministically and charge
/// rounds to the [`RoundLedger`].
///
/// # Round accounting
///
/// | primitive | rounds charged |
/// |-----------|----------------|
/// | [`exchange`](Clique::exchange) | max over ordered pairs of words sent on that pair |
/// | [`route`](Clique::route) | `lenzen_rounds · ⌈max node load / (capacity·n)⌉` |
/// | [`broadcast_all`](Clique::broadcast_all) | `max_i ⌈words_i⌉` (1 word from everyone to everyone per round) |
/// | [`broadcast_from`](Clique::broadcast_from) | `⌈w/(n−1)⌉ + 1` for `w > 1`, else `w` |
/// | [`allgather`](Clique::allgather) | balancing route + `⌈total/n⌉` broadcast rounds |
/// | [`gather_to`](Clique::gather_to) | `⌈total/(n−1)⌉` |
/// | [`charge_oracle`](Clique::charge_oracle) | the given formula cost, tagged [`CostKind::Charged`] |
#[derive(Debug, Clone)]
pub struct Clique {
    n: usize,
    config: CliqueConfig,
    ledger: RoundLedger,
}

impl Clique {
    /// Creates a clique of `n` nodes with default accounting constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — the model needs at least one ordered pair.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, CliqueConfig::default())
    }

    /// Creates a clique of `n` nodes with explicit accounting constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or if `config.routing_capacity_factor == 0`.
    pub fn with_config(n: usize, config: CliqueConfig) -> Self {
        assert!(n >= 2, "congested clique needs at least 2 nodes, got {n}");
        assert!(
            config.routing_capacity_factor >= 1,
            "routing capacity factor must be positive"
        );
        Self {
            n,
            config,
            ledger: RoundLedger::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The accounting constants in effect.
    pub fn config(&self) -> CliqueConfig {
        self.config
    }

    /// Read access to the round ledger.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Mutable access to the round ledger (e.g. to reset between phases of
    /// a benchmark).
    pub fn ledger_mut(&mut self) -> &mut RoundLedger {
        &mut self.ledger
    }

    /// Runs `f` inside a named ledger phase, so all rounds charged by `f`
    /// are attributed under `name`. The phase is popped even if `f`
    /// unwinds (drop guard), keeping the phase stack balanced.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        crate::comm::scoped_phase(self, name, f)
    }

    /// Charges `rounds` rounds for an oracle subroutine that is simulated
    /// rather than executed distributedly (tagged [`CostKind::Charged`];
    /// see `DESIGN.md` §2).
    pub fn charge_oracle(&mut self, rounds: u64) {
        self.ledger.charge(rounds, CostKind::Charged);
    }

    /// Charges `rounds` implemented rounds without moving data — used by
    /// primitives built on top of the simulator whose data movement is
    /// performed by the caller (rare; prefer the message primitives).
    pub fn charge_implemented(&mut self, rounds: u64) {
        self.ledger.charge(rounds, CostKind::Implemented);
    }

    /// Direct point-to-point exchange.
    ///
    /// `outboxes[u]` lists the `(destination, payload)` messages node `u`
    /// sends. Rounds charged: the maximum, over ordered pairs `(u, v)`, of
    /// the total number of payload words sent from `u` to `v` — i.e. the
    /// messages are pushed through the per-pair links without any routing
    /// cleverness.
    ///
    /// Returns `inboxes[v]`: the envelopes received by each node, sorted by
    /// sender.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `outboxes.len() != n`;
    /// [`ModelError::InvalidNode`] on an out-of-range destination.
    pub fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let max_pair = delivery::exchange_cost(self.n, &outboxes);
        self.ledger.charge(max_pair, CostKind::Implemented);
        Ok(delivery::deliver(self.n, outboxes))
    }

    /// Routed exchange via Lenzen's routing theorem \[Len13\].
    ///
    /// Any message set in which every node sends at most `n` words and
    /// receives at most `n` words is deliverable in `O(1)` rounds. Larger
    /// batches are automatically split: with maximum per-node load `L`, the
    /// cost is `lenzen_rounds · ⌈L / (capacity·n)⌉`.
    ///
    /// # Errors
    ///
    /// Same structural errors as [`Clique::exchange`].
    pub fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let (send, recv) = delivery::shard_loads(self.n, &outboxes);
        let load = send.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        if load > 0 {
            let rounds = delivery::route_cost(&self.config, self.n, load);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::deliver(self.n, outboxes))
    }

    /// Like [`Clique::route`], but fails instead of batching when a node's
    /// load exceeds one application of the routing theorem.
    ///
    /// # Errors
    ///
    /// [`ModelError::CongestionExceeded`] if some node would send or receive
    /// more than `capacity·n` words, plus the structural errors of
    /// [`Clique::exchange`].
    pub fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        delivery::check_outboxes(self.n, &outboxes)?;
        let (send, recv) = delivery::shard_loads(self.n, &outboxes);
        delivery::strict_violation(&self.config, self.n, &send, &recv)?;
        self.route(outboxes)
    }

    /// Every node broadcasts one word; everyone learns all `n` words.
    ///
    /// This is the classic 1-round all-to-all broadcast (each ordered pair
    /// carries exactly one word). Returns the shared view `values` in node
    /// order — identical at every node.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `values.len() != n`.
    pub fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        delivery::check_len(self.n, values.len())?;
        self.ledger
            .charge(delivery::broadcast_all_cost(), CostKind::Implemented);
        Ok(values.to_vec())
    }

    /// [`Clique::broadcast_all`] into a caller-owned buffer: identical
    /// round accounting and shared view, but `out` is cleared and refilled
    /// instead of allocating a fresh vector — allocation-free once `out`
    /// has capacity `n`. Used by the per-iteration solver hot paths.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `values.len() != n` (leaving
    /// `out` untouched).
    pub fn broadcast_all_into(
        &mut self,
        values: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), ModelError> {
        delivery::check_len(self.n, values.len())?;
        self.ledger
            .charge(delivery::broadcast_all_cost(), CostKind::Implemented);
        out.clear();
        out.extend_from_slice(values);
        Ok(())
    }

    /// Every node broadcasts a word vector; everyone learns all of them.
    ///
    /// Node `i` broadcasts `per_node[i]` (possibly empty). Cost: one round
    /// per word of the longest vector (`max_i |per_node[i]|`), since in each
    /// round every node can ship one word to all others. Returns the shared
    /// per-source view, identical at every node.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`.
    pub fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        self.ledger.charge(
            delivery::broadcast_words_cost(per_node),
            CostKind::Implemented,
        );
        Ok(per_node.to_vec())
    }

    /// One node broadcasts `w` words to everyone.
    ///
    /// For `w ≤ 1` this is direct (cost `w`). For larger payloads the
    /// standard doubling trick applies: the source scatters the words over
    /// distinct helper nodes (`⌈w/(n−1)⌉` rounds), then every helper
    /// broadcasts its words (`⌈w/(n−1)⌉` rounds). Total
    /// `2·⌈w/(n−1)⌉` rounds.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `src` is out of range.
    pub fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        if src >= self.n {
            return Err(ModelError::InvalidNode {
                node: src,
                n: self.n,
            });
        }
        let rounds = delivery::broadcast_from_cost(self.n, words.len() as u64);
        self.ledger.charge(rounds, CostKind::Implemented);
        Ok(words.clone())
    }

    /// Everyone learns everyone's word vector (all-gather).
    ///
    /// Semantically equivalent to [`Clique::broadcast_all_words`] but with
    /// load balancing: the words are first spread evenly over the clique
    /// with Lenzen routing, then broadcast at `n` words per round. With
    /// total volume `W` and maximum per-node contribution `L`, the cost is
    /// `lenzen_rounds·⌈L/n⌉ + ⌈W/n⌉`. Use this instead of
    /// `broadcast_all_words` when contributions are skewed.
    ///
    /// Returns the concatenation of all vectors in node order (identical at
    /// every node), together with per-node offsets.
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`.
    pub fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        // The balanced path is free for empty input.
        if per_node.iter().any(|w| !w.is_empty()) {
            let rounds = delivery::allgather_cost(&self.config, self.n, per_node);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::concat_words(self.n, per_node))
    }

    /// Globally sorts all keys across the clique (Lenzen's deterministic
    /// sorting theorem \[Len13\]: `n` keys per node are sorted in `O(1)`
    /// rounds). Node `i` receives the `i`-th block of the global sorted
    /// order (blocks as equal as possible, earlier blocks one longer when
    /// the total is not divisible by `n`). Larger inputs are batched like
    /// [`Clique::route`]: `lenzen_rounds · ⌈max per-node keys / n⌉` rounds.
    ///
    /// Ties are broken stably by (key, contributing node, position).
    ///
    /// # Errors
    ///
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`.
    pub fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        delivery::check_len(self.n, per_node.len())?;
        if per_node.iter().any(|w| !w.is_empty()) {
            let rounds = delivery::sort_cost(&self.config, self.n, per_node);
            self.ledger.charge(rounds, CostKind::Implemented);
        }
        Ok(delivery::sorted_blocks(self.n, per_node))
    }

    /// Every node sends its word vector to a single destination.
    ///
    /// Cost: `⌈W/(n−1)⌉` rounds for total volume `W` (the destination can
    /// receive `n−1` words per round).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidNode`] if `dst` is out of range;
    /// [`ModelError::WrongOutboxCount`] if `per_node.len() != n`.
    pub fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        if dst >= self.n {
            return Err(ModelError::InvalidNode {
                node: dst,
                n: self.n,
            });
        }
        delivery::check_len(self.n, per_node.len())?;
        self.ledger.charge(
            delivery::gather_cost(self.n, per_node),
            CostKind::Implemented,
        );
        Ok(per_node.to_vec())
    }
}

/// The canonical [`Communicator`]: every trait primitive delegates to the
/// simulator's inherent method of the same name, so generic algorithm code
/// and direct `Clique` callers charge identical rounds.
impl Communicator for Clique {
    fn n(&self) -> usize {
        Clique::n(self)
    }

    fn config(&self) -> CliqueConfig {
        Clique::config(self)
    }

    fn ledger(&self) -> &RoundLedger {
        Clique::ledger(self)
    }

    fn ledger_mut(&mut self) -> &mut RoundLedger {
        Clique::ledger_mut(self)
    }

    fn charge_oracle(&mut self, rounds: u64) {
        Clique::charge_oracle(self, rounds)
    }

    fn charge_implemented(&mut self, rounds: u64) {
        Clique::charge_implemented(self, rounds)
    }

    fn exchange(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        Clique::exchange(self, outboxes)
    }

    fn route(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        Clique::route(self, outboxes)
    }

    fn route_strict(
        &mut self,
        outboxes: Vec<Vec<(NodeId, Words)>>,
    ) -> Result<Vec<Vec<Envelope>>, ModelError> {
        Clique::route_strict(self, outboxes)
    }

    fn broadcast_all(&mut self, values: &[u64]) -> Result<Vec<u64>, ModelError> {
        Clique::broadcast_all(self, values)
    }

    fn broadcast_all_into(&mut self, values: &[u64], out: &mut Vec<u64>) -> Result<(), ModelError> {
        Clique::broadcast_all_into(self, values, out)
    }

    fn broadcast_all_words(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        Clique::broadcast_all_words(self, per_node)
    }

    fn broadcast_from(&mut self, src: NodeId, words: &Words) -> Result<Words, ModelError> {
        Clique::broadcast_from(self, src, words)
    }

    fn allgather(&mut self, per_node: &[Words]) -> Result<(Words, Vec<usize>), ModelError> {
        Clique::allgather(self, per_node)
    }

    fn sort(&mut self, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        Clique::sort(self, per_node)
    }

    fn gather_to(&mut self, dst: NodeId, per_node: &[Words]) -> Result<Vec<Words>, ModelError> {
        Clique::gather_to(self, dst, per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_all_costs_one_round() {
        let mut clique = Clique::new(4);
        let view = clique.broadcast_all(&[10, 11, 12, 13]).unwrap();
        assert_eq!(view, vec![10, 11, 12, 13]);
        assert_eq!(clique.ledger().total_rounds(), 1);
    }

    #[test]
    fn exchange_charges_max_pair_words() {
        let mut clique = Clique::new(3);
        // node 0 sends 3 words to node 1 (two messages), node 2 sends 1 word to 0.
        let outboxes = vec![
            vec![(1, vec![1, 2]), (1, vec![3])],
            vec![],
            vec![(0, vec![9])],
        ];
        let inboxes = clique.exchange(outboxes).unwrap();
        assert_eq!(clique.ledger().total_rounds(), 3);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[1][0].src, 0);
        assert_eq!(inboxes[0][0].payload, vec![9]);
    }

    #[test]
    fn route_within_capacity_costs_lenzen_constant() {
        let mut clique = Clique::new(4);
        // Every node sends 4 = n words scattered around: one routing batch.
        let outboxes: Vec<Vec<(NodeId, Words)>> = (0..4)
            .map(|u| (0..4).map(|v| (v, vec![(u * 4 + v) as u64])).collect())
            .collect();
        clique.route(outboxes).unwrap();
        assert_eq!(
            clique.ledger().total_rounds(),
            clique.config().lenzen_rounds
        );
    }

    #[test]
    fn route_batches_when_overloaded() {
        let mut clique = Clique::new(4);
        // Node 0 sends 9 words to node 1: receive load 9 > n=4 => 3 batches.
        let outboxes = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        clique.route(outboxes).unwrap();
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds
        );
    }

    #[test]
    fn route_strict_rejects_overload() {
        let mut clique = Clique::new(4);
        let outboxes = vec![
            vec![(1, (0..9).collect::<Vec<u64>>())],
            vec![],
            vec![],
            vec![],
        ];
        let err = clique.route_strict(outboxes).unwrap_err();
        match err {
            ModelError::CongestionExceeded { node, words, .. } => {
                assert_eq!(node, 0);
                assert_eq!(words, 9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn broadcast_from_cost_scales_with_payload() {
        let mut clique = Clique::new(5);
        clique.broadcast_from(2, &vec![7]).unwrap();
        assert_eq!(clique.ledger().total_rounds(), 1);
        let before = clique.ledger().total_rounds();
        clique.broadcast_from(0, &(0..8).collect()).unwrap();
        // ceil(8/4) = 2 scatter + 2 broadcast rounds.
        assert_eq!(clique.ledger().total_rounds() - before, 4);
    }

    #[test]
    fn allgather_concatenates_in_node_order() {
        let mut clique = Clique::new(3);
        let (all, offsets) = clique.allgather(&[vec![1, 2], vec![], vec![3]]).unwrap();
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(offsets, vec![0, 2, 2, 3]);
        // total 3 words, max contribution 2: ceil(2/3)*lenzen + ceil(3/3) = 2+1.
        assert_eq!(clique.ledger().total_rounds(), 3);
    }

    #[test]
    fn gather_to_costs_total_over_links() {
        let mut clique = Clique::new(3);
        clique
            .gather_to(0, &[vec![], vec![1, 2, 3], vec![4]])
            .unwrap();
        assert_eq!(clique.ledger().total_rounds(), 2); // ceil(4/2)
    }

    #[test]
    fn phase_attribution() {
        let mut clique = Clique::new(2);
        clique.phase("outer", |c| {
            c.broadcast_all(&[1, 2]).unwrap();
            c.phase("inner", |c| c.charge_oracle(5));
        });
        assert_eq!(clique.ledger().phase("outer").implemented, 1);
        assert_eq!(clique.ledger().phase("outer/inner").charged, 5);
        assert_eq!(clique.ledger().total_rounds(), 6);
    }

    #[test]
    fn invalid_destination_is_rejected() {
        let mut clique = Clique::new(2);
        let err = clique
            .exchange(vec![vec![(5, vec![1])], vec![]])
            .unwrap_err();
        assert_eq!(err, ModelError::InvalidNode { node: 5, n: 2 });
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_clique_panics() {
        let _ = Clique::new(1);
    }

    #[test]
    fn broadcast_all_words_costs_longest_vector() {
        let mut clique = Clique::new(3);
        let view = clique
            .broadcast_all_words(&[vec![1, 2, 3], vec![], vec![9]])
            .unwrap();
        assert_eq!(view[0], vec![1, 2, 3]);
        assert_eq!(view[2], vec![9]);
        assert_eq!(clique.ledger().total_rounds(), 3);
    }

    #[test]
    fn empty_exchange_is_free() {
        let mut clique = Clique::new(3);
        let inboxes = clique.exchange(vec![vec![], vec![], vec![]]).unwrap();
        assert!(inboxes.iter().all(|i| i.is_empty()));
        assert_eq!(clique.ledger().total_rounds(), 0);
        let inboxes = clique.route(vec![vec![], vec![], vec![]]).unwrap();
        assert!(inboxes.iter().all(|i| i.is_empty()));
        assert_eq!(clique.ledger().total_rounds(), 0);
    }

    #[test]
    fn allgather_balances_skewed_contributions() {
        let mut clique = Clique::new(4);
        // One node contributes 12 words, others none: balancing pays
        // lenzen·ceil(12/4) = 3 batches, broadcast pays ceil(12/4) = 3.
        let (all, offsets) = clique
            .allgather(&[(0..12).collect(), vec![], vec![], vec![]])
            .unwrap();
        assert_eq!(all.len(), 12);
        assert_eq!(offsets, vec![0, 12, 12, 12, 12]);
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds + 3
        );
    }

    #[test]
    fn sort_produces_global_sorted_blocks() {
        let mut clique = Clique::new(3);
        let out = clique.sort(&[vec![9, 1], vec![5], vec![3, 7, 2]]).unwrap();
        let flat: Vec<u64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, vec![1, 2, 3, 5, 7, 9]);
        assert_eq!(out[0], vec![1, 2]); // blocks of 2 each
        assert_eq!(out[2], vec![7, 9]);
        // max per-node keys 3 ≤ n=3: one batch.
        assert_eq!(
            clique.ledger().total_rounds(),
            clique.config().lenzen_rounds
        );
    }

    #[test]
    fn sort_batches_large_inputs() {
        let mut clique = Clique::new(2);
        let out = clique.sort(&[(0..5).rev().collect(), vec![]]).unwrap();
        assert_eq!(out[0], vec![0, 1, 2]); // 5 keys: blocks 3 + 2
        assert_eq!(out[1], vec![3, 4]);
        // ceil(5/2) = 3 batches.
        assert_eq!(
            clique.ledger().total_rounds(),
            3 * clique.config().lenzen_rounds
        );
    }

    #[test]
    fn determinism_of_delivery_order() {
        let build = || {
            let mut clique = Clique::new(4);
            let outboxes = vec![
                vec![(3, vec![1])],
                vec![(3, vec![2])],
                vec![(3, vec![3])],
                vec![],
            ];
            clique.route(outboxes).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(
            a[3].iter().map(|e| e.src).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
