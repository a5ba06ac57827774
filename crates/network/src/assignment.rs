//! Assignment of the query's input functions to players (`K ⊆ V`): who
//! holds which input.
//!
//! Model 2.1 gives each function `f_e` whole to one node of `G`; several
//! functions may share a node (`|K| ≤ k`), a fact the lower bounds
//! exploit (Example 2.4). Appendix G.6 (Definition G.7) splits factors
//! across players instead. One [`InputPlacement`] states both: a factor
//! with one shard holder is held whole.

use crate::topology::{Player, Topology};
use faqs_hypergraph::EdgeId;
use faqs_relation::FaqQuery;
use faqs_semiring::Semiring;
use std::collections::BTreeSet;

/// Which player holds which shard of each input factor, and which
/// player must learn the answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputPlacement {
    /// `shards[e]` = the players holding factor `e`'s shards; a factor
    /// with one entry is held whole. A multi-shard factor is partitioned
    /// by the consistent hash of its first variable's value.
    shards: Vec<Vec<Player>>,
    output: Player,
}

impl InputPlacement {
    /// An explicit placement: `shards[e]` lists the holders of factor
    /// `e`'s shards (at least one each, which every protocol door
    /// checks); `output` must learn the answer.
    pub fn new(shards: Vec<Vec<Player>>, output: Player) -> Self {
        InputPlacement { shards, output }
    }

    /// Model 2.1's placement: factor `e` whole at `holders[e]`.
    pub fn whole(holders: Vec<Player>, output: Player) -> Self {
        InputPlacement::new(holders.into_iter().map(|p| vec![p]).collect(), output)
    }

    /// Factor `e` whole at player `player_ids[e mod len]`, with the
    /// output at `player_ids[0]`. The common "one relation per player in
    /// order" layout of the paper's examples is
    /// `round_robin(q, &[0, 1, …, k−1])`.
    ///
    /// # Panics
    ///
    /// When `player_ids` is empty.
    pub fn round_robin<S: Semiring>(q: &FaqQuery<S>, player_ids: &[u32]) -> Self {
        let holders = (0..q.k())
            .map(|e| Player(player_ids[e % player_ids.len()]))
            .collect();
        InputPlacement::whole(holders, Player(player_ids[0]))
    }

    /// Every factor whole on `p`, which is also the output (the
    /// degenerate case where the trivial protocol costs no
    /// communication).
    pub fn concentrated<S: Semiring>(q: &FaqQuery<S>, p: Player) -> Self {
        InputPlacement::whole(vec![p; q.k()], p)
    }

    /// Hash-split placement (Appendix G.6): every one of the `k` factors
    /// is sharded across all of `players` by the consistent hash of its
    /// first variable's value.
    pub fn hash_split(k: usize, players: &[Player], output: Player) -> Self {
        InputPlacement::new(vec![players.to_vec(); k], output)
    }

    /// A random placement for property tests, deterministic in `seed`:
    /// each factor is held whole or split across up to three random
    /// players of `g`; the output player is random too.
    pub fn random(k: usize, g: &Topology, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = g.num_players() as u32;
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = (0..k)
            .map(|_| {
                let parts = rng.random_range(1..=3usize);
                (0..parts).map(|_| Player(rng.random_range(0..n))).collect()
            })
            .collect();
        InputPlacement::new(shards, Player(rng.random_range(0..n)))
    }

    /// Re-designates the output player.
    pub fn with_output(mut self, p: Player) -> Self {
        self.output = p;
        self
    }

    /// The designated output player.
    pub fn output(&self) -> Player {
        self.output
    }

    /// The shard holders of factor `e`.
    pub fn shard_holders(&self, e: EdgeId) -> &[Player] {
        &self.shards[e.index()]
    }

    /// The shard holders of every factor, by edge index.
    pub fn shard_lists(&self) -> &[Vec<Player>] {
        &self.shards
    }

    /// The distinct player set `K` (all shard holders plus the output).
    pub fn players(&self) -> Vec<Player> {
        let mut set: BTreeSet<Player> = self.shards.iter().flatten().copied().collect();
        set.insert(self.output);
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_relation::{random_boolean_instance, RandomInstanceConfig};

    fn q4() -> FaqQuery<faqs_semiring::Boolean> {
        random_boolean_instance(&star_query(4), &RandomInstanceConfig::default(), true)
    }

    #[test]
    fn round_robin_spreads() {
        let a = InputPlacement::round_robin(&q4(), &[0, 1, 2, 3]);
        assert_eq!(a.shard_holders(EdgeId(0)), [Player(0)]);
        assert_eq!(a.shard_holders(EdgeId(3)), [Player(3)]);
        assert_eq!(a.players().len(), 4);
        assert_eq!(a.output(), Player(0));
    }

    #[test]
    fn fewer_players_than_functions() {
        let a = InputPlacement::round_robin(&q4(), &[0, 1]);
        assert_eq!(a.players().len(), 2);
        let held = (0..4).filter(|&e| a.shard_holders(EdgeId(e)) == [Player(0)]);
        assert_eq!(held.count(), 2);
    }

    #[test]
    fn concentrated_assignment() {
        let a = InputPlacement::concentrated(&q4(), Player(2));
        assert_eq!(a.players(), vec![Player(2)]);
        assert!(a.shard_lists().iter().all(|s| s == &[Player(2)]));
    }

    #[test]
    fn output_override() {
        let a = InputPlacement::round_robin(&q4(), &[0, 1, 2, 3]).with_output(Player(3));
        assert_eq!(a.output(), Player(3));
    }
}
