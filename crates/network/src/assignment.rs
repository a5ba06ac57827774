//! Assignment of the query's input functions to players (`K ⊆ V`).
//!
//! Model 2.1: each function `f_e` is completely assigned to a unique
//! node of `G`; several functions may share a node (`|K| ≤ k`), a fact
//! the lower bounds exploit (Example 2.4).

use crate::topology::{Player, Topology};
use faqs_hypergraph::EdgeId;
use std::collections::BTreeSet;

/// Maps each hyperedge's function to the player holding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    holder: Vec<Player>,
    output: Player,
}

impl Assignment {
    /// Builds an assignment from an explicit per-edge holder list and
    /// the designated output player (who must learn the answer).
    pub fn new(holder: Vec<Player>, output: Player) -> Self {
        assert!(!holder.is_empty(), "query has at least one function");
        Assignment { holder, output }
    }

    /// Assigns function `e` to player `players[e mod len]`, with the
    /// output at `players[output_index]`. The common "one relation per
    /// player in order" layout of the paper's examples is
    /// `round_robin(q, g, &[0, 1, …, k−1])`.
    pub fn round_robin<S: faqs_semiring::Semiring>(
        q: &faqs_relation::FaqQuery<S>,
        g: &Topology,
        player_ids: &[u32],
    ) -> Self {
        assert!(!player_ids.is_empty());
        for &p in player_ids {
            assert!(
                (p as usize) < g.num_players(),
                "player P{p} not in topology"
            );
        }
        let holder = (0..q.k())
            .map(|e| Player(player_ids[e % player_ids.len()]))
            .collect();
        Assignment::new(holder, Player(player_ids[0]))
    }

    /// Everything on a single player (the degenerate case where the
    /// trivial protocol costs zero communication).
    pub fn concentrated<S: faqs_semiring::Semiring>(
        q: &faqs_relation::FaqQuery<S>,
        p: Player,
    ) -> Self {
        Assignment::new(vec![p; q.k()], p)
    }

    /// The player holding function `e`.
    #[inline]
    pub fn holder(&self, e: EdgeId) -> Player {
        self.holder[e.index()]
    }

    /// The designated output player.
    #[inline]
    pub fn output(&self) -> Player {
        self.output
    }

    /// Re-designates the output player.
    pub fn with_output(mut self, p: Player) -> Self {
        self.output = p;
        self
    }

    /// The player set `K` (distinct holders plus the output player).
    pub fn players(&self) -> Vec<Player> {
        let mut set: BTreeSet<Player> = self.holder.iter().copied().collect();
        set.insert(self.output);
        set.into_iter().collect()
    }

    /// Number of functions assigned.
    pub fn len(&self) -> usize {
        self.holder.len()
    }

    /// Whether no functions are assigned (never true for valid queries).
    pub fn is_empty(&self) -> bool {
        self.holder.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_relation::{random_boolean_instance, RandomInstanceConfig};

    fn q4() -> faqs_relation::FaqQuery<faqs_semiring::Boolean> {
        random_boolean_instance(&star_query(4), &RandomInstanceConfig::default(), true)
    }

    #[test]
    fn round_robin_spreads() {
        let g = Topology::line(4);
        let a = Assignment::round_robin(&q4(), &g, &[0, 1, 2, 3]);
        assert_eq!(a.holder(EdgeId(0)), Player(0));
        assert_eq!(a.holder(EdgeId(3)), Player(3));
        assert_eq!(a.players().len(), 4);
        assert_eq!(a.output(), Player(0));
    }

    #[test]
    fn fewer_players_than_functions() {
        let g = Topology::line(2);
        let a = Assignment::round_robin(&q4(), &g, &[0, 1]);
        assert_eq!(a.players().len(), 2);
        let held = (0..4).filter(|&e| a.holder(EdgeId(e)) == Player(0));
        assert_eq!(held.count(), 2);
    }

    #[test]
    fn concentrated_assignment() {
        let a = Assignment::concentrated(&q4(), Player(2));
        assert_eq!(a.players(), vec![Player(2)]);
        assert!((0..4).all(|e| a.holder(EdgeId(e)) == Player(2)));
    }

    #[test]
    fn output_override() {
        let g = Topology::line(4);
        let a = Assignment::round_robin(&q4(), &g, &[0, 1, 2, 3]).with_output(Player(3));
        assert_eq!(a.output(), Player(3));
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn rejects_unknown_player() {
        let g = Topology::line(2);
        let _ = Assignment::round_robin(&q4(), &g, &[0, 9]);
    }
}
