//! The hash-split variant of Appendix G.6 (Theorem G.8): relations are
//! *sharded* across the players by a consistent hash family instead of
//! assigned whole.
//!
//! Definition G.7's consistency requirement — `h_{χ(v)}(t)` depends only
//! on the projection of `t` onto `χ(u) ∩ χ(v)` for the GHD parent `u` —
//! means every tuple of a leaf relation that can join a given center
//! value lives on one known player. The protocol below implements the
//! star case of Section G.6.3: center shards are broadcast (everybody
//! reassembles the full center list), each player answers for the
//! center values it *owns*, and a converge-cast AND combines ownership
//! verdicts. The `log |K|` counter overhead of the paper's description
//! is accounted in the predicted bound.

use crate::bounds::model_capacity_bits;
use crate::outcome::{check_players, Inputs, ProtocolError, ProtocolOutcome};
use crate::star::{broadcast_over_packing, convergecast_over_packing, pack};
use faqs_core::solve_bcq;
use faqs_hypergraph::Var;
use faqs_network::{NetRun, Player, Topology};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Semiring};
use std::collections::HashMap;

/// A consistent "bitmap-style" hash family (Definition G.7): a tuple is
/// owned by the player selected by a *mixed* hash of its join-key value.
///
/// The key is scrambled by Fibonacci hashing (multiplication by
/// `⌊2³²/φ⌋`, whose golden-ratio rotation equidistributes consecutive
/// and strided inputs) before the range reduction; a raw `key % shards`
/// collapses onto a single shard whenever the key domain strides by a
/// multiple of the shard count (e.g. keys `0, 4, 8, …` on 4 shards).
/// Definition G.7's consistency requirement is preserved: ownership is a
/// pure function of the join-key value alone, so every tuple of a leaf
/// relation that can join a given center value still lives on one known
/// player.
#[derive(Clone, Copy, Debug)]
pub struct ConsistentHashSplit {
    shards: usize,
}

/// `⌊2³² / φ⌋`, the Fibonacci hashing multiplier.
const FIB_MIX: u32 = 2654435769;

impl ConsistentHashSplit {
    /// A split across `shards` players.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1);
        ConsistentHashSplit { shards }
    }

    /// The shard owning join-key value `key`.
    #[inline]
    pub fn owner(&self, key: u32) -> usize {
        let mixed = key.wrapping_mul(FIB_MIX);
        // Lemire range reduction: maps the mixed 32-bit value onto
        // `[0, shards)` using the high bits (which Fibonacci hashing
        // scrambles best) instead of the stride-sensitive low bits.
        ((mixed as u64 * self.shards as u64) >> 32) as usize
    }
}

/// Runs the hash-split BCQ protocol for a *star* query: every relation
/// is sharded across `players` by the consistent hash of its center
/// value; `output` learns the answer. The run is checked against
/// Theorem G.8's bound.
pub fn run_hash_split_protocol(
    q: &FaqQuery<Boolean>,
    g: &Topology,
    players: &[Player],
    output: Player,
) -> Result<ProtocolOutcome<bool>, ProtocolError> {
    q.validate()
        .map_err(|e| ProtocolError::Invalid(e.to_string()))?;
    if players.len() < 2 {
        return Err(ProtocolError::Invalid("need at least two shards".into()));
    }
    check_players(g, players.iter().copied().chain([output]))?;
    // The star's center: a variable present in every hyperedge.
    let center_var: Var = q
        .hypergraph
        .vars()
        .find(|v| q.hypergraph.edges().all(|(_, e)| e.contains(v)))
        .ok_or_else(|| ProtocolError::Invalid("hash-split protocol requires a star".into()))?;

    let split = ConsistentHashSplit::new(players.len());
    let mut k: Vec<Player> = players.to_vec();
    if !k.contains(&output) {
        k.push(output);
    }
    k.sort_unstable();
    k.dedup();

    let scaled = g
        .clone()
        .with_uniform_capacity(model_capacity_bits(q) + (players.len() as u64).ilog2() as u64 + 1);
    let mut run = NetRun::new(&scaled);

    // Treat edge 0 as the center relation; the rest as leaves (for a
    // star every choice is isomorphic).
    let center = q.factor(faqs_hypergraph::EdgeId(0));
    let center_pos = center
        .schema()
        .iter()
        .position(|v| *v == center_var)
        .expect("center variable in schema");

    let (delta, packing) = pack(&scaled, &k, center.bits(q.domain))?;

    // 1. Every center shard is broadcast from its owner; all players
    //    reassemble the full center listing.
    let mut arrival: HashMap<Player, u64> = k.iter().map(|&p| (p, 0)).collect();
    for (shard_idx, &holder) in players.iter().enumerate() {
        let shard_tuples = center
            .tuples()
            .filter(|t| split.owner(t[center_pos]) == shard_idx)
            .count() as u64;
        let bits = shard_tuples * model_capacity_bits(q);
        let a = broadcast_over_packing(&mut run, &packing, holder, &k, bits, 1)?;
        for (p, t) in a {
            let e = arrival.entry(p).or_insert(0);
            *e = (*e).max(t);
        }
    }

    // 2. Ownership verdicts: player p's vector entry j is the AND over
    //    leaf relations of "does my shard witness center value a_j", for
    //    owned values; `true` elsewhere. Each leaf is projected onto the
    //    center variable once up front — its sorted, distinct center
    //    values — so every witness check is one binary search instead
    //    of a full leaf scan.
    let leaf_values: Vec<Relation<Boolean>> = q
        .hypergraph
        .edge_ids()
        .skip(1)
        .map(|e| q.factor(e).project(&[center_var]))
        .collect();
    let mut vectors: HashMap<Player, Vec<Boolean>> = HashMap::new();
    for (shard_idx, &holder) in players.iter().enumerate() {
        let vec: Vec<Boolean> = center
            .tuples()
            .map(|t| {
                let a = t[center_pos];
                if split.owner(a) != shard_idx {
                    return Boolean::TRUE;
                }
                Boolean(leaf_values.iter().all(|vs| vs.get(&[a]).is_some()))
            })
            .collect();
        vectors
            .entry(holder)
            .and_modify(|existing| {
                for (e, v) in existing.iter_mut().zip(vec.iter()) {
                    *e = e.mul(v);
                }
            })
            .or_insert(vec);
    }

    // 3. Converge-cast the AND to the output player.
    let (verdicts, _) =
        convergecast_over_packing(&mut run, &packing, output, &vectors, 1, &arrival)?;
    let answer = verdicts.iter().any(|b| b.get());

    debug_assert_eq!(answer, solve_bcq(q), "hash-split protocol is sound");

    // Predicted (Theorem G.8 star case): N(r + log|K|)/ST + |K|·Δ.
    let n = q.n_max() as u64;
    let st = packing.len() as u64;
    let predicted = n.div_ceil(st) + (k.len() as u64) * delta as u64;
    let inputs = Inputs::of(q, k.len());
    ProtocolOutcome::checked::<Boolean>(answer, &run, inputs, predicted, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::star_query;
    use faqs_relation::{random_boolean_instance, RandomInstanceConfig};

    fn star_instance(n: usize, seed: u64, satisfiable: bool) -> FaqQuery<Boolean> {
        random_boolean_instance(
            &star_query(4),
            &RandomInstanceConfig {
                tuples_per_factor: n,
                domain: 64,
                seed,
            },
            satisfiable,
        )
    }

    #[test]
    fn hash_split_answers_match_engine() {
        for seed in 0..8 {
            let q = star_instance(24, seed, seed % 2 == 0);
            let g = Topology::clique(4);
            let players: Vec<Player> = (0..4u32).map(Player).collect();
            let out = run_hash_split_protocol(&q, &g, &players, Player(0)).unwrap();
            assert_eq!(out.answer, solve_bcq(&q), "seed {seed}");
        }
    }

    #[test]
    fn hash_split_on_line_works() {
        let q = star_instance(32, 3, true);
        let g = Topology::line(4);
        let players: Vec<Player> = (0..4u32).map(Player).collect();
        let out = run_hash_split_protocol(&q, &g, &players, Player(3)).unwrap();
        assert!(out.answer);
        assert!(
            out.report.stats.rounds > 0,
            "sharded inputs force communication"
        );
    }

    #[test]
    fn owner_is_consistent() {
        let s = ConsistentHashSplit::new(4);
        for key in 0..256 {
            assert!(s.owner(key) < 4, "owner in range");
            assert_eq!(s.owner(key), s.owner(key), "pure function of the key");
        }
    }

    #[test]
    fn strided_domains_stay_balanced() {
        // Regression: `key % shards` sent every key of a domain striding
        // by |K| (or any multiple) to shard 0. The mixed hash must keep
        // every stride family spread across all shards.
        for shards in [2usize, 4, 8] {
            let s = ConsistentHashSplit::new(shards);
            for stride in [shards as u32, 2 * shards as u32, 16, 64] {
                let n = 256u32;
                let mut load = vec![0usize; shards];
                for k in 0..n {
                    load[s.owner(k * stride)] += 1;
                }
                let ideal = n as usize / shards;
                assert!(
                    *load.iter().max().unwrap() <= 2 * ideal,
                    "stride {stride} on {shards} shards is skewed: {load:?}"
                );
                assert!(
                    load.iter().all(|&l| l > 0),
                    "stride {stride} on {shards} shards starves a shard: {load:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_non_star() {
        let q = random_boolean_instance(
            &faqs_hypergraph::path_query(3),
            &RandomInstanceConfig::default(),
            true,
        );
        let g = Topology::line(4);
        let players: Vec<Player> = (0..4u32).map(Player).collect();
        assert!(run_hash_split_protocol(&q, &g, &players, Player(0)).is_err());
    }
}
