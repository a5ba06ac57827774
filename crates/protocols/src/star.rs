//! The star protocol (Algorithm 1 for BCQ, Algorithm 3 for general FAQ)
//! and its two communication primitives over a Steiner-tree packing:
//! pipelined **broadcast** of the center relation and pipelined
//! **converge-cast** of the `⊗`-product of leaf-message vectors.
//!
//! One star phase computes, for a GHD star with center bag `χ(v₁)` and
//! leaves `v₂ … v_k`:
//!
//! `R'_P(t) = R_{χ(v₁)}(t) ⊗ ⨂_i m_i(π_{χ(v₁)∩χ(v_i)}(t))`
//!
//! where `m_i` is leaf `i`'s message (its relation with subtree-private
//! variables aggregated out, Corollary G.2). The value vector is indexed
//! by the center relation's canonical tuple order, so the converge-cast
//! is exactly the set-intersection pattern of Theorem 3.11 with `∧`
//! generalised to `⊗`.

use crate::outcome::ProtocolError;
use faqs_network::{
    ChunkTrain, DeltaPackings, LinkId, NetRun, Player, SteinerTree, Topology, TransmitError,
};
use faqs_relation::Relation;
use faqs_semiring::Semiring;
use std::collections::{BTreeSet, HashMap};

/// One leaf's contribution to a star phase.
#[derive(Clone, Debug)]
pub struct LeafInput<S: Semiring> {
    /// The leaf's message: its relation with subtree-private variables
    /// already aggregated out; schema ⊆ the center's schema.
    pub message: Relation<S>,
    /// The player holding the leaf relation.
    pub holder: Player,
}

/// Result of one star phase.
#[derive(Clone, Debug)]
pub struct StarPhaseResult<S: Semiring> {
    /// The updated center relation `R'_P`, now held by `output`.
    pub new_center: Relation<S>,
    /// Round at which the phase completed.
    pub completed_at: u64,
}

/// A Steiner tree oriented from `root`: its players in BFS order (`root`
/// first) and, for each player after the root, its parent's position in
/// that order and the tree link joining them (`up[i]` for `order[i + 1]`).
fn orient(tree: &SteinerTree, root: Player) -> (Vec<Player>, Vec<(usize, LinkId)>) {
    let mut order = vec![root];
    let mut up = Vec::new();
    let mut seen: BTreeSet<Player> = BTreeSet::from([root]);
    let mut parent = 0;
    while let Some(&u) = order.get(parent) {
        for &(v, link) in tree.neighbors(u) {
            if seen.insert(v) {
                order.push(v);
                up.push((parent, link));
            }
        }
        parent += 1;
    }
    (order, up)
}

/// The chunk a train over `tree` is cut to: its smallest link capacity,
/// at least one bit.
fn tree_chunk(run: &NetRun, tree: &SteinerTree) -> u64 {
    let g = run.topology();
    let smallest = tree.links().iter().map(|&l| g.capacity(l)).min();
    smallest.unwrap_or(1).max(1)
}

/// A tree edge the scheduler refused: the packing does not connect.
fn unreachable_by(e: TransmitError) -> ProtocolError {
    ProtocolError::Unreachable(e.to_string())
}

/// Broadcasts `total_bits` of data from `source` to every player of
/// `members` over the packing: the payload is split evenly across the
/// trees; within each tree the part is flooded from the source as one
/// chunk train per tree edge, pipelined. Returns each member's
/// completion round.
pub fn broadcast_over_packing(
    run: &mut NetRun,
    packing: &[SteinerTree],
    source: Player,
    members: &[Player],
    total_bits: u64,
    phase_start: u64,
) -> Result<HashMap<Player, u64>, ProtocolError> {
    let mut arrival: HashMap<Player, u64> = members
        .iter()
        .map(|&m| (m, phase_start.saturating_sub(1)))
        .collect();
    arrival.insert(source, phase_start.saturating_sub(1));
    if total_bits == 0 || members.iter().all(|m| *m == source) {
        return Ok(arrival);
    }
    let trees = packing.len().max(1) as u64;
    let part = total_bits.div_ceil(trees);
    for tree in packing {
        if !tree.contains(source) {
            return Err(ProtocolError::Unreachable(format!(
                "broadcast source {source} not spanned by packing tree"
            )));
        }
        let (order, up) = orient(tree, source);
        // ready[i]: the rounds after which each chunk is at `order[i]`.
        let chunk = tree_chunk(run, tree);
        let mut ready = vec![ChunkTrain::new(chunk, part, phase_start.saturating_sub(1))];
        for &(p, link) in &up {
            let mut train = ready[p].clone();
            run.send_train(link, order[p], &mut train)
                .map_err(unreachable_by)?;
            ready.push(train);
        }
        for (player, train) in order.iter().zip(&ready) {
            if let Some(t) = train.last_round() {
                let e = arrival.entry(*player).or_insert(0);
                *e = (*e).max(t);
            }
        }
    }
    // Members must be covered by every tree (they are terminals).
    for m in members {
        if !arrival.contains_key(m) {
            return Err(ProtocolError::Unreachable(format!(
                "member {m} not reached by broadcast"
            )));
        }
    }
    Ok(arrival)
}

/// Converge-casts the `⊗`-product of per-player value vectors to
/// `output` over the packing: coordinates are split across trees; within
/// a tree, each node combines its own entries with its children's and
/// forwards upward as one chunk train per tree edge, pipelined.
/// `ready[p]` is the round after which player `p`'s vector is available
/// locally. Entries cost `entry_bits` on the wire. Returns the combined
/// vector and the completion round.
pub fn convergecast_over_packing<S: Semiring>(
    run: &mut NetRun,
    packing: &[SteinerTree],
    output: Player,
    vectors: &HashMap<Player, Vec<S>>,
    entry_bits: u64,
    ready: &HashMap<Player, u64>,
) -> Result<(Vec<S>, u64), ProtocolError> {
    let n = vectors.values().map(Vec::len).max().unwrap_or(0);
    for v in vectors.values() {
        assert_eq!(v.len(), n, "all vectors share the index space");
    }
    let mut result = vec![S::one(); n];
    let mut completed = ready.values().copied().max().unwrap_or(0);
    if n == 0 {
        return Ok((result, completed));
    }
    let trees = packing.len().max(1);
    // Coordinate blocks: round-robin so blocks are near-equal.
    let blocks: Vec<Vec<usize>> = (0..trees)
        .map(|t| (t..n).step_by(trees).collect())
        .collect();
    let entry_bits = entry_bits.max(1);

    for (tree, block) in packing.iter().zip(blocks.iter()) {
        if block.is_empty() {
            continue;
        }
        if !tree.contains(output) {
            return Err(ProtocolError::Unreachable(format!(
                "output {output} not spanned by packing tree"
            )));
        }
        let (order, up) = orient(tree, output);
        // A chunk is as many whole entries as the smallest link carries
        // per round, at least one.
        let chunk = (tree_chunk(run, tree) / entry_bits).max(1) * entry_bits;
        let bits = block.len() as u64 * entry_bits;
        // Per node, in `order`: its vector over the block and the train
        // of it, each chunk's round the one it is ready after.
        let mut acc: Vec<(Vec<S>, ChunkTrain)> = order
            .iter()
            .map(|p| {
                let own: Vec<S> = match vectors.get(p) {
                    Some(v) => block.iter().map(|&i| v[i].clone()).collect(),
                    None => vec![S::one(); block.len()],
                };
                let at = ready.get(p).copied().unwrap_or(0);
                (own, ChunkTrain::new(chunk, bits, at))
            })
            .collect();
        // Children before parents: reverse BFS order. A parent forwards
        // a chunk once its own and every child's have arrived.
        for (i, &(p, link)) in up.iter().enumerate().rev() {
            // A parent comes before its child in `order`.
            let (parents, rest) = acc.split_at_mut(i + 1);
            let ((vec_n, train), (vec_p, ready_p)) = (&mut rest[0], &mut parents[p]);
            run.send_train(link, order[i + 1], train)
                .map_err(unreachable_by)?;
            for (e, v) in vec_p.iter_mut().zip(vec_n.iter()) {
                *e = e.mul(v);
            }
            ready_p.wait_for(train);
        }
        let (vec_out, ready_out) = &acc[0];
        for (slot, &i) in block.iter().enumerate() {
            result[i] = result[i].mul(&vec_out[slot]);
        }
        completed = completed.max(ready_out.last_round().unwrap_or(0));
    }
    Ok((result, completed))
}

/// The Steiner packing best suited to moving `bits` among `k` on `g`
/// ([`DeltaPackings::best`], the work counted in `g`'s smallest live
/// capacity); [`ProtocolError::Unreachable`] when `g` does not connect
/// `k`.
pub(crate) fn pack(
    g: &Topology,
    k: &[Player],
    bits: u64,
) -> Result<(u32, Vec<SteinerTree>), ProtocolError> {
    let packings = DeltaPackings::new(g, k);
    let (delta, packing) = packings
        .best(bits.div_ceil(g.min_live_capacity()))
        .ok_or_else(|| ProtocolError::Unreachable("no Steiner tree connects the players".into()))?;
    Ok((delta, packing.to_vec()))
}

/// Executes one star phase: broadcast the center relation to every
/// participant, build leaf-message value vectors locally, converge-cast
/// their product to `output`, and form `R'_P` there.
pub fn run_star_phase<S: Semiring>(
    run: &mut NetRun,
    center: &Relation<S>,
    center_holder: Player,
    leaves: &[LeafInput<S>],
    output: Player,
    domain: u32,
    phase_start: u64,
) -> Result<StarPhaseResult<S>, ProtocolError> {
    // Participants.
    let mut kset: BTreeSet<Player> = leaves.iter().map(|l| l.holder).collect();
    kset.insert(center_holder);
    kset.insert(output);
    let k: Vec<Player> = kset.into_iter().collect();

    // All local: no communication.
    if k.len() == 1 {
        let new_center = apply_messages(center, leaves);
        return Ok(StarPhaseResult {
            new_center,
            completed_at: phase_start.saturating_sub(1),
        });
    }

    let center_bits = center.bits(domain);
    let (_delta, packing) = pack(run.topology(), &k, center_bits)?;

    // 1. Broadcast the center relation.
    let arrival =
        broadcast_over_packing(run, &packing, center_holder, &k, center_bits, phase_start)?;

    // 2. Leaf-message value vectors, indexed by center tuple order.
    let mut vectors: HashMap<Player, Vec<S>> = HashMap::new();
    for leaf in leaves {
        let vec = message_vector(center, &leaf.message);
        match vectors.get_mut(&leaf.holder) {
            Some(existing) => {
                for (e, v) in existing.iter_mut().zip(vec) {
                    e.mul_assign(&v);
                }
            }
            None => {
                vectors.insert(leaf.holder, vec);
            }
        }
    }
    if vectors.is_empty() {
        // A star with no leaves: the center is already the result.
        let done = arrival.get(&output).copied().unwrap_or(phase_start);
        return Ok(StarPhaseResult {
            new_center: center.clone(),
            completed_at: done,
        });
    }

    // 3. Converge-cast the ⊗-product to the output player.
    let entry_bits = S::value_bits().max(1);
    let (product, completed) =
        convergecast_over_packing(run, &packing, output, &vectors, entry_bits, &arrival)?;

    // 4. Output forms R'_P locally (it received the center broadcast).
    // The center is iterated in canonical order, so the surviving rows
    // land in `from_columns`'s fast path: one bulk load, no per-tuple
    // insert churn.
    let mut data: Vec<u32> = Vec::with_capacity(center.len() * center.schema().len());
    let mut values: Vec<S> = Vec::with_capacity(center.len());
    for ((t, v), p) in center.iter().zip(product.iter()) {
        let val = v.mul(p);
        if !val.is_zero() {
            data.extend_from_slice(t);
            values.push(val);
        }
    }
    let new_center = Relation::from_columns(center.schema().to_vec(), data, values);
    Ok(StarPhaseResult {
        new_center,
        completed_at: completed,
    })
}

/// The value vector of one leaf message against the center's tuple
/// order: entry `j` is `m(π_overlap(t_j))`, or `0` when absent. The
/// probe works on tuple views with one reused key scratch — no
/// per-tuple allocation.
fn message_vector<S: Semiring>(center: &Relation<S>, message: &Relation<S>) -> Vec<S> {
    let positions: Vec<usize> = message
        .schema()
        .iter()
        .map(|v| {
            center
                .schema()
                .iter()
                .position(|w| w == v)
                .expect("message schema ⊆ center schema")
        })
        .collect();
    let mut key = vec![0u32; positions.len()];
    center
        .tuples()
        .map(|t| {
            for (k, &i) in key.iter_mut().zip(&positions) {
                *k = t[i];
            }
            message.get(&key).cloned().unwrap_or_else(S::zero)
        })
        .collect()
}

/// Local (zero-communication) application of leaf messages to the
/// center — used when every participant is the same player.
fn apply_messages<S: Semiring>(center: &Relation<S>, leaves: &[LeafInput<S>]) -> Relation<S> {
    let mut out = center.clone();
    for leaf in leaves {
        out = out.join(&leaf.message);
    }
    // The join keeps the center schema (message schemas are subsets).
    out.reorder(center.schema())
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_network::Topology;
    use faqs_semiring::{Boolean, Count};

    fn bool_rel(vals: &[u32]) -> Relation<Boolean> {
        Relation::from_pairs(
            vec![faqs_hypergraph::Var(0)],
            vals.iter().map(|v| (vec![*v], Boolean::TRUE)),
        )
    }

    #[test]
    fn star_phase_computes_intersection_on_line() {
        // Example 2.1's structure: center {1,2,3,4,5} at P0; leaves at
        // P1..P3 filter it down to {3}.
        let g = Topology::line(4).with_uniform_capacity(8);
        let mut run = NetRun::new(&g);
        let center = bool_rel(&[1, 2, 3, 4, 5]);
        let leaves = vec![
            LeafInput {
                message: bool_rel(&[2, 3, 9]),
                holder: Player(1),
            },
            LeafInput {
                message: bool_rel(&[3, 2]),
                holder: Player(2),
            },
            LeafInput {
                message: bool_rel(&[3]),
                holder: Player(3),
            },
        ];
        let res = run_star_phase(&mut run, &center, Player(0), &leaves, Player(3), 16, 1).unwrap();
        assert_eq!(res.new_center.len(), 1);
        assert!(res.new_center.get(&[3]).is_some());
        // N = 5 tuples over a 3-hop line: rounds ≈ N + diameter, well
        // under 3·N (trivial).
        assert!(res.completed_at <= 5 + 3 + 5 + 3);
    }

    #[test]
    fn star_phase_multiplies_annotations() {
        let g = Topology::clique(3).with_uniform_capacity(128);
        let mut run = NetRun::new(&g);
        let center: Relation<Count> = Relation::from_pairs(
            vec![faqs_hypergraph::Var(0)],
            [(vec![0], Count(2)), (vec![1], Count(3))],
        );
        let leaves = vec![
            LeafInput {
                message: Relation::from_pairs(
                    vec![faqs_hypergraph::Var(0)],
                    [(vec![0], Count(5)), (vec![1], Count(7))],
                ),
                holder: Player(1),
            },
            LeafInput {
                message: Relation::from_pairs(
                    vec![faqs_hypergraph::Var(0)],
                    [(vec![0], Count(11))],
                ),
                holder: Player(2),
            },
        ];
        let res = run_star_phase(&mut run, &center, Player(0), &leaves, Player(0), 4, 1).unwrap();
        assert_eq!(res.new_center.get(&[0]), Some(&Count(2 * 5 * 11)));
        assert_eq!(res.new_center.get(&[1]), None, "no match at P2 for 1");
    }

    #[test]
    fn colocated_star_is_free() {
        let g = Topology::line(2);
        let mut run = NetRun::new(&g);
        let center = bool_rel(&[1, 2]);
        let leaves = vec![LeafInput {
            message: bool_rel(&[2]),
            holder: Player(0),
        }];
        let res = run_star_phase(&mut run, &center, Player(0), &leaves, Player(0), 4, 1).unwrap();
        assert_eq!(res.new_center.len(), 1);
        assert_eq!(run.stats().total_bits, 0);
    }

    #[test]
    fn clique_broadcast_uses_packing() {
        // On a clique with 4 participants the packing has ≥ 2 trees, so
        // broadcasting N tuples costs ≈ N/2 + O(1) rounds (Example 2.3).
        let n = 64u64;
        let g = Topology::clique(4).with_uniform_capacity(8);
        let mut run = NetRun::new(&g);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let (_, packing) = pack(&g, &k, n * 8).unwrap();
        assert!(packing.len() >= 2);
        let arrival = broadcast_over_packing(&mut run, &packing, Player(0), &k, n * 8, 1).unwrap();
        let worst = arrival.values().max().unwrap();
        assert!(
            *worst <= n / 2 + 8,
            "broadcast should parallelise: {worst} rounds for N = {n}"
        );
    }

    #[test]
    fn convergecast_products_are_correct() {
        let g = Topology::star(4).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        let k: Vec<Player> = (1..4u32).map(Player).collect();
        let (_, packing) = pack(&g, &k, 8 * 4).unwrap();
        let vectors: HashMap<Player, Vec<Count>> = [
            (Player(1), vec![Count(2), Count(3)]),
            (Player(2), vec![Count(5), Count(1)]),
            (Player(3), vec![Count(1), Count(4)]),
        ]
        .into_iter()
        .collect();
        let ready: HashMap<Player, u64> = k.iter().map(|&p| (p, 0)).collect();
        let (product, _) =
            convergecast_over_packing(&mut run, &packing, Player(1), &vectors, 64, &ready).unwrap();
        assert_eq!(product, vec![Count(10), Count(12)]);
    }
}
