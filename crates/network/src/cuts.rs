//! Max-flow / min-cut on topologies (Definition 3.6).

use crate::topology::{Player, Topology};
use std::collections::VecDeque;

/// Edmonds–Karp max-flow between `s` and `t`, treating every live
/// undirected link as a pair of unit-capacity arcs — i.e. the number of
/// pairwise edge-disjoint `s`–`t` paths (edge connectivity). A down
/// link (capacity 0) carries nothing, so it is no arc.
pub fn max_flow(g: &Topology, s: Player, t: Player) -> usize {
    residual_cut(g, s, t).0
}

/// The one Edmonds–Karp loop: `(max-flow, side)` between `s` and `t`,
/// where `side[v]` ⇔ `v` is reachable from `s` in the final residual
/// graph — the source side of a minimum `s`–`t` cut.
fn residual_cut(g: &Topology, s: Player, t: Player) -> (usize, Vec<bool>) {
    assert!(s != t);
    let (n, s, t) = (g.num_players(), s.index(), t.index());
    // Residual adjacency matrix of arc capacities (unit per direction).
    let mut cap = vec![vec![0u32; n]; n];
    for l in g.links().filter(|&l| g.capacity(l) > 0) {
        let (a, b) = g.link(l);
        cap[a.index()][b.index()] += 1;
        cap[b.index()][a.index()] += 1;
    }
    let mut flow = 0usize;
    loop {
        // BFS for an augmenting path; the source is its own parent.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        parent[s] = Some(s);
        let mut q = VecDeque::from([s]);
        'bfs: while let Some(u) = q.pop_front() {
            for v in 0..n {
                if parent[v].is_none() && cap[u][v] > 0 {
                    parent[v] = Some(u);
                    if v == t {
                        break 'bfs;
                    }
                    q.push_back(v);
                }
            }
        }
        if parent[t].is_none() {
            // The search ran to exhaustion: `parent` marks the source side.
            return (flow, parent.iter().map(Option::is_some).collect());
        }
        // Augment by 1 (unit capacities).
        let mut v = t;
        while let Some(u) = parent[v].filter(|_| v != s) {
            cap[u][v] -= 1;
            cap[v][u] += 1;
            v = u;
        }
        flow += 1;
    }
}

/// `MinCut(G, K)` (Definition 3.6): the minimum number of live links
/// whose removal disconnects some pair of players in `K`. Computed as the
/// minimum over `t ∈ K∖{k₀}` of the `k₀`–`t` max-flow (every cut
/// separating `K` separates `k₀` from some other terminal). `None` when
/// `K` has fewer than two players or names a player `g` lacks.
///
/// ```
/// use faqs_network::{min_cut, Player, Topology};
/// let g = Topology::clique(4); // G2 of Figure 1
/// let k: Vec<Player> = (0..4).map(Player).collect();
/// assert_eq!(min_cut(&g, &k), Some(3));
/// assert_eq!(min_cut(&g, &[Player(0), Player(7)]), None);
/// ```
pub fn min_cut(g: &Topology, k: &[Player]) -> Option<usize> {
    min_cut_partition(g, k).map(|(cut, _)| cut)
}

/// A witnessing minimum cut `(A, B)` of `G` separating `K`
/// (Lemma 4.4 needs the cut *sides* to place the `S`/`T` relations):
/// returns `(cut size, side)` where `side[v] = true` ⇔ `v ∈ A` (the
/// source side, containing `k[0]`) — the residual side of the first
/// terminal whose flow from `k[0]` is minimal. `None` as for
/// [`min_cut`].
pub fn min_cut_partition(g: &Topology, k: &[Player]) -> Option<(usize, Vec<bool>)> {
    let (&first, rest) = k.split_first()?;
    if rest.is_empty() || k.iter().any(|p| p.index() >= g.num_players()) {
        return None;
    }
    rest.iter()
        .map(|&t| residual_cut(g, first, t))
        .reduce(|best, cut| if cut.0 < best.0 { cut } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn players(ids: &[u32]) -> Vec<Player> {
        ids.iter().copied().map(Player).collect()
    }

    #[test]
    fn partition_witnesses_the_cut() {
        for (g, kids) in [
            (Topology::line(5), vec![0u32, 4]),
            (Topology::barbell(3, 2), vec![0, 5]),
            (Topology::ring(6), vec![0, 3]),
            (Topology::clique(4), vec![0, 1, 2, 3]),
        ] {
            let k = players(&kids);
            let (cut, side) = min_cut_partition(&g, &k).unwrap();
            assert_eq!(Some(cut), min_cut(&g, &k));
            // k0 on side A, some terminal on side B.
            assert!(side[k[0].index()]);
            assert!(k.iter().any(|t| !side[t.index()]));
            // Crossing edges count equals the cut value.
            let crossing = g
                .links()
                .filter(|&l| {
                    let (a, b) = g.link(l);
                    side[a.index()] != side[b.index()]
                })
                .count();
            assert_eq!(crossing, cut, "{}", g.name());
        }
    }

    #[test]
    fn line_min_cut_is_one() {
        let g = Topology::line(5);
        assert_eq!(min_cut(&g, &players(&[0, 4])), Some(1));
        assert_eq!(min_cut(&g, &players(&[0, 2, 4])), Some(1));
    }

    #[test]
    fn clique_min_cut() {
        let g = Topology::clique(5);
        assert_eq!(min_cut(&g, &players(&[0, 1, 2, 3, 4])), Some(4));
        assert_eq!(max_flow(&g, Player(0), Player(1)), 4);
    }

    #[test]
    fn ring_min_cut_is_two() {
        let g = Topology::ring(6);
        assert_eq!(min_cut(&g, &players(&[0, 3])), Some(2));
    }

    #[test]
    fn grid_corner_cut() {
        let g = Topology::grid(3, 3);
        // Corner has degree 2.
        assert_eq!(min_cut(&g, &players(&[0, 8])), Some(2));
    }

    #[test]
    fn barbell_cut_is_bridge() {
        let g = Topology::barbell(4, 1);
        // Terminals on opposite sides: the single bridge edge is the cut.
        assert_eq!(min_cut(&g, &players(&[0, 7])), Some(1));
        // Terminals on the same side: K4 edge connectivity.
        assert_eq!(min_cut(&g, &players(&[0, 1])), Some(3));
    }

    #[test]
    fn mpc_cut_is_p() {
        let g = Topology::mpc(4, 3);
        // Each source has degree p = 3.
        assert_eq!(min_cut(&g, &players(&[0, 1, 2, 3])), Some(3));
    }

    #[test]
    fn parallel_paths_add_up() {
        // Two vertex-disjoint paths 0-1-3 and 0-2-3.
        let mut g = Topology::empty("theta", 4);
        g.add_link(Player(0), Player(1), 1);
        g.add_link(Player(1), Player(3), 1);
        g.add_link(Player(0), Player(2), 1);
        g.add_link(Player(2), Player(3), 1);
        assert_eq!(max_flow(&g, Player(0), Player(3)), 2);
    }

    #[test]
    fn a_down_link_is_no_arc() {
        // ring6 with link 0 down cuts like ring6 with link 0 removed:
        // the path 0-5-4-3-2-1.
        let mut down = Topology::ring(6);
        down.set_capacity(crate::LinkId(0), 0);
        let mut absent = Topology::empty("ring6", 6);
        for i in 1..6u32 {
            absent.add_link(Player(i), Player((i + 1) % 6), 1);
        }
        let k = players(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(min_cut(&down, &k), Some(1));
        assert_eq!(min_cut_partition(&down, &k), min_cut_partition(&absent, &k));
        assert_eq!(max_flow(&down, Player(0), Player(1)), 1);
        // Both links of player 0 down: nothing joins it to the rest.
        down.set_capacity(crate::LinkId(5), 0);
        assert_eq!(min_cut(&down, &k), Some(0));
    }
}
