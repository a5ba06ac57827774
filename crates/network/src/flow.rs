//! Multicommodity-flow routing: `τ_MCF(G, K, N′)` (Definition 3.12).
//!
//! The trivial protocol (Lemma 3.1) ships every remaining relation to a
//! single player; Definition 3.12 charges it the rounds needed to route
//! `N′·log₂(N′)` bits from the players of `K` to one player, with
//! `log₂(N′)` bits per edge per round, under the worst-case distribution
//! of the bits over `K` (footnote 14). We compute the cost by
//! store-and-forward simulation over the shortest-path DAG toward the
//! sink, which is exact on trees and a faithful schedule elsewhere.

use crate::topology::{Player, Topology};

/// How many bits a source holds at the start of routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceLoad {
    /// The source player.
    pub player: Player,
    /// Bits it must deliver to the sink.
    pub bits: u64,
}

/// Store-and-forward routing of the given source loads to `sink`:
/// each round, every directed link pointing "downhill" (toward the sink
/// in BFS distance) forwards up to `bits_per_round` buffered bits.
/// Returns the number of rounds until everything arrives.
pub fn route_to_sink(g: &Topology, loads: &[SourceLoad], sink: Player, bits_per_round: u64) -> u64 {
    assert!(bits_per_round > 0);
    let dist = g.distances(sink);
    let mut buffer: Vec<u64> = vec![0; g.num_players()];
    let mut total = 0u64;
    for l in loads {
        assert!(
            dist[l.player.index()] != u32::MAX,
            "source {} cannot reach the sink",
            l.player
        );
        buffer[l.player.index()] += l.bits;
        total += l.bits;
    }
    if total == 0
        || buffer
            .iter()
            .enumerate()
            .all(|(i, b)| *b == 0 || i == sink.index())
    {
        return 0;
    }

    // Precompute each node's downhill neighbours.
    let downhill: Vec<Vec<Player>> = g
        .players()
        .map(|u| {
            g.neighbors(u)
                .iter()
                .filter(|(v, _)| dist[v.index()] < dist[u.index()])
                .map(|(v, _)| *v)
                .collect()
        })
        .collect();

    let mut rounds = 0u64;
    loop {
        let pending: u64 = buffer
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != sink.index())
            .map(|(_, b)| *b)
            .sum();
        if pending == 0 {
            return rounds;
        }
        rounds += 1;
        // Move bits one hop downhill; split a node's buffer round-robin
        // across its downhill links, each carrying ≤ bits_per_round.
        let mut incoming: Vec<u64> = vec![0; g.num_players()];
        for u in g.players() {
            if u == sink || buffer[u.index()] == 0 {
                continue;
            }
            let outs = &downhill[u.index()];
            debug_assert!(!outs.is_empty(), "every node has a downhill neighbour");
            for &v in outs {
                let send = buffer[u.index()].min(bits_per_round);
                if send == 0 {
                    break;
                }
                buffer[u.index()] -= send;
                incoming[v.index()] += send;
            }
        }
        for (i, inc) in incoming.iter().enumerate() {
            buffer[i] += inc;
        }
        debug_assert!(rounds < 1 << 40, "routing does not terminate");
    }
}

/// `τ_MCF(G, K, N′)`: rounds to route `N′·log₂(N′)` bits from `K` to the
/// best sink in `K`, maximised over two canonical worst-case
/// distributions (everything at the source farthest from the sink;
/// everything spread uniformly). `None` when `K` has fewer than two
/// players, names a player `g` lacks, or `g` does not connect it.
pub fn tau_mcf(g: &Topology, k: &[Player], n_prime: u64) -> Option<u64> {
    if k.len() < 2 || k.iter().any(|p| p.index() >= g.num_players()) {
        return None;
    }
    let n_prime = n_prime.max(2);
    let log = 64 - (n_prime - 1).leading_zeros() as u64; // ⌈log₂ N′⌉
    let total_bits = n_prime * log;
    let per_round = log;

    let mut best: Option<u64> = None;
    for &sink in k {
        let dist = g.distances(sink);
        if k.iter().any(|p| dist[p.index()] == u32::MAX) {
            return None;
        }
        // Distribution 1: all bits at the farthest source in K.
        let far = k
            .iter()
            .copied()
            .filter(|p| *p != sink)
            .max_by_key(|p| dist[p.index()])?;
        let concentrated = route_to_sink(
            g,
            &[SourceLoad {
                player: far,
                bits: total_bits,
            }],
            sink,
            per_round,
        );
        // Distribution 2: bits spread uniformly over K.
        let share = total_bits.div_ceil(k.len() as u64);
        let loads: Vec<SourceLoad> = k
            .iter()
            .copied()
            .filter(|p| *p != sink)
            .map(|player| SourceLoad {
                player,
                bits: share,
            })
            .collect();
        let uniform = route_to_sink(g, &loads, sink, per_round);
        let rounds = concentrated.max(uniform);
        best = Some(best.map_or(rounds, |b| b.min(rounds)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hop_routing() {
        let g = Topology::line(2);
        let rounds = route_to_sink(
            &g,
            &[SourceLoad {
                player: Player(0),
                bits: 10,
            }],
            Player(1),
            2,
        );
        assert_eq!(rounds, 5);
    }

    #[test]
    fn pipeline_over_a_path() {
        // 12 bits over 3 hops at 4 bits/round: 3 rounds transmission + 2
        // rounds pipeline fill = 5.
        let g = Topology::line(4);
        let rounds = route_to_sink(
            &g,
            &[SourceLoad {
                player: Player(0),
                bits: 12,
            }],
            Player(3),
            4,
        );
        assert_eq!(rounds, 3 + 2);
    }

    #[test]
    fn parallel_paths_halve_time() {
        // Theta graph: two disjoint 2-hop paths from 0 to 3.
        let mut g = Topology::empty("theta", 4);
        g.add_link(Player(0), Player(1), 1);
        g.add_link(Player(1), Player(3), 1);
        g.add_link(Player(0), Player(2), 1);
        g.add_link(Player(2), Player(3), 1);
        let one_path_line = Topology::line(3);
        let direct = route_to_sink(
            &one_path_line,
            &[SourceLoad {
                player: Player(0),
                bits: 40,
            }],
            Player(2),
            2,
        );
        let split = route_to_sink(
            &g,
            &[SourceLoad {
                player: Player(0),
                bits: 40,
            }],
            Player(3),
            2,
        );
        assert!(split < direct, "{split} < {direct}");
    }

    #[test]
    fn zero_load_is_free() {
        let g = Topology::line(3);
        assert_eq!(route_to_sink(&g, &[], Player(0), 4), 0);
    }

    #[test]
    fn tau_mcf_line_scales_linearly() {
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let t64 = tau_mcf(&g, &k, 64).unwrap();
        let t256 = tau_mcf(&g, &k, 256).unwrap();
        // N′ bits at log N′ per round ⇒ ≈ N′ rounds; quadrupling N′
        // roughly quadruples rounds.
        assert!(t256 > 3 * t64, "{t256} vs {t64}");
        assert!(t64 >= 64, "at least N′ rounds on a line");
    }

    #[test]
    fn tau_mcf_tracks_the_min_cut_bound() {
        // Appendix D.1: under worst-case assignments τ_MCF(G,K,N′) and
        // N′/MinCut(G,K) are within an Õ(1) factor (the routing must push
        // N′ log N′ bits through a MinCut-wide bottleneck at log N′ bits
        // per round).
        use crate::cuts::min_cut;
        for (g, kids) in [
            (Topology::line(6), vec![0u32, 5]),
            (Topology::clique(6), (0..6u32).collect::<Vec<_>>()),
            (Topology::barbell(3, 2), vec![0, 5]),
            (Topology::grid(3, 3), vec![0, 8]),
        ] {
            let k: Vec<Player> = kids.iter().copied().map(Player).collect();
            let n_prime = 512u64;
            let tau = tau_mcf(&g, &k, n_prime).unwrap();
            let mc = min_cut(&g, &k).unwrap() as u64;
            let floor = n_prime / mc;
            assert!(
                tau + g.diameter() as u64 >= floor,
                "{}: τ={tau} below the cut bound {floor}",
                g.name()
            );
            assert!(
                tau <= 8 * floor + 8 * g.diameter() as u64 + 8,
                "{}: τ={tau} far above the cut bound {floor}",
                g.name()
            );
        }
    }

    #[test]
    fn tau_mcf_clique_beats_line() {
        let kline: Vec<Player> = (0..6u32).map(Player).collect();
        let line = tau_mcf(&Topology::line(6), &kline, 128).unwrap();
        let clique = tau_mcf(&Topology::clique(6), &kline, 128).unwrap();
        assert!(clique < line, "{clique} < {line}");
    }
}
