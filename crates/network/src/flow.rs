//! Multicommodity-flow routing: `τ_MCF(G, K, N′)` (Definition 3.12).
//!
//! The trivial protocol (Lemma 3.1) ships every remaining relation to one
//! player. Definition 3.12 charges it the rounds to route `N′·log₂(N′)`
//! bits from `K` to the best sink in `K`, `log₂(N′)` bits per live link per
//! direction per round, under the worst distribution of the bits over `K`
//! (footnote 14). The `log₂(N′)` cancels, so the unit is one of `N′` words.
//!
//! The worst distribution is one source: what a set of sources delivers
//! within `T` rounds only grows with the set (Hoppe–Tardos' quickest
//! transshipment). For one source Ford–Fulkerson's temporally repeated
//! flow is exact: `k` paths of lengths `l₁ ≤ … ≤ l_k`, the successive
//! shortest paths of a unit-capacity min-cost flow from `s` to `t`, deliver
//! `k·(T + 1) − (l₁ + … + l_k)` words within `T` rounds, so
//! `T(s, t) = min over k of ⌈(N′ + l₁ + … + l_k) / k⌉ − 1` and `τ` is the
//! min over sinks `t ∈ K` of the max over sources `s ∈ K∖{t}` of `T(s, t)`.

use crate::topology::{Player, Topology};

/// `τ_MCF(G, K, N′)`: rounds to route `N′` words from the worst source in
/// `K` to the best sink in `K`, each live link carrying one word per
/// direction per round; its cost does not depend on `N′`. `None` when
/// `K` has fewer than two distinct players, names a player `g` lacks, or
/// `g`'s live links do not connect it.
///
/// ```
/// use faqs_network::{tau_mcf, Player, Topology};
/// // Three hops in a line: N′ rounds to send, two more to fill the pipe.
/// assert_eq!(tau_mcf(&Topology::line(4), &[Player(0), Player(3)], 64), Some(66));
/// ```
pub fn tau_mcf(g: &Topology, k: &[Player], n_prime: u64) -> Option<u64> {
    if k.len() < 2 || k.iter().any(|p| p.index() >= g.num_players()) {
        return None;
    }
    // Arc `2i` runs one way along the `i`-th live link and `2i + 1` back.
    let arcs: Vec<(usize, usize)> = g
        .links()
        .filter(|&l| g.capacity(l) > 0)
        .flat_map(|l| {
            let (a, b) = g.link(l);
            [(a.index(), b.index()), (b.index(), a.index())]
        })
        .collect();
    let time = |s: Player, t: Player| {
        quickest(&arcs, g.num_players(), s.index(), t.index(), n_prime.max(2))
    };
    let worst = |t: Player| {
        let each = k.iter().filter(|&&s| s != t).map(|&s| time(s, t));
        each.collect::<Option<Vec<u64>>>()?.into_iter().max()
    };
    k.iter()
        .try_fold(u64::MAX, |tau, &t| Some(tau.min(worst(t)?)))
}

/// `T(s, t)`: the rounds `words` words need from `s` to `t` over `arcs`
/// (see the module doc), by successive shortest paths with Bellman–Ford.
/// A link carries at most one unit of the static flow, in one direction:
/// an arc whose partner carries the unit cancels it at cost −1, an idle
/// arc takes it at cost 1. `None` when `t` is out of reach.
fn quickest(arcs: &[(usize, usize)], n: usize, s: usize, t: usize, words: u64) -> Option<u64> {
    let mut carries = vec![false; arcs.len()];
    let (mut paths, mut length, mut best) = (0, 0, None::<u64>);
    loop {
        let mut dist = vec![i64::MAX; n];
        let mut via = vec![usize::MAX; n];
        dist[s] = 0;
        for _ in 1..n {
            let mut relaxed = false;
            for (i, &(a, b)) in arcs.iter().enumerate() {
                let cost = match (carries[i ^ 1], carries[i]) {
                    (true, _) => -1,
                    (false, false) => 1,
                    (false, true) => continue,
                };
                if dist[a] != i64::MAX && dist[a] + cost < dist[b] {
                    (dist[b], via[b], relaxed) = (dist[a] + cost, i, true);
                }
            }
            if !relaxed {
                break;
            }
        }
        if dist[t] == i64::MAX {
            return best;
        }
        (paths, length) = (paths + 1, length + dist[t] as u64);
        let rounds = (words + length).div_ceil(paths) - 1;
        best = Some(best.map_or(rounds, |b| b.min(rounds)));
        let mut v = t;
        while v != s {
            let i = via[v];
            let flip = if carries[i ^ 1] { i ^ 1 } else { i };
            carries[flip] = !carries[flip];
            v = arcs[i].0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{max_flow, min_cut};

    const N: [u64; 4] = [2, 16, 64, 1000];

    fn pair(s: u32, t: u32) -> [Player; 2] {
        [Player(s), Player(t)]
    }

    #[test]
    fn single_hop_routing() {
        for n in N {
            assert_eq!(tau_mcf(&Topology::line(2), &pair(0, 1), n), Some(n));
        }
        // One player named twice has no second player to route between.
        assert_eq!(tau_mcf(&Topology::line(2), &pair(1, 1), 16), None);
    }

    #[test]
    fn pipeline_over_a_path() {
        // N′ rounds of transmission plus two rounds of pipeline fill.
        for n in N {
            assert_eq!(tau_mcf(&Topology::line(4), &pair(0, 3), n), Some(n + 2));
        }
    }

    #[test]
    fn parallel_paths_halve_time() {
        // Theta graph: two disjoint 2-hop paths from 0 to 3.
        let mut g = Topology::empty("theta", 4);
        g.add_link(Player(0), Player(1), 1);
        g.add_link(Player(1), Player(3), 1);
        g.add_link(Player(0), Player(2), 1);
        g.add_link(Player(2), Player(3), 1);
        for n in N {
            let split = tau_mcf(&g, &pair(0, 3), n).unwrap();
            assert_eq!(split, (n + 4).div_ceil(2) - 1);
            let one_path = tau_mcf(&Topology::line(3), &pair(0, 2), n).unwrap();
            assert_eq!(one_path, n + 1);
            assert!(split < one_path, "{split} < {one_path}");
        }
    }

    #[test]
    fn tau_is_at_least_the_cut_floor() {
        // `λ(s, t)` edge-disjoint paths carry at most `λ` words a round, so
        // `N′` words take at least `⌈N′ / λ⌉` rounds.
        let mut corpus = vec![
            Topology::line(5),
            Topology::ring(6),
            Topology::star(5),
            Topology::grid(3, 3),
            Topology::clique(6),
            Topology::barbell(3, 2),
            Topology::binary_tree(7),
            Topology::mpc(3, 2),
        ];
        corpus.extend((0..8).map(|seed| Topology::random_connected(7, 0.35, seed)));
        for g in &corpus {
            for (s, t) in g.players().flat_map(|s| g.players().map(move |t| (s, t))) {
                if s == t {
                    continue;
                }
                let lambda = max_flow(g, s, t) as u64;
                assert_eq!(min_cut(g, &[s, t]), Some(lambda as usize));
                for n in N {
                    let tau = tau_mcf(g, &[s, t], n).unwrap();
                    let floor = n.max(2).div_ceil(lambda);
                    assert!(tau >= floor, "{} {s}→{t}: τ={tau} < {floor}", g.name());
                }
            }
        }
    }

    #[test]
    fn tau_mcf_line_scales_linearly() {
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let t64 = tau_mcf(&g, &k, 64).unwrap();
        let t256 = tau_mcf(&g, &k, 256).unwrap();
        // N′ words at one word per round ⇒ ≈ N′ rounds; quadrupling N′
        // roughly quadruples rounds.
        assert!(t256 > 3 * t64, "{t256} vs {t64}");
        assert!(t64 >= 64, "at least N′ rounds on a line");
    }

    #[test]
    fn tau_mcf_tracks_the_min_cut_bound() {
        // Appendix D.1: under worst-case assignments τ_MCF(G,K,N′) and
        // N′/MinCut(G,K) are within an Õ(1) factor (the routing must push
        // N′ words through a MinCut-wide bottleneck at one word per link
        // per round).
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

    #[test]
    fn a_down_link_carries_nothing() {
        // ring6 with link 0 down routes like ring6 with link 0 removed.
        let mut down = Topology::ring(6);
        down.set_capacity(crate::LinkId(0), 0);
        let mut absent = Topology::empty("ring6", 6);
        for i in 1..6u32 {
            absent.add_link(Player(i), Player((i + 1) % 6), 1);
        }
        let k: Vec<Player> = (0..6u32).map(Player).collect();
        for n_prime in [16, 512] {
            assert_eq!(tau_mcf(&down, &k, n_prime), tau_mcf(&absent, &k, n_prime));
            // Five hops around, not one across.
            assert_eq!(tau_mcf(&down, &pair(1, 0), n_prime), Some(n_prime + 4));
        }
        // Cut off from the sink over live links: no τ.
        down.set_capacity(crate::LinkId(5), 0);
        assert_eq!(tau_mcf(&down, &k, 16), None);
    }
}
