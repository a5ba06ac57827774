//! Exact references for the network quantities the bound reads, on
//! topologies small enough to solve by brute force:
//!
//! * `tau_mcf` against the quickest transshipment of Definition 3.12 on
//!   the time-expanded network (max flow on `T + 1` copies of `G`, with a
//!   binary search on `T`), in bits, `⌈log₂ N′⌉` per live link per
//!   direction per round;
//! * `min_cut` against an enumeration of the bipartitions of `V` that
//!   separate `K`.

use faqs_network::{min_cut, tau_mcf, LinkId, Player, Topology};

/// The corpus the references run on: each topology with `K` = every player.
fn corpus() -> Vec<Topology> {
    let mut down = Topology::ring(6);
    down.set_capacity(LinkId(2), 0);
    let mut named = vec![
        Topology::line(5),
        Topology::ring(6),
        down,
        Topology::star(5),
        Topology::grid(3, 3),
        Topology::clique(5),
        Topology::clique(6),
        Topology::barbell(3, 2),
    ];
    named.extend([0, 1, 2, 3].map(|seed| Topology::random_connected(7, 0.35, seed)));
    named
}

fn everyone(g: &Topology) -> Vec<Player> {
    g.players().collect()
}

/// A flow network with integer arc capacities; arc `i ^ 1` is arc `i`'s
/// residual reverse.
#[derive(Default)]
struct Network {
    to: Vec<usize>,
    cap: Vec<u64>,
    out: Vec<Vec<usize>>,
}

impl Network {
    fn node(&mut self) -> usize {
        self.out.push(Vec::new());
        self.out.len() - 1
    }

    fn arc(&mut self, a: usize, b: usize, cap: u64) {
        for (from, to, cap) in [(a, b, cap), (b, a, 0)] {
            self.out[from].push(self.to.len());
            self.to.push(to);
            self.cap.push(cap);
        }
    }

    /// Dinic's max flow from `s` to `t`.
    fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut flow = 0;
        loop {
            let mut level = vec![usize::MAX; self.out.len()];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &i in &self.out[u] {
                    if self.cap[i] > 0 && level[self.to[i]] == usize::MAX {
                        level[self.to[i]] = level[u] + 1;
                        queue.push_back(self.to[i]);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            let mut next = vec![0; self.out.len()];
            loop {
                let pushed = self.push(s, t, u64::MAX, &level, &mut next);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    /// One blocking-flow augmentation along the level graph.
    fn push(&mut self, u: usize, t: usize, limit: u64, level: &[usize], next: &mut [usize]) -> u64 {
        if u == t {
            return limit;
        }
        while next[u] < self.out[u].len() {
            let i = self.out[u][next[u]];
            let v = self.to[i];
            if self.cap[i] > 0 && level[v] == level[u] + 1 {
                let pushed = self.push(v, t, limit.min(self.cap[i]), level, next);
                if pushed > 0 {
                    self.cap[i] -= pushed;
                    self.cap[i ^ 1] += pushed;
                    return pushed;
                }
            }
            next[u] += 1;
        }
        0
    }
}

/// How many bits `supply` gets to `sink` within `rounds` rounds, each live
/// link carrying `per_round` bits per direction per round: a max flow on
/// `rounds + 1` copies of `G`, a bit waiting in place or crossing one
/// link from one copy to the next.
fn delivered(
    g: &Topology,
    supply: &[(Player, u64)],
    sink: Player,
    per_round: u64,
    rounds: usize,
) -> u64 {
    let n = g.num_players();
    let mut net = Network::default();
    let layers: Vec<Vec<usize>> = (0..=rounds)
        .map(|_| (0..n).map(|_| net.node()).collect())
        .collect();
    let source = net.node();
    for pair in layers.windows(2) {
        let (now, next) = (&pair[0], &pair[1]);
        for (&here, &later) in now.iter().zip(next) {
            net.arc(here, later, u64::MAX / 4);
        }
        for l in g.links().filter(|&l| g.capacity(l) > 0) {
            let (a, b) = g.link(l);
            net.arc(now[a.index()], next[b.index()], per_round);
            net.arc(now[b.index()], next[a.index()], per_round);
        }
    }
    for &(p, bits) in supply {
        net.arc(source, layers[0][p.index()], bits);
    }
    net.max_flow(source, layers[rounds][sink.index()])
}

/// The quickest transshipment: the fewest rounds in which all of
/// `supply` reaches `sink`, by binary search on the rounds.
fn quickest(g: &Topology, supply: &[(Player, u64)], sink: Player, per_round: u64) -> u64 {
    let total: u64 = supply.iter().map(|&(_, bits)| bits).sum();
    let in_time = |rounds: u64| delivered(g, supply, sink, per_round, rounds as usize) == total;
    // No round has passed at 0, and one path of at most |V| − 1 hops
    // carries it all by `hi`.
    let (mut lo, mut hi) = (0, total.div_ceil(per_round) + g.num_players() as u64);
    assert!(in_time(hi));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        match in_time(mid) {
            true => hi = mid,
            false => lo = mid,
        }
    }
    hi
}

/// Definition 3.12's word size and bit count for `N′`.
fn bits(n_prime: u64) -> (u64, u64) {
    let c = 64 - (n_prime - 1).leading_zeros() as u64; // ⌈log₂ N′⌉
    (c, n_prime * c)
}

#[test]
fn tau_mcf_is_the_quickest_transshipment() {
    for g in corpus() {
        let k = everyone(&g);
        for n_prime in [16, 64] {
            let (c, b) = bits(n_prime);
            // T(s, t) for every pair of players, the same both ways.
            let mut time = vec![vec![0; k.len()]; k.len()];
            for (i, &s) in k.iter().enumerate() {
                for (j, &t) in k.iter().enumerate().skip(i + 1) {
                    let exact = quickest(&g, &[(s, b)], t, c);
                    assert_eq!(
                        tau_mcf(&g, &[s, t], n_prime),
                        Some(exact),
                        "{} {s}→{t} at N′ = {n_prime}",
                        g.name()
                    );
                    (time[i][j], time[j][i]) = (exact, exact);
                }
            }
            let worst = |j: usize| time.iter().map(|row| row[j]).max().unwrap_or(0);
            let exact = (0..k.len()).map(worst).min();
            assert_eq!(
                tau_mcf(&g, &k, n_prime),
                exact,
                "{} at N′ = {n_prime}",
                g.name()
            );

            // Footnote 14's worst case is one source: spreading the bits
            // evenly over K is never slower than the worst single source.
            let share = b.div_ceil(k.len() as u64);
            let uniform: Vec<(Player, u64)> = k.iter().map(|&p| (p, share)).collect();
            for (j, &t) in k.iter().enumerate() {
                let spread = quickest(&g, &uniform, t, c);
                assert!(
                    spread <= worst(j),
                    "{} sink {t} at N′ = {n_prime}: uniform {spread} > worst source {}",
                    g.name(),
                    worst(j)
                );
            }
        }
    }
}

/// `MinCut(G, K)` by brute force: the fewest live links across any
/// bipartition of `V` with players of `K` on both sides.
fn enumerated_min_cut(g: &Topology, k: &[Player]) -> usize {
    let n = g.num_players();
    assert!(n <= 12);
    let side = |set: u32, p: Player| set >> p.index() & 1 == 1;
    (0..1u32 << n)
        .filter(|&set| side(set, k[0]) && k.iter().any(|&p| !side(set, p)))
        .map(|set| {
            let live = g.links().filter(|&l| g.capacity(l) > 0);
            live.filter(|&l| {
                let (a, b) = g.link(l);
                side(set, a) != side(set, b)
            })
            .count()
        })
        .min()
        .expect("K has two players")
}

#[test]
fn min_cut_is_the_fewest_links_across_a_separating_bipartition() {
    let mut topologies = corpus();
    topologies.extend([
        Topology::binary_tree(7),
        Topology::mpc(3, 2),
        Topology::grid(3, 4),
        Topology::barbell(4, 3),
    ]);
    for g in topologies {
        let n = g.num_players() as u32;
        let subsets = [
            (0..n).map(Player).collect::<Vec<_>>(),
            vec![Player(0), Player(n - 1)],
            (0..n).step_by(2).map(Player).collect(),
            (1..n).step_by(3).chain([0]).map(Player).collect(),
        ];
        for k in subsets {
            assert_eq!(
                min_cut(&g, &k),
                Some(enumerated_min_cut(&g, &k)),
                "{} K = {k:?}",
                g.name()
            );
        }
    }
}
