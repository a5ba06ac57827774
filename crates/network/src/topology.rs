//! The network topology `G = (V, E)` and its builders.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// A node of the communication topology (a "player" once it holds input).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Player(pub u32);

impl Player {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Player {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// An undirected communication link, identified by index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A synchronous network topology: an undirected graph whose edges carry
/// `capacity_bits` per direction per round (Model 2.1; footnote 6 allows
/// heterogeneous capacities, supported here per link).
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    n: usize,
    links: Vec<(Player, Player)>,
    capacity: Vec<u64>,
    adj: Vec<Vec<(Player, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology with `n` nodes and no links.
    pub fn empty(name: impl Into<String>, n: usize) -> Self {
        Topology {
            name: name.into(),
            n,
            links: Vec::new(),
            capacity: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds an undirected link with the given per-direction capacity.
    pub fn add_link(&mut self, a: Player, b: Player, capacity_bits: u64) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!(
            a.index() < self.n && b.index() < self.n,
            "player out of range"
        );
        assert!(capacity_bits > 0, "capacity must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push((a, b));
        self.capacity.push(capacity_bits);
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        id
    }

    /// The topology's display name (used in harness tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes `|V(G)|`.
    #[inline]
    pub fn num_players(&self) -> usize {
        self.n
    }

    /// Number of links `|E(G)|`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Endpoints of a link.
    #[inline]
    pub fn link(&self, l: LinkId) -> (Player, Player) {
        self.links[l.index()]
    }

    /// Per-direction capacity of a link in bits per round.
    #[inline]
    pub fn capacity(&self, l: LinkId) -> u64 {
        self.capacity[l.index()]
    }

    /// Neighbours of `p` with connecting links.
    pub fn neighbors(&self, p: Player) -> &[(Player, LinkId)] {
        &self.adj[p.index()]
    }

    /// All players.
    pub fn players(&self) -> impl Iterator<Item = Player> + '_ {
        (0..self.n).map(|i| Player(i as u32))
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId(i as u32))
    }

    /// Overrides one link's per-direction capacity. Unlike
    /// [`Topology::add_link`], a capacity of `0` is allowed and models an
    /// administratively *down* link: it stays in the graph structurally,
    /// but the scheduler refuses to carry bits over it
    /// (`TransmitError::ZeroCapacity`) and the routing helpers steer
    /// around it.
    pub fn set_capacity(&mut self, l: LinkId, bits: u64) {
        self.capacity[l.index()] = bits;
    }

    /// The smallest capacity among live links — the unit a packing's
    /// work is counted in. `1` when no link is live: nothing can be
    /// sent, and the quotient stays defined.
    pub fn min_live_capacity(&self) -> u64 {
        let live = self.capacity.iter().filter(|&&c| c > 0);
        live.min().map_or(1, |&c| c)
    }

    /// Returns a copy with every live link's capacity set to `bits`; a
    /// down link (capacity `0`) stays down.
    pub fn with_uniform_capacity(mut self, bits: u64) -> Self {
        assert!(bits > 0);
        for c in self.capacity.iter_mut().filter(|c| **c > 0) {
            *c = bits;
        }
        self
    }

    /// BFS distances from `s` (`u32::MAX` = unreachable).
    pub fn distances(&self, s: Player) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        dist[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &(v, _) in &self.adj[u.index()] {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// BFS distances from `s` over *live* links only (positive
    /// capacity; `u32::MAX` = unreachable without crossing a down
    /// link). The metric the scheduler's routing and the distributed
    /// runtime's placement decisions share.
    pub fn live_distances(&self, s: Player) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        dist[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &(v, l) in &self.adj[u.index()] {
                if self.capacity(l) > 0 && dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Hop distance between two players (`None` if disconnected).
    pub fn distance(&self, a: Player, b: Player) -> Option<u32> {
        let d = self.distances(a)[b.index()];
        (d != u32::MAX).then_some(d)
    }

    /// Graph diameter (max finite pairwise distance).
    pub fn diameter(&self) -> u32 {
        self.widest(Self::distances)
    }

    /// The diameter over *live* links only ([`Topology::live_distances`]):
    /// the diameter of the graph with its down links absent.
    pub fn live_diameter(&self) -> u32 {
        self.widest(Self::live_distances)
    }

    /// The largest finite distance `distances` reports from any player.
    fn widest(&self, distances: fn(&Self, Player) -> Vec<u32>) -> u32 {
        self.players()
            .map(|p| {
                distances(self, p)
                    .into_iter()
                    .filter(|&d| d != u32::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    // ----- builders (default capacity 1 bit/round; callers scale) -----

    /// The line `P0 — P1 — … — P(n−1)` (the topology `G1` of Figure 1).
    pub fn line(n: usize) -> Self {
        assert!(n >= 2);
        let mut g = Topology::empty(format!("line{n}"), n);
        for i in 0..n - 1 {
            g.add_link(Player(i as u32), Player(i as u32 + 1), 1);
        }
        g
    }

    /// The complete graph `K_n` (the topology `G2` of Figure 1).
    pub fn clique(n: usize) -> Self {
        assert!(n >= 2);
        let mut g = Topology::empty(format!("clique{n}"), n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                g.add_link(Player(i), Player(j), 1);
            }
        }
        g
    }

    /// A star network: `P0` is the hub.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2);
        let mut g = Topology::empty(format!("star{n}"), n);
        for i in 1..n as u32 {
            g.add_link(Player(0), Player(i), 1);
        }
        g
    }

    /// A cycle.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3);
        let mut g = Topology::empty(format!("ring{n}"), n);
        for i in 0..n as u32 {
            g.add_link(Player(i), Player((i + 1) % n as u32), 1);
        }
        g
    }

    /// An `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows * cols >= 2);
        let id = |r: usize, c: usize| Player((r * cols + c) as u32);
        let mut g = Topology::empty(format!("grid{rows}x{cols}"), rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    g.add_link(id(r, c), id(r, c + 1), 1);
                }
                if r + 1 < rows {
                    g.add_link(id(r, c), id(r + 1, c), 1);
                }
            }
        }
        g
    }

    /// A complete binary tree with `n` nodes (sensor-network shape,
    /// Appendix A.4).
    pub fn binary_tree(n: usize) -> Self {
        assert!(n >= 2);
        let mut g = Topology::empty(format!("btree{n}"), n);
        for i in 1..n {
            g.add_link(Player(((i - 1) / 2) as u32), Player(i as u32), 1);
        }
        g
    }

    /// Two cliques of size `side` joined by a path of `bridge ≥ 1` edges
    /// — small min-cut between the halves, used to exercise the
    /// cut-dependence of the bounds.
    pub fn barbell(side: usize, bridge: usize) -> Self {
        assert!(side >= 2 && bridge >= 1);
        let n = 2 * side + bridge.saturating_sub(1);
        let mut g = Topology::empty(format!("barbell{side}x{bridge}"), n);
        let left: Vec<Player> = (0..side as u32).map(Player).collect();
        let right: Vec<Player> = (side as u32..2 * side as u32).map(Player).collect();
        for set in [&left, &right] {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    g.add_link(set[i], set[j], 1);
                }
            }
        }
        // Bridge from left[side-1] to right[0] through fresh middle nodes.
        let mut prev = left[side - 1];
        for b in 0..bridge - 1 {
            let mid = Player((2 * side + b) as u32);
            g.add_link(prev, mid, 1);
            prev = mid;
        }
        g.add_link(prev, right[0], 1);
        g
    }

    /// The MPC(0) topology `G′` of Appendix A.1: `k` source players with
    /// no edges among themselves, each connected to every node of a
    /// `p`-clique. Sources are `P0..Pk-1`, relays `Pk..Pk+p-1`.
    pub fn mpc(k: usize, p: usize) -> Self {
        assert!(k >= 1 && p >= 1);
        let mut g = Topology::empty(format!("mpc{k}+{p}"), k + p);
        let relays: Vec<Player> = (k as u32..(k + p) as u32).map(Player).collect();
        for i in 0..p {
            for j in (i + 1)..p {
                g.add_link(relays[i], relays[j], 1);
            }
        }
        for s in 0..k as u32 {
            for &r in &relays {
                g.add_link(Player(s), r, 1);
            }
        }
        g
    }

    /// A connected Erdős–Rényi-style random graph: a random spanning tree
    /// plus each remaining pair independently with probability `p`.
    /// Deterministic in `seed`.
    pub fn random_connected(n: usize, p: f64, seed: u64) -> Self {
        assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Topology::empty(format!("rand{n}"), n);
        let mut present = std::collections::BTreeSet::new();
        // Random spanning tree: connect node i to a random earlier node.
        for i in 1..n {
            let j = rng.random_range(0..i);
            present.insert((j, i));
            g.add_link(Player(j as u32), Player(i as u32), 1);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if !present.contains(&(i, j)) && rng.random_bool(p) {
                    g.add_link(Player(i as u32), Player(j as u32), 1);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected(g: &Topology) -> bool {
        g.players().all(|p| g.distance(Player(0), p).is_some())
    }

    #[test]
    fn line_shape() {
        let g = Topology::line(4);
        assert_eq!(g.num_players(), 4);
        assert_eq!(g.num_links(), 3);
        assert_eq!(g.diameter(), 3);
        assert!(connected(&g));
    }

    #[test]
    fn clique_shape() {
        let g = Topology::clique(5);
        assert_eq!(g.num_links(), 10);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn grid_distances() {
        let g = Topology::grid(3, 3);
        assert_eq!(g.distance(Player(0), Player(8)), Some(4));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn barbell_structure() {
        let g = Topology::barbell(3, 2);
        assert!(connected(&g));
        // 2×C(3,2) + bridge of 2 edges.
        assert_eq!(g.num_links(), 3 + 3 + 2);
    }

    #[test]
    fn mpc_structure() {
        let g = Topology::mpc(4, 3);
        assert_eq!(g.num_players(), 7);
        // p-clique (3 edges) + k·p source links (12).
        assert_eq!(g.num_links(), 15);
        // Sources are mutually non-adjacent.
        assert_eq!(g.distance(Player(0), Player(1)), Some(2));
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            assert!(connected(&Topology::random_connected(20, 0.1, seed)));
        }
    }

    #[test]
    fn capacity_override() {
        let g = Topology::line(3).with_uniform_capacity(64);
        assert_eq!(g.capacity(LinkId(0)), 64);
        let mut g = Topology::ring(4);
        g.set_capacity(LinkId(2), 0);
        let g = g.with_uniform_capacity(8);
        let caps: Vec<u64> = g.links().map(|l| g.capacity(l)).collect();
        assert_eq!(caps, [8, 8, 0, 8], "a down link stays down");
    }

    #[test]
    fn live_distances_skip_down_links() {
        let mut g = Topology::ring(4);
        g.set_capacity(LinkId(0), 0); // 0—1 down
        assert_eq!(g.distances(Player(0))[1], 1, "structurally adjacent");
        assert_eq!(g.live_distances(Player(0))[1], 3, "live detour 0—3—2—1");
        assert_eq!(
            (g.diameter(), g.live_diameter()),
            (2, 3),
            "the line 1—2—3—0"
        );
        g.set_capacity(LinkId(1), 0); // 1—2 down too: P1 partitioned
        assert_eq!(g.live_distances(Player(0))[1], u32::MAX);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut g = Topology::empty("x", 2);
        g.add_link(Player(0), Player(0), 1);
    }

    #[test]
    fn binary_tree_depth() {
        let g = Topology::binary_tree(7);
        assert_eq!(g.num_links(), 6);
        assert_eq!(g.distance(Player(3), Player(6)), Some(4));
    }

    #[test]
    fn ring_diameter() {
        let g = Topology::ring(6);
        assert_eq!(g.diameter(), 3);
    }
}
