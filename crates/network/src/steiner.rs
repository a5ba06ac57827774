//! Bounded-diameter Steiner tree packing (Definitions 3.8/3.9).
//!
//! `ST(G, K, Δ)` is the maximum number of edge-disjoint Steiner trees
//! connecting `K`, each with pairwise terminal distance at most `Δ`.
//! Computing it exactly is NP-hard; Theorem 3.10 (Lau) guarantees
//! `ST(G, K, |V|) = Ω(MinCut(G, K))`, and the paper's protocols only
//! need a packing of that order. The greedy packer below combines three
//! candidate generators per iteration:
//!
//! * **paths** — a nearest-neighbour traveling-salesman-style path
//!   through `K` (packs Hamiltonian-path decompositions of cliques, the
//!   `W1`/`W2` structure of Figure 2),
//! * **hubs** — a node adjacent to every terminal (the diameter-2 trees
//!   of the MPC topology, Appendix A.1.4),
//! * **BFS trees** — union of shortest paths from a terminal root
//!   (general fallback).

use crate::topology::{LinkId, Player, Topology};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::iter;

/// An edge-disjoint Steiner tree of a packing.
#[derive(Clone, Debug)]
pub struct SteinerTree {
    links: Vec<LinkId>,
    adj: HashMap<Player, Vec<(Player, LinkId)>>,
}

impl SteinerTree {
    fn new(g: &Topology, links: Vec<LinkId>) -> Self {
        let mut adj: HashMap<Player, Vec<(Player, LinkId)>> = HashMap::new();
        for &l in &links {
            let (a, b) = g.link(l);
            adj.entry(a).or_default().push((b, l));
            adj.entry(b).or_default().push((a, l));
        }
        SteinerTree { links, adj }
    }

    /// Links of the tree.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Nodes of the tree.
    pub fn nodes(&self) -> impl Iterator<Item = Player> + '_ {
        self.adj.keys().copied()
    }

    /// Whether `p` belongs to the tree.
    pub fn contains(&self, p: Player) -> bool {
        self.adj.contains_key(&p)
    }

    /// Tree neighbours of `p`.
    pub fn neighbors(&self, p: Player) -> &[(Player, LinkId)] {
        self.adj.get(&p).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Tree distances from `s` (nodes off the tree: absent).
    pub fn distances(&self, s: Player) -> HashMap<Player, u32> {
        let mut dist = HashMap::from([(s, 0u32)]);
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            let du = dist[&u];
            for &(v, _) in self.neighbors(u) {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// The paper's tree diameter: max distance between two *terminals*.
    pub fn terminal_diameter(&self, k: &[Player]) -> u32 {
        let mut best = 0;
        for &a in k {
            let d = self.distances(a);
            for &b in k {
                best = best.max(*d.get(&b).unwrap_or(&u32::MAX));
            }
        }
        best
    }

    /// Whether the tree spans all terminals and is connected and acyclic.
    pub fn is_valid_for(&self, g: &Topology, k: &[Player]) -> bool {
        if self.links.is_empty() {
            return false;
        }
        let _ = g;
        let start = *k.first().expect("terminals non-empty");
        if !self.contains(start) {
            return false;
        }
        let dist = self.distances(start);
        if !k.iter().all(|t| dist.contains_key(t)) {
            return false;
        }
        // Connected with |nodes| = |links| + 1 ⇔ tree.
        dist.len() == self.links.len() + 1 && dist.len() == self.adj.len()
    }

    /// The path between two tree nodes, as `(hop player sequence, links)`.
    pub fn path(&self, from: Player, to: Player) -> Option<(Vec<Player>, Vec<LinkId>)> {
        let mut parent: HashMap<Player, (Player, LinkId)> = HashMap::new();
        let mut seen = BTreeSet::from([from]);
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            if u == to {
                break;
            }
            for &(v, l) in self.neighbors(u) {
                if seen.insert(v) {
                    parent.insert(v, (u, l));
                    q.push_back(v);
                }
            }
        }
        if !seen.contains(&to) {
            return None;
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, l) = parent[&cur];
            links.push(l);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        Some((nodes, links))
    }
}

/// Greedily packs edge-disjoint Steiner trees for `K` with terminal
/// diameter at most `delta`: while some candidate (path, hub, BFS tree,
/// in that order) on the still available live links is a valid tree within
/// the bound, take the first one with the fewest links. The single-Δ
/// entry point of the loop [`DeltaPackings::new`] runs for every
/// candidate Δ.
pub fn steiner_packing(g: &Topology, k: &[Player], delta: u32) -> Vec<SteinerTree> {
    Candidates::new(g, k).pack(delta)
}

/// The valid candidate trees of one `(G, K)` per available-link set,
/// each with its terminal diameter. Neither depends on Δ, so every Δ
/// packed through one `Candidates` generates and checks a link set's
/// candidates once; the memo lives as long as that one packing call.
struct Candidates<'g> {
    g: &'g Topology,
    k: &'g [Player],
    by_avail: HashMap<BTreeSet<LinkId>, Vec<(u32, SteinerTree)>>,
}

impl<'g> Candidates<'g> {
    fn new(g: &'g Topology, k: &'g [Player]) -> Self {
        assert!(k.len() >= 2, "need at least two terminals");
        Candidates {
            g,
            k,
            by_avail: HashMap::new(),
        }
    }

    /// The greedy packing at diameter bound `delta`.
    fn pack(&mut self, delta: u32) -> Vec<SteinerTree> {
        let g = self.g;
        let mut avail: BTreeSet<LinkId> = g.links().filter(|&l| g.capacity(l) > 0).collect();
        let mut packing = Vec::new();
        // Among valid candidates within the diameter bound, prefer the
        // one using the fewest links (leaving more for later trees).
        while let Some(tree) = self
            .on(&avail)
            .iter()
            .filter(|(diameter, _)| *diameter <= delta)
            .map(|(_, tree)| tree)
            .min_by_key(|t| t.links().len())
        {
            for l in tree.links() {
                avail.remove(l);
            }
            packing.push(tree.clone());
        }
        packing
    }

    /// The valid candidates on `avail` with their terminal diameters, in
    /// generator order.
    fn on(&mut self, avail: &BTreeSet<LinkId>) -> &[(u32, SteinerTree)] {
        let (g, k) = (self.g, self.k);
        self.by_avail.entry(avail.clone()).or_insert_with(|| {
            [
                candidate_path(g, k, avail),
                candidate_hub(g, k, avail),
                candidate_bfs(g, k, avail),
            ]
            .into_iter()
            .flatten()
            .map(|links| SteinerTree::new(g, links))
            .filter(|t| t.is_valid_for(g, k))
            .map(|t| (t.terminal_diameter(k), t))
            .collect()
        })
    }
}

/// The packings behind the paper's recurring bound
/// `min_Δ ( N / ST(G,K,Δ) + Δ )` (Theorem 3.11's shape) for one
/// `(G, K)`: every candidate Δ — 1, 2, 3, 4, 8, …, then the unbounded
/// `|V|` — packed once, so any number of `work` values (one per factor
/// of a run, plus the conformance oracle's `N`) share the packing work.
/// The Δ values share the candidate generation too: one `new` call
/// generates and validates each distinct available-link set's
/// candidates once, so a Δ's greedy step is a filter on the diameter —
/// every packing link for link what [`steiner_packing`] returns at that
/// Δ.
pub struct DeltaPackings {
    /// `(Δ, packing)` in candidate order, non-empty packings only.
    candidates: Vec<(u32, Vec<SteinerTree>)>,
}

impl DeltaPackings {
    /// Packs every candidate Δ for terminals `k` on `g`.
    pub fn new(g: &Topology, k: &[Player]) -> Self {
        let max_delta = (g.num_players() as u32).max(1);
        let bounded = iter::successors(Some(1), |&d| Some(if d < 4 { d + 1 } else { d * 2 }));
        let mut generated = Candidates::new(g, k);
        let candidates = bounded
            .take_while(|&delta| delta < max_delta)
            // Always evaluate the unbounded case too.
            .chain([max_delta])
            .map(|delta| (delta, generated.pack(delta)))
            .filter(|(_, packing)| !packing.is_empty())
            .collect();
        DeltaPackings { candidates }
    }

    /// `(delta, packing)` for the first Δ minimising
    /// `⌈work / ST⌉ + Δ`; `work = N` in tuple units. `None` when no Δ
    /// packs a tree: `g` does not connect the terminals.
    pub fn best(&self, work: u64) -> Option<(u32, &[SteinerTree])> {
        self.candidates
            .iter()
            .min_by_key(|(delta, packing)| work.div_ceil(packing.len() as u64) + *delta as u64)
            .map(|(delta, packing)| (*delta, packing.as_slice()))
    }
}

/// Candidate: nearest-neighbour path through all terminals over
/// available links.
fn candidate_path(g: &Topology, k: &[Player], avail: &BTreeSet<LinkId>) -> Option<Vec<LinkId>> {
    let mut remaining: BTreeSet<Player> = k.iter().copied().collect();
    let mut cur = k[0];
    remaining.remove(&cur);
    let mut used_links: Vec<LinkId> = Vec::new();
    let mut used_set: BTreeSet<LinkId> = BTreeSet::new();
    let mut visited_nodes: BTreeSet<Player> = BTreeSet::from([cur]);
    while !remaining.is_empty() {
        // BFS over available, unused links, avoiding revisiting nodes
        // (keeps the result a simple path/tree).
        let (target, path) = bfs_to_nearest(g, cur, &remaining, avail, &used_set, &visited_nodes)?;
        for &l in &path {
            used_links.push(l);
            used_set.insert(l);
            let (a, b) = g.link(l);
            visited_nodes.insert(a);
            visited_nodes.insert(b);
        }
        remaining.remove(&target);
        cur = target;
    }
    Some(used_links)
}

/// BFS from `from` to the nearest player in `targets` using available
/// links not yet used by this candidate; interior nodes must be fresh.
fn bfs_to_nearest(
    g: &Topology,
    from: Player,
    targets: &BTreeSet<Player>,
    avail: &BTreeSet<LinkId>,
    used: &BTreeSet<LinkId>,
    visited_nodes: &BTreeSet<Player>,
) -> Option<(Player, Vec<LinkId>)> {
    let mut parent: HashMap<Player, (Player, LinkId)> = HashMap::new();
    let mut seen: BTreeSet<Player> = BTreeSet::from([from]);
    let mut q = VecDeque::from([from]);
    while let Some(u) = q.pop_front() {
        for &(v, l) in g.neighbors(u) {
            if !avail.contains(&l) || used.contains(&l) || seen.contains(&v) {
                continue;
            }
            // Interior nodes must not revisit the partial path (except
            // the target itself which ends the hop).
            if visited_nodes.contains(&v) && !targets.contains(&v) {
                continue;
            }
            parent.insert(v, (u, l));
            if targets.contains(&v) {
                // Reconstruct.
                let mut links = Vec::new();
                let mut cur = v;
                while cur != from {
                    let (p, l) = parent[&cur];
                    links.push(l);
                    cur = p;
                }
                links.reverse();
                return Some((v, links));
            }
            seen.insert(v);
            q.push_back(v);
        }
    }
    None
}

/// Candidate: a hub node directly connected (by available links) to all
/// terminals (other than itself).
fn candidate_hub(g: &Topology, k: &[Player], avail: &BTreeSet<LinkId>) -> Option<Vec<LinkId>> {
    let kset: BTreeSet<Player> = k.iter().copied().collect();
    'hub: for h in g.players() {
        let mut links = Vec::new();
        for &t in &kset {
            if t == h {
                continue;
            }
            let found = g
                .neighbors(h)
                .iter()
                .find(|(v, l)| *v == t && avail.contains(l));
            match found {
                Some((_, l)) => links.push(*l),
                None => continue 'hub,
            }
        }
        if !links.is_empty() {
            return Some(links);
        }
    }
    None
}

/// Candidate: union of BFS shortest paths from a terminal root (tried
/// from every root, shortest result kept).
fn candidate_bfs(g: &Topology, k: &[Player], avail: &BTreeSet<LinkId>) -> Option<Vec<LinkId>> {
    let mut best: Option<Vec<LinkId>> = None;
    for &root in k {
        let mut parent: HashMap<Player, (Player, LinkId)> = HashMap::new();
        let mut seen: BTreeSet<Player> = BTreeSet::from([root]);
        let mut q = VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            for &(v, l) in g.neighbors(u) {
                if avail.contains(&l) && seen.insert(v) {
                    parent.insert(v, (u, l));
                    q.push_back(v);
                }
            }
        }
        if !k.iter().all(|t| seen.contains(t)) {
            continue;
        }
        let mut links: BTreeSet<LinkId> = BTreeSet::new();
        for &t in k {
            let mut cur = t;
            while cur != root {
                let (p, l) = parent[&cur];
                if !links.insert(l) {
                    break; // joined an existing branch
                }
                cur = p;
            }
        }
        let links: Vec<LinkId> = links.into_iter().collect();
        if best.as_ref().map(|b| links.len() < b.len()).unwrap_or(true) {
            best = Some(links);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::min_cut;

    fn players(ids: &[u32]) -> Vec<Player> {
        ids.iter().copied().map(Player).collect()
    }

    #[test]
    fn line_packs_exactly_one() {
        let g = Topology::line(4);
        let k = players(&[0, 1, 2, 3]);
        let p = steiner_packing(&g, &k, 3);
        assert_eq!(p.len(), 1);
        assert!(p[0].is_valid_for(&g, &k));
        assert!(steiner_packing(&g, &k, 2).is_empty(), "diameter too tight");
    }

    #[test]
    fn clique4_packs_two_paths_at_diameter_three() {
        // Example 2.3 / Figure 2: K4 decomposes into two edge-disjoint
        // Hamiltonian paths W1, W2.
        let g = Topology::clique(4);
        let k = players(&[0, 1, 2, 3]);
        let p = steiner_packing(&g, &k, 3);
        assert_eq!(p.len(), 2, "two edge-disjoint Hamiltonian paths");
        for t in &p {
            assert!(t.is_valid_for(&g, &k));
            assert!(t.terminal_diameter(&k) <= 3);
        }
        // Edge-disjointness.
        let all: Vec<LinkId> = p.iter().flat_map(|t| t.links().iter().copied()).collect();
        let set: BTreeSet<LinkId> = all.iter().copied().collect();
        assert_eq!(all.len(), set.len());
    }

    #[test]
    fn clique_diameter_two_packs_one_star() {
        let g = Topology::clique(4);
        let k = players(&[0, 1, 2, 3]);
        let p = steiner_packing(&g, &k, 2);
        assert_eq!(p.len(), 1, "spanning stars pairwise share hub edges");
    }

    #[test]
    fn mpc_packs_p_hub_trees() {
        // Appendix A.1.4: each relay of the p-clique forms a diameter-2
        // Steiner tree with its k source links.
        let (k_count, p_count) = (4, 3);
        let g = Topology::mpc(k_count, p_count);
        let k: Vec<Player> = (0..k_count as u32).map(Player).collect();
        let packing = steiner_packing(&g, &k, 2);
        assert_eq!(packing.len(), p_count);
    }

    #[test]
    fn packing_order_of_min_cut() {
        // Theorem 3.10 shape: unbounded-diameter packing is Ω(MinCut).
        for (g, kids) in [
            (Topology::clique(6), vec![0u32, 1, 2, 3, 4, 5]),
            (Topology::grid(3, 3), vec![0, 8]),
            (Topology::ring(8), vec![0, 4]),
            (Topology::random_connected(12, 0.4, 7), vec![0, 5, 11]),
        ] {
            let k = players(&kids);
            let mc = min_cut(&g, &k);
            let st = steiner_packing(&g, &k, g.num_players() as u32).len();
            assert!(
                4 * st >= mc,
                "{}: ST = {st} too far below MinCut = {mc}",
                g.name()
            );
            assert!(st <= mc, "packing can never exceed the min cut");
        }
    }

    #[test]
    fn packings_use_live_links_only() {
        // The ring's link 0 (players 0–1) is down: every packing routes
        // round it, and the live links still connect all four players.
        let mut g = Topology::ring(4);
        g.set_capacity(LinkId(0), 0);
        let k = players(&[0, 1, 2, 3]);
        let packings = DeltaPackings::new(&g, &k);
        let (_, packing) = packings.best(10).expect("live links connect K");
        assert_eq!(packing.len(), 1);
        assert!(packing[0].is_valid_for(&g, &k));
        assert!(!packing[0].links().contains(&LinkId(0)));
    }

    #[test]
    fn best_delta_trades_off() {
        // Large N on a clique: prefer many trees (larger Δ); tiny N:
        // prefer small Δ.
        let g = Topology::clique(6);
        let k: Vec<Player> = (0..6u32).map(Player).collect();
        let packings = DeltaPackings::new(&g, &k);
        let (_, packing_large) = packings.best(10_000).unwrap();
        assert!(packing_large.len() >= 2);
        let (delta_small, _) = packings.best(1).unwrap();
        assert!(delta_small <= 2);
    }

    /// The greedy packer as it stood before candidates were shared
    /// across Δ, kept verbatim: all three generators and both checks
    /// re-run at every step of every Δ. The oracle the shared generation
    /// must match link for link.
    fn frozen_steiner_packing(g: &Topology, k: &[Player], delta: u32) -> Vec<SteinerTree> {
        assert!(k.len() >= 2, "need at least two terminals");
        let mut avail: BTreeSet<LinkId> = g.links().collect();
        let mut packing = Vec::new();
        loop {
            let candidates = [
                candidate_path(g, k, &avail),
                candidate_hub(g, k, &avail),
                candidate_bfs(g, k, &avail),
            ];
            // Among valid candidates within the diameter bound, prefer the
            // one using the fewest links (leaving more for later trees).
            let best = candidates
                .into_iter()
                .flatten()
                .map(|links| SteinerTree::new(g, links))
                .filter(|t| t.is_valid_for(g, k) && t.terminal_diameter(k) <= delta)
                .min_by_key(|t| t.links().len());
            match best {
                Some(tree) => {
                    for l in tree.links() {
                        avail.remove(l);
                    }
                    packing.push(tree);
                }
                None => break,
            }
        }
        packing
    }

    fn tree_links(p: &[SteinerTree]) -> Vec<Vec<LinkId>> {
        p.iter().map(|t| t.links().to_vec()).collect()
    }

    #[test]
    fn shared_candidates_pack_like_the_frozen_greedy_at_every_delta() {
        let mut fixtures = vec![
            Topology::line(6),
            Topology::ring(7),
            Topology::star(6),
            Topology::grid(3, 3),
            Topology::clique(6),
            Topology::mpc(4, 3),
            Topology::barbell(3, 2),
            Topology::binary_tree(7),
        ];
        fixtures.extend([1, 2, 3].map(|seed| Topology::random_connected(9, 0.35, seed)));
        for g in fixtures {
            let n = g.num_players() as u32;
            let subsets: Vec<Vec<u32>> = vec![
                (0..n).collect(),
                vec![0, n - 1],
                (0..n).step_by(2).collect(),
                vec![1, n / 2, n - 2],
            ];
            for ids in subsets {
                let k = players(&ids);
                let what = format!("{} K = {ids:?}", g.name());
                // `new` keeps every Δ of its sequence whose packing is
                // non-empty; the frozen greedy decides both.
                let packings = DeltaPackings::new(&g, &k);
                let got: Vec<(u32, Vec<Vec<LinkId>>)> = packings
                    .candidates
                    .iter()
                    .map(|(delta, p)| (*delta, tree_links(p)))
                    .collect();
                let sequence =
                    iter::successors(Some(1), |&d| Some(if d < 4 { d + 1 } else { d * 2 }))
                        .take_while(|&delta| delta < n)
                        .chain([n]);
                let want: Vec<(u32, Vec<Vec<LinkId>>)> = sequence
                    .map(|delta| (delta, tree_links(&frozen_steiner_packing(&g, &k, delta))))
                    .filter(|(_, p)| !p.is_empty())
                    .collect();
                assert_eq!(got, want, "{what}");
                assert!(!got.is_empty(), "{what}: a connected K packs a tree");
                // The single-Δ door runs the same loop, at any Δ.
                for delta in 1..=n + 1 {
                    assert_eq!(
                        tree_links(&steiner_packing(&g, &k, delta)),
                        tree_links(&frozen_steiner_packing(&g, &k, delta)),
                        "{what} Δ = {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_disconnected_terminal_set_packs_nothing() {
        let mut g = Topology::empty("split", 4);
        g.add_link(Player(0), Player(1), 1);
        g.add_link(Player(2), Player(3), 1);
        let k = players(&[0, 1, 2, 3]);
        assert!(DeltaPackings::new(&g, &k).best(8).is_none());
        // Each half alone is connected.
        let half = DeltaPackings::new(&g, &players(&[2, 3]));
        assert_eq!(half.best(8).unwrap().1.len(), 1);
    }

    /// The best packing as it was chosen before [`DeltaPackings`]: every candidate
    /// Δ re-packed (by the frozen greedy) per call, the unbounded case
    /// always packed again.
    fn repacking_best_delta(g: &Topology, k: &[Player], work: u64) -> (u32, Vec<SteinerTree>) {
        let mut best: Option<(u64, u32, Vec<SteinerTree>)> = None;
        let max_delta = (g.num_players() as u32).max(1);
        let mut consider = |delta: u32| {
            let packing = frozen_steiner_packing(g, k, delta);
            if !packing.is_empty() {
                let rounds = work.div_ceil(packing.len() as u64) + delta as u64;
                if best.as_ref().map(|(r, _, _)| rounds < *r).unwrap_or(true) {
                    best = Some((rounds, delta, packing));
                }
            }
        };
        let mut delta = 1;
        while delta <= max_delta {
            consider(delta);
            delta = if delta < 4 { delta + 1 } else { delta * 2 };
        }
        consider(max_delta);
        let (_, delta, packing) = best.expect("connected topology always packs one tree");
        (delta, packing)
    }

    #[test]
    fn delta_packings_answer_every_work_like_a_fresh_best_delta() {
        for (g, subsets) in [
            (
                Topology::line(4),
                vec![vec![0, 3], vec![0, 1, 2, 3], vec![1, 2]],
            ),
            (
                Topology::ring(6),
                vec![vec![0, 3], vec![0, 2, 4], vec![0, 1, 2, 3, 4, 5]],
            ),
            (
                Topology::star(5),
                vec![vec![1, 2], vec![0, 4], vec![0, 1, 2, 3, 4]],
            ),
            (
                Topology::grid(3, 3),
                vec![vec![0, 8], vec![0, 2, 6, 8], (0..9).collect()],
            ),
            (
                Topology::clique(6),
                vec![vec![0, 1], vec![0, 2, 4], (0..6).collect()],
            ),
        ] {
            for ids in subsets {
                let k = players(&ids);
                let packings = DeltaPackings::new(&g, &k);
                for work in [1, 8, 64, 1_000_000] {
                    let (want_delta, want) = repacking_best_delta(&g, &k, work);
                    let (delta, packing) = packings.best(work).unwrap();
                    let what = format!("{} K = {ids:?} work = {work}", g.name());
                    assert_eq!(delta, want_delta, "{what}");
                    assert_eq!(tree_links(packing), tree_links(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn tree_path_reconstruction() {
        let g = Topology::line(5);
        let k = players(&[0, 4]);
        let p = steiner_packing(&g, &k, 4);
        let (nodes, links) = p[0].path(Player(0), Player(4)).unwrap();
        assert_eq!(nodes.len(), 5);
        assert_eq!(links.len(), 4);
    }

    #[test]
    fn terminal_diameter_ignores_steiner_points() {
        // Star topology: terminals are leaves, hub is a Steiner point.
        let g = Topology::star(5);
        let k = players(&[1, 2, 3, 4]);
        let p = steiner_packing(&g, &k, 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].terminal_diameter(&k), 2);
    }
}
