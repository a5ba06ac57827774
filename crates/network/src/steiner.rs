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
use std::collections::{HashMap, VecDeque};
use std::iter;

/// An edge-disjoint Steiner tree of a packing.
#[derive(Clone, Debug)]
pub struct SteinerTree {
    links: Vec<LinkId>,
    /// Tree neighbours by player index, each in the order its links
    /// were added; empty off the tree.
    adj: Vec<Vec<(Player, LinkId)>>,
}

impl SteinerTree {
    fn new(g: &Topology, links: Vec<LinkId>) -> Self {
        let mut adj = vec![Vec::new(); g.num_players()];
        for &l in &links {
            let (a, b) = g.link(l);
            adj[a.index()].push((b, l));
            adj[b.index()].push((a, l));
        }
        SteinerTree { links, adj }
    }

    /// Links of the tree.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Whether `p` belongs to the tree.
    pub fn contains(&self, p: Player) -> bool {
        !self.neighbors(p).is_empty()
    }

    /// Tree neighbours of `p`, in the order the tree's links list them.
    pub fn neighbors(&self, p: Player) -> &[(Player, LinkId)] {
        self.adj.get(p.index()).map_or(&[], Vec::as_slice)
    }

    /// Tree distances from `s` by player index (`u32::MAX` off the tree).
    fn distances(&self, s: Player) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.adj.len()];
        dist[s.index()] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for &(v, _) in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// The paper's tree diameter: max distance between two *terminals*.
    fn terminal_diameter(&self, k: &[Player]) -> u32 {
        let mut best = 0;
        for &a in k {
            let d = self.distances(a);
            for &b in k {
                best = best.max(d[b.index()]);
            }
        }
        best
    }

    /// Whether the tree spans all terminals and is connected and acyclic.
    fn is_valid_for(&self, k: &[Player]) -> bool {
        let Some(&start) = k.first() else {
            return false;
        };
        if self.links.is_empty() || !self.contains(start) {
            return false;
        }
        let dist = self.distances(start);
        if k.iter().any(|t| dist[t.index()] == u32::MAX) {
            return false;
        }
        // Connected with |nodes| = |links| + 1 ⇔ tree.
        let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
        let nodes = self.adj.iter().filter(|n| !n.is_empty()).count();
        reached == self.links.len() + 1 && reached == nodes
    }

    /// The path between two tree nodes, as `(hop player sequence, links)`.
    pub fn path(&self, from: Player, to: Player) -> Option<(Vec<Player>, Vec<LinkId>)> {
        if from == to {
            return Some((vec![from], Vec::new()));
        }
        if !self.contains(from) || !self.contains(to) {
            return None;
        }
        let mut parent: Vec<Option<(Player, LinkId)>> = vec![None; self.adj.len()];
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            if u == to {
                break;
            }
            for &(v, l) in self.neighbors(u) {
                if v != from && parent[v.index()].is_none() {
                    parent[v.index()] = Some((u, l));
                    q.push_back(v);
                }
            }
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, l) = parent[cur.index()]?;
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
/// candidate Δ. Fewer than two terminals, or a terminal `g` lacks, pack
/// nothing.
pub fn steiner_packing(g: &Topology, k: &[Player], delta: u32) -> Vec<SteinerTree> {
    Candidates::new(g, k).pack(delta)
}

/// The valid candidate trees of one `(G, K)` per available-link set
/// (`avail[l]` for link `l`), each with its terminal diameter. Neither
/// depends on Δ, so every Δ packed through one `Candidates` generates
/// and checks a link set's candidates once; the memo lives as long as
/// that one packing call.
struct Candidates<'g> {
    g: &'g Topology,
    k: &'g [Player],
    by_avail: HashMap<Vec<bool>, Vec<(u32, SteinerTree)>>,
}

impl<'g> Candidates<'g> {
    fn new(g: &'g Topology, k: &'g [Player]) -> Self {
        Candidates {
            g,
            k,
            by_avail: HashMap::new(),
        }
    }

    /// The greedy packing at diameter bound `delta`.
    fn pack(&mut self, delta: u32) -> Vec<SteinerTree> {
        let g = self.g;
        // Nothing to connect, or no tree reaches a terminal `g` lacks.
        if self.k.len() < 2 || self.k.iter().any(|p| p.index() >= g.num_players()) {
            return Vec::new();
        }
        let mut avail: Vec<bool> = g.links().map(|l| g.capacity(l) > 0).collect();
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
                avail[l.index()] = false;
            }
            packing.push(tree.clone());
        }
        packing
    }

    /// The valid candidates on `avail` with their terminal diameters, in
    /// generator order.
    fn on(&mut self, avail: &[bool]) -> &[(u32, SteinerTree)] {
        let (g, k) = (self.g, self.k);
        if !self.by_avail.contains_key(avail) {
            let valid = [
                candidate_path(g, k, avail),
                candidate_hub(g, k, avail),
                candidate_bfs(g, k, avail),
            ]
            .into_iter()
            .flatten()
            .map(|links| SteinerTree::new(g, links))
            .filter(|t| t.is_valid_for(k))
            .map(|t| (t.terminal_diameter(k), t))
            .collect();
            self.by_avail.insert(avail.to_vec(), valid);
        }
        &self.by_avail[avail]
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
    /// Packs every candidate Δ for terminals `k` on `g`. Fewer than two
    /// terminals, or a terminal `g` lacks, pack nothing at any Δ.
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
fn candidate_path(g: &Topology, k: &[Player], avail: &[bool]) -> Option<Vec<LinkId>> {
    let mut remaining = vec![false; g.num_players()];
    k.iter().for_each(|t| remaining[t.index()] = true);
    let mut cur = k[0];
    remaining[cur.index()] = false;
    let mut left = remaining.iter().filter(|&&r| r).count();
    let mut used_links: Vec<LinkId> = Vec::new();
    let mut used = vec![false; g.num_links()];
    let mut visited = vec![false; g.num_players()];
    visited[cur.index()] = true;
    while left > 0 {
        // BFS over available, unused links, avoiding revisiting nodes
        // (keeps the result a simple path/tree).
        let (target, path) = bfs_to_nearest(g, cur, &remaining, avail, &used, &visited)?;
        for &l in &path {
            used_links.push(l);
            used[l.index()] = true;
            let (a, b) = g.link(l);
            visited[a.index()] = true;
            visited[b.index()] = true;
        }
        remaining[target.index()] = false;
        left -= 1;
        cur = target;
    }
    Some(used_links)
}

/// BFS from `from` to the nearest player in `targets` using available
/// links not yet used by this candidate; interior nodes must be fresh.
/// The flags are indexed by player (`targets`, `visited`) or link.
fn bfs_to_nearest(
    g: &Topology,
    from: Player,
    targets: &[bool],
    avail: &[bool],
    used: &[bool],
    visited: &[bool],
) -> Option<(Player, Vec<LinkId>)> {
    let mut parent: Vec<Option<(Player, LinkId)>> = vec![None; g.num_players()];
    let mut seen = vec![false; g.num_players()];
    seen[from.index()] = true;
    let mut q = VecDeque::from([from]);
    while let Some(u) = q.pop_front() {
        for &(v, l) in g.neighbors(u) {
            if !avail[l.index()] || used[l.index()] || seen[v.index()] {
                continue;
            }
            // Interior nodes must not revisit the partial path (except
            // the target itself which ends the hop).
            let target = targets[v.index()];
            if visited[v.index()] && !target {
                continue;
            }
            parent[v.index()] = Some((u, l));
            if target {
                // Only `from` has no parent.
                let mut links = Vec::new();
                let mut cur = v;
                while let Some((p, l)) = parent[cur.index()] {
                    links.push(l);
                    cur = p;
                }
                links.reverse();
                return Some((v, links));
            }
            seen[v.index()] = true;
            q.push_back(v);
        }
    }
    None
}

/// Candidate: a hub node directly connected (by available links) to all
/// terminals (other than itself).
fn candidate_hub(g: &Topology, k: &[Player], avail: &[bool]) -> Option<Vec<LinkId>> {
    let mut terminals = k.to_vec();
    terminals.sort_unstable();
    terminals.dedup();
    'hub: for h in g.players() {
        let mut links = Vec::new();
        for &t in &terminals {
            if t == h {
                continue;
            }
            let found = g
                .neighbors(h)
                .iter()
                .find(|(v, l)| *v == t && avail[l.index()]);
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
/// from every root, shortest result kept), its links ascending.
fn candidate_bfs(g: &Topology, k: &[Player], avail: &[bool]) -> Option<Vec<LinkId>> {
    let mut best: Option<Vec<LinkId>> = None;
    for &root in k {
        let mut parent: Vec<Option<(Player, LinkId)>> = vec![None; g.num_players()];
        let mut seen = vec![false; g.num_players()];
        seen[root.index()] = true;
        let mut q = VecDeque::from([root]);
        while let Some(u) = q.pop_front() {
            for &(v, l) in g.neighbors(u) {
                if avail[l.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    parent[v.index()] = Some((u, l));
                    q.push_back(v);
                }
            }
        }
        if !k.iter().all(|t| seen[t.index()]) {
            continue;
        }
        let mut in_tree = vec![false; g.num_links()];
        for &t in k {
            let mut cur = t;
            while let Some((p, l)) = parent[cur.index()] {
                if in_tree[l.index()] {
                    break; // joined an existing branch
                }
                in_tree[l.index()] = true;
                cur = p;
            }
        }
        let links: Vec<LinkId> = g.links().filter(|l| in_tree[l.index()]).collect();
        if best.as_ref().is_none_or(|b| links.len() < b.len()) {
            best = Some(links);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::min_cut;
    use std::collections::BTreeSet;

    fn players(ids: &[u32]) -> Vec<Player> {
        ids.iter().copied().map(Player).collect()
    }

    #[test]
    fn line_packs_exactly_one() {
        let g = Topology::line(4);
        let k = players(&[0, 1, 2, 3]);
        let p = steiner_packing(&g, &k, 3);
        assert_eq!(p.len(), 1);
        assert!(p[0].is_valid_for(&k));
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
            assert!(t.is_valid_for(&k));
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
            let mc = min_cut(&g, &k).unwrap();
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
        assert!(packing[0].is_valid_for(&k));
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
    /// across Δ: all three generators and both checks re-run at every
    /// step of every Δ. The oracle the shared generation must match link
    /// for link.
    fn frozen_steiner_packing(g: &Topology, k: &[Player], delta: u32) -> Vec<SteinerTree> {
        assert!(k.len() >= 2, "need at least two terminals");
        let mut avail = vec![true; g.num_links()];
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
                .filter(|t| t.is_valid_for(k) && t.terminal_diameter(k) <= delta)
                .min_by_key(|t| t.links().len());
            match best {
                Some(tree) => {
                    for l in tree.links() {
                        avail[l.index()] = false;
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

    /// Every Δ's packing, tree by tree and link by link, and
    /// `.best(work)` as `(Δ, trees)` at four work values, read off the
    /// packer before its sets and maps became dense arrays; the third
    /// terminal set of each topology runs with one link down.
    #[test]
    fn packings_are_pinned_link_for_link() {
        let cases: [(Topology, Vec<u32>, Option<u32>); 21] = [
            (Topology::line(6), vec![0, 5], None),
            (Topology::line(6), vec![1, 2, 4], None),
            (Topology::line(6), vec![0, 3], Some(4)),
            (Topology::ring(7), vec![0, 3], None),
            (Topology::ring(7), (0..7).collect(), None),
            (Topology::ring(7), vec![0, 2, 4, 6], Some(0)),
            (Topology::star(6), vec![1, 2, 3], None),
            (Topology::star(6), vec![0, 5], None),
            (Topology::star(6), vec![1, 2, 3, 4], Some(4)),
            (Topology::grid(3, 3), vec![0, 8], None),
            (Topology::grid(3, 3), vec![0, 2, 6, 8], None),
            (Topology::grid(3, 3), (0..9).collect(), Some(0)),
            (Topology::barbell(3, 2), vec![0, 6], None),
            (Topology::barbell(3, 2), (0..7).collect(), None),
            (Topology::barbell(3, 2), vec![0, 1, 5, 6], Some(0)),
            (Topology::clique(6), vec![0, 1], None),
            (Topology::clique(6), (0..6).collect(), None),
            (Topology::clique(6), (0..6).collect(), Some(0)),
            (Topology::mpc(4, 3), vec![0, 1, 2, 3], None),
            (Topology::mpc(4, 3), vec![0, 1], None),
            (Topology::mpc(4, 3), vec![0, 1, 2, 3], Some(3)),
        ];
        let got: Vec<String> = cases
            .into_iter()
            .map(|(mut g, ids, down)| {
                if let Some(l) = down {
                    g.set_capacity(LinkId(l), 0);
                }
                let packings = DeltaPackings::new(&g, &players(&ids));
                let deltas: Vec<String> = packings
                    .candidates
                    .iter()
                    .map(|(delta, p)| {
                        let trees: Vec<Vec<u32>> = p
                            .iter()
                            .map(|t| t.links().iter().map(|l| l.0).collect())
                            .collect();
                        format!("Δ{delta} {trees:?}")
                    })
                    .collect();
                let best = [1, 8, 64, 1_000_000]
                    .map(|work| packings.best(work).map(|(delta, p)| (delta, p.len())));
                let deltas = deltas.join("; ");
                format!(
                    "{} K={ids:?} down={down:?}: {deltas} | best {best:?}",
                    g.name()
                )
            })
            .collect();
        let pinned = [
            "line6 K=[0, 5] down=None: Δ6 [[0, 1, 2, 3, 4]] | best [Some((6, 1)), Some((6, 1)), Some((6, 1)), Some((6, 1))]",
            "line6 K=[1, 2, 4] down=None: Δ3 [[1, 2, 3]]; Δ4 [[1, 2, 3]]; Δ6 [[1, 2, 3]] | best [Some((3, 1)), Some((3, 1)), Some((3, 1)), Some((3, 1))]",
            "line6 K=[0, 3] down=Some(4): Δ3 [[0, 1, 2]]; Δ4 [[0, 1, 2]]; Δ6 [[0, 1, 2]] | best [Some((3, 1)), Some((3, 1)), Some((3, 1)), Some((3, 1))]",
            "ring7 K=[0, 3] down=None: Δ3 [[0, 1, 2]]; Δ4 [[0, 1, 2], [6, 5, 4, 3]]; Δ7 [[0, 1, 2], [6, 5, 4, 3]] | best [Some((3, 1)), Some((4, 2)), Some((4, 2)), Some((4, 2))]",
            "ring7 K=[0, 1, 2, 3, 4, 5, 6] down=None: Δ7 [[0, 1, 2, 3, 4, 5]] | best [Some((7, 1)), Some((7, 1)), Some((7, 1)), Some((7, 1))]",
            "ring7 K=[0, 2, 4, 6] down=Some(0): Δ7 [[6, 5, 4, 3, 2]] | best [Some((7, 1)), Some((7, 1)), Some((7, 1)), Some((7, 1))]",
            "star6 K=[1, 2, 3] down=None: Δ2 [[0, 1, 2]]; Δ3 [[0, 1, 2]]; Δ4 [[0, 1, 2]]; Δ6 [[0, 1, 2]] | best [Some((2, 1)), Some((2, 1)), Some((2, 1)), Some((2, 1))]",
            "star6 K=[0, 5] down=None: Δ1 [[4]]; Δ2 [[4]]; Δ3 [[4]]; Δ4 [[4]]; Δ6 [[4]] | best [Some((1, 1)), Some((1, 1)), Some((1, 1)), Some((1, 1))]",
            "star6 K=[1, 2, 3, 4] down=Some(4): Δ2 [[0, 1, 2, 3]]; Δ3 [[0, 1, 2, 3]]; Δ4 [[0, 1, 2, 3]]; Δ6 [[0, 1, 2, 3]] | best [Some((2, 1)), Some((2, 1)), Some((2, 1)), Some((2, 1))]",
            "grid3x3 K=[0, 8] down=None: Δ4 [[0, 2, 4, 9], [1, 5, 8, 11]]; Δ8 [[0, 2, 4, 9], [1, 5, 8, 11]]; Δ9 [[0, 2, 4, 9], [1, 5, 8, 11]] | best [Some((4, 2)), Some((4, 2)), Some((4, 2)), Some((4, 2))]",
            "grid3x3 K=[0, 2, 6, 8] down=None: Δ8 [[0, 2, 4, 9, 11, 10]]; Δ9 [[0, 2, 4, 9, 11, 10]] | best [Some((8, 1)), Some((8, 1)), Some((8, 1)), Some((8, 1))]",
            "grid3x3 K=[0, 1, 2, 3, 4, 5, 6, 7, 8] down=Some(0): Δ4 [[1, 2, 3, 5, 6, 7, 8, 9]]; Δ8 [[1, 5, 3, 2, 4, 9, 11, 10]]; Δ9 [[1, 5, 3, 2, 4, 9, 11, 10]] | best [Some((4, 1)), Some((4, 1)), Some((4, 1)), Some((4, 1))]",
            "barbell3x2 K=[0, 6] down=None: Δ2 [[1, 6]]; Δ3 [[1, 6]]; Δ4 [[1, 6]]; Δ7 [[1, 6]] | best [Some((2, 1)), Some((2, 1)), Some((2, 1)), Some((2, 1))]",
            "barbell3x2 K=[0, 1, 2, 3, 4, 5, 6] down=None: Δ7 [[0, 2, 6, 7, 3, 5]] | best [Some((7, 1)), Some((7, 1)), Some((7, 1)), Some((7, 1))]",
            "barbell3x2 K=[0, 1, 5, 6] down=Some(0): Δ4 [[1, 2, 4, 6, 7]]; Δ7 [[1, 2, 4, 6, 7]] | best [Some((4, 1)), Some((4, 1)), Some((4, 1)), Some((4, 1))]",
            "clique6 K=[0, 1] down=None: Δ1 [[0]]; Δ2 [[0], [1, 5], [2, 6], [3, 7], [4, 8]]; Δ3 [[0], [1, 5], [2, 6], [3, 7], [4, 8]]; Δ4 [[0], [1, 5], [2, 6], [3, 7], [4, 8]]; Δ6 [[0], [1, 5], [2, 6], [3, 7], [4, 8]] | best [Some((1, 1)), Some((2, 5)), Some((2, 5)), Some((2, 5))]",
            "clique6 K=[0, 1, 2, 3, 4, 5] down=None: Δ2 [[0, 1, 2, 3, 4]]; Δ3 [[0, 1, 2, 3, 4]]; Δ4 [[0, 1, 2, 3, 4]]; Δ6 [[0, 5, 9, 12, 14], [1, 10, 7, 6, 13], [2, 3, 4, 8, 11]] | best [Some((2, 1)), Some((6, 3)), Some((6, 3)), Some((6, 3))]",
            "clique6 K=[0, 1, 2, 3, 4, 5] down=Some(0): Δ2 [[1, 5, 9, 10, 11]]; Δ3 [[1, 5, 9, 10, 11]]; Δ4 [[1, 5, 9, 10, 11]]; Δ6 [[1, 5, 6, 12, 14], [2, 9, 10, 7, 8]] | best [Some((2, 1)), Some((2, 1)), Some((6, 2)), Some((6, 2))]",
            "mpc4+3 K=[0, 1, 2, 3] down=None: Δ2 [[3, 6, 9, 12], [4, 7, 10, 13], [5, 8, 11, 14]]; Δ3 [[3, 6, 9, 12], [4, 7, 10, 13], [5, 8, 11, 14]]; Δ4 [[3, 6, 9, 12], [4, 7, 10, 13], [5, 8, 11, 14]]; Δ7 [[3, 6, 9, 12], [4, 7, 10, 13], [5, 8, 11, 14]] | best [Some((2, 3)), Some((2, 3)), Some((2, 3)), Some((2, 3))]",
            "mpc4+3 K=[0, 1] down=None: Δ2 [[3, 6], [4, 7], [5, 8]]; Δ3 [[3, 6], [4, 7], [5, 8]]; Δ4 [[3, 6], [4, 7], [5, 8]]; Δ7 [[3, 6], [4, 7], [5, 8]] | best [Some((2, 3)), Some((2, 3)), Some((2, 3)), Some((2, 3))]",
            "mpc4+3 K=[0, 1, 2, 3] down=Some(3): Δ2 [[4, 7, 10, 13], [5, 8, 11, 14]]; Δ3 [[4, 7, 10, 13], [5, 8, 11, 14]]; Δ4 [[4, 7, 10, 13], [5, 8, 11, 14]]; Δ7 [[4, 7, 10, 13], [5, 8, 11, 14]] | best [Some((2, 2)), Some((2, 2)), Some((2, 2)), Some((2, 2))]",
        ];
        for (got, pinned) in got.iter().zip(pinned) {
            assert_eq!(got, pinned);
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
