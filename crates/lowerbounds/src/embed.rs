//! The reductions `TRIBES ≤ BCQ`: executable versions of Lemma 4.3,
//! Theorem 4.4 (Appendix E.3) and Theorem F.8.

use crate::tribes::Tribes;
use faqs_hypergraph::{
    greedy_independent_set, internal_node_width, short_vertex_disjoint_cycles,
    strong_independent_set, Decomposition, EdgeId, Hypergraph, SimpleGraph, Var,
};
use faqs_network::{min_cut_partition, InputPlacement, Player, Topology};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Boolean;
use std::collections::BTreeSet;

/// A TRIBES→BCQ embedding: the constructed query plus the carrier edges
/// of each disjointness pair (needed by the worst-case assignment of
/// Lemma 4.4).
#[derive(Clone, Debug)]
pub struct Embedding {
    /// The constructed BCQ instance `q_{H,Ŝ,T̂}`.
    pub query: FaqQuery<Boolean>,
    /// Per pair `i`: the edge carrying `R_{S_i}`.
    pub s_edges: Vec<EdgeId>,
    /// Per pair `i`: the edge carrying `R_{T_i}`.
    pub t_edges: Vec<EdgeId>,
}

impl Embedding {
    /// Number of embedded pairs `m`.
    pub fn m(&self) -> usize {
        self.s_edges.len()
    }
}

/// One vertex-site: a degree-≥2 vertex `o` with its two carrier edges.
#[derive(Clone, Copy, Debug)]
struct VertexSite {
    o: Var,
    s_edge: EdgeId,
    t_edge: EdgeId,
}

/// **Lemma 4.3.** Embeds a TRIBES instance into a forest query `H`
/// (arity ≤ 2, acyclic, no self-loops): each pair is carried by a
/// degree-≥2 vertex `o` of the larger bipartition side, with
/// `R_{S_o} = S_o × {c}` on the edge to a child and `R_{T_o} = T_o × {c}`
/// on the edge to the parent (`c = 0` is the padding constant).
///
/// Returns `None` when `H` is not a loop-free forest or cannot host
/// `tribes.m()` pairs.
pub fn embed_forest(h: &Hypergraph, tribes: &Tribes) -> Option<Embedding> {
    let g = SimpleGraph::from_hypergraph(h)?;
    if !g.is_forest() || !g.self_loops().is_empty() {
        return None;
    }
    let sites = forest_sites(h, &g);
    build_vertex_site_embedding(h, tribes, &sites)
}

/// The number of pairs [`embed_forest`] can host.
pub fn forest_capacity(h: &Hypergraph) -> usize {
    SimpleGraph::from_hypergraph(h)
        .filter(|g| g.is_forest() && g.self_loops().is_empty())
        .map(|g| forest_sites(h, &g).len())
        .unwrap_or(0)
}

fn forest_sites(h: &Hypergraph, g: &SimpleGraph) -> Vec<VertexSite> {
    let (left, right) = g.bipartition();
    let deg2 =
        |side: &[Var]| -> Vec<Var> { side.iter().copied().filter(|v| g.degree(*v) >= 2).collect() };
    let (l2, r2) = (deg2(&left), deg2(&right));
    let o_side = if l2.len() >= r2.len() { l2 } else { r2 };
    let parent = g.rooted_forest();

    o_side
        .into_iter()
        .filter_map(|o| {
            let neighbors: Vec<(Var, EdgeId)> = g.neighbors(o).to_vec();
            let (op_edge, oc_edge) = match parent[o.index()] {
                Some(p) => {
                    let pe = neighbors.iter().find(|(v, _)| *v == p)?.1;
                    let ce = neighbors.iter().find(|(v, _)| *v != p)?.1;
                    (pe, ce)
                }
                None => {
                    // Root with ≥ 2 children: one child plays the parent.
                    if neighbors.len() < 2 {
                        return None;
                    }
                    (neighbors[1].1, neighbors[0].1)
                }
            };
            let _ = h;
            Some(VertexSite {
                o,
                s_edge: oc_edge,
                t_edge: op_edge,
            })
        })
        .collect()
}

/// **Theorem 4.4 / Appendix E.3.** Embeds TRIBES into a *cyclic* simple
/// graph's core: Case 1 uses vertex-disjoint short cycles (Moore's
/// bound); Case 2 an independent set of the low-degree leftover
/// (Turán). The larger strategy wins, as in the paper's `max`.
pub fn embed_core(h: &Hypergraph, tribes: &Tribes) -> Option<Embedding> {
    let g = SimpleGraph::from_hypergraph(h)?;
    if !g.self_loops().is_empty() {
        return None;
    }
    let decomp = Decomposition::of(h);
    if decomp.core_edges.is_empty() {
        return None; // acyclic: use embed_forest
    }
    // The core as a simple graph (only the surviving GYO edges).
    let core = core_graph(h, &decomp);

    let (cycles, rest) = short_vertex_disjoint_cycles(&core, 10.0);
    let is_sites = independent_sites(&core, &rest);

    if cycles.len() >= is_sites.len() {
        build_cycle_embedding(h, tribes, &decomp, &cycles)
    } else {
        build_core_vertex_embedding(h, tribes, &decomp, &is_sites)
    }
}

/// The number of pairs [`embed_core`] can host.
pub fn core_capacity(h: &Hypergraph) -> usize {
    let Some(g) = SimpleGraph::from_hypergraph(h) else {
        return 0;
    };
    if !g.self_loops().is_empty() {
        return 0;
    }
    let decomp = Decomposition::of(h);
    if decomp.core_edges.is_empty() {
        return 0;
    }
    let core = core_graph(h, &decomp);
    let (cycles, rest) = short_vertex_disjoint_cycles(&core, 10.0);
    cycles.len().max(independent_sites(&core, &rest).len())
}

fn core_graph(h: &Hypergraph, decomp: &Decomposition) -> SimpleGraph {
    let mut core_h = Hypergraph::new(h.num_vars());
    for &e in &decomp.core_edges {
        core_h.add_edge(h.edge(e).iter().copied());
    }
    SimpleGraph::from_hypergraph(&core_h).expect("arity ≤ 2 preserved")
}

/// Independent, degree-≥2 vertices of the leftover graph, with carrier
/// edges taken from the full core.
fn independent_sites(core: &SimpleGraph, rest: &SimpleGraph) -> Vec<VertexSite> {
    greedy_independent_set(rest)
        .into_iter()
        .filter_map(|o| {
            let inc = core.neighbors(o);
            if inc.len() < 2 {
                return None;
            }
            Some(VertexSite {
                o,
                s_edge: inc[0].1,
                t_edge: inc[1].1,
            })
        })
        .collect()
}

/// Shared builder for all vertex-site embeddings (forest, core Case 2):
/// pair `i` at site `o_i` with `R_S = S_i × {0}` and `R_T = T_i × {0}`;
/// padding edges incident to a site range freely on the site coordinate;
/// all other edges pin their endpoints to the constant `0`.
fn build_vertex_site_embedding(
    h: &Hypergraph,
    tribes: &Tribes,
    sites: &[VertexSite],
) -> Option<Embedding> {
    if sites.len() < tribes.m() {
        return None;
    }
    let sites = &sites[..tribes.m()];
    let domain = tribes.n.max(2);

    let site_of_edge = |e: EdgeId| -> Option<(usize, Var)> {
        sites
            .iter()
            .enumerate()
            .find_map(|(i, s)| h.edge(e).contains(&s.o).then_some((i, s.o)))
    };

    let mut factors: Vec<Relation<Boolean>> = Vec::with_capacity(h.num_edges());
    for (e, vars) in h.edges() {
        let rel = if let Some((i, o)) = site_of_edge(e) {
            let site = &sites[i];
            let opos = vars.iter().position(|v| *v == o).expect("site on edge");
            let values: Box<dyn Iterator<Item = u32>> = if e == site.s_edge {
                Box::new(tribes.pairs[i].x.iter().copied())
            } else if e == site.t_edge {
                Box::new(tribes.pairs[i].y.iter().copied())
            } else {
                Box::new(0..tribes.n) // [N] × {0} padding
            };
            Relation::from_pairs(
                vars.to_vec(),
                values.map(|s| {
                    let mut t = vec![0u32; vars.len()];
                    t[opos] = s;
                    (t, Boolean::TRUE)
                }),
            )
        } else {
            // {0}^r constant padding.
            Relation::from_pairs(vars.to_vec(), [(vec![0; vars.len()], Boolean::TRUE)])
        };
        factors.push(rel);
    }

    let query = FaqQuery::new_ss(h.clone(), factors, vec![], domain);
    query.validate().ok()?;
    Some(Embedding {
        query,
        s_edges: sites.iter().map(|s| s.s_edge).collect(),
        t_edges: sites.iter().map(|s| s.t_edge).collect(),
    })
}

/// Case 1 of Theorem 4.4: each pair lives on a vertex-disjoint cycle,
/// its sets re-encoded as pairs over `[⌈√N⌉]`; identity relations close
/// the cycle, complete relations pad everything else.
fn build_cycle_embedding(
    h: &Hypergraph,
    tribes: &Tribes,
    decomp: &Decomposition,
    cycles: &[Vec<Var>],
) -> Option<Embedding> {
    if cycles.len() < tribes.m() {
        return None;
    }
    let cycles = &cycles[..tribes.m()];
    let w = (tribes.n as f64).sqrt().ceil() as u32; // pair alphabet [w]
    let domain = (w * w).max(tribes.n).max(2);
    let encode = |s: u32| (s / w, s % w);

    // Locate, per cycle, the consecutive edges (c1,c2) and (c2,c3) and
    // the closing identity edges.
    #[derive(Clone, Copy, PartialEq)]
    enum Role {
        S(usize),
        T(usize),
        Identity,
    }
    let mut roles: Vec<Option<Role>> = vec![None; h.num_edges()];
    let mut s_edges = Vec::new();
    let mut t_edges = Vec::new();
    let core_set: BTreeSet<EdgeId> = decomp.core_edges.iter().copied().collect();

    let find_edge = |a: Var, b: Var| -> Option<EdgeId> {
        h.edges()
            .find(|(id, e)| core_set.contains(id) && e.contains(&a) && e.contains(&b))
            .map(|(id, _)| id)
    };
    for (i, cycle) in cycles.iter().enumerate() {
        let l = cycle.len();
        for j in 0..l {
            let e = find_edge(cycle[j], cycle[(j + 1) % l])?;
            let role = match j {
                0 => {
                    s_edges.push(e);
                    Role::S(i)
                }
                1 => {
                    t_edges.push(e);
                    Role::T(i)
                }
                _ => Role::Identity,
            };
            roles[e.index()] = Some(role);
        }
    }

    let cycle_vars: BTreeSet<Var> = cycles.iter().flatten().copied().collect();
    let mut factors: Vec<Relation<Boolean>> = Vec::with_capacity(h.num_edges());
    for (e, vars) in h.edges() {
        let rel = match roles[e.index()] {
            Some(Role::S(i)) => {
                // (c1, c2) → pairs of S_i, oriented c1 = high digit.
                let cyc = &cycles[i];
                pair_relation(
                    vars,
                    cyc[0],
                    cyc[1],
                    tribes.pairs[i].x.iter().map(|&s| encode(s)),
                )
            }
            Some(Role::T(i)) => {
                // (c2, c3) carries T_i reversed: c3 = high digit, c2 = low.
                let cyc = &cycles[i];
                pair_relation(
                    vars,
                    cyc[2 % cyc.len()],
                    cyc[1],
                    tribes.pairs[i].y.iter().map(|&s| encode(s)),
                )
            }
            Some(Role::Identity) => Relation::from_pairs(
                vars.to_vec(),
                (0..w).map(|v| (vec![v; vars.len()], Boolean::TRUE)),
            ),
            None => {
                // Padding: complete over [w] on cycle vars, constant 0 on
                // the rest — cycle-adjacent edges must not constrain the
                // cycle assignment.
                let free: Vec<bool> = vars.iter().map(|v| cycle_vars.contains(v)).collect();
                full_on(vars, &free, w)
            }
        };
        factors.push(rel);
    }

    let query = FaqQuery::new_ss(h.clone(), factors, vec![], domain);
    query.validate().ok()?;
    Some(Embedding {
        query,
        s_edges,
        t_edges,
    })
}

/// Relation on a binary edge carrying encoded pairs: `hi` holds the
/// high digit, `lo` the low digit.
fn pair_relation(
    vars: &[Var],
    hi: Var,
    lo: Var,
    pairs: impl Iterator<Item = (u32, u32)>,
) -> Relation<Boolean> {
    let hpos = vars.iter().position(|v| *v == hi).expect("hi on edge");
    let lpos = vars.iter().position(|v| *v == lo).expect("lo on edge");
    Relation::from_pairs(
        vars.to_vec(),
        pairs.map(|(a, b)| {
            let mut t = vec![0u32; vars.len()];
            t[hpos] = a;
            t[lpos] = b;
            (t, Boolean::TRUE)
        }),
    )
}

/// All combinations over `[w]` on the `free` coordinates, `0` on the
/// rest.
fn full_on(vars: &[Var], free: &[bool], w: u32) -> Relation<Boolean> {
    let free_idx: Vec<usize> = free
        .iter()
        .enumerate()
        .filter(|(_, f)| **f)
        .map(|(i, _)| i)
        .collect();
    let count = (w as u64).pow(free_idx.len() as u32);
    Relation::from_pairs(
        vars.to_vec(),
        (0..count).map(move |enc| {
            let mut t = vec![0u32; vars.len()];
            let mut rem = enc;
            for &i in &free_idx {
                t[i] = (rem % w as u64) as u32;
                rem /= w as u64;
            }
            (t, Boolean::TRUE)
        }),
    )
}

/// Case 2 of Theorem 4.4 — vertex sites on the cyclic core. The
/// non-core (forest) edges also receive padding so the whole query is
/// instantiated.
fn build_core_vertex_embedding(
    h: &Hypergraph,
    tribes: &Tribes,
    _decomp: &Decomposition,
    sites: &[VertexSite],
) -> Option<Embedding> {
    build_vertex_site_embedding(h, tribes, sites)
}

/// **Theorem F.8.** Embeds TRIBES into an *acyclic hypergraph* of arity
/// `r ≥ 2` via the private variables of the MD-GHD's internal nodes: a
/// strongly independent subset of the private variables carries the
/// pairs (`R_S` on the internal node's edge, `R_T` on the witness
/// child's edge), everything else is padded.
pub fn embed_hypergraph(h: &Hypergraph, tribes: &Tribes) -> Option<Embedding> {
    let report = internal_node_width(h);
    let ghd = &report.ghd;
    // (internal node, witness child, private var) triples, thinned to a
    // strongly independent variable set.
    let pairs = ghd.private_pairs();
    let mut chosen: Vec<(Var, EdgeId, EdgeId)> = Vec::new();
    let mut used_vars: BTreeSet<Var> = BTreeSet::new();
    for (u, c, p) in pairs {
        let (Some(&ue), Some(&ce)) = (ghd.node(u).lambda.first(), ghd.node(c).lambda.first())
        else {
            continue; // synthetic root: no carrier relation
        };
        // Strong independence: p must share no hyperedge with any chosen
        // variable.
        let clash = h
            .edges()
            .any(|(_, e)| e.contains(&p) && used_vars.iter().any(|q| e.contains(q)));
        if clash {
            continue;
        }
        used_vars.insert(p);
        chosen.push((p, ue, ce));
    }
    if chosen.len() < tribes.m() {
        return None;
    }
    let chosen = &chosen[..tribes.m()];
    let domain = tribes.n.max(2);

    let mut factors: Vec<Relation<Boolean>> = Vec::with_capacity(h.num_edges());
    for (e, vars) in h.edges() {
        let site = chosen
            .iter()
            .enumerate()
            .find(|(_, (p, _, _))| vars.contains(p));
        let rel = match site {
            Some((i, &(p, se, te))) => {
                let ppos = vars.iter().position(|v| *v == p).expect("p on edge");
                let values: Box<dyn Iterator<Item = u32>> = if e == se {
                    Box::new(tribes.pairs[i].x.iter().copied())
                } else if e == te {
                    Box::new(tribes.pairs[i].y.iter().copied())
                } else {
                    Box::new(0..tribes.n)
                };
                Relation::from_pairs(
                    vars.to_vec(),
                    values.map(|s| {
                        let mut t = vec![0u32; vars.len()];
                        t[ppos] = s;
                        (t, Boolean::TRUE)
                    }),
                )
            }
            None => Relation::from_pairs(vars.to_vec(), [(vec![0; vars.len()], Boolean::TRUE)]),
        };
        factors.push(rel);
    }
    let query = FaqQuery::new_ss(h.clone(), factors, vec![], domain);
    query.validate().ok()?;
    Some(Embedding {
        query,
        s_edges: chosen.iter().map(|c| c.1).collect(),
        t_edges: chosen.iter().map(|c| c.2).collect(),
    })
}

/// The number of pairs [`embed_hypergraph`] can host; related to the
/// `y(T)/r` guarantee of Theorem F.8 via [`strong_independent_set`].
pub fn hypergraph_capacity(h: &Hypergraph) -> usize {
    let _ = strong_independent_set(h); // exercised by the F.5 guarantee tests
    let report = internal_node_width(h);
    let ghd = &report.ghd;
    let mut used_vars: BTreeSet<Var> = BTreeSet::new();
    let mut count = 0;
    for (u, c, p) in ghd.private_pairs() {
        if ghd.node(u).lambda.is_empty() || ghd.node(c).lambda.is_empty() {
            continue;
        }
        let clash = h
            .edges()
            .any(|(_, e)| e.contains(&p) && used_vars.iter().any(|q| e.contains(q)));
        if !clash {
            used_vars.insert(p);
            count += 1;
        }
    }
    count
}

/// **Lemma 4.4.** The worst-case assignment, each relation held whole:
/// every `R_{S_i}` goes to a
/// player on the `A` side of a witnessing min cut of `(G, K)`, every
/// `R_{T_i}` to the `B` side, padding relations round-robin. The output
/// player is the first terminal.
///
/// # Panics
///
/// When `k` is not two or more players of `g`, or no cut of `g`
/// separates it.
pub fn hard_assignment(embedding: &Embedding, g: &Topology, k: &[Player]) -> InputPlacement {
    let Some((_, side)) = min_cut_partition(g, k) else {
        panic!("K must be two or more players of g");
    };
    let a_players: Vec<Player> = k.iter().copied().filter(|p| side[p.index()]).collect();
    let b_players: Vec<Player> = k.iter().copied().filter(|p| !side[p.index()]).collect();
    assert!(
        !a_players.is_empty() && !b_players.is_empty(),
        "a min cut separating K has terminals on both sides"
    );

    let s_set: BTreeSet<EdgeId> = embedding.s_edges.iter().copied().collect();
    let t_set: BTreeSet<EdgeId> = embedding.t_edges.iter().copied().collect();
    let mut holder = Vec::with_capacity(embedding.query.k());
    let mut rr = 0usize;
    for (e, _) in embedding.query.hypergraph.edges() {
        let p = if s_set.contains(&e) {
            a_players[e.index() % a_players.len()]
        } else if t_set.contains(&e) {
            b_players[e.index() % b_players.len()]
        } else {
            rr += 1;
            k[rr % k.len()]
        };
        holder.push(p);
    }
    InputPlacement::whole(holder, k[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::solve_bcq;
    use faqs_hypergraph::{
        clique_query, cycle_query, example_h1, example_h2, grid_query, path_query, star_query,
        tree_query,
    };

    fn check_equivalence(embed: impl Fn(&Tribes) -> Option<Embedding>, m: usize, seed: u64) {
        for planted in [true, false] {
            let tribes = Tribes::random(m, 12, 0.25, planted, seed);
            let e = embed(&tribes).expect("embedding exists");
            assert_eq!(
                solve_bcq(&e.query),
                tribes.eval(),
                "BCQ ⇔ TRIBES (m = {m}, planted = {planted}, seed = {seed})"
            );
        }
    }

    #[test]
    fn forest_embedding_star() {
        // H1: center A has degree 4; O = {A} hosts one pair.
        let h = example_h1();
        assert_eq!(forest_capacity(&h), 1);
        for seed in 0..5 {
            check_equivalence(|t| embed_forest(&h, t), 1, seed);
        }
    }

    #[test]
    fn forest_embedding_path() {
        // Path with 6 edges: interior vertices 1..5, one parity side has
        // ≥ 2 of them.
        let h = path_query(6);
        let cap = forest_capacity(&h);
        assert!(cap >= 2, "capacity = {cap}");
        for seed in 0..5 {
            check_equivalence(|t| embed_forest(&h, t), cap, seed);
        }
    }

    #[test]
    fn forest_embedding_tree() {
        let h = tree_query(2, 3);
        let cap = forest_capacity(&h);
        assert!(cap >= 2);
        check_equivalence(|t| embed_forest(&h, t), cap, 3);
    }

    #[test]
    fn forest_embedding_rejects_cyclic() {
        let h = cycle_query(4);
        let t = Tribes::random(1, 8, 0.3, true, 1);
        assert!(embed_forest(&h, &t).is_none());
    }

    #[test]
    fn core_embedding_triangle() {
        let h = cycle_query(3);
        assert!(core_capacity(&h) >= 1);
        for seed in 0..5 {
            check_equivalence(|t| embed_core(&h, t), 1, seed);
        }
    }

    #[test]
    fn core_embedding_larger_cycles() {
        for len in [4usize, 5, 6] {
            let h = cycle_query(len);
            check_equivalence(|t| embed_core(&h, t), 1, len as u64);
        }
    }

    #[test]
    fn core_embedding_clique() {
        let h = clique_query(5);
        let cap = core_capacity(&h);
        assert!(cap >= 1, "K5 must host at least one pair");
        check_equivalence(|t| embed_core(&h, t), 1, 7);
    }

    #[test]
    fn core_embedding_grid() {
        // Grids are cyclic with low average degree: Case 2 (independent
        // set) fires.
        let h = grid_query(3, 3);
        let cap = core_capacity(&h);
        assert!(cap >= 2, "3×3 grid capacity = {cap}");
        check_equivalence(|t| embed_core(&h, t), 2, 9);
    }

    #[test]
    fn hypergraph_embedding_h2() {
        let h = example_h2();
        let cap = hypergraph_capacity(&h);
        assert!(cap >= 1, "H2 capacity = {cap}");
        for seed in 0..5 {
            check_equivalence(|t| embed_hypergraph(&h, t), 1, seed);
        }
    }

    #[test]
    fn hypergraph_embedding_star() {
        let h = star_query(4);
        let cap = hypergraph_capacity(&h);
        assert!(cap >= 1);
        check_equivalence(|t| embed_hypergraph(&h, t), cap.min(2), 11);
    }

    #[test]
    fn hard_assignment_splits_sides() {
        let h = example_h1();
        let tribes = Tribes::random(1, 12, 0.3, true, 13);
        let e = embed_forest(&h, &tribes).unwrap();
        let g = Topology::line(4);
        let k: Vec<Player> = (0..4u32).map(Player).collect();
        let a = hard_assignment(&e, &g, &k);
        let (_, side) = min_cut_partition(&g, &k).unwrap();
        for (i, &se) in e.s_edges.iter().enumerate() {
            assert!(side[a.shard_holders(se)[0].index()], "S relation on side A");
            assert!(
                !side[a.shard_holders(e.t_edges[i])[0].index()],
                "T relation on side B"
            );
        }
    }

    #[test]
    fn single_intersection_instances_embed() {
        // The paper's hard distribution (Remark G.5): at most one common
        // element per pair.
        let h = path_query(6);
        let cap = forest_capacity(&h);
        let flags: Vec<bool> = (0..cap).map(|i| i % 2 == 0).collect();
        let tribes = Tribes::single_intersection(16, &flags, 17);
        let e = embed_forest(&h, &tribes).unwrap();
        assert_eq!(solve_bcq(&e.query), tribes.eval());
    }
}
