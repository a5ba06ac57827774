//! One upward pass, one answer — to the bit. Floating-point `⊗` is not
//! associative, so two evaluators that fold the same child messages in
//! different orders disagree in the last place. Every evaluator is a
//! site of `faqs_core::Pass`, which folds in `QueryPlan::children`
//! order; this pins that they all return the identical `f64`. So do the
//! binding orders of one generic-join bag: they hand the push-down
//! different column orders, and it folds every group in the same order
//! regardless.

use faqs_core::{
    solve_faq, solve_faq_brute_force, solve_faq_reference, solve_faq_with_plan, QueryPlan,
};
use faqs_exec::{Executor, IncrementalFaq, MaintenanceMode};
use faqs_hypergraph::{path_query, star_query, EdgeId, Ghd, GhdNode, Hypergraph, NodeId, Var};
use faqs_network::{Player, SimTransport, TcpTransport, Topology};
use faqs_plan::structural_plan;
use faqs_protocols::{DistributedFaqRun, InputPlacement};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation};
use faqs_semiring::{Aggregate, Count, Prob, Semiring};
use faqs_serve::{FaqServer, ServeConfig};
use rand::Rng;

/// A `Prob` star with four leaves whose weights are not dyadic: leaf
/// `i` holds `(j, j) ↦ w[(j + i) mod 4] / (1 + 0.37·i)`, so the answer
/// is a sum of four-way products that each round differently under
/// different association orders.
fn non_dyadic_star() -> FaqQuery<Prob> {
    const W: [f64; 4] = [0.1, 0.7, 0.3, 0.9];
    let factors = (0..4u32)
        .map(|i| {
            let scale = 1.0 + 0.37 * f64::from(i);
            let weight = |j: u32| Prob(W[((j + i) % 4) as usize] / scale);
            Relation::from_pairs(
                vec![Var(0), Var(i + 1)],
                (0..4).map(|j| (vec![j, j], weight(j))),
            )
        })
        .collect();
    FaqQuery::new_ss(star_query(4), factors, vec![], 4)
}

#[test]
fn every_site_returns_the_same_bits() {
    let q = non_dyadic_star();
    let want = solve_faq(&q).unwrap().total().0;
    assert!(want > 0.0 && want < 1.0, "a proper probability: {want}");

    let g = Topology::line(3);
    let players: Vec<Player> = g.players().collect();
    let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let sim = run.execute_on(&mut SimTransport::new(run.topology()));
    let tcp = run.execute_on(&mut TcpTransport::new(run.topology()).expect("loopback sockets"));

    let got = [
        ("solve_faq_reference", solve_faq_reference(&q).unwrap()),
        ("Executor", Executor::default().solve(&q).unwrap()),
        (
            "IncrementalFaq",
            IncrementalFaq::new(q.clone()).unwrap().answer().clone(),
        ),
        ("DistributedFaqRun / sim", sim.unwrap().result),
        ("DistributedFaqRun / tcp", tcp.unwrap().result),
    ];
    for (site, answer) in got {
        let got = answer.total().0;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{site}: {got:e} vs solve_faq {want:e}"
        );
    }
}

/// A `Prob` triangle on `{0, 1, 2}` with the pendant edge `{2, 3}`,
/// weighted with multiples of `1 / 1000.3` so that any change of fold
/// order shows in the last place.
fn non_dyadic_pendant_triangle(free: Vec<Var>) -> FaqQuery<Prob> {
    let mut h = Hypergraph::new(4);
    for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
        h.add_edge([Var(a), Var(b)]);
    }
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 300,
        domain: 24,
        seed: 17,
    };
    random_instance(&h, &cfg, free, |r| {
        Prob(f64::from(r.random_range(1..1000u32)) / 1000.3)
    })
}

/// One plan for it: the triangle merged into the root bag, bound in
/// `var_order`, with the pendant edge as its child — so a message folds
/// into the cyclic bag before the push-down.
fn pendant_triangle_plan(q: &FaqQuery<Prob>, var_order: Vec<Var>) -> QueryPlan {
    let node = |chi: &[u32], lambda: &[u32], parent| GhdNode {
        chi: chi.iter().map(|&v| Var(v)).collect(),
        lambda: lambda.iter().map(|&e| EdgeId(e)).collect(),
        parent,
    };
    let bags = vec![
        node(&[0, 1, 2], &[0, 1, 2], None),
        node(&[2, 3], &[3], Some(NodeId(0))),
    ];
    let mut plan = QueryPlan::for_ghd(q, Ghd::from_nodes(bags, NodeId(0))).unwrap();
    plan.var_orders = vec![var_order, Vec::new()];
    plan
}

#[test]
fn every_lowering_of_a_cyclic_bag_returns_the_same_bits() {
    for free in [vec![], vec![Var(1)], vec![Var(2), Var(0)]] {
        let q = non_dyadic_pendant_triangle(free);
        // The planner's binding order (kept, then private ascending:
        // pinned in `faqs-plan`), and the factors' concatenation order,
        // which the push-down must regroup.
        let bound = |v: &Var| !q.is_free(*v);
        let private = [Var(0), Var(1), Var(2)].into_iter().filter(bound);
        let layout: Vec<Var> = q.free_vars.iter().copied().chain(private).collect();
        let plan = pendant_triangle_plan(&q, Vec::new());
        let mut concatenation: Vec<Var> = Vec::new();
        for v in plan
            .joins(NodeId(0))
            .iter()
            .flat_map(|&e| q.factor(e).schema())
        {
            if !concatenation.contains(v) {
                concatenation.push(*v);
            }
        }
        let lowerings = [("layout", layout), ("regrouped", concatenation)];

        let rows = |r: &Relation<Prob>| -> Vec<(Vec<u32>, u64)> {
            r.iter().map(|(t, v)| (t.to_vec(), v.0.to_bits())).collect()
        };
        let g = Topology::line(3);
        let players: Vec<Player> = g.players().collect();
        let mut want: Option<Relation<Prob>> = None;
        for (lowering, var_order) in lowerings {
            let plan = pendant_triangle_plan(&q, var_order);
            // The routed site joins the factors it gathered from their
            // shards, and the child's message after it crossed the wire.
            let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
            let run = DistributedFaqRun::new(&q, &g, placement, 1)
                .unwrap()
                .with_plan(plan.clone())
                .unwrap();
            let routed = run.execute_on(&mut SimTransport::new(run.topology()));
            let got = [
                solve_faq_with_plan(&q, &plan),
                Executor::default().solve_on(&q, &plan),
                Ok(routed.unwrap().result),
            ];
            for (site, got) in got.into_iter().enumerate() {
                let got = got.unwrap();
                assert!(!got.is_empty() && got.schema() == q.free_vars.as_slice());
                let want = want.get_or_insert_with(|| got.clone());
                assert_eq!(
                    rows(&got),
                    rows(want),
                    "{lowering}, site {site}, free {:?}",
                    q.free_vars
                );
            }
        }
        // And the bits are the right number.
        assert!(want.unwrap().approx_eq(&solve_faq(&q).unwrap()));
    }
}

#[test]
fn a_leaf_regrouped_on_its_first_column_folds_in_layout_order() {
    // `path(4)` rooted at its middle edge: the leaf `{0, 1}` keeps `x1`
    // and aggregates `x0`, its *first* column, so its push-down regroups
    // 300 rows (by counting, the values being dense) before it can fold;
    // the root multiplies two messages in by one scan, the inner node
    // `{2, 3}` one. The reference is the same tree spelt out with the
    // single-variable kernel on relations already in layout order, and
    // the join chain.
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 300,
        domain: 24,
        seed: 29,
    };
    let weight = |r: &mut rand::rngs::StdRng| Prob(f64::from(r.random_range(1..1000u32)) / 1000.3);
    for free in [vec![], vec![Var(2)], vec![Var(2), Var(1)]] {
        let q: FaqQuery<Prob> = random_instance(&path_query(4), &cfg, free, weight);
        let node = |chi: [u32; 2], edge: u32, parent| GhdNode {
            chi: chi.iter().map(|&v| Var(v)).collect(),
            lambda: [EdgeId(edge)].into_iter().collect(),
            parent,
        };
        let bags = vec![
            node([1, 2], 1, None),
            node([0, 1], 0, Some(NodeId(0))),
            node([2, 3], 2, Some(NodeId(0))),
            node([3, 4], 3, Some(NodeId(2))),
        ];
        let mut plan = QueryPlan::for_ghd(&q, Ghd::from_nodes(bags, NodeId(0))).unwrap();
        plan.var_orders = vec![Vec::new(); 4];
        assert_eq!(plan.children(NodeId(0)), [NodeId(1), NodeId(2)]);

        let sum = |r: Relation<Prob>, v: u32| r.aggregate_out(Var(v), Aggregate::Sum);
        let [r01, r12, r23, r34] = &q.factors[..] else {
            panic!("four edges")
        };
        assert_eq!(r01.schema(), [Var(0), Var(1)], "x0 leads the leaf");
        let from_01 = sum(r01.reorder(&[Var(1), Var(0)]), 0);
        let from_23 = sum(r23.join(&sum(r34.clone(), 4)), 3);
        // The root's private variables last, outermost first: each step
        // then folds a sorted run in ascending order.
        let nest = plan.nest(NodeId(0));
        let private = nest.iter().rev().map(|&(v, _)| v);
        let layout: Vec<Var> = q.free_vars.iter().copied().chain(private).collect();
        let mut want = r12.join(&from_01).join(&from_23).reorder(&layout);
        for &(v, _) in nest {
            want = sum(want, v.0);
        }
        assert!(!want.is_empty());

        let rows = |r: &Relation<Prob>| -> Vec<(Vec<u32>, u64)> {
            r.iter().map(|(t, v)| (t.to_vec(), v.0.to_bits())).collect()
        };
        let got = [
            solve_faq_with_plan(&q, &plan),
            Executor::default().solve_on(&q, &plan),
        ];
        for (site, got) in got.into_iter().enumerate() {
            let got = got.unwrap();
            assert_eq!(got.schema(), q.free_vars.as_slice());
            assert_eq!(
                rows(&got),
                rows(&want),
                "site {site}, free {:?}",
                q.free_vars
            );
        }
    }
}

/// The per-binding slices of a batching site, stacked back into one
/// relation (bindings ascend and lead the schema, so the rows arrive
/// sorted).
fn stacked<S: Semiring>(slices: impl IntoIterator<Item = Relation<S>>) -> Relation<S> {
    let rows = |r: Relation<S>| -> Vec<(Vec<u32>, S)> {
        r.iter().map(|(t, v)| (t.to_vec(), v.clone())).collect()
    };
    Relation::from_pairs(vec![Var(0)], slices.into_iter().flat_map(rows))
}

/// `q` — free over `x0`, one bound variable under `Max` — answered at
/// every site of the pass. All agree with brute force (`approx_eq` is
/// `==` on an exact carrier). The sites this file holds to bit-identity
/// agree on `bits` of every value with the solve that runs their plan:
/// `solve_faq` for the executor's cache and the session (the same
/// unplaced statistics-driven plan), `solve_faq_reference` for the sites
/// handed `structural_plan` — a placed planner may root the GHD
/// elsewhere, which is another fold order.
fn assert_max_agrees_at_every_site<S: Semiring>(q: &FaqQuery<S>, bits: fn(&S) -> u64) {
    assert_eq!(q.free_vars, [Var(0)]);
    assert!(q.aggregates.contains(&Aggregate::Max));
    let brute = solve_faq_brute_force(q);
    let planned = solve_faq(q).unwrap();
    let reference = solve_faq_reference(q).unwrap();
    assert!(!reference.is_empty());
    let bindings: Vec<u32> = (0..q.domain).collect();
    let structural = structural_plan(q).unwrap();
    let executor = Executor::default();

    let mut session = IncrementalFaq::new(q.clone()).unwrap();
    // `max` has no inverse: the delta path must not be taken.
    assert_eq!(session.mode(), MaintenanceMode::DirtySubtree);
    let server = FaqServer::new(ServeConfig::default());
    let shape = server.register(q.clone(), Var(0)).unwrap();
    let served = |b: &u32| server.query(shape, *b).unwrap().relation;
    let mut got = vec![
        ("solve_faq".to_string(), Ok(planned.clone()), None),
        ("Executor".to_string(), executor.solve(q), Some(&planned)),
        (
            "Executor::solve_on".to_string(),
            executor.solve_on(q, &structural),
            Some(&reference),
        ),
        (
            "Executor::solve_batch".to_string(),
            executor.solve_batch(q, Var(0), &bindings).map(stacked),
            None,
        ),
        (
            "IncrementalFaq".to_string(),
            Ok(session.answer().clone()),
            Some(&planned),
        ),
        (
            "FaqServer::query".to_string(),
            Ok(stacked(bindings.iter().map(served))),
            None,
        ),
    ];
    for g in [Topology::line(4), Topology::star(5)] {
        let players: Vec<Player> = g.players().collect();
        let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
        let run = DistributedFaqRun::new(q, &g, placement, 1)
            .unwrap()
            .with_plan(structural.clone())
            .unwrap();
        let sim = run.execute_on(&mut SimTransport::new(run.topology()));
        let tcp = run.execute_on(&mut TcpTransport::new(run.topology()).expect("loopback sockets"));
        let name = g.name();
        got.push((
            format!("{name} / sim"),
            Ok(sim.unwrap().result),
            Some(&reference),
        ));
        got.push((
            format!("{name} / tcp"),
            Ok(tcp.unwrap().result),
            Some(&reference),
        ));
    }
    let rows = |r: &Relation<S>| -> Vec<(Vec<u32>, u64)> {
        r.iter().map(|(t, v)| (t.to_vec(), bits(v))).collect()
    };
    for (site, answer, same_plan) in got {
        let answer = answer.unwrap_or_else(|e| panic!("{site}: {e}"));
        assert!(answer.approx_eq(&brute), "{site} vs brute force");
        if let Some(want) = same_plan {
            assert_eq!(rows(&answer), rows(want), "{site} vs its plan's solve");
        }
    }

    // One insert and one delete on the factor that carries the `Max`
    // variable, each re-checked against a re-solve.
    let carries_max = |vars: &[Var]| {
        let mut ops = vars.iter().map(|v| q.aggregates[v.index()]);
        ops.any(|op| op == Aggregate::Max)
    };
    let mut edges = q.hypergraph.edges();
    let (edge, _) = edges.find(|(_, vars)| carries_max(vars)).unwrap();
    let factor = q.factor(edge);
    let (listed, value) = factor.iter().next().expect("a listed row");
    let absent = (0..q.domain)
        .flat_map(|a| (0..q.domain).map(move |b| [a, b]))
        .find(|t| factor.get(t).is_none())
        .expect("the factor is not full");
    session.insert(edge, &absent, value.clone()).unwrap();
    assert!(session
        .answer()
        .approx_eq(&solve_faq_brute_force(session.query())));
    session.delete(edge, listed).unwrap();
    assert!(session
        .answer()
        .approx_eq(&solve_faq_brute_force(session.query())));
}

#[test]
fn max_on_one_bound_variable_agrees_at_every_site() {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 11,
        domain: 4,
        seed: 23,
    };
    let count = |r: &mut rand::rngs::StdRng| Count(r.random_range(1..9));
    // Star leaves never share a factor, and the path's `Max` variable is
    // its innermost: both nests are legal push-down orders.
    let star: FaqQuery<Count> = random_instance(&star_query(4), &cfg, vec![Var(0)], count);
    assert_max_agrees_at_every_site(&star.with_aggregate(Var(2), Aggregate::Max), |c| c.0);
    let path: FaqQuery<Count> = random_instance(&path_query(3), &cfg, vec![Var(0)], count);
    assert_max_agrees_at_every_site(&path.with_aggregate(Var(3), Aggregate::Max), |c| c.0);
    // Non-dyadic weights: any change of fold order shows in the last
    // place. `Max` sits on the root bag's private variable: were that
    // one under `Sum`, the runtime would add it up shard-locally before
    // the root's join, the local sites after it — equal sums, rounded
    // differently — which is no business of this test.
    let prob: FaqQuery<Prob> = random_instance(&star_query(4), &cfg, vec![Var(0)], |r| {
        Prob(f64::from(r.random_range(1..1000u32)) / 1000.3)
    });
    assert_max_agrees_at_every_site(&prob.with_aggregate(Var(1), Aggregate::Max), |p| {
        p.0.to_bits()
    });
}
