//! One structural analysis per placed run. The planner, the runtime and
//! the live oracle read `y(H)`, `n2(H)` and the single-tree flag from
//! the plan's one GYO pass, and the placed planner reads one
//! live-distance table per run. Two pins hold that sharing honest:
//!
//! * every candidate table (label, `y`, [`PlanCost`], chosen), every
//!   chosen GHD and every predicted row count of a fixed corpus, unplaced
//!   and placed, equals the table in `pinned_plans.txt`;
//! * every run's bound equals a fresh [`BoundReport::evaluate`] of the
//!   same query, topology and player set, field for field, on the
//!   runtime and on the paper's doors.

use faqs_hypergraph::{
    clique_query, cycle_query, example_h1, example_h2, internal_node_width, path_query, star_query,
    tree_query, Hypergraph, Var,
};
use faqs_network::{Player, Topology};
use faqs_plan::{plan_query_with, PlacementContext, PlanCost, QueryPlan};
use faqs_protocols::{
    model_capacity_bits, run_bcq_protocol, run_faq_protocol, BoundReport, DistributedFaqRun,
    InputPlacement,
};
use faqs_relation::{random_boolean_instance, random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::Count;
use std::fmt::Write;

/// The query shapes and their free variables: acyclic single trees, a
/// multi-bag acyclic shape, two cyclic cores, then two shapes whose free
/// variable lies outside the width witness's root (the structural default
/// and every candidate re-root to cover it) and a star of eight candidates.
fn shapes() -> Vec<(&'static str, Hypergraph, Vec<Var>)> {
    vec![
        ("star4", star_query(4), vec![]),
        ("path4", path_query(4), vec![]),
        ("tree(2,2)", tree_query(2, 2), vec![]),
        ("example_h1", example_h1(), vec![]),
        ("example_h2", example_h2(), vec![]),
        ("cycle4", cycle_query(4), vec![]),
        ("clique4", clique_query(4), vec![]),
        ("star4 free leaf", star_query(4), vec![Var(4)]),
        ("path4 free end", path_query(4), vec![Var(0)]),
        ("star8", star_query(8), vec![]),
    ]
}

fn config(seed: u64) -> RandomInstanceConfig {
    RandomInstanceConfig {
        tuples_per_factor: 24,
        domain: 6,
        seed,
    }
}

fn count_instance(h: &Hypergraph, free: &[Var], seed: u64) -> FaqQuery<Count> {
    random_instance(h, &config(seed), free.to_vec(), |r| {
        use rand::Rng;
        Count(r.random_range(1..4))
    })
}

fn topologies() -> [Topology; 4] {
    [
        Topology::line(4),
        Topology::ring(5),
        Topology::grid(2, 3),
        Topology::clique(4),
    ]
}

/// Whole factors round-robin over the players, and every factor
/// hash-split over all of them; the output is player 0 in both.
fn placements(k: usize, g: &Topology) -> [(&'static str, InputPlacement); 2] {
    let players: Vec<Player> = g.players().collect();
    let whole = (0..k).map(|e| vec![players[e % players.len()]]).collect();
    [
        ("whole", InputPlacement::new(whole, Player(0))),
        ("split", InputPlacement::hash_split(k, &players, Player(0))),
    ]
}

fn render_cost(c: PlanCost) -> String {
    format!("cpu {} net {}", c.cpu, c.net_bits)
}

/// One plan as text: its candidate table, its GHD node by node and its
/// predicted rows.
fn render(plan: &QueryPlan, out: &mut String) {
    for c in &plan.candidates {
        let chosen = if c.chosen { " *" } else { "" };
        let cost = render_cost(c.cost);
        writeln!(out, "  cand {} | y {} | {cost}{chosen}", c.label, c.y).unwrap();
    }
    let ghd = &plan.ghd;
    write!(out, "  ghd root {}:", ghd.root().index()).unwrap();
    for n in ghd.node_ids() {
        let node = ghd.node(n);
        let chi: Vec<u32> = node.chi.iter().map(|v| v.0).collect();
        let lambda: Vec<u32> = node.lambda.iter().map(|e| e.0).collect();
        let parent = node.parent.map(|p| p.index().to_string());
        let parent = parent.unwrap_or_else(|| "-".into());
        write!(out, " n{} {chi:?} {lambda:?} ^{parent};", n.index()).unwrap();
    }
    writeln!(out).unwrap();
    writeln!(out, "  rows {:?}", plan.node_rows).unwrap();
}

/// The whole corpus rendered: per shape, the unplaced plan, then the
/// placed plan on every topology and placement — planned through a
/// `PlacementContext`, and checked equal to the plan
/// `DistributedFaqRun::new` picks for the same placement.
fn rendered_corpus() -> String {
    let mut out = String::new();
    for (seed, (name, h, free)) in shapes().into_iter().enumerate() {
        let q = count_instance(&h, &free, seed as u64 + 1);
        writeln!(out, "{name} unplaced").unwrap();
        render(&plan_query_with(&q, None, None).unwrap(), &mut out);
        for g in topologies() {
            for (how, placement) in placements(q.k(), &g) {
                writeln!(out, "{name} {} {how}", g.name()).unwrap();
                let scaled = g.clone().with_uniform_capacity(model_capacity_bits(&q));
                let ctx = PlacementContext::of(&scaled, placement.clone());
                let plan = plan_query_with(&q, Some(&ctx), None).unwrap();
                let mut text = String::new();
                render(&plan, &mut text);
                let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
                let mut ran = String::new();
                render(run.plan(), &mut ran);
                assert_eq!(ran, text, "{name} {} {how}: the run plans alike", g.name());
                out.push_str(&text);
            }
        }
    }
    out
}

#[test]
fn plans_do_not_move() {
    let got = rendered_corpus();
    let want = include_str!("pinned_plans.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn the_runtime_bound_equals_a_fresh_one() {
    for (seed, (name, h, free)) in shapes().into_iter().enumerate() {
        let q = count_instance(&h, &free, seed as u64 + 1);
        for g in topologies() {
            for (how, placement) in placements(q.k(), &g) {
                let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
                let out = run.execute().unwrap();
                let players = run.placement().players();
                let fresh = BoundReport::evaluate(&q, run.topology(), &players);
                assert!(fresh.is_some());
                let at = format!("{name} {} {how}", g.name());
                assert_eq!(out.report.bound, fresh, "{at}");
                assert_eq!(run.plan().width, internal_node_width(&h).terms(), "{at}");
            }
        }
    }
}

#[test]
fn the_paper_doors_bound_equals_a_fresh_one() {
    for (seed, (name, h, free)) in shapes().into_iter().enumerate() {
        let faq = count_instance(&h, &free, seed as u64 + 1);
        let bcq = random_boolean_instance(&h, &config(seed as u64 + 1), true);
        for g in topologies() {
            let players: Vec<Player> = g.players().collect();
            let holders = (0..h.num_edges()).map(|e| players[e % players.len()]);
            let a = InputPlacement::whole(holders.collect(), Player(0));
            let at = format!("{name} {}", g.name());
            let scaled = g.clone().with_uniform_capacity(model_capacity_bits(&faq));
            let fresh = BoundReport::evaluate(&faq, &scaled, &a.players());
            assert_eq!(
                run_faq_protocol(&faq, &g, &a, 1).unwrap().report.bound,
                fresh,
                "{at}"
            );
            let scaled = g.clone().with_uniform_capacity(model_capacity_bits(&bcq));
            let fresh = BoundReport::evaluate(&bcq, &scaled, &a.players());
            assert_eq!(
                run_bcq_protocol(&bcq, &g, &a, 1).unwrap().report.bound,
                fresh,
                "{at}"
            );
        }
    }
}
