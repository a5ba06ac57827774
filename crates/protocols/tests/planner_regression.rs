//! Planner regressions for the distributed runtime: on the pinned
//! skewed-star instance (one `n²`-row leaf, `faqs_relation::
//! skewed_star_instance`) the statistics-aware, placement-aware plan
//! must ship strictly fewer bits than the structural default while
//! remaining inside the `RunReport` upper envelope — the
//! acceptance bar of the `faqs-plan` extraction — and the planner's
//! *predicted* bits must themselves respect the paper's envelope.

use faqs_network::{Player, Topology};
use faqs_plan::{plan_query_with, structural_plan, PlacementContext};
use faqs_protocols::{model_capacity_bits, DistributedFaqRun, InputPlacement};
use faqs_relation::skewed_star_instance;

/// The shared fixture: a 3-leaf star over domain 16 whose first factor
/// is the full 256-row cross product, each factor held by its own
/// player on a line, with the output at the far end — so a plan rooted
/// at the huge factor must drag all 256 rows across three hops.
///
/// The huge leaf's variable carries a `Product` aggregate (legal on the
/// Boolean semiring — `∧` is idempotent): a plain `Sum` would let the
/// runtime's shard-level Corollary G.2 pre-aggregation collapse the
/// 256 rows to 16 *at the holder*, rescuing even the structural plan
/// before anything ships. `Product` is exactly the guard's refusal
/// case, so the factor really travels whole when the plan roots there.
fn fixture() -> (
    faqs_relation::FaqQuery<faqs_semiring::Boolean>,
    Topology,
    InputPlacement,
) {
    let q = skewed_star_instance(3, 16)
        .with_aggregate(faqs_hypergraph::Var(1), faqs_semiring::Aggregate::Product);
    let g = Topology::line(4);
    let placement = InputPlacement::new(
        vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
        Player(3),
    );
    (q, g, placement)
}

#[test]
fn stats_aware_plan_ships_strictly_fewer_bits() {
    let (q, g, placement) = fixture();
    let run_with = |structural: bool| {
        let mut run = DistributedFaqRun::new(&q, &g, placement.clone(), 1).unwrap();
        if structural {
            run = run.with_plan(structural_plan(&q).unwrap()).unwrap();
        }
        run.execute().unwrap()
    };

    let structural_out = run_with(true);
    let stats_out = run_with(false);

    assert_eq!(
        stats_out.result, structural_out.result,
        "planning never changes the answer"
    );
    assert!(
        stats_out.stats.total_bits < structural_out.stats.total_bits,
        "stats-aware plan must be strictly cheaper: {} !< {}",
        stats_out.stats.total_bits,
        structural_out.stats.total_bits,
    );
    // Both runs stay inside the paper's upper envelope; the stats win
    // is an optimisation *within* it, not a model escape.
    assert!(structural_out.report.conforms());
    assert!(stats_out.report.conforms());
}

#[test]
fn predicted_bits_respect_the_paper_envelope() {
    let (q, g, placement) = fixture();
    // The same capacity scaling DistributedFaqRun applies for
    // capacity_tuples = 1.
    let scaled = g.clone().with_uniform_capacity(model_capacity_bits(&q));
    let ctx = PlacementContext::of(&scaled, placement.clone());
    let plan = plan_query_with(&q, Some(&ctx), None).unwrap();
    // The envelope depends on the query, topology and player set, not
    // on the measurement: read it off the run's report.
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let envelope = run.execute().unwrap().report;
    assert!(plan.cost.net_bits > 0, "remote shards must cost something");
    assert!(
        plan.cost.net_bits <= envelope.upper_bits,
        "predicted {} bits escape the {}-bit upper envelope",
        plan.cost.net_bits,
        envelope.upper_bits,
    );
    // And the prediction ranks candidates the way the measurements do:
    // the default (huge-root) candidate predicts strictly more bits.
    assert!(
        !plan.chose_default() && plan.cost.net_bits < plan.candidates[0].cost.net_bits,
        "prediction must rank the thin root above the huge root"
    );
}

#[test]
fn pre_aggregation_closes_the_predicted_vs_measured_gap() {
    // The modelling-bug regression: on the *plain-Sum* skewed star the
    // runtime pre-aggregates the huge leaf's 256-row shard down to 16
    // rows at its holder before anything ships (Corollary G.2 at the
    // shard level). A cost model that prices every shard at its raw
    // width lands far from the measured bits; the plan's shard nests
    // must land strictly closer. The raw prediction is the same
    // instance's with its leaves under `Max`, which the guard never
    // pre-aggregates: the same statistics, every shard shipped whole.
    let q = skewed_star_instance(3, 16); // default aggregates: all Sum
    let raw_q = (1..=3).fold(q.clone(), |q, v| {
        q.with_aggregate(faqs_hypergraph::Var(v), faqs_semiring::Aggregate::Max)
    });
    let g = Topology::line(4);
    let placement = InputPlacement::new(
        vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
        Player(3),
    );

    let run = DistributedFaqRun::new(&q, &g, placement.clone(), 1).unwrap();
    let measured = run.execute().unwrap().stats.total_bits;
    assert!(measured > 0, "remote shards must communicate");

    let scaled = g.clone().with_uniform_capacity(model_capacity_bits(&q));
    let ctx = PlacementContext::of(&scaled, placement.clone());
    let predict = |q| plan_query_with(q, Some(&ctx), None).unwrap().cost.net_bits;
    let fixed = predict(&q);
    let raw = predict(&raw_q);

    let gap = |predicted: u64| predicted.abs_diff(measured);
    assert!(
        gap(fixed) < gap(raw),
        "pre-agg-aware prediction must be strictly closer to the measured bits: \
         |{fixed} - {measured}| !< |{raw} - {measured}|"
    );
}

#[test]
fn marooned_holder_fails_at_plan_time_not_run_time() {
    // The unreachable-player pricing regression: partition a line by
    // downing its first link, strand a shard holder on the wrong side,
    // and `new` must refuse with an `Unreachable` error naming the
    // unreachable placement — never emit a plan whose execution dies
    // later with a NoRoute.
    let q = skewed_star_instance(3, 16);
    let mut g = Topology::line(4).with_uniform_capacity(64);
    g.set_capacity(faqs_network::LinkId(0), 0); // maroons Player(0)
    let placement = InputPlacement::new(
        vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
        Player(3),
    );
    // capacity_tuples = 0 keeps the partitioned capacities.
    match DistributedFaqRun::new(&q, &g, placement, 0) {
        Err(faqs_protocols::ProtocolError::Unreachable(msg)) => {
            assert!(
                msg.contains("unreachable"),
                "the refusal must name the routing failure, got: {msg}"
            );
        }
        Err(e) => panic!("expected a plan-time Unreachable error, got {e:?}"),
        Ok(run) => {
            let out = run.execute();
            panic!("planner accepted a partitioned placement; execute() = {out:?}");
        }
    }

    // Control: the same placement on the healthy line plans and runs.
    let q = skewed_star_instance(3, 16);
    let g = Topology::line(4);
    let placement = InputPlacement::new(
        vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
        Player(3),
    );
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    run.execute().unwrap();
}

#[test]
fn uniform_star_keeps_the_pinned_structural_schedule() {
    // The flip side of the regression: on the *uniform* hard star the
    // cost model must keep the structural default (all candidates tie;
    // strict improvement is required to deviate), so the conformance
    // suite's pinned Theorem 3.1 RunStats hold under stats planning.
    let q = faqs_relation::irreducible_star_instance(4, 64);
    let g = Topology::line(4);
    let players: Vec<Player> = g.players().collect();
    let placement = InputPlacement::hash_split(q.k(), &players, Player(3));
    let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
    let stats_bits = run.execute().unwrap().stats;
    let structural = run.with_plan(structural_plan(&q).unwrap()).unwrap();
    assert_eq!(
        stats_bits,
        structural.execute().unwrap().stats,
        "symmetric instances must plan identically under both plans"
    );
}
