//! A plan is built for one query shape, and its nests fix which
//! variables every bag aggregates out under which operator. The three
//! doors that take a caller's plan — `solve_faq_with_plan`,
//! `Executor::solve_on` and `DistributedFaqRun::with_plan` — refuse a
//! query of another shape with a typed `Invalid` error: a plan built
//! under `Sum` and run on the same hypergraph under `Max` would
//! otherwise answer, with the wrong aggregate and no error.

use faqs_core::{solve_faq, solve_faq_with_plan, EngineError};
use faqs_exec::Executor;
use faqs_hypergraph::{star_query, Var};
use faqs_network::{Player, Topology};
use faqs_plan::plan_query_with;
use faqs_protocols::{DistributedFaqRun, InputPlacement, ProtocolError};
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::{Aggregate, Count};
use rand::Rng;

#[test]
fn a_plan_built_under_sum_is_refused_under_max_at_every_door() {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 11,
        domain: 4,
        seed: 23,
    };
    let sum: FaqQuery<Count> = random_instance(&star_query(3), &cfg, vec![], |r| {
        Count(r.random_range(1..9))
    });
    let max = sum.clone().with_aggregate(Var(1), Aggregate::Max);
    assert_ne!(
        solve_faq(&sum).unwrap(),
        solve_faq(&max).unwrap(),
        "precondition: the aggregate changes the answer"
    );
    let plan = plan_query_with(&sum, None, None).unwrap();
    let g = Topology::line(3);
    let players: Vec<Player> = g.players().collect();
    let run = |q| {
        let placement = InputPlacement::hash_split(3, &players, Player(0));
        DistributedFaqRun::new(q, &g, placement, 1).unwrap()
    };

    // The plan's own query passes every door.
    let want = solve_faq(&sum).unwrap();
    assert_eq!(solve_faq_with_plan(&sum, &plan).unwrap(), want);
    assert_eq!(Executor::default().solve_on(&sum, &plan).unwrap(), want);
    let routed = run(&sum).with_plan(plan.clone()).unwrap();
    assert_eq!(routed.execute().unwrap().result, want);

    // The same hypergraph under `Max` passes none.
    assert!(matches!(
        solve_faq_with_plan(&max, &plan),
        Err(EngineError::Invalid(_))
    ));
    assert!(matches!(
        Executor::default().solve_on(&max, &plan),
        Err(EngineError::Invalid(_))
    ));
    assert!(matches!(
        run(&max).with_plan(plan.clone()),
        Err(ProtocolError::Invalid(_))
    ));

    // Nor does another free-variable list.
    let mut free = sum.clone();
    free.free_vars = vec![Var(0)];
    assert!(matches!(
        solve_faq_with_plan(&free, &plan),
        Err(EngineError::Invalid(_))
    ));
}
