//! The engine's entry points: plan with `faqs-plan`, then run the one
//! upward pass ([`crate::pass`]) at the sequential in-memory site.
//!
//! Plan *choice* — which GHD, which per-node factor join order — and the
//! plan value itself ([`QueryPlan`]) live in `faqs-plan`, and so do its
//! validation and re-rooting helpers; only [`EngineError`] is
//! re-exported here.

use crate::pass::{Pass, Sequential};
use faqs_plan::QueryPlan;
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Semiring};

pub use faqs_plan::EngineError;

/// Solves a general FAQ (Equation 4) by the upward pass of Theorem
/// G.3, on the plan `faqs-plan`'s statistics-driven planner chooses
/// (unplaced — the plan the executor and an incremental session run on
/// a cold cache).
/// Every bound variable's aggregate must be one
/// the carrier admits ([`Semiring::admits`]); any other is refused with
/// [`EngineError::RefusedAggregate`]. Returns the result relation over
/// the free variables (for `F = ∅`: a nullary relation whose single
/// annotation is the scalar answer — [`Relation::total`] extracts it).
pub fn solve_faq<S: Semiring>(q: &FaqQuery<S>) -> Result<Relation<S>, EngineError> {
    let plan = faqs_plan::plan_query_with(q, None, None)?;
    Ok(run(q, &plan))
}

/// A deterministic full re-solve for differential testing: always runs
/// `faqs_plan::structural_plan` (no statistics), so equal data always
/// takes the identical plan and produces the bit-identical answer — the
/// oracle the incremental engine's maintained answers are raced
/// against, immune to digest drift.
pub fn solve_faq_reference<S: Semiring>(q: &FaqQuery<S>) -> Result<Relation<S>, EngineError> {
    Ok(run(q, &faqs_plan::structural_plan(q)?))
}

/// The upward pass on an explicit [`QueryPlan`] — the entry point for
/// callers that already planned (tests compare structural and
/// stats-aware plans for bit-identical results).
///
/// Planning already ran instance validation, free-variable coverage and
/// elimination-order legality for the query the plan was built for; a
/// query of another hypergraph, free-variable list or aggregate set is
/// refused with [`EngineError::Invalid`] ([`QueryPlan::check_query`]).
pub fn solve_faq_with_plan<S: Semiring>(
    q: &FaqQuery<S>,
    plan: &QueryPlan,
) -> Result<Relation<S>, EngineError> {
    plan.check_query(q)?;
    Ok(run(q, plan))
}

/// The one upward pass at the sequential site.
fn run<S: Semiring>(q: &FaqQuery<S>, plan: &QueryPlan) -> Relation<S> {
    let pass = Pass {
        q,
        plan,
        probe: None,
    };
    let Ok((result, _)) = pass.run(&mut Sequential);
    result
}

/// Evaluates a Boolean Conjunctive Query: `true` iff some assignment
/// satisfies every relation.
pub fn solve_bcq(q: &FaqQuery<Boolean>) -> bool {
    assert!(q.free_vars.is_empty(), "BCQ has no free variables");
    !solve_faq(q)
        .expect("BCQ always satisfies F ⊆ V(C(H))")
        .total()
        .is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_faq_brute_force;
    use faqs_hypergraph::{
        cycle_query, example_h0, example_h1, example_h2, internal_node_width, path_query,
        star_query, Hypergraph, Var,
    };
    use faqs_plan::check_push_down;
    use faqs_relation::{random_boolean_instance, BcqBuilder, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count, Prob};

    #[test]
    fn bcq_star_satisfiable() {
        let h = example_h1();
        let mut b = BcqBuilder::new(&h, 8);
        for e in 0..4 {
            b.relation_from_pairs(e, (0..8).map(|a| (a, 1)));
        }
        assert!(solve_bcq(&b.finish()));
    }

    #[test]
    fn bcq_star_unsatisfiable() {
        let h = example_h1();
        let mut b = BcqBuilder::new(&h, 8);
        // Leaf relations have disjoint center values.
        b.relation_from_pairs(0, [(0, 1), (1, 1)]);
        b.relation_from_pairs(1, [(2, 1)]);
        b.relation_from_pairs(2, [(0, 1)]);
        b.relation_from_pairs(3, [(0, 1)]);
        assert!(!solve_bcq(&b.finish()));
    }

    #[test]
    fn bcq_self_loops_set_intersection() {
        // Example 2.1: BCQ of H0 ⇔ R ∩ S ∩ T ∩ U ≠ ∅.
        let h = example_h0();
        let mut b = BcqBuilder::new(&h, 16);
        b.relation_from_values(0, [1, 3, 5]);
        b.relation_from_values(1, [3, 5, 7]);
        b.relation_from_values(2, [5, 9]);
        b.relation_from_values(3, [5]);
        assert!(solve_bcq(&b.finish()));

        let mut b2 = BcqBuilder::new(&h, 16);
        b2.relation_from_values(0, [1, 3]);
        b2.relation_from_values(1, [3, 5]);
        b2.relation_from_values(2, [5, 9]);
        b2.relation_from_values(3, [5]);
        assert!(!solve_bcq(&b2.finish()));
    }

    #[test]
    fn engine_matches_brute_force_on_random_bcq() {
        for seed in 0..30 {
            for h in [star_query(3), path_query(3), cycle_query(4), example_h2()] {
                let cfg = RandomInstanceConfig {
                    tuples_per_factor: 5,
                    domain: 3,
                    seed,
                };
                let q = random_boolean_instance(&h, &cfg, seed % 2 == 0);
                let fast = solve_bcq(&q);
                let slow = !solve_faq_brute_force(&q).total().is_zero();
                assert_eq!(fast, slow, "seed {seed} on {h:?}");
            }
        }
    }

    #[test]
    fn counting_matches_brute_force() {
        for seed in 0..20 {
            let h = example_h2();
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 6,
                domain: 3,
                seed,
            };
            let q: FaqQuery<Count> =
                faqs_relation::random_instance(&h, &cfg, vec![], |r| Count(r.random_range(1..4)));
            use rand::Rng;
            let fast = solve_faq(&q).unwrap().total();
            let slow = solve_faq_brute_force(&q).total();
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn free_vars_in_core_work() {
        // Path query with free variable at the end: requires re-rooting.
        let h = path_query(3);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 4,
            domain: 3,
            seed: 9,
        };
        let q: FaqQuery<Count> =
            faqs_relation::random_instance(&h, &cfg, vec![Var(0)], |_| Count(1));
        let fast = solve_faq(&q).unwrap();
        let slow = solve_faq_brute_force(&q);
        assert_eq!(fast, slow);
    }

    #[test]
    fn free_pair_inside_one_edge() {
        // F = e for an edge e: the paper's factor-marginal case.
        let h = path_query(3);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 4,
            domain: 3,
            seed: 10,
        };
        let q: FaqQuery<Prob> =
            faqs_relation::random_instance(&h, &cfg, vec![Var(1), Var(2)], |_| Prob(0.5));
        let fast = solve_faq(&q).unwrap();
        let slow = solve_faq_brute_force(&q);
        assert!(fast.approx_eq(&slow));
    }

    /// The hypergraph of the re-rooting regression: a triangle core on
    /// `{x2,x3,x4}` plus one removed join tree, the chain
    /// `r{x0,x5} — e_good{x0,x1} — e_bad{x1,x2,x3}` (GYO roots it at
    /// `e_bad`).
    fn reroot_regression_hypergraph() -> Hypergraph {
        use faqs_hypergraph::EdgeId;
        let mut h = Hypergraph::new(6);
        h.add_edge([Var(2), Var(4)]);
        h.add_edge([Var(4), Var(3)]);
        h.add_edge([Var(3), Var(2)]);
        h.add_edge([Var(0), Var(5)]); // r
        h.add_edge([Var(0), Var(1)]); // e_good
        h.add_edge([Var(1), Var(2), Var(3)]); // e_bad
        let d = faqs_hypergraph::Decomposition::of(&h);
        assert_eq!(
            d.forest_roots,
            vec![EdgeId(5)],
            "GYO roots the tree at e_bad"
        );
        h
    }

    #[test]
    fn reroot_regression_instance_solves_end_to_end() {
        // The same hypergraph through the full engine: the canonical
        // start also places F (x1 is the only missing variable there),
        // and the answer matches brute force.
        let h = reroot_regression_hypergraph();
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 6,
            domain: 3,
            seed: 42,
        };
        let free = vec![Var(0), Var(1), Var(2), Var(3)];
        let q: FaqQuery<Count> = faqs_relation::random_instance(&h, &cfg, free, |_| Count(1));
        let fast = solve_faq(&q).unwrap();
        let slow = solve_faq_brute_force(&q);
        assert_eq!(fast, slow);
    }

    #[test]
    fn wide_hypergraph_elimination_order_validates_quickly() {
        // A star with many leaves and alternating aggregates: every
        // inverted pair of differently-aggregated leaves never co-occurs
        // (leaves only meet through the center), so validation must
        // accept — and with per-variable edge bitsets it does so without
        // the old O(k²·|E|·arity) pair-probe blowup.
        let k = 400;
        let h = star_query(k);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 2,
            domain: 2,
            seed: 3,
        };
        let mut q: FaqQuery<Count> = faqs_relation::random_instance(&h, &cfg, vec![], |_| Count(1));
        for v in 1..=k as u32 {
            if v % 2 == 1 {
                q = q.with_aggregate(Var(v), Aggregate::Max);
            }
        }
        // `F = ∅`: the structural default is the width witness.
        let ghd = internal_node_width(&h).ghd;
        check_push_down(&q, &ghd).expect("star leaves never co-occur");

        // And a genuine conflict is still caught: two differently
        // aggregated variables sharing an edge.
        let h2 = path_query(3);
        let q2: FaqQuery<Count> =
            faqs_relation::random_instance(&h2, &RandomInstanceConfig::default(), vec![], |_| {
                Count(1)
            })
            .with_aggregate(Var(1), Aggregate::Max);
        let ghd2 = internal_node_width(&h2).ghd;
        assert!(matches!(
            check_push_down(&q2, &ghd2),
            Err(EngineError::IncompatibleAggregateOrder(_, _))
        ));
    }

    #[test]
    fn rejects_unplaceable_free_vars() {
        // Free vars at both ends of a long path: no single edge holds
        // both and the canonical core is elsewhere.
        let h = path_query(5);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 2,
            domain: 2,
            seed: 1,
        };
        let q: FaqQuery<Count> =
            faqs_relation::random_instance(&h, &cfg, vec![Var(0), Var(5)], |_| Count(1));
        assert!(matches!(
            solve_faq(&q),
            Err(EngineError::FreeVarsOutsideCore(_))
        ));
    }

    #[test]
    fn aggregate_the_carrier_refuses_is_a_typed_error() {
        // The carrier decides: ℝ≥0 admits `max`, not `min`.
        let h = star_query(2);
        let cfg = RandomInstanceConfig::default();
        let q: FaqQuery<Prob> = faqs_relation::random_instance(&h, &cfg, vec![], |_| Prob(0.5));
        let min = q.clone().with_aggregate(Var(1), Aggregate::Min);
        let err = solve_faq(&min).unwrap_err();
        assert!(matches!(err, EngineError::RefusedAggregate(Var(1), _)));
        let message = err.to_string();
        assert!(message.contains("Min") && message.contains("probability"));
        assert!(solve_faq(&q.with_aggregate(Var(1), Aggregate::Max)).is_ok());
    }

    #[test]
    fn mixed_sum_max_aggregates_match_brute_force() {
        for seed in 0..20 {
            for h in [path_query(3), star_query(3), example_h2()] {
                let cfg = RandomInstanceConfig {
                    tuples_per_factor: 5,
                    domain: 3,
                    seed,
                };
                let mut q: FaqQuery<Count> =
                    faqs_relation::random_instance(&h, &cfg, vec![], |r| {
                        use rand::Rng;
                        Count(r.random_range(1..5))
                    });
                // Alternate Sum and Max over the bound variables: both are
                // semiring aggregates on (ℕ, +, ×), so the push-down is
                // sound for any interleaving.
                let vars: Vec<Var> = q.hypergraph.vars().collect();
                for v in vars {
                    if v.index() % 2 == 1 {
                        q = q.with_aggregate(v, Aggregate::Max);
                    }
                }
                // The engine either computes the right answer or cleanly
                // rejects orders its push-down cannot realise — never
                // silently wrong.
                match solve_faq(&q) {
                    Ok(fast) => {
                        let slow = solve_faq_brute_force(&q).total();
                        assert_eq!(fast.total(), slow, "seed {seed} h {h:?}");
                    }
                    Err(EngineError::IncompatibleAggregateOrder(_, _)) => {}
                    Err(e) => panic!("unexpected engine error {e}"),
                }
            }
        }
    }

    #[test]
    fn boolean_product_aggregate_matches_brute_force() {
        // ∧-aggregates (universal quantification) are push-down-safe on
        // the Boolean semiring because ∧ is idempotent.
        for seed in 0..20 {
            let h = star_query(3);
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 5,
                domain: 3,
                seed,
            };
            let mut q = random_boolean_instance(&h, &cfg, seed % 2 == 0);
            q = q.with_aggregate(Var(1), Aggregate::Product);
            let fast = solve_faq(&q).unwrap().total();
            let slow = solve_faq_brute_force(&q).total();
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn rejects_product_aggregate_on_counting() {
        let h = star_query(2);
        let cfg = RandomInstanceConfig::default();
        let q: FaqQuery<Count> = faqs_relation::random_instance(&h, &cfg, vec![], |_| Count(2))
            .with_aggregate(Var(1), Aggregate::Product);
        assert!(matches!(
            solve_faq(&q),
            Err(EngineError::NonIdempotentProduct(_))
        ));
    }
}
