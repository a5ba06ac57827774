//! # faqs-plan — the statistics-driven cost-based planner
//!
//! The paper's topology-dependent bounds (Theorem 3.1, Corollary G.2,
//! Theorem G.3) are *instance*-parameterised — they depend on `N`, the
//! placement and the topology, not just the hypergraph shape — yet the
//! original planner was purely structural: `choose_ghd` picked the
//! width-minimising GYO-GHD, join order was a smallest-first heuristic
//! re-derived inside each consumer, and the distributed runtime costed
//! aggregation players with its own private BFS logic. Following the
//! cardinality-bound tradition of Gottlob–Lee–Valiant, this crate owns
//! one logical **Plan IR** that flows from parse to execution:
//!
//! ```text
//!   factors ──stats──▶ QueryStats ─┐
//!                                  │ candidates: structural default +
//!   hypergraph ──GYO──▶ GHD ───────┤ every rooting of the join forest
//!                                  │ (root vectors, moved to cover F)
//!   InputPlacement on a topology ─▶│
//!                                  ▼
//!                    one PlanShape per search (key, width terms, shard
//!                    push-down candidates); per candidate QueryPlan::build
//!                    into one spare plan's storage, then CostModel::score
//!                    (upward-pass dry run of that plan: generic-join
//!                    bags, message folds, push-down sizes, shard nests,
//!                    shipped bits)
//!                                  │  strict-improvement argmin
//!                                  ▼
//!       QueryPlan { ghd, joins, var_orders, nests, children,
//!                   shard nests, cost, node_rows, width, … }
//! ```
//!
//! * [`QueryStats`] / [`StatsDigest`] — per-factor cardinality and
//!   distinct counts, gathered in one kernel pass
//!   ([`faqs_relation::Relation::stats`]), plus the coarse
//!   scale-invariant digest the `faqs-exec` plan cache keys on.
//! * [`plan_query_with`] — the one planning door: candidate
//!   enumeration from one GYO run ([`faqs_hypergraph::QueryStructure`]:
//!   the structural default first, then every rooting of the canonical
//!   join forest as a root vector, each moved further for free-variable
//!   coverage and deduplicated on its vector before its GHD is built,
//!   then the cyclic-core merges) and cost-based selection under
//!   optional placement and statistics. The
//!   default wins all ties, so uniform instances plan exactly as the
//!   structural planner did; [`structural_plan`] is that default on its
//!   own, read from no data — the reference plan.
//! * [`QueryPlan`] — the one plan value: the validated GHD plus, per
//!   node, the factor join order, child fold order, push-down nest and
//!   (for a bag of two or more factors) the generic join's binding
//!   order, and per edge the shard nest the runtime sums out before
//!   shipping. The cost model dry-runs exactly this value, and
//!   `faqs-core::solve_faq`, the `faqs-exec` executor, the incremental
//!   session and `DistributedFaqRun` run it; no consumer derives any of
//!   it again. It carries the width terms Theorem 4.1's bound reads
//!   (`y`, `n2`, single tree) from the same analysis, and records its
//!   query's structural [`PlanKey`] — the
//!   plan cache's key — and every door that takes a caller's plan
//!   refuses a query of another shape ([`QueryPlan::check_query`]).
//! * [`choose_aggregation_players`] — the placement-aware
//!   `argmin Σ bits·distance` choice of per-GHD-node aggregation
//!   players, shared verbatim by the cost model's predictions and the
//!   distributed runtime's actual routing, over one [`LiveDistances`]
//!   table per placed run.
//!
//! Validation (`check_push_down`, free-variable coverage) lives here
//! too; callers import it from this crate. The free-variable re-rooting
//! search is private to the planner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod cost;
mod error;
mod fingerprint;
mod plan;
mod planner;
mod stats;
mod validate;

pub use calibration::{CalibrationLog, CalibrationRegistry, CalibrationSample, CalibrationStats};
pub use cost::PlanCost;
pub use error::EngineError;
pub use fingerprint::PlanKey;
pub use plan::QueryPlan;
pub use planner::{
    choose_aggregation_players, cost_quote_calibrated, plan_query, plan_query_placed,
    plan_query_with, structural_plan, CandidateReport, LiveDistances, PlacementContext,
    PlannerConfig,
};
pub use stats::{MaintainedQueryStats, QueryStats, StatsDigest};
pub use validate::{check_elimination_order, check_product_aggregates, check_push_down};

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{example_h2, path_query, star_query, EdgeId, Ghd, GhdNode, NodeId, Var};
    use faqs_network::{Player, Topology};
    use faqs_relation::{random_instance, skewed_star_instance, FaqQuery, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Boolean, Count};

    fn count_instance(h: &faqs_hypergraph::Hypergraph, seed: u64) -> FaqQuery<Count> {
        random_instance(
            h,
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 4,
                seed,
            },
            vec![],
            |_| Count(1),
        )
    }

    #[test]
    fn structural_mode_reproduces_the_width_witness() {
        // `structural_plan` — the reference plan — is exactly the width
        // witness (its core covers `F = ∅`) with smallest-first join
        // orders, and carries the witness's bound terms.
        for h in [star_query(3), path_query(4), example_h2()] {
            let q = count_instance(&h, 7);
            let plan = structural_plan(&q).unwrap();
            assert_eq!(plan.candidates.len(), 1);
            let witness = faqs_hypergraph::internal_node_width(&h);
            assert_eq!(plan.width, witness.terms());
            let reference = witness.ghd;
            assert_eq!(plan.ghd.root(), reference.root());
            assert_eq!(plan.ghd.len(), reference.len());
            for n in reference.node_ids() {
                assert_eq!(plan.ghd.chi(n), reference.chi(n));
                assert_eq!(plan.ghd.parent(n), reference.parent(n));
            }
            // The join order is a permutation of each node's λ,
            // smallest-first.
            for n in plan.ghd.node_ids() {
                let order = plan.joins(n);
                let mut lambda = plan.ghd.node(n).lambda.clone();
                let mut sorted = order.to_vec();
                sorted.sort();
                lambda.sort();
                assert_eq!(sorted, lambda);
                assert!(order
                    .windows(2)
                    .all(|w| q.factor(w[0]).len() <= q.factor(w[1]).len()));
            }
        }
    }

    #[test]
    fn uniform_instances_keep_the_structural_default() {
        // All factors the same size: every candidate ties and the
        // default must win (cache keys, pinned distributed schedules
        // and ablation tables all rely on this determinism).
        let q = faqs_relation::irreducible_star_instance(4, 16);
        let plan = plan_query_with(&q, None, None).unwrap();
        assert!(plan.chose_default(), "ties keep candidate 0");
        assert!(plan.candidates.len() > 1, "reroots were actually scored");
    }

    #[test]
    fn skewed_star_reroots_away_from_the_huge_leaf() {
        // The pinned planner regression: the canonical GYO run roots
        // the star at edge 0 — the n²-row factor — so the structural
        // default seeds the upward pass with the huge relation and
        // probes it on every fold. The cost model must pick a thin
        // root and predict strictly less kernel work.
        let q = skewed_star_instance(3, 16);
        let structural = structural_plan(&q).unwrap();
        assert!(
            structural.ghd.node(structural.ghd.root()).lambda == vec![EdgeId(0)],
            "precondition: the structural default roots at the huge edge 0"
        );

        let plan = plan_query_with(&q, None, None).unwrap();
        assert!(!plan.chose_default(), "stats must beat the default here");
        assert!(
            !plan.ghd.node(plan.ghd.root()).lambda.contains(&EdgeId(0)),
            "the huge factor must not seed the root"
        );
        let default_cost = plan.candidates[0].cost;
        assert!(
            plan.cost.cpu < default_cost.cpu,
            "chosen {} !< default {}",
            plan.cost.cpu,
            default_cost.cpu
        );
    }

    #[test]
    fn placement_awareness_minimises_predicted_bits() {
        // Same skewed star, huge factor held far from the output: the
        // placed cost model must predict strictly fewer shipped bits
        // for the chosen plan than for the structural default (which
        // gathers the n²-row factor at the output-pinned root). The
        // `Product` aggregate defeats the shard-local Sum push-down on
        // the huge factor (same trick as the protocols fixture) — with
        // pre-aggregation modelled, the raw-size gap this test pins
        // would otherwise collapse to a tie.
        let q =
            skewed_star_instance(3, 16).with_aggregate(Var(1), faqs_semiring::Aggregate::Product);
        let g = Topology::line(4);
        let ctx = PlacementContext::new(
            &q,
            &g,
            vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
            Player(3),
        );
        let plan = plan_query_with(&q, Some(&ctx), None).unwrap();
        assert!(!plan.chose_default());
        let default_bits = plan.candidates[0].cost.net_bits;
        assert!(
            plan.cost.net_bits < default_bits,
            "chosen {} !< default {}",
            plan.cost.net_bits,
            default_bits
        );
    }

    fn all_sources(g: &Topology) -> LiveDistances {
        LiveDistances::new(g, g.players())
    }

    #[test]
    fn aggregation_players_pin_root_and_minimise_mass() {
        let q: FaqQuery<Boolean> = skewed_star_instance(3, 8);
        let plan = structural_plan(&q).unwrap();
        let g = Topology::line(4);
        let n_nodes = plan.slots();
        // Give every non-root node one shard at player 0 with heavy
        // mass: the chooser must go to the holder, not the output.
        let mut shards = vec![Vec::new(); n_nodes];
        for n in plan.ghd.node_ids() {
            if n != plan.ghd.root() {
                shards[n.index()].push((Player(0), 1_000u64));
            }
        }
        let agg = choose_aggregation_players(&all_sources(&g), &plan, Player(3), &shards);
        assert_eq!(agg[plan.ghd.root().index()], Player(3), "root at output");
        for n in plan.ghd.node_ids() {
            if n != plan.ghd.root() {
                assert_eq!(agg[n.index()], Player(0), "mass wins over output");
            }
        }
    }

    #[test]
    fn unreachable_players_never_win_the_aggregation_argmin() {
        // The pinned bug: zero-bit shard masses price every candidate
        // at `0 × clamp = 0`, so the lowest player id used to win even
        // when it was marooned behind a down link — a guaranteed
        // `NoRoute` at runtime. With the viability filter the marooned
        // holder is excluded and a reachable candidate wins.
        let q: FaqQuery<Boolean> = skewed_star_instance(3, 8);
        let plan = structural_plan(&q).unwrap();
        let mut g = Topology::line(4);
        g.set_capacity(faqs_network::LinkId(0), 0); // maroon Player(0)
        let n_nodes = plan.slots();
        let mut shards = vec![Vec::new(); n_nodes];
        for n in plan.ghd.node_ids() {
            if n != plan.ghd.root() {
                // Zero-bit shards at a marooned holder and a live one.
                shards[n.index()].push((Player(0), 0u64));
                shards[n.index()].push((Player(1), 0u64));
            }
        }
        let agg = choose_aggregation_players(&all_sources(&g), &plan, Player(3), &shards);
        for n in plan.ghd.node_ids() {
            if n != plan.ghd.root() {
                assert_ne!(
                    agg[n.index()],
                    Player(0),
                    "a marooned candidate must never win"
                );
            }
        }
    }

    #[test]
    fn partitioned_placements_fail_loudly_at_plan_time() {
        // A shard holder the rest of the topology cannot reach at all:
        // no aggregation player can gather it, so the planner must
        // reject the placement instead of handing the runtime a
        // silently mispriced route.
        let q = skewed_star_instance(3, 16);
        let mut g = Topology::line(4);
        g.set_capacity(faqs_network::LinkId(0), 0); // Player(0) marooned
        let ctx = PlacementContext::new(
            &q,
            &g,
            vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
            Player(3),
        );
        let err = plan_query_with(&q, Some(&ctx), None);
        assert!(
            matches!(err, Err(EngineError::Invalid(ref m)) if m.contains("unreachable")),
            "partitioned placement must be a planner error, got {err:?}"
        );
        // The same placement on the healthy line plans fine.
        let g2 = Topology::line(4);
        let ctx2 = PlacementContext::new(
            &q,
            &g2,
            vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]],
            Player(3),
        );
        assert!(plan_query_with(&q, Some(&ctx2), None).is_ok());
    }

    #[test]
    fn pre_agg_candidates_mirror_the_runtime_guard() {
        // Plain Sum star: every leaf's private bound variable is
        // pre-aggregable; the shared core variable is not (it lives in
        // every edge).
        let q = skewed_star_instance(3, 8);
        let pre = plan::pre_agg_candidates(&q);
        assert_eq!(pre.len(), q.factors.len());
        for (e, vars) in pre.iter().enumerate() {
            for v in vars {
                let in_edges = q
                    .hypergraph
                    .edges()
                    .filter(|(_, vs)| vs.contains(v))
                    .count();
                assert_eq!(in_edges, 1, "edge {e}: {v:?} must be private");
                assert!(!q.is_free(*v));
            }
        }
        // A Product aggregate defeats the guard for its variable.
        let blocked = q
            .clone()
            .with_aggregate(Var(1), faqs_semiring::Aggregate::Product);
        let pre_blocked = plan::pre_agg_candidates(&blocked);
        assert!(
            pre_blocked.iter().all(|vs| !vs.contains(&Var(1))),
            "Product variables are never pre-aggregated"
        );
    }

    #[test]
    fn pre_aggregation_shrinks_predicted_shipped_bits() {
        // The modelling-gap regression at plan level: on the plain-Sum
        // skewed star every leaf's private variable is in its edge's
        // shard nest, so predicted shipped bits drop strictly below
        // those of the same instance with the leaves under `Max`, which
        // the guard never pre-aggregates (the runtime Sum-aggregates
        // each shard before shipping; the model must charge what
        // actually ships).
        let q = skewed_star_instance(3, 16);
        let leaves = [Var(1), Var(2), Var(3)];
        let raw_q = leaves
            .iter()
            .fold(q.clone(), |q, &v| q.with_aggregate(v, Aggregate::Max));
        let g = Topology::line(4);
        let holders = vec![vec![Player(0)], vec![Player(1)], vec![Player(2)]];
        let ctx = PlacementContext::new(&q, &g, holders, Player(3));
        let fixed = plan_query_with(&q, Some(&ctx), None).unwrap();
        let raw = plan_query_with(&raw_q, Some(&ctx), None).unwrap();
        let edges = || (0..q.k()).map(|e| EdgeId(e as u32));
        assert!(
            edges().any(|e| !fixed.shard_nest(e).is_empty()),
            "precondition: the star has pre-aggregable variables"
        );
        assert!(edges().all(|e| raw.shard_nest(e).is_empty()));
        assert!(
            fixed.cost.net_bits < raw.cost.net_bits,
            "aggregated shards must ship fewer predicted bits: {} !< {}",
            fixed.cost.net_bits,
            raw.cost.net_bits
        );
    }

    #[test]
    fn statistics_of_another_length_are_a_typed_error() {
        let q = count_instance(&star_query(3), 1);
        let mut stats = QueryStats::of(&q);
        stats.factors.pop();
        assert!(matches!(
            plan_query_with(&q, None, Some(&stats)),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn precomputed_stats_plan_matches_fresh_scan() {
        // The incremental engine plans from MaintainedStats snapshots;
        // the outcome must be indistinguishable from a fresh O(data)
        // gathering pass, including the cache digest.
        let q = skewed_star_instance(3, 16);
        let fresh = plan_query_with(&q, None, None).unwrap();
        let stats = QueryStats::from_factors(
            q.factors
                .iter()
                .map(|f| faqs_relation::MaintainedStats::of(f).snapshot())
                .collect(),
        );
        assert_eq!(stats.digest(), QueryStats::of(&q).digest());
        let pre = plan_query_with(&q, None, Some(&stats)).unwrap();
        assert_eq!(pre.cost.cpu, fresh.cost.cpu);
        assert_eq!(pre.cost.net_bits, fresh.cost.net_bits);
        assert_eq!(pre.candidates.len(), fresh.candidates.len());
        assert!(!pre.chose_default(), "still reroots away from the skew");
    }

    #[test]
    fn cost_quote_prices_the_structural_default() {
        // The quote is the default candidate's simulated cost — an
        // upper estimate for whatever the full search ends up choosing.
        let registry = CalibrationRegistry::new();
        let q = skewed_star_instance(3, 16);
        let quote = cost_quote_calibrated(&q, false, &registry).unwrap();
        assert!(quote.cpu > 0, "a non-trivial instance costs something");
        let plan = plan_query_with(&q, None, None).unwrap();
        assert_eq!(quote, plan.candidates[0].cost, "quote = default's cost");
        assert!(plan.cost.cpu <= quote.cpu, "chosen plan never costs more");
        // Shape-level rejection matches the planner's: the carrier
        // decides — ℕ admits `max`, not `min`.
        let star = count_instance(&star_query(3), 1);
        let bad = star.clone().with_aggregate(Var(1), Aggregate::Min);
        assert!(matches!(
            cost_quote_calibrated(&bad, true, &registry),
            Err(EngineError::RefusedAggregate(Var(1), _))
        ));
        let max = star.with_aggregate(Var(1), Aggregate::Max);
        // The three shims `benchmark/` compiles against: a `lattice`
        // argument can only restrict, the fieldless `PlannerConfig`
        // changes nothing, and the quote validates the listings before
        // it prices what a fresh scan gathers.
        let cfg = PlannerConfig;
        assert!(plan_query(&max, true, &cfg).is_ok());
        assert!(matches!(
            plan_query(&max, false, &cfg),
            Err(EngineError::Invalid(_))
        ));
        assert!(cost_quote_calibrated(&max, true, &registry).is_ok());
        assert!(cost_quote_calibrated(&max, false, &registry).is_err());
        assert!(plan_query(&bad, true, &cfg).is_err());
        let mut narrow = q;
        narrow.domain = 2;
        assert!(matches!(
            cost_quote_calibrated(&narrow, false, &registry),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_unplaceable_free_vars_like_the_engine() {
        let h = path_query(5);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 2,
                domain: 2,
                seed: 1,
            },
            vec![Var(0), Var(5)],
            |_| Count(1),
        );
        assert!(matches!(
            plan_query_with(&q, None, None),
            Err(EngineError::FreeVarsOutsideCore(_))
        ));
        assert!(matches!(
            structural_plan(&q),
            Err(EngineError::FreeVarsOutsideCore(_))
        ));
    }

    #[test]
    fn triangles_merge_the_core_and_pick_generic_join() {
        // A dense triangle: the GYO default hangs the three edges as
        // leaves under an empty-λ root and folds them as a binary
        // cascade with a quadratic intermediate. The planner must
        // instead merge the core into one multi-factor bag and lower
        // it to the generic join.
        let h = faqs_hypergraph::cycle_query(3);
        let q: FaqQuery<Count> = random_instance(
            &h,
            &RandomInstanceConfig {
                tuples_per_factor: 2000,
                domain: 100,
                seed: 11,
            },
            vec![],
            |_| Count(1),
        );
        let plan = plan_query_with(&q, None, None).unwrap();
        assert!(!plan.chose_default(), "merged core must beat the default");
        assert!(plan.uses_generic_join(), "the merged bag lowers to WCOJ");
        assert!(
            plan.candidates.iter().any(|c| c.label == "merged core"),
            "the flat-core candidate is in the explain table"
        );
        let root = plan.ghd.root().index();
        assert_eq!(plan.var_orders[root], [Var(0), Var(1), Var(2)]);
        assert!(
            plan.cost.cpu < plan.candidates[0].cost.cpu,
            "generic join predicted cheaper than the default: {} !< {}",
            plan.cost.cpu,
            plan.candidates[0].cost.cpu
        );

        // The structural plan is untouched: legacy shape, one-factor bags.
        let structural = structural_plan(&q).unwrap();
        assert!(!structural.uses_generic_join());
        assert!(structural.ghd.node(structural.ghd.root()).lambda.is_empty());
    }

    #[test]
    fn benchmark_cyclic_fixtures_keep_their_plans() {
        // The two cyclic instances `exec_scan_suite` solves (before its
        // relabelling, which keeps their statistics): each plans one
        // merged generic-join bag, and its predicted cpu and rows are
        // pinned, so the benchmark's plans cannot move unnoticed.
        let fixtures = [
            (
                faqs_hypergraph::cycle_query(3),
                3000,
                209,
                20,
                151_852,
                2640,
            ),
            (faqs_hypergraph::cycle_query(4), 700, 79, 21, 102_766, 4900),
        ];
        for (h, tuples_per_factor, domain, seed, cpu, rows) in fixtures {
            let cfg = RandomInstanceConfig {
                tuples_per_factor,
                domain,
                seed,
            };
            let q: FaqQuery<Count> = random_instance(&h, &cfg, vec![], |_| Count(1));
            let plan = plan_query_with(&q, None, None).unwrap();
            let chosen = plan.candidates.iter().find(|c| c.chosen).unwrap();
            assert_eq!(chosen.label, "merged core", "{h:?}");
            let root = plan.ghd.root();
            assert_eq!(plan.ghd.len(), 1, "{h:?}: one bag");
            assert_eq!(plan.joins(root).len(), q.k(), "{h:?}");
            assert_eq!(plan.var_orders[root.index()].len(), h.num_vars(), "{h:?}");
            assert_eq!(plan.cost.cpu, cpu, "{h:?}");
            assert_eq!(plan.node_rows, [rows], "{h:?}");
        }
    }

    /// What the cost model must bind a generic-join bag in: the kept
    /// variables — the free ones in declared order at the root, the
    /// parent's ascending below it — then the private ones ascending.
    fn layout_order(q: &FaqQuery<Count>, ghd: &Ghd, node: NodeId, bag: &[EdgeId]) -> Vec<Var> {
        let mut bag_vars: Vec<Var> = bag
            .iter()
            .flat_map(|&e| q.hypergraph.edge(e).iter().copied())
            .collect();
        bag_vars.sort_unstable();
        bag_vars.dedup();
        let kept: Vec<Var> = match ghd.parent(node) {
            None => q.free_vars.clone(),
            Some(p) => {
                let seen = |v: &&Var| ghd.chi(p).contains(v);
                bag_vars.iter().filter(seen).copied().collect()
            }
        };
        let private = bag_vars.iter().filter(|v| !kept.contains(v));
        let order: Vec<Var> = kept.iter().chain(private).copied().collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, bag_vars, "a permutation of the bag's variables");
        order
    }

    #[test]
    fn generic_join_bags_bind_in_push_down_layout_order() {
        // Sizes at which the merged core lowers to the generic join.
        let shapes = [
            (faqs_hypergraph::cycle_query(3), 300, 24),
            (faqs_hypergraph::cycle_query(4), 700, 79),
            (faqs_hypergraph::clique_query(4), 300, 24),
        ];
        let frees: [&[u32]; 5] = [&[], &[1], &[2, 0], &[1, 0, 2], &[2, 1]];
        for (h, tuples_per_factor, domain) in &shapes {
            let (mut closed, mut open) = (0, 0);
            for (seed, free) in frees.iter().enumerate() {
                let cfg = RandomInstanceConfig {
                    tuples_per_factor: *tuples_per_factor,
                    domain: *domain,
                    seed: seed as u64,
                };
                let free: Vec<Var> = free.iter().map(|&v| Var(v)).collect();
                let q: FaqQuery<Count> = random_instance(h, &cfg, free, |_| Count(1));
                let plan = plan_query_with(&q, None, None).unwrap();
                for node in plan.ghd.node_ids() {
                    let var_order = &plan.var_orders[node.index()];
                    if !var_order.is_empty() {
                        let bag = plan.joins(node);
                        assert_eq!(var_order, &layout_order(&q, &plan.ghd, node, bag));
                        *(if q.free_vars.is_empty() {
                            &mut closed
                        } else {
                            &mut open
                        }) += 1;
                    }
                }
            }
            assert!(closed >= 1 && open >= 3, "{h:?}: {closed} + {open} bags");
        }

        // Below the root the kept variables are the parent's: a triangle
        // bag hanging under its pendant edge {2, 3} binds 2 first.
        let mut h = faqs_hypergraph::Hypergraph::new(4);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            h.add_edge([Var(a), Var(b)]);
        }
        let pendant = h.add_edge([Var(2), Var(3)]);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 300,
            domain: 24,
            seed: 5,
        };
        let q: FaqQuery<Count> = random_instance(&h, &cfg, vec![Var(3)], |_| Count(1));
        let node = |chi: &[u32], lambda: Vec<EdgeId>, parent| GhdNode {
            chi: chi.iter().map(|&v| Var(v)).collect(),
            lambda,
            parent,
        };
        let triangle = vec![EdgeId(0), EdgeId(1), EdgeId(2)];
        let ghd = Ghd::from_nodes(
            vec![
                node(&[2, 3], vec![pendant], None),
                node(&[0, 1, 2], triangle.clone(), Some(NodeId(0))),
            ],
            NodeId(0),
        );
        let orders = QueryPlan::for_ghd(&q, ghd.clone()).unwrap().var_orders;
        let want = layout_order(&q, &ghd, NodeId(1), &triangle);
        assert_eq!(want, [Var(2), Var(0), Var(1)]);
        assert_eq!(orders[1], want);
        assert!(orders[0].is_empty(), "a one-factor bag binds nothing");
    }

    #[test]
    fn candidate_dedup_drops_the_re_enumerated_canonical_base() {
        // The analysis's rootings re-enumerate the default's rooting;
        // the root-vector and fingerprint dedups must keep exactly one
        // copy of each distinct shape in the explain table.
        let q = skewed_star_instance(3, 16);
        let plan = plan_query_with(&q, None, None).unwrap();
        let mut labels: Vec<&str> = plan.candidates.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate candidate labels survived");
        // The canonical rooting equals the default and must be deduped:
        // a 3-leaf star has 3 rerootings, one of which is the default.
        assert_eq!(plan.candidates.len(), 3, "default + 2 distinct reroots");
    }

    #[test]
    fn candidate_table_is_explainable() {
        let q = skewed_star_instance(4, 8);
        let plan = plan_query_with(&q, None, None).unwrap();
        assert_eq!(plan.candidates[0].label, "structural default");
        assert_eq!(
            plan.candidates.iter().filter(|c| c.chosen).count(),
            1,
            "exactly one winner"
        );
        for c in &plan.candidates {
            assert!(c.y >= 1);
            assert!(c.cost.cpu > 0, "{}: simulated work is non-trivial", c.label);
        }
    }
}
