//! The full d-degenerate protocol (Theorems 4.1, F.1, G.4): peel `y(H)`
//! stars off the GYO-GHD bottom-up with the star protocol, then finish
//! the core with the trivial protocol — or with one final star when the
//! whole query is acyclic and the root carries a relation.

use crate::bounds::{model_capacity_bits, BoundReport};
use crate::outcome::{check_whole_placement, Inputs, ProtocolError, ProtocolOutcome};
use crate::star::{run_star_phase, LeafInput};
use faqs_hypergraph::{Ghd, NodeId, Var};
use faqs_network::{InputPlacement, NetRun, Player, Topology};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Semiring};

/// Runs the distributed FAQ protocol, each bound variable under any
/// aggregate the carrier admits (`Semiring::admits`). The elimination
/// order the GHD realises must be a legal reordering of Equation (4)'s
/// nesting — the protocol eliminates exactly the same private-variable
/// sets as the engine on the same GHD, so the engine's gate applies
/// verbatim, before anything is transmitted, and so does the refusal of
/// a player set the topology does not connect
/// ([`ProtocolError::Unreachable`]).
///
/// `capacity_tuples` scales every link to carry that many tuples
/// (`r·⌈log₂ D⌉` bits plus annotation) per round — `1` is the paper's
/// Model 2.1 allowance; pass `0` to keep `g`'s own capacities.
///
/// The answer relation (over the free variables) ends at
/// `placement.output()`; it is returned with the run's report, checked
/// against Theorem 4.1's bound ([`BoundReport::upper_rounds`]).
pub fn run_faq_protocol<S: Semiring>(
    q: &FaqQuery<S>,
    g: &Topology,
    placement: &InputPlacement,
    capacity_tuples: u64,
) -> Result<ProtocolOutcome<Relation<S>>, ProtocolError> {
    check_whole_placement(q, g, placement)?;
    let scaled;
    let g = if capacity_tuples == 0 {
        g
    } else {
        scaled = g
            .clone()
            .with_uniform_capacity(capacity_tuples * model_capacity_bits(q));
        &scaled
    };

    // Decomposition: the structural plan's width-minimising GHD, or
    // re-rooted to cover F, refused unless its elimination order is
    // legal — and, from the same analysis, the width terms of the bound.
    let plan = faqs_plan::structural_plan(q).map_err(|e| ProtocolError::Engine(e.to_string()))?;

    // The bound needs a Steiner tree spanning the players; without one
    // the players cannot all reach each other either.
    let players = placement.players();
    let bound = BoundReport::evaluate_with(q, g, &players, plan.width, None)
        .ok_or_else(|| ProtocolError::Unreachable("the players are not connected".into()))?;
    let mut run = NetRun::new(g);
    let answer = execute_on_ghd(q, plan.ghd, placement, &mut run)?;
    let inputs = Inputs::of(q, players.len());
    ProtocolOutcome::checked::<S>(answer, &run, inputs, bound.upper_rounds, Some(bound))
}

/// Runs the BCQ protocol (Boolean semiring, `F = ∅`): `true` iff the
/// query is satisfiable, learned by `placement.output()`.
pub fn run_bcq_protocol(
    q: &FaqQuery<Boolean>,
    g: &Topology,
    placement: &InputPlacement,
    capacity_tuples: u64,
) -> Result<ProtocolOutcome<bool>, ProtocolError> {
    if !q.free_vars.is_empty() {
        return Err(ProtocolError::Invalid("BCQ has no free variables".into()));
    }
    let out = run_faq_protocol(q, g, placement, capacity_tuples)?;
    Ok(ProtocolOutcome {
        answer: !out.answer.total().is_zero(),
        report: out.report,
    })
}

/// The protocol body: star peels bottom-up, then the core finish.
fn execute_on_ghd<S: Semiring>(
    q: &FaqQuery<S>,
    mut ghd: Ghd,
    placement: &InputPlacement,
    run: &mut NetRun<'_>,
) -> Result<Relation<S>, ProtocolError> {
    let root = ghd.root();

    // Node state: current relation and its holder. The synthetic root
    // may carry no relation.
    let n_nodes = ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
    let mut rel: Vec<Option<(Relation<S>, Player)>> = vec![None; n_nodes];
    for node in ghd.node_ids() {
        let lambda = &ghd.node(node).lambda;
        match lambda.as_slice() {
            [] => {}
            [e] => rel[node.index()] = Some((q.factor(*e).clone(), placement.shard_holders(*e)[0])),
            _ => {
                return Err(ProtocolError::Invalid(
                    "GYO-GHD nodes cover at most one edge".into(),
                ))
            }
        }
    }

    let mut phase_start = 1u64;

    // ---- Star peels (Lemma 4.1 / F.1) ----
    while let Some((center, leaves)) = ghd.lowest_star() {
        let is_root_star = center == root;
        if is_root_star && rel[root.index()].is_none() {
            break; // synthetic-root core: handled by the trivial finish
        }
        let Some((center_rel, center_holder)) = rel[center.index()].clone() else {
            return Err(ProtocolError::Invalid("center without a relation".into()));
        };

        // Build leaf messages: aggregate out the leaf-private variables
        // (χ(leaf) ∖ χ(center)).
        let center_chi = ghd.chi(center).to_vec();
        let mut leaf_inputs = Vec::with_capacity(leaves.len());
        for &leaf in &leaves {
            let Some((leaf_rel, leaf_holder)) = rel[leaf.index()].clone() else {
                return Err(ProtocolError::Invalid("leaf without a relation".into()));
            };
            leaf_inputs.push(LeafInput {
                message: aggregate_out_all_but(q, leaf_rel, &center_chi),
                holder: leaf_holder,
            });
        }

        // Mid-protocol stars deliver to the center's holder; the final
        // (root) star delivers directly to the designated output player.
        let phase_output = if is_root_star {
            placement.output()
        } else {
            center_holder
        };
        let result = run_star_phase(
            run,
            &center_rel,
            center_holder,
            &leaf_inputs,
            phase_output,
            q.domain,
            phase_start,
        )?;
        phase_start = result.completed_at + 1;
        rel[center.index()] = Some((result.new_center, phase_output));
        ghd.remove_leaves(&leaves);

        if is_root_star {
            break;
        }
    }

    // ---- Core finish (Lemma 3.1 applied to what remains) ----
    let output = placement.output();
    let remaining: Vec<NodeId> = ghd.node_ids().collect();
    for &node in &remaining {
        let Some((relation, holder)) = rel[node.index()].clone() else {
            continue;
        };
        if holder == output {
            continue;
        }
        let bits = relation.bits(q.domain);
        run.send_via_shortest_path(holder, output, bits, phase_start)
            .map_err(|e| ProtocolError::Unreachable(e.to_string()))?;
        rel[node.index()] = Some((relation, output));
    }

    // Local combine at the output player: upward pass over the remaining
    // (≤ 2 level) GHD.
    let mut combined: Option<Relation<S>> = None;
    for &node in &remaining {
        if node == root {
            continue;
        }
        let Some((relation, _)) = rel[node.index()].clone() else {
            continue;
        };
        let message = aggregate_out_all_but(q, relation, ghd.chi(root));
        combined = Some(match combined {
            Some(acc) => acc.join(&message),
            None => message,
        });
    }
    if let Some((root_rel, _)) = rel[root.index()].clone() {
        combined = Some(match combined {
            Some(acc) => acc.join(&root_rel),
            None => root_rel,
        });
    }
    // Aggregate the remaining bound variables.
    let mut result =
        aggregate_out_all_but(q, combined.unwrap_or_else(Relation::unit), &q.free_vars);
    if result.schema() != q.free_vars.as_slice() {
        result = result.reorder(&q.free_vars);
    }
    Ok(result)
}

/// `rel` with every variable outside `kept` aggregated out under the
/// query's aggregate, innermost (highest index) first.
fn aggregate_out_all_but<S: Semiring>(
    q: &FaqQuery<S>,
    mut rel: Relation<S>,
    kept: &[Var],
) -> Relation<S> {
    let mut gone: Vec<Var> = rel
        .schema()
        .iter()
        .copied()
        .filter(|v| !kept.contains(v))
        .collect();
    gone.sort_unstable_by(|a, b| b.cmp(a));
    for v in gone {
        debug_assert!(!q.is_free(v), "free variables are never aggregated out");
        rel = rel.aggregate_out(v, q.aggregates[v.index()]);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::{solve_bcq, solve_faq_brute_force};
    use faqs_hypergraph::{
        clique_query, cycle_query, example_h0, example_h1, example_h2, example_h3, grid_query,
        path_query, random_degenerate_query, star_query,
    };
    use faqs_relation::{
        random_boolean_instance, random_instance, BcqBuilder, RandomInstanceConfig,
    };
    use faqs_semiring::{Aggregate, Count, MinPlus, Prob};

    /// `got`, with a successful run's per-link tallies held to its total
    /// bits (the scheduler's invariant, carried into the report).
    fn tallied<T>(
        got: Result<ProtocolOutcome<T>, ProtocolError>,
    ) -> Result<ProtocolOutcome<T>, ProtocolError> {
        if let Ok(out) = &got {
            let report = &out.report;
            assert_eq!(
                report.link_bits.iter().sum::<u64>(),
                report.stats.total_bits
            );
        }
        got
    }

    fn all_players(g: &Topology) -> Vec<u32> {
        (0..g.num_players() as u32).collect()
    }

    #[test]
    fn example_2_1_self_loops_on_line() {
        // q0() :- R(A), S(A), T(A), U(A) on the 4-line: the answer is the
        // non-emptiness of the 4-way intersection, P4 learns it, and the
        // rounds are N + O(k), far below the trivial 3N + 2.
        let h = example_h0();
        let n = 64u32;
        let mut b = BcqBuilder::new(&h, 2 * n as usize);
        b.relation_from_values(0, 0..n);
        b.relation_from_values(1, (0..n).map(|x| 2 * x));
        b.relation_from_values(2, (0..n).map(|x| 3 * x % (2 * n)));
        b.relation_from_values(3, [0]);
        let q = b.finish();
        let g = Topology::line(4);
        let a = InputPlacement::round_robin(&q, &[0, 1, 2, 3]).with_output(Player(3));
        let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
        assert_eq!(out.answer, solve_bcq(&q));
        assert!(out.answer, "0 is everywhere");
        assert!(
            out.report.stats.rounds <= 2 * (n as u64) + 16,
            "Example 2.1 shape: N + O(1), got {}",
            out.report.stats.rounds
        );
    }

    #[test]
    fn example_2_2_star_on_line() {
        // BCQ of H1 on G1 in ≈ N + k rounds (Corollary 4.3).
        let n = 64u32;
        let h = example_h1();
        let mut b = BcqBuilder::new(&h, n as usize);
        for e in 0..4 {
            b.relation_from_pairs(e, (0..n).map(|x| (x, x % 7)));
        }
        let q = b.finish();
        let g = Topology::line(4);
        let a = InputPlacement::round_robin(&q, &[0, 1, 2, 3]).with_output(Player(1));
        let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
        assert_eq!(out.answer, solve_bcq(&q));
        assert!(
            out.report.stats.rounds <= 2 * (n as u64) + 16,
            "Corollary 4.3 shape, got {}",
            out.report.stats.rounds
        );
    }

    #[test]
    fn example_2_3_star_on_clique_parallelises() {
        let n = 128u32;
        let h = example_h1();
        let mk = |q: &FaqQuery<Boolean>| {
            InputPlacement::round_robin(q, &[0, 1, 2, 3]).with_output(Player(1))
        };
        let mut b = BcqBuilder::new(&h, n as usize);
        for e in 0..4 {
            b.relation_from_pairs(e, (0..n).map(|x| (x, 0)));
        }
        let q = b.finish();
        let line = Topology::line(4);
        let clique = Topology::clique(4);
        let out_line = tallied(run_bcq_protocol(&q, &line, &mk(&q), 1)).unwrap();
        let out_clique = tallied(run_bcq_protocol(&q, &clique, &mk(&q), 1)).unwrap();
        assert_eq!(out_line.answer, out_clique.answer);
        assert!(
            out_clique.report.stats.rounds * 3 <= out_line.report.stats.rounds * 2,
            "clique ≈ N/2 vs line ≈ N: {} vs {}",
            out_clique.report.stats.rounds,
            out_line.report.stats.rounds
        );
    }

    #[test]
    fn answers_match_engine_across_shapes_and_topologies() {
        let shapes = [
            star_query(3),
            path_query(4),
            cycle_query(4),
            example_h2(),
            example_h3(),
            clique_query(3),
            grid_query(2, 3),
        ];
        for (si, h) in shapes.into_iter().enumerate() {
            for seed in 0..4 {
                let cfg = RandomInstanceConfig {
                    tuples_per_factor: 6,
                    domain: 3,
                    seed: seed * 31 + si as u64,
                };
                let q = random_boolean_instance(&h, &cfg, seed % 2 == 0);
                for g in [Topology::line(4), Topology::clique(4), Topology::grid(2, 2)] {
                    let a = InputPlacement::round_robin(&q, &all_players(&g));
                    let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
                    assert_eq!(
                        out.answer,
                        solve_bcq(&q),
                        "shape {si} seed {seed} on {}",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn counting_faq_matches_brute_force_distributed() {
        for seed in 0..6 {
            let h = example_h2();
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 6,
                domain: 3,
                seed,
            };
            let q: FaqQuery<Count> = random_instance(&h, &cfg, vec![], |r| {
                use rand::Rng;
                Count(r.random_range(1..4))
            });
            let g = Topology::clique(4);
            let a = InputPlacement::round_robin(&q, &all_players(&g));
            let out = tallied(run_faq_protocol(&q, &g, &a, 1)).unwrap();
            assert_eq!(
                out.answer.total(),
                solve_faq_brute_force(&q).total(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pgm_marginal_distributed() {
        // Factor marginal over a chain PGM: F = last edge.
        let h = path_query(3);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 9,
            domain: 3,
            seed: 5,
        };
        let free = h.edge(faqs_hypergraph::EdgeId(2)).to_vec();
        let q: FaqQuery<Prob> = random_instance(&h, &cfg, free, |r| {
            use rand::Rng;
            Prob(r.random_range(0.1..1.0))
        });
        let g = Topology::line(3);
        let a = InputPlacement::round_robin(&q, &[0, 1, 2]);
        let out = tallied(run_faq_protocol(&q, &g, &a, 1)).unwrap();
        let oracle = solve_faq_brute_force(&q);
        assert!(out.answer.approx_eq(&oracle));
    }

    #[test]
    fn worst_case_assignment_on_barbell() {
        // Relations split across the bridge: rounds are governed by the
        // min cut, not the clique interiors.
        let n = 96;
        let q = random_boolean_instance(
            &star_query(4),
            &RandomInstanceConfig {
                tuples_per_factor: n,
                domain: 256,
                seed: 11,
            },
            true,
        );
        let g = Topology::barbell(3, 1);
        // Holders straddle the bridge (players 0,1 left; 3,4 right).
        let a = InputPlacement::whole(vec![Player(0), Player(1), Player(3), Player(4)], Player(4));
        let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
        assert_eq!(out.answer, solve_bcq(&q));
        assert!(
            out.report.stats.rounds as usize >= n / 2,
            "the single bridge edge bottlenecks: {}",
            out.report.stats.rounds
        );
    }

    #[test]
    fn degenerate_random_graphs_roundtrip() {
        for d in 1..=3u64 {
            let h = random_degenerate_query(8, d as usize, 100 + d);
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 5,
                domain: 3,
                seed: d,
            };
            let q = random_boolean_instance(&h, &cfg, d % 2 == 0);
            let g = Topology::random_connected(6, 0.3, d);
            let a = InputPlacement::round_robin(&q, &all_players(&g));
            let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
            assert_eq!(out.answer, solve_bcq(&q), "d = {d}");
        }
    }

    #[test]
    fn measured_rounds_within_predicted_envelope() {
        let q = random_boolean_instance(
            &example_h1(),
            &RandomInstanceConfig {
                tuples_per_factor: 128,
                domain: 128,
                seed: 13,
            },
            true,
        );
        let g = Topology::line(4);
        let a = InputPlacement::round_robin(&q, &[0, 1, 2, 3]);
        let out = tallied(run_bcq_protocol(&q, &g, &a, 1)).unwrap();
        assert!(
            out.report.stats.rounds <= 4 * out.report.upper_rounds + 16,
            "measured {} vs predicted {}",
            out.report.stats.rounds,
            out.report.upper_rounds
        );
    }

    #[test]
    fn lattice_max_aggregate_distributed_matches_oracle() {
        for seed in 0..5 {
            let h = star_query(3);
            let cfg = RandomInstanceConfig {
                tuples_per_factor: 6,
                domain: 3,
                seed,
            };
            let mut q: FaqQuery<Count> = random_instance(&h, &cfg, vec![], |r| {
                use rand::Rng;
                Count(r.random_range(1..6))
            });
            // Max on the leaf variables: legal semiring aggregates on
            // (ℕ, +, ×), eliminated leaf-locally by the star protocol.
            for v in [Var(1), Var(2), Var(3)] {
                q = q.with_aggregate(v, Aggregate::Max);
            }
            let g = Topology::clique(4);
            let a = InputPlacement::round_robin(&q, &all_players(&g));
            let out = tallied(run_faq_protocol(&q, &g, &a, 1)).unwrap();
            assert_eq!(
                out.answer.total(),
                solve_faq_brute_force(&q).total(),
                "seed {seed}"
            );
            assert!(out.report.stats.rounds > 0, "distributed work happened");
        }
    }

    #[test]
    fn lattice_entry_rejects_incompatible_orders() {
        let h = path_query(3);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 6,
            domain: 3,
            seed: 3,
        };
        // Max on x1 with Sum outside it across shared factors: the GHD
        // order cannot realise Equation (4)'s nesting.
        let q: FaqQuery<Count> =
            random_instance(&h, &cfg, vec![], |_| Count(1)).with_aggregate(Var(1), Aggregate::Max);
        let g = Topology::line(4);
        let a = InputPlacement::round_robin(&q, &[0, 1, 2]);
        assert!(matches!(
            run_faq_protocol(&q, &g, &a, 1),
            Err(ProtocolError::Engine(_))
        ));
    }

    #[test]
    fn refused_aggregates_fail_before_anything_is_transmitted() {
        // The private variable x2 is reached in the second star phase
        // of a path: a refusal discovered there would come after the
        // first phase shipped its bits. It comes from the gate instead,
        // naming the carrier and the aggregate.
        let h = path_query(3);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: 6,
            domain: 3,
            seed: 3,
        };
        let g = Topology::line(3);
        let refused = |err: ProtocolError, aggregate: &str, carrier: &str| {
            let ProtocolError::Engine(message) = err else {
                panic!("expected the engine's gate, got {err}");
            };
            assert!(
                message.contains(aggregate) && message.contains(carrier),
                "{message}"
            );
        };

        let tropical: FaqQuery<MinPlus> = random_instance(&h, &cfg, vec![], |_| MinPlus::new(1.0))
            .with_aggregate(Var(2), Aggregate::Max);
        let a = InputPlacement::round_robin(&tropical, &[0, 1, 2]);
        let err = run_faq_protocol(&tropical, &g, &a, 1).unwrap_err();
        refused(err, "Max", "min-plus");

        let counting: FaqQuery<Count> =
            random_instance(&h, &cfg, vec![], |_| Count(1)).with_aggregate(Var(2), Aggregate::Min);
        let err = run_faq_protocol(&counting, &g, &a, 1).unwrap_err();
        refused(err, "Min", "counting");
    }

    #[test]
    fn rejects_mismatched_assignment() {
        let q = random_boolean_instance(&example_h1(), &RandomInstanceConfig::default(), true);
        let g = Topology::line(2);
        let a = InputPlacement::whole(vec![Player(0)], Player(0)); // too few
        assert!(run_bcq_protocol(&q, &g, &a, 1).is_err());
        // Model 2.1 assigns each function whole: a split factor is
        // refused before anything is sent, at both doors.
        let split = InputPlacement::hash_split(q.k(), &[Player(0), Player(1)], Player(0));
        assert!(matches!(
            run_bcq_protocol(&q, &g, &split, 1),
            Err(ProtocolError::Invalid(_))
        ));
        assert!(matches!(
            run_faq_protocol(&q, &g, &split, 1),
            Err(ProtocolError::Invalid(_))
        ));
    }
}
