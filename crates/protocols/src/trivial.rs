//! The trivial protocol (Lemma 3.1): every player ships its relations to
//! the designated output player, who solves the query locally. Costs
//! `O(τ_MCF(G, K, k·r·N))` rounds — the baseline every other protocol is
//! compared against, and the sub-protocol handling the cyclic core
//! `C(H)` in the d-degenerate pipeline.

use crate::outcome::{check_whole_placement, Inputs, ProtocolError, ProtocolOutcome};
use faqs_core::{solve_faq, EngineError};
use faqs_network::{tau_mcf, InputPlacement, NetRun, Topology};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Semiring;

/// Runs the trivial protocol for an arbitrary FAQ: ship everything,
/// solve centrally at the output player with the engine. The run is
/// checked against Lemma 3.1's `τ_MCF` bound. Each function is held
/// whole (Model 2.1): a split factor is refused with
/// [`ProtocolError::Invalid`] before anything is sent.
pub fn run_trivial<S: Semiring>(
    q: &FaqQuery<S>,
    g: &Topology,
    placement: &InputPlacement,
) -> Result<ProtocolOutcome<Relation<S>>, ProtocolError> {
    check_whole_placement(q, g, placement)?;
    let output = placement.output();
    let mut run = NetRun::new(g);

    for (e, _) in q.hypergraph.edges() {
        let holder = placement.shard_holders(e)[0];
        if holder == output {
            continue;
        }
        let bits = q.factor(e).bits(q.domain);
        run.send_via_shortest_path(holder, output, bits, 1)
            .map_err(|e| ProtocolError::Unreachable(e.to_string()))?;
    }

    let answer = solve_faq(q).map_err(|e: EngineError| ProtocolError::Engine(e.to_string()))?;

    // Predicted: τ_MCF with N′ = k·r·N in tuple units, expressed in this
    // topology's round currency (the τ definition's own log-sized words
    // roughly match one tuple per round when capacities are model-sized).
    let players = placement.players();
    let predicted = if players.len() < 2 {
        0
    } else {
        let n_prime = (q.k() as u64) * (q.arity() as u64) * (q.n_max() as u64);
        tau_mcf(g, &players, n_prime.max(2))
            .ok_or_else(|| ProtocolError::Unreachable("the players are not connected".into()))?
    };
    let inputs = Inputs::of(q, players.len());
    ProtocolOutcome::checked::<S>(answer, &run, inputs, predicted, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::model_capacity_bits;
    use faqs_core::solve_bcq;
    use faqs_hypergraph::{clique_query, example_h1};
    use faqs_network::Player;
    use faqs_relation::{random_boolean_instance, RandomInstanceConfig};

    #[test]
    fn trivial_answer_matches_engine() {
        for seed in 0..5 {
            let q = random_boolean_instance(
                &clique_query(3),
                &RandomInstanceConfig {
                    tuples_per_factor: 16,
                    domain: 8,
                    seed,
                },
                seed % 2 == 0,
            );
            let g = Topology::line(3).with_uniform_capacity(model_capacity_bits(&q));
            let a = InputPlacement::round_robin(&q, &[0, 1, 2]);
            let out = run_trivial(&q, &g, &a).unwrap();
            assert_eq!(!out.answer.total().is_zero(), solve_bcq(&q), "seed {seed}");
        }
    }

    #[test]
    fn trivial_rounds_scale_with_total_input() {
        let mk = |n: usize| {
            random_boolean_instance(
                &example_h1(),
                &RandomInstanceConfig {
                    tuples_per_factor: n,
                    domain: 1024,
                    seed: 7,
                },
                true,
            )
        };
        let q_small = mk(32);
        let q_big = mk(256);
        let g = Topology::line(4).with_uniform_capacity(model_capacity_bits(&q_small));
        let a = |q: &FaqQuery<_>| InputPlacement::round_robin(q, &[0, 1, 2, 3]);
        let small = run_trivial(&q_small, &g, &a(&q_small)).unwrap();
        let big = run_trivial(&q_big, &g, &a(&q_big)).unwrap();
        assert!(
            big.report.stats.rounds >= 6 * small.report.stats.rounds,
            "3·N tuples to move: {} vs {}",
            big.report.stats.rounds,
            small.report.stats.rounds
        );
    }

    #[test]
    fn rejects_a_split_factor() {
        let q = random_boolean_instance(&example_h1(), &RandomInstanceConfig::default(), true);
        let g = Topology::line(2);
        let split = InputPlacement::hash_split(q.k(), &[Player(0), Player(1)], Player(0));
        assert!(matches!(
            run_trivial(&q, &g, &split),
            Err(ProtocolError::Invalid(_))
        ));
    }

    #[test]
    fn colocated_trivial_is_free() {
        let q = random_boolean_instance(&example_h1(), &RandomInstanceConfig::default(), true);
        let g = Topology::line(2);
        let a = InputPlacement::concentrated(&q, Player(0));
        let out = run_trivial(&q, &g, &a).unwrap();
        assert_eq!(out.report.stats.rounds, 0);
        assert_eq!(out.report.stats.total_bits, 0);
    }
}
