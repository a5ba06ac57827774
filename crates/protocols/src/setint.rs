//! The set-intersection protocol of Theorem 3.11 (Chattopadhyay et al.):
//! computing the bitwise AND `∧_{u∈K} x_u` of `{0,1}^N` vectors in
//! `Θ(min_Δ (N / ST(G,K,Δ) + Δ))` rounds over a bounded-diameter
//! Steiner-tree packing.

use crate::outcome::{check_players, Inputs, ProtocolError, ProtocolOutcome};
use crate::star::{convergecast_over_packing, pack};
use faqs_network::{NetRun, Player, Topology};
use faqs_semiring::Boolean;
use std::collections::HashMap;

/// Runs the Theorem 3.11 protocol: every `(player, vector)` input pair
/// contributes a `{0,1}^N` vector (a player may appear once); `output`
/// learns the AND of all vectors. Vectors must share one length. The run
/// is checked against Theorem 3.11's bound.
pub fn run_set_intersection(
    g: &Topology,
    inputs: &[(Player, Vec<bool>)],
    output: Player,
) -> Result<ProtocolOutcome<Vec<bool>>, ProtocolError> {
    if inputs.is_empty() {
        return Err(ProtocolError::Invalid("no input vectors".into()));
    }
    let n = inputs[0].1.len();
    if inputs.iter().any(|(_, v)| v.len() != n) {
        return Err(ProtocolError::Invalid("vector lengths differ".into()));
    }
    check_players(g, inputs.iter().map(|(p, _)| *p).chain([output]))?;

    let mut k: Vec<Player> = inputs.iter().map(|(p, _)| *p).collect();
    k.sort_unstable();
    let before_dedup = k.len();
    k.dedup();
    if k.len() != before_dedup {
        return Err(ProtocolError::Invalid("duplicate input players".into()));
    }
    if !k.contains(&output) {
        k.push(output);
        k.sort_unstable();
    }

    let mut run = NetRun::new(g);
    let answer;
    let predicted;
    if k.len() == 1 {
        answer = local_and(inputs, n);
        predicted = 0;
    } else {
        let (delta, packing) = pack(g, &k, n as u64)?;
        predicted =
            (n as u64).div_ceil(packing.len() as u64 * g.min_live_capacity()) + delta as u64;

        let vectors: HashMap<Player, Vec<Boolean>> = inputs
            .iter()
            .map(|(p, v)| (*p, v.iter().map(|b| Boolean(*b)).collect()))
            .collect();
        let ready: HashMap<Player, u64> = k.iter().map(|&p| (p, 0)).collect();
        let (product, _) =
            convergecast_over_packing(&mut run, &packing, output, &vectors, 1, &ready)?;
        answer = product.into_iter().map(|b| b.get()).collect();
    }
    // Example 2.1's instance: one unary relation over `[N]` per input;
    // its round bound counts the converge-cast's one-bit entries.
    let instance = Inputs {
        relations: inputs.len(),
        vars: 1,
        domain: n as u32,
        players: k.len(),
        tuple_bits: 1,
    };
    ProtocolOutcome::checked::<Boolean>(answer, &run, instance, predicted, None)
}

fn local_and(inputs: &[(Player, Vec<bool>)], n: usize) -> Vec<bool> {
    let mut acc = vec![true; n];
    for (_, v) in inputs {
        for (a, b) in acc.iter_mut().zip(v) {
            *a &= *b;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_inputs(players: &[u32], n: usize, seed: u64) -> Vec<(Player, Vec<bool>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        players
            .iter()
            .map(|&p| {
                (
                    Player(p),
                    (0..n).map(|_| rng.random_bool(0.8)).collect::<Vec<bool>>(),
                )
            })
            .collect()
    }

    fn reference_and(inputs: &[(Player, Vec<bool>)]) -> Vec<bool> {
        local_and(inputs, inputs[0].1.len())
    }

    #[test]
    fn matches_reference_on_line() {
        let g = Topology::line(4).with_uniform_capacity(4);
        let inputs = random_inputs(&[0, 1, 2, 3], 64, 1);
        let out = run_set_intersection(&g, &inputs, Player(3)).unwrap();
        assert_eq!(out.answer, reference_and(&inputs));
        // One tree on a line: ≈ N/cap + diameter rounds.
        assert!(
            out.report.stats.rounds <= 64 / 4 + 3 + 2,
            "rounds = {}",
            out.report.stats.rounds
        );
    }

    #[test]
    fn clique_parallelises() {
        let n = 256;
        let gl = Topology::line(6).with_uniform_capacity(1);
        let gc = Topology::clique(6).with_uniform_capacity(1);
        let inputs = random_inputs(&[0, 1, 2, 3, 4, 5], n, 2);
        let line = run_set_intersection(&gl, &inputs, Player(0)).unwrap();
        let clique = run_set_intersection(&gc, &inputs, Player(0)).unwrap();
        assert_eq!(line.answer, clique.answer);
        assert!(
            clique.report.stats.rounds * 2 <= line.report.stats.rounds,
            "clique {} vs line {}",
            clique.report.stats.rounds,
            line.report.stats.rounds
        );
    }

    #[test]
    fn measured_tracks_predicted() {
        for (g, players) in [
            (Topology::line(5).with_uniform_capacity(2), vec![0u32, 2, 4]),
            (Topology::grid(3, 3).with_uniform_capacity(2), vec![0, 4, 8]),
            (
                Topology::clique(5).with_uniform_capacity(2),
                vec![0, 1, 2, 3, 4],
            ),
        ] {
            let inputs = random_inputs(&players, 128, 3);
            let out = run_set_intersection(&g, &inputs, Player(players[0])).unwrap();
            assert!(
                out.report.stats.rounds <= 4 * out.report.upper_rounds + 8,
                "{}: measured {} vs predicted {}",
                g.name(),
                out.report.stats.rounds,
                out.report.upper_rounds
            );
        }
    }

    #[test]
    fn single_player_is_free() {
        let g = Topology::line(2);
        let inputs = random_inputs(&[0], 32, 4);
        let out = run_set_intersection(&g, &inputs, Player(0)).unwrap();
        assert_eq!(out.report.stats.rounds, 0);
        assert_eq!(out.answer, reference_and(&inputs));
    }

    #[test]
    fn rejects_duplicate_players() {
        let g = Topology::line(2);
        let inputs = vec![(Player(0), vec![true]), (Player(0), vec![false])];
        assert!(run_set_intersection(&g, &inputs, Player(1)).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let g = Topology::line(2);
        let inputs = vec![(Player(0), vec![true]), (Player(1), vec![false, true])];
        assert!(run_set_intersection(&g, &inputs, Player(1)).is_err());
    }
}
