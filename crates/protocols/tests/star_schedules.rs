//! Pinned schedules of the Steiner-packing primitives: the broadcast and
//! converge-cast that `run_hash_split_protocol` and `run_set_intersection`
//! run over a packing, on a grid (one tree) and a clique (several trees
//! that share no link, so the payload is striped). The hash-split run
//! broadcasts one shard per player over the same packing, so later
//! broadcasts queue behind earlier ones on shared links. The schedule is
//! deterministic: any change to how a tree edge's chunk train is
//! reserved shows up as a changed `RunStats` or per-link tally here.

use faqs_network::{Player, RunStats, Topology};
use faqs_protocols::{run_hash_split_protocol, run_set_intersection, RunReport};
use faqs_relation::irreducible_star_instance;

fn topologies() -> [Topology; 2] {
    [
        Topology::grid(3, 3).with_uniform_capacity(3),
        Topology::clique(5).with_uniform_capacity(2),
    ]
}

fn measured(report: &RunReport) -> (RunStats, Vec<u64>) {
    (report.stats, report.link_bits.clone())
}

fn stats(rounds: u64, total_bits: u64, transmissions: u64) -> RunStats {
    RunStats {
        rounds,
        total_bits,
        transmissions,
    }
}

#[test]
fn hash_split_schedules_are_pinned() {
    let q = irreducible_star_instance(4, 48);
    let pinned = [
        (
            stats(41, 4992, 336),
            vec![624, 0, 624, 0, 624, 624, 624, 624, 0, 0, 624, 624],
        ),
        (
            stats(20, 2496, 184),
            vec![312, 312, 0, 0, 312, 312, 312, 312, 312, 312],
        ),
    ];
    for (g, want) in topologies().iter().zip(pinned) {
        let players: Vec<Player> = g.players().collect();
        let output = players[players.len() - 1];
        let out = run_hash_split_protocol(&q, g, &players, output).unwrap();
        assert!(out.answer);
        assert_eq!(measured(&out.report), want, "{}", g.name());
    }
}

#[test]
fn set_intersection_schedules_are_pinned() {
    let n = 100;
    let pinned = [
        (
            stats(41, 800, 272),
            vec![100, 0, 100, 0, 100, 100, 100, 100, 0, 0, 100, 100],
        ),
        (
            stats(28, 400, 200),
            vec![50, 50, 0, 0, 50, 50, 50, 50, 50, 50],
        ),
    ];
    for (g, want) in topologies().iter().zip(pinned) {
        let inputs: Vec<(Player, Vec<bool>)> = g
            .players()
            .skip(1)
            .map(|p| {
                (
                    p,
                    (0..n)
                        .map(|i| !(i * 7 + p.0 as usize).is_multiple_of(5))
                        .collect(),
                )
            })
            .collect();
        let out = run_set_intersection(g, &inputs, Player(0)).unwrap();
        let want_answer: Vec<bool> = (0..n).map(|i| inputs.iter().all(|(_, v)| v[i])).collect();
        assert_eq!(out.answer, want_answer);
        assert_eq!(measured(&out.report), want, "{}", g.name());
    }
}
