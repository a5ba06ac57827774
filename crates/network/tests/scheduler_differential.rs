//! The round scheduler against the schedule it replaced. `NetRun` keeps
//! full rounds as runs in an ordered map; the reference below is the
//! old fill loop — one hash-map probe per round from the start round on
//! — and the two must agree on every completion round and on the final
//! `RunStats`, because the schedule's semantics (first-fit per directed
//! link) did not change, only its cost.

use faqs_network::{LinkId, NetRun, Player, RunStats, Topology, TransmitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// First-fit by probing: bits reserved per round, one map per directed
/// link, every round from `ready_at` on looked up in turn.
struct ProbingRun<'a> {
    g: &'a Topology,
    used: Vec<[HashMap<u64, u64>; 2]>,
    stats: RunStats,
}

impl<'a> ProbingRun<'a> {
    fn new(g: &'a Topology) -> Self {
        ProbingRun {
            g,
            used: vec![Default::default(); g.num_links()],
            stats: RunStats::default(),
        }
    }

    fn transmit(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let link = self
            .g
            .neighbors(from)
            .iter()
            .find(|(v, _)| *v == to)
            .map(|(_, l)| *l)
            .ok_or(TransmitError::NotAdjacent(from, to))?;
        let cap = self.g.capacity(link);
        if cap == 0 {
            return Err(TransmitError::ZeroCapacity(link));
        }
        let start = ready_at.max(1);
        if bits == 0 {
            return Ok(start - 1);
        }
        let dir = usize::from(from != self.g.link(link).0);
        let used = &mut self.used[link.index()][dir];
        self.stats.transmissions += 1;
        self.stats.total_bits += bits;
        let (mut round, mut remaining) = (start, bits);
        loop {
            let slot = used.entry(round).or_insert(0);
            let take = (cap - *slot).min(remaining);
            *slot += take;
            remaining -= take;
            if remaining == 0 {
                self.stats.rounds = self.stats.rounds.max(round);
                return Ok(round);
            }
            round += 1;
        }
    }
}

/// A ring with unequal capacities and one link down.
fn topology() -> Topology {
    let mut g = Topology::ring(4).with_uniform_capacity(8);
    g.set_capacity(LinkId(1), 3);
    g.set_capacity(LinkId(2), 1);
    g.set_capacity(LinkId(3), 0);
    g
}

#[test]
fn completion_rounds_and_stats_match_the_probing_schedule() {
    let g = topology();
    let links: Vec<LinkId> = g.links().collect();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut run, mut reference) = (NetRun::new(&g), ProbingRun::new(&g));
        // Early seeds crowd a dozen rounds, so partial fills close
        // rounds between full runs; later ones spread out.
        let horizon = [12u64, 40, 400][seed as usize % 3];
        for step in 0..400 {
            let link = links[rng.random_range(0..links.len())];
            let (a, b) = g.link(link);
            let (from, to) = if rng.random_bool(0.5) { (a, b) } else { (b, a) };
            let cap = g.capacity(link).max(1);
            let bits = match rng.random_range(0..6) {
                0 => 0,
                1 => cap,
                2 => rng.random_range(1..=cap),
                3 => cap * rng.random_range(2..6u64),
                4 => cap * 40 + rng.random_range(0..cap),
                _ => rng.random_range(1..3 * cap),
            };
            let ready_at: u64 = match rng.random_range(0..8) {
                0 => (1 << 40) + rng.random_range(0..horizon),
                1 => 0,
                _ => rng.random_range(1..=horizon),
            };
            assert_eq!(
                run.transmit(from, to, bits, ready_at),
                reference.transmit(from, to, bits, ready_at),
                "seed {seed}, step {step}: {bits} bits {from}→{to} from round {ready_at}"
            );
        }
        assert_eq!(run.stats(), reference.stats, "seed {seed}");
        assert!(run.stats().rounds > 1 << 40, "late rounds were used");
        assert_eq!(run.link_bits()[3], 0, "the down link stayed dark");
    }
}
