//! The round scheduler against the schedules it replaced. `NetRun` keeps
//! full rounds as runs in an ordered map; the first reference below is
//! the old fill loop — one hash-map probe per round from the start round
//! on — and the two must agree on every completion round and on the
//! final `RunStats`, because the schedule's semantics (first-fit per
//! directed link) did not change, only its cost. The second reference
//! pipelines a send chunk by chunk, one one-chunk `send_train` per chunk
//! per hop, where `NetRun` reserves the whole chunk train one hop at a
//! time, its chunks' rounds kept as runs.

use faqs_network::{ChunkTrain, LinkId, NetRun, Player, RunStats, Topology, TransmitError};
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

/// Pipelined sends the way `NetRun` made them before it reserved chunk
/// trains: every capacity-sized chunk crosses every hop as its own
/// one-chunk train, chunk after chunk.
struct ChunkByChunk<'a> {
    run: NetRun<'a>,
}

impl ChunkByChunk<'_> {
    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let g = self.run.topology();
        if let Some(&dead) = links.iter().find(|&&l| g.capacity(l) == 0) {
            return Err(TransmitError::ZeroCapacity(dead));
        }
        let chunk = links.iter().map(|&l| g.capacity(l)).min().unwrap_or(1);
        let mut remaining = if links.is_empty() { 0 } else { bits };
        let mut last = ready_at.max(1) - 1;
        let mut chunk_ready = ready_at.max(1);
        while remaining > 0 {
            let size = chunk.min(remaining);
            remaining -= size;
            let mut t = ChunkTrain::new(size, size, chunk_ready - 1);
            for (&from, &link) in nodes.iter().zip(links) {
                self.run.send_train(link, from, &mut t)?;
            }
            last = last.max(t.last_round().unwrap_or(0));
            chunk_ready += 1;
        }
        Ok(last)
    }

    /// The shortest live path, each hop to the first live neighbour
    /// closer to `to`, then sent as above.
    fn send_via_shortest_path(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let g = self.run.topology().clone();
        let dist = g.live_distances(to);
        if from != to && dist[from.index()] == u32::MAX {
            return Err(TransmitError::NoRoute(from, to));
        }
        let (mut nodes, mut links) = (vec![from], vec![]);
        while let Some(&(v, l)) = g.neighbors(nodes[nodes.len() - 1]).iter().find(|(v, l)| {
            g.capacity(*l) > 0 && dist[v.index()] < dist[nodes[nodes.len() - 1].index()]
        }) {
            nodes.push(v);
            links.push(l);
        }
        self.send_along_path(&nodes, &links, bits, ready_at)
    }
}

/// A ring of six with unequal capacities and one link down: most paths'
/// chunk is a bottleneck smaller than what their other hops carry.
fn uneven_ring() -> Topology {
    let mut g = Topology::ring(6).with_uniform_capacity(8);
    for (l, cap) in [(1, 3), (2, 5), (4, 2), (5, 0)] {
        g.set_capacity(LinkId(l), cap);
    }
    g
}

/// A random walk of one to four hops from a random player, visiting no
/// player twice; it may cross the down link.
fn simple_path(g: &Topology, rng: &mut StdRng) -> (Vec<Player>, Vec<LinkId>) {
    let mut nodes = vec![Player(rng.random_range(0..g.num_players() as u32))];
    let mut links = vec![];
    for _ in 0..rng.random_range(1..=4) {
        let here = nodes[nodes.len() - 1];
        let next: Vec<(Player, LinkId)> = g
            .neighbors(here)
            .iter()
            .copied()
            .filter(|(v, _)| !nodes.contains(v))
            .collect();
        if next.is_empty() {
            break;
        }
        let (v, l) = next[rng.random_range(0..next.len())];
        nodes.push(v);
        links.push(l);
    }
    (nodes, links)
}

#[test]
fn chunk_trains_match_chunk_by_chunk_sends() {
    let g = uneven_ring();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut run, mut reference) = (
            NetRun::new(&g),
            ChunkByChunk {
                run: NetRun::new(&g),
            },
        );
        let horizon = [6u64, 30, 300][seed as usize % 3];
        for step in 0..150 {
            // Tails are rarely a multiple of the chunk.
            let bits = match rng.random_range(0..5) {
                0 => 0,
                1 => rng.random_range(1..10),
                _ => rng.random_range(10..400),
            };
            let at = rng.random_range(0..horizon);
            let (what, got, want) = match rng.random_range(0..3) {
                0 => {
                    let (nodes, links) = simple_path(&g, &mut rng);
                    let got = run.send_along_path(&nodes, &links, bits, at);
                    let want = reference.send_along_path(&nodes, &links, bits, at);
                    (format!("path {nodes:?}"), got, want)
                }
                1 => {
                    let from = Player(rng.random_range(0..6));
                    let to = Player(rng.random_range(0..6));
                    let got = run.send_via_shortest_path(from, to, bits, at + 1);
                    let want = reference.send_via_shortest_path(from, to, bits, at + 1);
                    (format!("route {from}→{to}"), got, want)
                }
                _ => {
                    let (from, to) = match simple_path(&g, &mut rng).0[..] {
                        [from, to, ..] => (from, to),
                        _ => unreachable!("a ring player has neighbours"),
                    };
                    let got = run.transmit(from, to, bits, at);
                    let want = reference.run.transmit(from, to, bits, at);
                    (format!("transmit {from}→{to}"), got, want)
                }
            };
            let context = format!("seed {seed}, step {step}: {bits} bits, {what}, at {at}");
            assert_eq!(got, want, "{context}");
            assert_eq!(run.stats(), reference.run.stats(), "{context}");
            assert_eq!(run.link_bits(), reference.run.link_bits(), "{context}");
        }
        assert_eq!(
            run.link_bits()[5],
            0,
            "seed {seed}: the down link stayed dark"
        );
        assert!(run.stats().transmissions > 0, "seed {seed}");
    }
}

#[test]
fn long_trains_match_chunk_by_chunk_sends() {
    // Trains of about 10⁵ chunks through links that earlier sends left
    // busy at random: on the uneven ring most paths' chunk is a
    // bottleneck smaller than what their other hops carry, so a train
    // queued behind that traffic drains several chunks per round there.
    let g = uneven_ring();
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let (mut run, mut reference) = (
            NetRun::new(&g),
            ChunkByChunk {
                run: NetRun::new(&g),
            },
        );
        for step in 0..80 {
            let (nodes, links) = simple_path(&g, &mut rng);
            let (bits, at) = (rng.random_range(1..2_000), rng.random_range(0..200_000));
            let got = run.send_along_path(&nodes, &links, bits, at);
            let want = reference.send_along_path(&nodes, &links, bits, at);
            assert_eq!(got, want, "seed {seed}, traffic {step}");
        }
        // Player 0 to player 3 the long way round: links 0, 1 and 2, of
        // capacities 8, 3 and 5, so 3-bit chunks.
        let nodes: Vec<Player> = (0..4).map(Player).collect();
        let links: Vec<LinkId> = (0..3).map(LinkId).collect();
        let bits = 3 * 100_000 - rng.random_range(0..3u64);
        let at = rng.random_range(0..1_000);
        let got = run.send_along_path(&nodes, &links, bits, at);
        assert_eq!(
            got,
            reference.send_along_path(&nodes, &links, bits, at),
            "seed {seed}"
        );
        assert!(got.unwrap() > 100_000, "seed {seed}: the train is long");
        assert_eq!(run.stats(), reference.run.stats(), "seed {seed}");
        assert_eq!(run.link_bits(), reference.run.link_bits(), "seed {seed}");
    }
}
