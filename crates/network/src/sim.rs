//! The capacity-respecting transmission scheduler: round accounting for
//! Model 2.1.
//!
//! Protocol implementations issue [`NetRun::transmit`] calls: "starting
//! no earlier than round `ready_at`, move `bits` from `from` to `to`
//! across their link". The scheduler is *first-fit* per directed link:
//! a message takes the free capacity of the earliest rounds `≥ ready_at`
//! in call order, splitting across partly used rounds — so a later call
//! with an earlier `ready_at` back-fills capacity an earlier call left
//! free; it is not a FIFO queue. Every link direction carries up to its
//! capacity per round (any subset of edges may communicate
//! simultaneously, as the model allows), and the scheduler reports the
//! round at which the message has fully arrived. Pipelined protocols
//! emerge naturally: a relay that receives a tuple at round `t` forwards
//! it with `ready_at = t + 1`.
//!
//! Cost: per directed link the schedule keeps the partly used rounds in
//! a hash map and the completely full rounds as maximal runs in an
//! ordered map, so a transmission skips any stretch of full rounds in
//! one `O(log runs)` lookup. It visits only rounds it takes bits from,
//! and every visit but its last fills that round for good:
//! `⌈bits/capacity⌉ + 1` visits at most when the rounds it finds are
//! empty, `transmissions + full rounds` visits over a whole run in any
//! case, `O(log runs)` each — independent of how long the link has
//! been busy and of how late `ready_at` is.
//!
//! Causality is the caller's contract: a payload may only be sent with
//! `ready_at` after the round the sender learned it (the protocols in
//! `faqs-protocols` thread arrival rounds through their dataflow, so the
//! discipline is enforced by construction and asserted in tests).
//! [`NetRun::route_causal`] makes the declaration explicit: the first
//! hop departs the round after the payload was learned.

use crate::topology::{LinkId, Player, Topology};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Error from an impossible transmission request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransmitError {
    /// `from` and `to` are not adjacent in the topology.
    NotAdjacent(Player, Player),
    /// The link is administratively down ([`Topology::set_capacity`] to
    /// `0`): it can carry no bits in any round. Before this variant a
    /// zero-capacity request span forever inside the fill loop — the
    /// stall is now an explicit, testable error.
    ZeroCapacity(LinkId),
    /// No positive-capacity route connects the two players (they may
    /// still be connected through down links).
    NoRoute(Player, Player),
    /// The physical medium failed while carrying a frame the shadow
    /// simulator had already scheduled (e.g. a refused or reset socket).
    Io {
        /// The sending player.
        from: Player,
        /// The receiving player.
        to: Player,
        /// What the operating system reported.
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for TransmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransmitError::NotAdjacent(a, b) => write!(f, "{a} and {b} share no link"),
            TransmitError::ZeroCapacity(l) => {
                write!(f, "link {} has zero capacity (administratively down)", l.0)
            }
            TransmitError::NoRoute(a, b) => {
                write!(f, "no positive-capacity route from {a} to {b}")
            }
            TransmitError::Io { from, to, kind } => {
                write!(f, "I/O failure shipping from {from} to {to}: {kind}")
            }
        }
    }
}

impl std::error::Error for TransmitError {}

/// Statistics of a finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RunStats {
    /// The last round in which any bit was in flight — the protocol's
    /// round complexity.
    pub rounds: u64,
    /// Total bits moved across all links.
    pub total_bits: u64,
    /// Number of `transmit` calls.
    pub transmissions: u64,
}

/// One directed link's schedule: which rounds still have free capacity.
#[derive(Default, Clone)]
struct LinkSchedule {
    /// Bits reserved in each round with `0 < used < capacity`.
    partial: HashMap<u64, u64>,
    /// Maximal runs of completely full rounds, `first → last`: no two
    /// runs overlap or touch.
    full: BTreeMap<u64, u64>,
}

impl LinkSchedule {
    /// The earliest round `≥ round` that is not completely full.
    fn next_open(&self, round: u64) -> u64 {
        match self.full.range(..=round).next_back() {
            Some((_, &last)) if last >= round => last + 1,
            _ => round,
        }
    }

    /// Records that `round` just became full, merging it with the runs
    /// ending at `round − 1` and starting at `round + 1`.
    fn close(&mut self, round: u64) {
        let last = self.full.remove(&(round + 1)).unwrap_or(round);
        match self.full.range_mut(..round).next_back() {
            Some((_, before)) if *before + 1 == round => *before = last,
            _ => {
                self.full.insert(round, last);
            }
        }
    }

    /// First-fit reservation of `bits > 0` on a link of capacity `cap`:
    /// takes the free capacity of the earliest rounds `≥ start`.
    /// Returns the last round used and how many rounds were visited —
    /// every one of them gave bits, and all but the last are now full.
    fn reserve(&mut self, cap: u64, start: u64, bits: u64) -> (u64, u64) {
        let (mut round, mut remaining, mut visited) = (start, bits, 0);
        loop {
            round = self.next_open(round);
            visited += 1;
            let filled = match self.partial.entry(round) {
                Entry::Occupied(mut used) => {
                    let take = (cap - *used.get()).min(remaining);
                    remaining -= take;
                    *used.get_mut() += take;
                    let filled = *used.get() == cap;
                    if filled {
                        used.remove();
                    }
                    filled
                }
                Entry::Vacant(unused) => {
                    let take = cap.min(remaining);
                    remaining -= take;
                    if take < cap {
                        unused.insert(take);
                    }
                    take == cap
                }
            };
            if filled {
                self.close(round);
            }
            if remaining == 0 {
                return (round, visited);
            }
            round += 1;
        }
    }
}

/// A protocol run on a topology: accepts transmissions and accounts
/// rounds/bits. Rounds are 1-based (round 0 = initial state; inputs are
/// known locally before round 1).
pub struct NetRun<'a> {
    g: &'a Topology,
    // One schedule per (link, direction); direction 0 = low→high id.
    schedules: Vec<[LinkSchedule; 2]>,
    // Total bits ever sent per link (both directions).
    link_bits: Vec<u64>,
    stats: RunStats,
}

impl<'a> NetRun<'a> {
    /// Starts a run on the given topology.
    pub fn new(g: &'a Topology) -> Self {
        NetRun {
            g,
            schedules: vec![[LinkSchedule::default(), LinkSchedule::default()]; g.num_links()],
            link_bits: vec![0; g.num_links()],
            stats: RunStats::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.g
    }

    /// Finds the link between two adjacent players.
    pub fn link_between(&self, a: Player, b: Player) -> Result<LinkId, TransmitError> {
        self.g
            .neighbors(a)
            .iter()
            .find(|(v, _)| *v == b)
            .map(|(_, l)| *l)
            .ok_or(TransmitError::NotAdjacent(a, b))
    }

    /// Schedules `bits` from `from` to its neighbour `to`, starting no
    /// earlier than `ready_at` (≥ 1), first-fit on the directed link:
    /// the message takes whatever capacity earlier calls left free in
    /// the earliest rounds `≥ ready_at`, so it queues behind earlier
    /// traffic from the same round on but may back-fill an earlier gap.
    /// Returns the round at the end of which the message has fully
    /// arrived (the receiver may use it from the next round). Zero-bit
    /// messages arrive instantly at `ready_at.max(1) − 1`, modelling
    /// "nothing to say". Visits only the rounds it takes bits from, at
    /// `O(log runs)` each, however many full rounds lie between
    /// `ready_at` and the first free one (see the module docs).
    pub fn transmit(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let link = self.link_between(from, to)?;
        self.transmit_on(link, from, bits, ready_at)
    }

    /// [`NetRun::transmit`] on an explicit link (used when routing along
    /// a Steiner tree whose links are known). Zero-capacity (down) links
    /// carry nothing — not even zero-bit "nothing to say" messages.
    pub fn transmit_on(
        &mut self,
        link: LinkId,
        from: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let cap = self.g.capacity(link);
        if cap == 0 {
            return Err(TransmitError::ZeroCapacity(link));
        }
        let start = ready_at.max(1);
        if bits == 0 {
            return Ok(start - 1);
        }
        let (a, _b) = self.g.link(link);
        let dir = usize::from(from != a);
        let sched = &mut self.schedules[link.index()][dir];

        self.stats.transmissions += 1;
        self.stats.total_bits += bits;
        self.link_bits[link.index()] += bits;

        let (round, _visited) = sched.reserve(cap, start, bits);
        self.stats.rounds = self.stats.rounds.max(round);
        Ok(round)
    }

    /// Sends `bits` from `from` to an arbitrary (possibly distant)
    /// player along a shortest *positive-capacity* path, pipelined in
    /// capacity-sized chunks with single-round relay latency (so the
    /// cost is `≈ bits/capacity + distance`, not their product). Down
    /// links ([`Topology::set_capacity`] to `0`) are routed around;
    /// [`TransmitError::NoRoute`] when no live path exists. Returns the
    /// arrival-completion round.
    pub fn send_via_shortest_path(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        if from == to {
            return Ok(ready_at.max(1) - 1);
        }
        // BFS over live links only — checked even for zero-bit sends, so
        // a partitioned pair reports `NoRoute` instead of a silent `Ok`
        // (matching `transmit_on`'s dead-link policy).
        let dist = self.g.live_distances(to);
        if dist[from.index()] == u32::MAX {
            return Err(TransmitError::NoRoute(from, to));
        }
        let mut nodes = vec![from];
        let mut links = Vec::new();
        let mut cur = from;
        while cur != to {
            let (next, link) = self
                .g
                .neighbors(cur)
                .iter()
                .copied()
                .find(|(v, l)| self.g.capacity(*l) > 0 && dist[v.index()] < dist[cur.index()])
                .expect("BFS distance decreases toward target");
            nodes.push(next);
            links.push(link);
            cur = next;
        }
        self.send_along_path(&nodes, &links, bits, ready_at)
    }

    /// [`NetRun::send_via_shortest_path`] with a causality declaration:
    /// the payload is known to `from` at the end of round `learned_at`,
    /// so the first hop departs at `learned_at + 1` and every relay hop
    /// forwards each chunk the round after it arrives.
    pub fn route_causal(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        learned_at: u64,
    ) -> Result<u64, TransmitError> {
        self.send_via_shortest_path(from, to, bits, learned_at.saturating_add(1))
    }

    /// Pipelines `bits` along an explicit hop sequence (e.g. a
    /// Steiner-tree path from `SteinerTree::path`): the payload is
    /// chunked to the bottleneck capacity and every relay forwards a
    /// chunk the round after receiving it. `nodes`/`links` come in the
    /// `path()` shape (`nodes.len() == links.len() + 1`). Returns the
    /// arrival-completion round at the last hop.
    pub fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        assert_eq!(nodes.len(), links.len() + 1, "hop/link shape mismatch");
        if let Some(&dead) = links.iter().find(|&&l| self.g.capacity(l) == 0) {
            return Err(TransmitError::ZeroCapacity(dead));
        }
        if links.is_empty() || bits == 0 {
            return Ok(ready_at.max(1) - 1);
        }
        let chunk = links
            .iter()
            .map(|&l| self.g.capacity(l))
            .min()
            .expect("non-empty path");
        let mut remaining = bits;
        let mut last = ready_at.max(1) - 1;
        let mut chunk_ready = ready_at.max(1);
        while remaining > 0 {
            let sz = chunk.min(remaining);
            remaining -= sz;
            let mut t = chunk_ready - 1;
            for (i, &l) in links.iter().enumerate() {
                t = self.transmit_on(l, nodes[i], sz, t + 1)?;
            }
            last = last.max(t);
            chunk_ready += 1;
        }
        Ok(last)
    }

    /// Current statistics (rounds = completion round of the latest
    /// transmission so far).
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Total bits ever sent over each link (both directions), indexed
    /// by [`LinkId`]; they sum to [`RunStats::total_bits`].
    pub fn link_bits(&self) -> &[u64] {
        &self.link_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_message_rounds() {
        let g = Topology::line(2).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        // 10 bits at 4/round: rounds 1..3.
        let done = run.transmit(Player(0), Player(1), 10, 1).unwrap();
        assert_eq!(done, 3);
        assert_eq!(run.stats().rounds, 3);
        assert_eq!(run.stats().total_bits, 10);
    }

    #[test]
    fn fifo_queuing_on_one_direction() {
        let g = Topology::line(2).with_uniform_capacity(1);
        let mut run = NetRun::new(&g);
        let a = run.transmit(Player(0), Player(1), 1, 1).unwrap();
        let b = run.transmit(Player(0), Player(1), 1, 1).unwrap();
        assert_eq!((a, b), (1, 2), "second message queues behind the first");
    }

    #[test]
    fn directions_are_independent() {
        let g = Topology::line(2).with_uniform_capacity(1);
        let mut run = NetRun::new(&g);
        let a = run.transmit(Player(0), Player(1), 1, 1).unwrap();
        let b = run.transmit(Player(1), Player(0), 1, 1).unwrap();
        assert_eq!((a, b), (1, 1), "full duplex per Model 2.1");
    }

    #[test]
    fn links_are_independent() {
        let g = Topology::line(3).with_uniform_capacity(1);
        let mut run = NetRun::new(&g);
        let a = run.transmit(Player(0), Player(1), 1, 1).unwrap();
        let b = run.transmit(Player(1), Player(2), 1, 1).unwrap();
        assert_eq!((a, b), (1, 1), "any subset of edges may fire per round");
    }

    #[test]
    fn ready_at_delays_start() {
        let g = Topology::line(2).with_uniform_capacity(2);
        let mut run = NetRun::new(&g);
        let done = run.transmit(Player(0), Player(1), 2, 5).unwrap();
        assert_eq!(done, 5);
    }

    #[test]
    fn pipelining_through_a_relay() {
        // Tuple-by-tuple pipeline: N tuples over 2 hops at 1 tuple/round
        // lands in N + 1 rounds (Example 2.1's N + O(1) shape).
        let g = Topology::line(3).with_uniform_capacity(8);
        let mut run = NetRun::new(&g);
        let n = 16u64;
        let mut last = 0;
        for i in 0..n {
            let t1 = run.transmit(Player(0), Player(1), 8, 1 + i).unwrap();
            let t2 = run.transmit(Player(1), Player(2), 8, t1 + 1).unwrap();
            last = t2;
        }
        assert_eq!(last, n + 1);
    }

    #[test]
    fn zero_bits_are_free() {
        let g = Topology::line(2);
        let mut run = NetRun::new(&g);
        let done = run.transmit(Player(0), Player(1), 0, 7).unwrap();
        assert_eq!(done, 6, "available at the start of round 7");
        assert_eq!(run.stats().rounds, 0);
    }

    #[test]
    fn rejects_non_adjacent() {
        let g = Topology::line(3);
        let mut run = NetRun::new(&g);
        assert!(matches!(
            run.transmit(Player(0), Player(2), 1, 1),
            Err(TransmitError::NotAdjacent(_, _))
        ));
    }

    #[test]
    fn shortest_path_send() {
        let g = Topology::line(4).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        // 4 bits over 3 hops, one round per hop.
        let done = run
            .send_via_shortest_path(Player(0), Player(3), 4, 1)
            .unwrap();
        assert_eq!(done, 3);
    }

    #[test]
    fn zero_capacity_link_is_an_error_not_a_stall() {
        // Regression: a zero-capacity link used to spin forever in the
        // fill loop. It must now fail fast, for any bit count —
        // a down link carries nothing, not even empty messages.
        let mut g = Topology::line(2).with_uniform_capacity(4);
        g.set_capacity(LinkId(0), 0);
        let mut run = NetRun::new(&g);
        assert_eq!(
            run.transmit(Player(0), Player(1), 8, 1),
            Err(TransmitError::ZeroCapacity(LinkId(0)))
        );
        assert_eq!(
            run.transmit(Player(0), Player(1), 0, 1),
            Err(TransmitError::ZeroCapacity(LinkId(0)))
        );
        assert_eq!(run.stats(), RunStats::default(), "nothing was accounted");
    }

    #[test]
    fn shortest_path_routes_around_down_links() {
        // Ring with the direct 0—1 link down: traffic detours the long
        // way round instead of stalling.
        let mut g = Topology::ring(4).with_uniform_capacity(4);
        g.set_capacity(LinkId(0), 0);
        let mut run = NetRun::new(&g);
        let done = run
            .send_via_shortest_path(Player(0), Player(1), 4, 1)
            .unwrap();
        assert_eq!(done, 3, "three live hops: 0—3—2—1");
        assert_eq!(run.link_bits()[0], 0, "dead link untouched");
    }

    #[test]
    fn no_live_route_is_an_error() {
        let mut g = Topology::line(3).with_uniform_capacity(4);
        g.set_capacity(LinkId(1), 0);
        let mut run = NetRun::new(&g);
        assert_eq!(
            run.send_via_shortest_path(Player(0), Player(2), 4, 1),
            Err(TransmitError::NoRoute(Player(0), Player(2)))
        );
        // Zero-bit sends respect the same policy: a partitioned pair is
        // an error, not a silent success.
        assert_eq!(
            run.send_via_shortest_path(Player(0), Player(2), 0, 1),
            Err(TransmitError::NoRoute(Player(0), Player(2)))
        );
        assert_eq!(
            run.send_via_shortest_path(Player(0), Player(1), 0, 7),
            Ok(6),
            "zero bits over a live route still cost nothing"
        );
    }

    #[test]
    fn send_along_path_pipelines_chunks() {
        // 16 bits over 3 hops at 4 bits/round: 4 chunk rounds + 2 relay
        // fill rounds.
        let g = Topology::line(4).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        let nodes: Vec<Player> = (0..4u32).map(Player).collect();
        let links: Vec<LinkId> = (0..3u32).map(LinkId).collect();
        let done = run.send_along_path(&nodes, &links, 16, 1).unwrap();
        assert_eq!(done, 4 + 2);
        assert_eq!(run.stats().total_bits, 16 * 3, "every hop is charged");
    }

    #[test]
    fn closing_a_round_bridges_the_runs_on_either_side() {
        let g = Topology::line(2).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        let mut send = |bits, at| run.transmit(Player(0), Player(1), bits, at).unwrap();
        assert_eq!(send(4, 1), 1);
        assert_eq!(send(4, 3), 3);
        assert_eq!(send(1, 2), 2, "a partial round between two full ones");
        // Back-fill from round 1: three bits close round 2, two spill
        // past the bridged run into round 4.
        assert_eq!(send(5, 1), 4);
        let sched = &run.schedules[0][0];
        assert_eq!(sched.full, BTreeMap::from([(1, 3)]), "one run, 1 → 3");
        assert_eq!(sched.partial, HashMap::from([(4, 2)]));
        assert_eq!(run.stats().rounds, 4);
    }

    #[test]
    fn a_busy_link_costs_one_visit_per_chunk_not_one_per_full_round() {
        // Four messages of 256 capacity-sized chunks over one link, all
        // learned at round 300 — `send_along_path`'s chunk loop, chunk
        // `i` ready at `301 + i`. Every message after the first finds
        // 256·m full rounds behind each chunk's start; probing them one
        // by one cost 256, 512, 768 lookups per chunk.
        let cap = 16;
        let mut sched = LinkSchedule::default();
        for message in 0..4 {
            for chunk in 0..256 {
                let (done, visited) = sched.reserve(cap, 301 + chunk, cap);
                assert_eq!(done, 301 + 256 * message + chunk);
                assert_eq!(visited, 1, "message {message}, chunk {chunk}");
            }
        }
        assert_eq!(sched.full, BTreeMap::from([(301, 300 + 4 * 256)]));
        assert!(sched.partial.is_empty());
        // Sub-capacity chunks split across two rounds: still two visits.
        for chunk in 0..64 {
            let (_, visited) = sched.reserve(cap, 301 + chunk, cap - 1);
            assert!(visited <= 2, "chunk {chunk}: {visited} visits");
        }
        assert_eq!(sched.full.len(), 1, "still one run");
    }

    #[test]
    fn capacity_sharing_within_round() {
        let g = Topology::line(2).with_uniform_capacity(10);
        let mut run = NetRun::new(&g);
        let a = run.transmit(Player(0), Player(1), 6, 1).unwrap();
        let b = run.transmit(Player(0), Player(1), 4, 1).unwrap();
        // Both fit in round 1 (6 + 4 = 10).
        assert_eq!((a, b), (1, 1));
        let c = run.transmit(Player(0), Player(1), 1, 1).unwrap();
        assert_eq!(c, 2, "round 1 is full");
    }
}
