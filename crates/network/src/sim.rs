//! The capacity-respecting transmission scheduler: round accounting for
//! Model 2.1.
//!
//! Every send is a [`ChunkTrain`] through one door,
//! [`NetRun::send_train`]: "move the train's chunks from `from` across
//! `link`, each departing no earlier than the round after the one it
//! reached `from` in". A train keeps its chunks' rounds as runs of
//! evenly spaced rounds, never one round per chunk.
//! [`NetRun::transmit`] is a one-chunk train to a neighbour,
//! [`NetRun::send_along_path`] one train per hop of a checked simple
//! path, and [`NetRun::send_via_shortest_path`] that along a shortest
//! live path. The scheduler is *first-fit* per directed link: each chunk
//! takes the free capacity of the earliest rounds at or after its
//! departure round, in call order, splitting across partly used rounds —
//! so a later call with an earlier departure back-fills capacity an
//! earlier call left free; it is not a FIFO queue. Every link direction
//! carries up to its capacity per round (any subset of edges may
//! communicate simultaneously, as the model allows), and the scheduler
//! reports the round at which each chunk has fully arrived. Pipelined
//! protocols emerge naturally: a relay that receives a chunk at round `t`
//! forwards it with departure round `t + 1`.
//!
//! Cost: per directed link the schedule keeps the partly used rounds and
//! the completely full rounds (as maximal runs) in two ordered maps. A
//! chunk never looks before the round the previous one landed in, so a
//! train keeps that frontier in locals. Chunks that each fill whole
//! rounds and arrive no faster than the link carries them land as one
//! run per stretch of free rounds, so a train on an idle link, or one
//! queued behind earlier trains, takes one step and `O(1)` map
//! operations, plus a step or two and one or two map operations per
//! partial round or full run it crosses — whatever its length, however
//! long the link has been busy and however late the train departs.
//! A chunk that shares a round with another, or that finds the link
//! free before the previous chunk has landed (a hop wider than the
//! bottleneck), is one step of its own.
//!
//! Causality is the caller's contract: a payload may only depart after
//! the round the sender learned it (the protocols in `faqs-protocols`
//! thread arrival rounds through their dataflow, so the discipline holds
//! by construction and is asserted in tests): a payload learned at the
//! end of round `learned_at` is sent with `ready_at = learned_at + 1`.

use crate::topology::{LinkId, Player, Topology};
use std::collections::BTreeMap;
use std::{iter, mem};

/// Error from an impossible transmission request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransmitError {
    /// `from` and `to` are not adjacent in the topology.
    NotAdjacent(Player, Player),
    /// The link is administratively down ([`Topology::set_capacity`] to
    /// `0`): it can carry no bits in any round.
    ZeroCapacity(LinkId),
    /// No positive-capacity route connects the two players (they may
    /// still be connected through down links).
    NoRoute(Player, Player),
    /// A path given to [`NetRun::send_along_path`] visits this player
    /// twice, so a directed link could carry the same chunk twice.
    NotSimple(Player),
    /// The topology has no link with this id.
    NoSuchLink(LinkId),
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
            TransmitError::NotSimple(p) => write!(f, "the path visits {p} twice"),
            TransmitError::NoSuchLink(l) => write!(f, "the topology has no link {}", l.0),
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
    /// Chunks sent, counted once per link each crosses (a
    /// [`NetRun::transmit`] is one).
    pub transmissions: u64,
}

/// `count ≥ 1` consecutive chunks of a train, chunk `i` of them at round
/// `first + i·stride`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: u64,
    count: u64,
    stride: u64,
}

impl Run {
    fn at(&self, i: u64) -> u64 {
        self.first + i * self.stride
    }

    /// Its chunks `skip..skip + count`.
    fn part(&self, skip: u64, count: u64) -> Run {
        Run {
            first: self.at(skip),
            count,
            stride: self.stride,
        }
    }
}

/// Appends `run` to `runs`, extending the last run when `run` continues
/// its progression (a one-chunk run continues any run at or after it).
fn push(runs: &mut Vec<Run>, run: Run) {
    if let Some(last) = runs.last_mut() {
        let step = if last.count == 1 {
            run.first - last.first
        } else {
            last.stride
        };
        if (run.count == 1 || run.stride == step) && run.first == last.at(last.count - 1) + step {
            last.count += run.count;
            last.stride = step;
            return;
        }
    }
    runs.push(run);
}

/// A chunk train: `bits` cut into chunks of `chunk` bits (the last one
/// takes the rest) and the round each chunk is at — before a send, the
/// round it reached the sending end; after, the round it fully arrived.
/// Those rounds never decrease along the train, and they are kept as
/// runs of evenly spaced rounds: a pipelined train that crossed idle
/// links is one run, however long.
#[derive(Clone, Debug)]
pub struct ChunkTrain {
    chunk: u64,
    bits: u64,
    runs: Vec<Run>,
}

impl ChunkTrain {
    /// `bits` in chunks of `chunk` bits (a `chunk` of `0` is taken as
    /// `1`), every chunk at the sending end by round `round`.
    pub fn new(chunk: u64, bits: u64, round: u64) -> Self {
        Self::spaced(chunk, bits, round, 0)
    }

    /// As [`ChunkTrain::new`], but chunk `c` reaches the sending end by
    /// round `round + c`: a source that hands over one chunk per round.
    fn paced(chunk: u64, bits: u64, round: u64) -> Self {
        Self::spaced(chunk, bits, round, 1)
    }

    fn spaced(chunk: u64, bits: u64, first: u64, stride: u64) -> Self {
        let chunk = chunk.max(1);
        let count = bits.div_ceil(chunk);
        let runs = if count == 0 {
            Vec::new()
        } else {
            vec![Run {
                first,
                count,
                stride,
            }]
        };
        ChunkTrain { chunk, bits, runs }
    }

    /// The round of the last chunk — after a send, the round the whole
    /// train has arrived; `None` for an empty train.
    pub fn last_round(&self) -> Option<u64> {
        self.runs.last().map(|r| r.at(r.count - 1))
    }

    /// Holds each chunk until `other`'s chunk of the same index is there
    /// too: each round becomes the later of the two. One step per run
    /// of either train, not one per chunk.
    ///
    /// # Panics
    ///
    /// If `other` is cut differently (its `chunk` or `bits` differ).
    pub fn wait_for(&mut self, other: &ChunkTrain) {
        assert_eq!(
            (self.chunk, self.bits),
            (other.chunk, other.bits),
            "trains cut alike"
        );
        let mut merged = Vec::with_capacity(self.runs.len().max(other.runs.len()));
        let (mut a, mut b) = ((0, 0), (0, 0));
        while let (Some(&p), Some(&q)) = (self.runs.get(a.0), other.runs.get(b.0)) {
            let n = (p.count - a.1).min(q.count - b.1);
            let (x, y) = (p.part(a.1, n), q.part(b.1, n));
            // On `0..n` the two progressions cross at most once: the one
            // that starts later leads until the other overtakes it.
            let (lead, trail) = if x.first >= y.first { (x, y) } else { (y, x) };
            let led = match trail.stride.checked_sub(lead.stride) {
                Some(gain) if gain > 0 => ((lead.first - trail.first) / gain + 1).min(n),
                _ => n,
            };
            push(&mut merged, lead.part(0, led));
            if led < n {
                push(&mut merged, trail.part(led, n - led));
            }
            for (cursor, run) in [(&mut a, p), (&mut b, q)] {
                cursor.1 += n;
                if cursor.1 == run.count {
                    *cursor = (cursor.0 + 1, 0);
                }
            }
        }
        self.runs = merged;
    }
}

/// One directed link's schedule: which rounds still have free capacity.
#[derive(Default, Clone, Debug, PartialEq)]
struct LinkSchedule {
    /// Bits reserved in each round with `0 < used < capacity`.
    partial: BTreeMap<u64, u64>,
    /// Maximal runs of completely full rounds, `first → last`: no two
    /// runs overlap or touch.
    full: BTreeMap<u64, u64>,
}

/// What one [`LinkSchedule::reserve_train`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    /// Map operations (lookups, inserts, removals).
    touches: u64,
    /// Landing steps: each lands a run of chunks or one chunk.
    steps: u64,
}

impl LinkSchedule {
    /// First-fit reservation of a chunk train of `chunk`-bit chunks
    /// (`bits` in all, the last chunk takes the rest) on a link of
    /// capacity `cap`. `arrivals` are the rounds the chunks reached the
    /// sending end, as runs; each chunk is ready the round after its
    /// own and takes the free capacity of the earliest rounds from
    /// there, in chunk order. The rounds they landed in are pushed to
    /// `landed`.
    ///
    /// A chunk never looks before the round the previous one landed in
    /// (every round it passed on the way is full), so the train keeps
    /// its frontier in a [`Frontier`]. When a chunk is a whole number
    /// `k` of rounds and its run arrives no faster than one chunk per
    /// `k` rounds, every chunk of the run is ready by the time the one
    /// before it has landed: the chunks up to the next map entry land
    /// `k` rounds apart, as one run, in one step. A chunk that straddles
    /// that entry, or any chunk of another shape, is one step.
    fn reserve_train(
        &mut self,
        cap: u64,
        chunk: u64,
        bits: u64,
        arrivals: &[Run],
        landed: &mut Vec<Run>,
    ) -> Work {
        let Some(first) = arrivals.first() else {
            return Work::default();
        };
        let mut front = Frontier::default();
        front.seek(self, first.first + 1);
        let whole = chunk.is_multiple_of(cap).then_some(chunk / cap);
        let (mut rest, mut steps) = (bits, 0);
        for run in arrivals {
            let mut c = 0;
            while c < run.count {
                let ready = run.at(c) + 1;
                if ready > front.open {
                    front.jump(self, ready);
                }
                steps += 1;
                let bulk = match whole {
                    Some(k) if run.stride <= k => (run.count - c)
                        .min(rest / chunk)
                        .min(front.room(cap) / chunk),
                    _ => 0,
                };
                let lands = if bulk > 0 {
                    let first = front.open + (front.used + chunk - 1) / cap;
                    front.fill(self, cap, bulk * chunk);
                    Run {
                        first,
                        count: bulk,
                        stride: chunk / cap,
                    }
                } else {
                    let first = front.take(self, cap, chunk.min(rest));
                    Run {
                        first,
                        count: 1,
                        stride: 0,
                    }
                };
                rest -= (lands.count * chunk).min(rest);
                c += lands.count;
                push(landed, lands);
            }
        }
        front.flush(self);
        Work {
            touches: front.touches,
            steps,
        }
    }
}

/// A chunk train's frontier on one [`LinkSchedule`], kept in locals
/// between map operations. The rounds `stretch..open` are full and out
/// of `full` (runs the train crossed are taken out with them), the
/// round `open` holds `used < cap` bits and is out of `partial`, and
/// `next_full` / `next_partial` are the first entries after `open`
/// still in the maps, so the rounds between `open` and the earlier of
/// the two are free. [`Frontier::flush`] writes the frontier back.
#[derive(Default)]
struct Frontier {
    open: u64,
    used: u64,
    stretch: u64,
    next_full: Option<(u64, u64)>,
    next_partial: Option<(u64, u64)>,
    /// Map operations so far.
    touches: u64,
}

impl Frontier {
    /// Puts the frontier at `round`, looking its surroundings up: a run
    /// holding `round` or ending just before it starts the stretch.
    fn seek(&mut self, s: &mut LinkSchedule, round: u64) {
        (self.open, self.used, self.stretch) = (round, 0, round);
        self.touches += 3;
        if let Some((&first, &last)) = s.full.range(..=round).next_back() {
            if last + 1 >= round {
                s.full.remove(&first);
                self.touches += 1;
                self.stretch = first;
                self.open = round.max(last + 1);
            }
        }
        self.next_full = s.full.range(self.open..).next().map(|(&a, &b)| (a, b));
        self.next_partial = s.partial.range(self.open..).next().map(|(&r, &u)| (r, u));
        self.enter(s);
    }

    /// Moves the frontier forward to `round`: the rounds in between
    /// are untouched. Looks nothing up unless it passes a cached entry.
    fn jump(&mut self, s: &mut LinkSchedule, round: u64) {
        self.flush(s);
        let passed = |next: Option<(u64, u64)>| next.is_some_and(|(r, _)| r < round);
        if passed(self.next_full) || passed(self.next_partial) {
            self.seek(s, round);
        } else {
            (self.open, self.used, self.stretch) = (round, 0, round);
            self.enter(s);
        }
    }

    /// The free bits from the frontier up to the next entry in the maps
    /// (saturating when there is none): always more than zero.
    fn room(&self, cap: u64) -> u64 {
        let at = |next: Option<(u64, u64)>| next.map_or(u64::MAX, |(r, _)| r);
        let end = at(self.next_full).min(at(self.next_partial));
        (end - self.open).saturating_mul(cap) - self.used
    }

    /// Fills `bits ≤ room(cap)` more bits from the frontier on and
    /// returns the round the last one went into; the rounds it fills
    /// join the stretch, and an entry the frontier reaches is entered.
    fn fill(&mut self, s: &mut LinkSchedule, cap: u64, bits: u64) -> u64 {
        let total = self.used + bits;
        let landed = self.open + (total - 1) / cap;
        self.open += total / cap;
        self.used = total % cap;
        self.enter(s);
        landed
    }

    /// Takes `bits > 0` from the frontier on, across whatever entries
    /// lie in the way; returns the round the last one went into.
    fn take(&mut self, s: &mut LinkSchedule, cap: u64, mut bits: u64) -> u64 {
        loop {
            let room = self.room(cap);
            if bits <= room {
                return self.fill(s, cap, bits);
            }
            self.fill(s, cap, room);
            bits -= room;
        }
    }

    /// The frontier just reached `open`: a run starting there joins the
    /// stretch, and a partial round there is taken out to be filled.
    fn enter(&mut self, s: &mut LinkSchedule) {
        if let Some((first, last)) = self.next_full.filter(|&(first, _)| first == self.open) {
            s.full.remove(&first);
            self.open = last + 1;
            self.next_full = s.full.range(self.open..).next().map(|(&a, &b)| (a, b));
            self.touches += 2;
        }
        if let Some((_, used)) = self.next_partial.filter(|&(r, _)| r == self.open) {
            s.partial.remove(&self.open);
            self.used = used;
            self.next_partial = s.partial.range(self.open..).next().map(|(&r, &u)| (r, u));
            self.touches += 2;
        }
    }

    /// Writes the frontier back: the open round if partly used, the
    /// stretch as one run.
    fn flush(&mut self, s: &mut LinkSchedule) {
        if self.used > 0 {
            s.partial.insert(self.open, self.used);
            self.touches += 1;
        }
        if self.stretch < self.open {
            s.full.insert(self.stretch, self.open - 1);
            self.touches += 1;
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
    // A train's runs before its last hop, kept to take the next hop's.
    spare: Vec<Run>,
}

impl<'a> NetRun<'a> {
    /// Starts a run on the given topology.
    pub fn new(g: &'a Topology) -> Self {
        NetRun {
            g,
            schedules: vec![[LinkSchedule::default(), LinkSchedule::default()]; g.num_links()],
            link_bits: vec![0; g.num_links()],
            stats: RunStats::default(),
            spare: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.g
    }

    /// Finds the link between two adjacent players;
    /// [`TransmitError::NotAdjacent`] also when `a` is not in the
    /// topology.
    pub fn link_between(&self, a: Player, b: Player) -> Result<LinkId, TransmitError> {
        if a.index() >= self.g.num_players() {
            return Err(TransmitError::NotAdjacent(a, b));
        }
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
    /// "nothing to say". A one-chunk [`NetRun::send_train`].
    pub fn transmit(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let link = self.link_between(from, to)?;
        let start = ready_at.max(1) - 1;
        let mut train = ChunkTrain::new(bits, bits, start);
        self.send_train(link, from, &mut train)?;
        Ok(train.last_round().unwrap_or(start))
    }

    /// Moves a chunk train from `from` across `link` to its other end.
    /// On entry each chunk's round is the one it reached `from` in — it
    /// departs the round after; on return it is the round the chunk
    /// fully arrived. Each chunk is one first-fit transmission on the
    /// directed link, in order (see [`NetRun::transmit`]). Every send is
    /// built on this door: it alone reserves and tallies.
    ///
    /// A `link` the topology does not have is
    /// [`TransmitError::NoSuchLink`]; a down link (capacity `0`) is
    /// [`TransmitError::ZeroCapacity`], even for an empty train; a `from`
    /// that is not an end of `link` is [`TransmitError::NotAdjacent`].
    /// Nothing is reserved on an error.
    pub fn send_train(
        &mut self,
        link: LinkId,
        from: Player,
        train: &mut ChunkTrain,
    ) -> Result<(), TransmitError> {
        if link.index() >= self.g.num_links() {
            return Err(TransmitError::NoSuchLink(link));
        }
        let cap = self.g.capacity(link);
        if cap == 0 {
            return Err(TransmitError::ZeroCapacity(link));
        }
        let (a, b) = self.g.link(link);
        if from != a && from != b {
            return Err(TransmitError::NotAdjacent(from, a));
        }
        if train.runs.is_empty() {
            return Ok(());
        }
        let sched = &mut self.schedules[link.index()][usize::from(from != a)];
        let arrivals = mem::replace(&mut train.runs, mem::take(&mut self.spare));
        sched.reserve_train(cap, train.chunk, train.bits, &arrivals, &mut train.runs);
        self.spare = arrivals;
        self.spare.clear();
        self.stats.transmissions += train.bits.div_ceil(train.chunk);
        self.stats.total_bits += train.bits;
        self.link_bits[link.index()] += train.bits;
        // Landing rounds do not decrease along the train.
        self.stats.rounds = self.stats.rounds.max(train.last_round().unwrap_or(0));
        Ok(())
    }

    /// Sends `bits` from `from` to an arbitrary (possibly distant)
    /// player along a shortest *positive-capacity* path, pipelined in
    /// capacity-sized chunks with single-round relay latency (so the
    /// cost is `≈ bits/capacity + distance`, not their product). Down
    /// links ([`Topology::set_capacity`] to `0`) are routed around;
    /// [`TransmitError::NoRoute`] when no live path exists or either
    /// player is not in the topology. Returns the arrival-completion
    /// round. A payload the sender learned at the end of round
    /// `learned_at` is sent with `ready_at = learned_at + 1`.
    pub fn send_via_shortest_path(
        &mut self,
        from: Player,
        to: Player,
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        let n = self.g.num_players();
        if from.index() >= n || to.index() >= n {
            return Err(TransmitError::NoRoute(from, to));
        }
        if from == to {
            return Ok(ready_at.max(1) - 1);
        }
        // BFS over live links only — checked even for zero-bit sends, so
        // a partitioned pair reports `NoRoute` instead of a silent `Ok`
        // (matching `send_train`'s dead-link policy).
        let dist = self.g.live_distances(to);
        if dist[from.index()] == u32::MAX {
            return Err(TransmitError::NoRoute(from, to));
        }
        // Each hop moves to the first live neighbour closer to `to`; only
        // `to` has none, so the walk ends there.
        let g = self.g;
        let closer = |cur: Player| {
            g.neighbors(cur)
                .iter()
                .copied()
                .find(|&(v, l)| g.capacity(l) > 0 && dist[v.index()] < dist[cur.index()])
        };
        let hops: Vec<(Player, LinkId)> =
            iter::successors(closer(from), |&(cur, _)| closer(cur)).collect();
        let nodes: Vec<Player> = iter::once(from)
            .chain(hops.iter().map(|&(v, _)| v))
            .collect();
        let links: Vec<LinkId> = hops.iter().map(|&(_, l)| l).collect();
        self.send_along_path(&nodes, &links, bits, ready_at)
    }

    /// Pipelines `bits` along an explicit hop sequence (e.g. a
    /// Steiner-tree path from `SteinerTree::path`): the payload is
    /// chunked to the bottleneck capacity and every relay forwards a
    /// chunk the round after receiving it. `nodes`/`links` come in the
    /// `path()` shape: `links[i]` joins `nodes[i]` and `nodes[i + 1]`.
    /// Returns the arrival-completion round at the last hop.
    ///
    /// The path is checked before anything is reserved:
    /// [`TransmitError::NotAdjacent`] for a hop whose link does not join
    /// its two players (a link the topology does not have included), or
    /// for `nodes.len() != links.len() + 1` (naming
    /// the path's two ends); [`TransmitError::NotSimple`] for a repeated
    /// player; then [`TransmitError::ZeroCapacity`] for a down link.
    /// Then each hop is one [`NetRun::send_train`] of one
    /// [`ChunkTrain`]: that hop's landing rounds are the next hop's
    /// arrival rounds.
    ///
    /// # Panics
    ///
    /// If `nodes` is empty: a path names at least its sender.
    pub fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        bits: u64,
        ready_at: u64,
    ) -> Result<u64, TransmitError> {
        self.check_path(nodes, links)?;
        let start = ready_at.max(1);
        let bottleneck = links.iter().map(|&l| self.g.capacity(l)).min();
        let Some(chunk) = bottleneck.filter(|_| bits > 0) else {
            return Ok(start - 1);
        };
        // Chunk `c` is at `nodes[0]` by round `start − 1 + c`. A simple
        // path's hops are distinct directed links, so hop by hop builds
        // the schedule chunk by chunk would.
        let mut train = ChunkTrain::paced(chunk, bits, start - 1);
        for (&from, &link) in nodes.iter().zip(links) {
            self.send_train(link, from, &mut train)?;
        }
        Ok(train.last_round().unwrap_or(start - 1))
    }

    /// `Ok` when `nodes`/`links` is a simple path over live links (see
    /// [`NetRun::send_along_path`]).
    fn check_path(&self, nodes: &[Player], links: &[LinkId]) -> Result<(), TransmitError> {
        let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) else {
            panic!("a path names at least its sender");
        };
        if nodes.len() != links.len() + 1 {
            return Err(TransmitError::NotAdjacent(first, last));
        }
        for (i, (pair, &link)) in nodes.windows(2).zip(links).enumerate() {
            let joins = |(a, b)| (a, b) == (pair[0], pair[1]) || (b, a) == (pair[0], pair[1]);
            if link.index() >= self.g.num_links() || !joins(self.g.link(link)) {
                return Err(TransmitError::NotAdjacent(pair[0], pair[1]));
            }
            if nodes[..=i].contains(&pair[1]) {
                return Err(TransmitError::NotSimple(pair[1]));
            }
        }
        match links.iter().find(|&&l| self.g.capacity(l) == 0) {
            Some(&dead) => Err(TransmitError::ZeroCapacity(dead)),
            None => Ok(()),
        }
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
    use rand::{Rng, SeedableRng};
    use std::collections::btree_map::Entry;

    /// Per-message first-fit, the reference every chunk train is raced
    /// against: one message at a time, one map lookup per round visited.
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
        assert_eq!(sched.partial, BTreeMap::from([(4, 2)]));
        assert_eq!(run.stats().rounds, 4);
    }

    #[test]
    fn a_busy_link_costs_one_visit_per_chunk_not_one_per_full_round() {
        // Four messages of 256 capacity-sized chunks over one link, all
        // learned at round 300 and sent chunk by chunk, chunk `i` ready
        // at `301 + i`. Every message after the first finds
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

    impl ChunkTrain {
        /// Each chunk's round, in chunk order.
        fn rounds(&self) -> impl Iterator<Item = u64> + '_ {
            self.runs
                .iter()
                .flat_map(|r| (0..r.count).map(move |i| r.at(i)))
        }

        /// A train whose chunk `c` is at round `rounds[c]`.
        fn from_rounds(chunk: u64, bits: u64, rounds: &[u64]) -> Self {
            assert_eq!(bits.div_ceil(chunk), rounds.len() as u64);
            let mut train = ChunkTrain::new(chunk, 0, 0);
            train.bits = bits;
            for (w, &round) in rounds.iter().enumerate() {
                assert!(w == 0 || rounds[w - 1] <= round, "{rounds:?}");
                let run = Run {
                    first: round,
                    count: 1,
                    stride: 0,
                };
                push(&mut train.runs, run);
            }
            train
        }
    }

    /// `reserve_train` as one `reserve` per chunk, in order, on a copy:
    /// the landing rounds and the schedule it leaves behind.
    fn chunk_by_chunk(
        sched: &LinkSchedule,
        cap: u64,
        chunk: u64,
        bits: u64,
        times: &[u64],
    ) -> (Vec<u64>, LinkSchedule) {
        let mut copy = sched.clone();
        let mut rest = bits;
        let landed = times
            .iter()
            .map(|&t| {
                let size = chunk.min(rest);
                rest -= size;
                copy.reserve(cap, t + 1, size).0
            })
            .collect();
        (landed, copy)
    }

    /// One hop of `train` on `sched`, as [`NetRun::send_train`] makes it.
    fn hop(sched: &mut LinkSchedule, cap: u64, train: &mut ChunkTrain) -> Work {
        let arrivals = mem::take(&mut train.runs);
        sched.reserve_train(cap, train.chunk, train.bits, &arrivals, &mut train.runs)
    }

    /// Runs one train on `sched`, checks it against [`chunk_by_chunk`]
    /// and returns its work.
    fn train(sched: &mut LinkSchedule, cap: u64, train: &mut ChunkTrain) -> Work {
        let times: Vec<u64> = train.rounds().collect();
        let (landed, after) = chunk_by_chunk(sched, cap, train.chunk, train.bits, &times);
        let work = hop(sched, cap, train);
        let got: Vec<u64> = train.rounds().collect();
        assert!(
            got == landed,
            "cap {cap}, chunk {}, from {times:?}",
            train.chunk
        );
        assert!(
            *sched == after,
            "cap {cap}, chunk {}, from {times:?}",
            train.chunk
        );
        work
    }

    #[test]
    fn a_chunk_train_costs_a_few_map_operations_per_hop_not_one_per_chunk() {
        // 256 capacity-sized chunks learned at round 300 over three idle
        // hops, as `send_along_path` reserves them: each hop's landing
        // rounds are the next hop's arrival rounds.
        let (cap, chunks) = (16, 256);
        let mut hops = vec![LinkSchedule::default(); 3];
        let learned = |bits| ChunkTrain::paced(cap, bits, 300);
        let mut times = learned(chunks * cap);
        for (h, sched) in (1..).zip(&mut hops) {
            let work = train(sched, cap, &mut times);
            assert!(work.touches <= 4, "hop {h}: {work:?}");
            assert_eq!(work.steps, 1, "hop {h}: one run lands in one step");
            assert!(times.rounds().eq(300 + h..300 + h + chunks));
            assert_eq!(times.runs.len(), 1);
            assert_eq!(sched.full, BTreeMap::from([(300 + h, 299 + h + chunks)]));
        }
        // A second train behind the first on hop 1 crosses its one run.
        let mut times = learned(chunks * cap);
        let work = train(&mut hops[0], cap, &mut times);
        assert!(work.touches <= 6, "queued train: {work:?}");
        assert_eq!(work.steps, 1, "queued train: {work:?}");
        assert_eq!(times.rounds().next(), Some(557));
        assert_eq!(times.last_round(), Some(812));
        assert_eq!(hops[0].full, BTreeMap::from([(301, 812)]));
        // Scatter 20 partial rounds and 20 one-round runs past the end,
        // then a train whose tail is 5 bits short of a chunk: a few
        // operations and steps more per entry it crosses, none per
        // chunk.
        let sched = &mut hops[0];
        for i in 0..20 {
            sched.reserve(cap, 850 + 10 * i, cap);
            sched.reserve(cap, 855 + 10 * i, 3);
        }
        let crossed = (sched.full.len() - 1 + sched.partial.len()) as u64;
        let mut times = learned(chunks * cap - 5);
        let work = train(sched, cap, &mut times);
        assert!(work.touches <= 6 + 2 * crossed, "{work:?}");
        assert!(work.steps <= 2 + 2 * crossed, "{work:?}");
        let partial: Vec<u64> = sched.partial.keys().copied().collect();
        assert_eq!(
            partial,
            [times.last_round().unwrap()],
            "only the tail's round is partly used"
        );
    }

    #[test]
    fn scheduler_work_does_not_grow_with_the_train() {
        // Capacity-sized chunks down three hops, as `send_along_path`
        // paces them: on idle links, and with the middle hop already
        // carrying a full run, a partial round, another run and a
        // partial round in the train's way. Doubling the train doubles
        // neither the map operations nor the landing steps.
        let cap = 8;
        let work = |chunks: u64, busy: bool| {
            let mut hops = vec![LinkSchedule::default(); 3];
            if busy {
                hops[1].reserve(cap, 40, 5 * cap);
                hops[1].reserve(cap, 60, 3);
                hops[1].reserve(cap, 70, 2 * cap);
                hops[1].reserve(cap, 90, 5);
            }
            let mut times = ChunkTrain::paced(cap, chunks * cap, 10);
            let mut total = Work::default();
            for sched in &mut hops {
                let work = train(sched, cap, &mut times);
                total.touches += work.touches;
                total.steps += work.steps;
            }
            total
        };
        for busy in [false, true] {
            let base = work(1 << 10, busy);
            for chunks in [1 << 11, 1 << 12, 100_000] {
                assert_eq!(work(chunks, busy), base, "{chunks} chunks, busy {busy}");
            }
        }
        assert_eq!(work(1 << 10, false).steps, 3, "one step per idle hop");
    }

    #[test]
    fn trains_match_chunk_by_chunk_reservation_on_a_busy_link() {
        // Random traffic first, then trains of every shape: chunks
        // smaller or larger than the capacity, one-chunk trains, arrival
        // rounds that repeat or skip, tails that are not a multiple of
        // the chunk.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let cap = rng.random_range(1..=12u64);
            let mut sched = LinkSchedule::default();
            for _ in 0..rng.random_range(0..30) {
                let bits = rng.random_range(1..=3 * cap);
                sched.reserve(cap, rng.random_range(1..=60), bits);
            }
            for _ in 0..6 {
                let (chunk, bits) = match rng.random_range(0..4) {
                    // Chunks up to the capacity, as a path's bottleneck
                    // cuts them.
                    0 => {
                        let chunk = rng.random_range(1..=cap);
                        (chunk, rng.random_range(1..=40 * chunk))
                    }
                    // Chunks wider than the capacity span several rounds.
                    1 => {
                        let chunk = rng.random_range(cap + 1..=4 * cap);
                        (chunk, rng.random_range(1..=10 * chunk))
                    }
                    // Chunks a whole number of rounds wide.
                    2 => {
                        let chunk = cap * rng.random_range(1..=3u64);
                        (chunk, rng.random_range(1..=20 * chunk))
                    }
                    // One chunk covering the payload: a `transmit`.
                    _ => {
                        let bits = rng.random_range(1..=5 * cap);
                        (bits + rng.random_range(0..3u64), bits)
                    }
                };
                let mut t = rng.random_range(0..50u64);
                // Half the trains arrive at random steps of 0 to 2
                // rounds, half in runs of one spacing with jumps between.
                let (irregular, stride) = (rng.random_bool(0.5), rng.random_range(0..4u64));
                let times: Vec<u64> = (0..bits.div_ceil(chunk))
                    .map(|_| {
                        t += match rng.random_range(0..8) {
                            _ if irregular => rng.random_range(0..3u64),
                            0 => rng.random_range(0..5u64),
                            _ => stride,
                        };
                        t
                    })
                    .collect();
                let mut times = ChunkTrain::from_rounds(chunk, bits, &times);
                train(&mut sched, cap, &mut times);
            }
        }
    }

    #[test]
    fn long_trains_match_chunk_by_chunk_reservation() {
        // Trains of 10⁵ chunks and more through links that already carry
        // random reservations: capacity-sized chunks, chunks a few
        // rounds wide, and chunks smaller than the link so that several
        // share a round, arriving together, one per round or a few
        // rounds apart. Each train then takes a second, idle hop.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for seed in 0..6 {
            let cap = rng.random_range(2..=9u64);
            let chunk = match seed % 3 {
                0 => cap,
                1 => cap * rng.random_range(2..=3u64),
                _ => rng.random_range(1..cap),
            };
            let bits = chunk * rng.random_range(100_000..110_000u64) - rng.random_range(0..chunk);
            let mut sched = LinkSchedule::default();
            for _ in 0..200 {
                let at = rng.random_range(1..=400_000);
                sched.reserve(cap, at, rng.random_range(1..=4 * cap));
            }
            let mut times = match rng.random_range(0..3) {
                0 => ChunkTrain::new(chunk, bits, rng.random_range(0..100)),
                1 => ChunkTrain::paced(chunk, bits, rng.random_range(0..100)),
                _ => {
                    let times: Vec<u64> = (0..bits.div_ceil(chunk)).map(|c| c / 3 * 2).collect();
                    ChunkTrain::from_rounds(chunk, bits, &times)
                }
            };
            let crossed = (sched.full.len() + sched.partial.len()) as u64;
            let work = train(&mut sched, cap, &mut times);
            if chunk == cap {
                assert!(work.steps <= 2 + 2 * crossed, "seed {seed}: {work:?}");
            }
            train(&mut LinkSchedule::default(), cap + 1, &mut times);
        }
    }

    #[test]
    fn waiting_for_a_train_takes_the_later_round_of_each_chunk() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..300 {
            let chunks = rng.random_range(1..60usize);
            let mut draw = || {
                let mut t = rng.random_range(0..30u64);
                let stride = rng.random_range(0..4u64);
                let times: Vec<u64> = (0..chunks)
                    .map(|_| {
                        t += if rng.random_bool(0.2) {
                            rng.random_range(0..9u64)
                        } else {
                            stride
                        };
                        t
                    })
                    .collect();
                (ChunkTrain::from_rounds(3, 3 * chunks as u64, &times), times)
            };
            let ((mut a, ta), (b, tb)) = (draw(), draw());
            let runs = a.runs.len() + b.runs.len();
            a.wait_for(&b);
            let want: Vec<u64> = ta.iter().zip(&tb).map(|(x, y)| *x.max(y)).collect();
            assert!(a.rounds().eq(want.iter().copied()), "seed {seed}");
            assert!(a.runs.len() <= 2 * runs, "seed {seed}");
        }
        // Two evenly spaced trains that cross are three runs at most.
        let mut a = ChunkTrain::paced(1, 1000, 0);
        a.wait_for(&ChunkTrain::new(1, 1000, 500));
        assert!(a.rounds().eq((0..1000).map(|c| c.max(500))));
        assert_eq!(a.runs.len(), 2);
    }

    #[test]
    fn send_along_path_leaves_the_schedules_chunk_by_chunk_sends_leave() {
        // A line with unequal capacities, so the path between two players
        // is unique and its chunk is the bottleneck's, smaller than what
        // most hops carry. The reference sends each chunk hop by hop as a
        // one-chunk train.
        let mut g = Topology::line(6).with_uniform_capacity(8);
        for (l, cap) in [(1, 3), (2, 5), (4, 2)] {
            g.set_capacity(LinkId(l), cap);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for seed in 0..60 {
            let (mut run, mut reference) = (NetRun::new(&g), NetRun::new(&g));
            for step in 0..60 {
                let (a, b) = (rng.random_range(0..6u32), rng.random_range(0..6u32));
                let ids: Vec<u32> = if a <= b {
                    (a..=b).collect()
                } else {
                    (b..=a).rev().collect()
                };
                let nodes: Vec<Player> = ids.iter().map(|&i| Player(i)).collect();
                let links: Vec<LinkId> = ids.windows(2).map(|w| LinkId(w[0].min(w[1]))).collect();
                let (bits, ready_at) = (rng.random_range(0..200u64), rng.random_range(0..40u64));
                if rng.random_bool(0.3) && !links.is_empty() {
                    // A bare message on the first hop, between the trains.
                    assert_eq!(
                        run.transmit(nodes[0], nodes[1], bits, ready_at),
                        reference.transmit(nodes[0], nodes[1], bits, ready_at)
                    );
                    continue;
                }
                let chunk = links.iter().map(|&l| g.capacity(l)).min().unwrap_or(1);
                let mut remaining = if links.is_empty() { 0 } else { bits };
                let mut last = ready_at.max(1) - 1;
                let mut chunk_ready = ready_at.max(1);
                while remaining > 0 {
                    let size = chunk.min(remaining);
                    remaining -= size;
                    let mut t = ChunkTrain::new(size, size, chunk_ready - 1);
                    for (&from, &link) in nodes.iter().zip(&links) {
                        reference.send_train(link, from, &mut t).unwrap();
                    }
                    last = last.max(t.last_round().unwrap());
                    chunk_ready += 1;
                }
                assert_eq!(
                    run.send_along_path(&nodes, &links, bits, ready_at),
                    Ok(last),
                    "seed {seed}, step {step}"
                );
                assert_eq!(run.stats(), reference.stats(), "seed {seed}, step {step}");
            }
            assert_eq!(run.link_bits(), reference.link_bits(), "seed {seed}");
            assert!(run.schedules == reference.schedules, "seed {seed}");
        }
    }

    #[test]
    fn send_along_path_refuses_a_path_that_is_not_one() {
        let g = Topology::line(4).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        let p = |ids: &[u32]| ids.iter().map(|&i| Player(i)).collect::<Vec<_>>();
        let l = |ids: &[u32]| ids.iter().map(|&i| LinkId(i)).collect::<Vec<_>>();
        let refusals = [
            (
                p(&[0, 1, 2]),
                l(&[0]),
                TransmitError::NotAdjacent(Player(0), Player(2)),
            ),
            (
                p(&[0, 1]),
                l(&[0, 1]),
                TransmitError::NotAdjacent(Player(0), Player(1)),
            ),
            (
                p(&[0, 1, 2]),
                l(&[0, 2]),
                TransmitError::NotAdjacent(Player(1), Player(2)),
            ),
            (
                p(&[0, 2]),
                l(&[1]),
                TransmitError::NotAdjacent(Player(0), Player(2)),
            ),
            (
                p(&[0, 1, 0]),
                l(&[0, 0]),
                TransmitError::NotSimple(Player(0)),
            ),
            (
                p(&[2, 1, 2, 3]),
                l(&[1, 1, 2]),
                TransmitError::NotSimple(Player(2)),
            ),
            (
                p(&[0, 1]),
                l(&[9]),
                TransmitError::NotAdjacent(Player(0), Player(1)),
            ),
            (
                p(&[0, 1, 2]),
                l(&[0, 3]),
                TransmitError::NotAdjacent(Player(1), Player(2)),
            ),
        ];
        for (nodes, links, error) in refusals {
            for bits in [0, 9] {
                assert_eq!(
                    run.send_along_path(&nodes, &links, bits, 1),
                    Err(error.clone())
                );
            }
        }
        assert_eq!(run.stats(), RunStats::default(), "nothing was accounted");
        assert_eq!(run.link_bits(), [0, 0, 0]);
        // The same players and links in order are a path.
        assert_eq!(
            run.send_along_path(&p(&[2, 1, 0]), &l(&[1, 0]), 8, 1),
            Ok(3)
        );
    }

    #[test]
    fn send_train_refuses_a_link_the_topology_does_not_have() {
        let g = Topology::line(3).with_uniform_capacity(4);
        let mut run = NetRun::new(&g);
        for bits in [0, 8] {
            assert_eq!(
                run.send_train(LinkId(2), Player(0), &mut ChunkTrain::new(4, bits, 0)),
                Err(TransmitError::NoSuchLink(LinkId(2)))
            );
        }
        assert_eq!(run.stats(), RunStats::default(), "nothing was accounted");
        assert_eq!(run.link_bits(), [0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least its sender")]
    fn an_empty_path_has_no_sender() {
        let g = Topology::line(2);
        let _ = NetRun::new(&g).send_along_path(&[], &[], 1, 1);
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
