//! The topology-general distributed FAQ runtime: any connected
//! [`Topology`], any shard placement, one cached [`QueryPlan`].
//!
//! Where the star/d-degenerate protocols implement the paper's
//! *specialised* round-optimal pipelines, [`DistributedFaqRun`] is the
//! general-purpose executor the bounds are *about*: inputs are sharded
//! across arbitrary players ([`InputPlacement`], hash-split via
//! [`ConsistentHashSplit`]), shards travel along Steiner-tree /
//! shortest-path schedules on a pluggable [`Transport`], and the upward
//! pass of Theorem G.3 runs at per-GHD-node *aggregation players* with
//! the columnar join kernel. Arrival rounds thread through the dataflow
//! (`route_causal` semantics), so pipelining and causality hold by
//! construction.
//!
//! Every remote shard and every message travels as a codec frame
//! ([`Relation::encode_frame`]) over the transport
//! ([`DistributedFaqRun::execute_on`]; `execute` copies frames in
//! memory), and the run computes on the *decoded* bytes. Every
//! transport shadow-accounts Model 2.1 bits identically on the embedded
//! [`faqs_network::NetRun`], so [`RunStats`] and [`WireStats`] are
//! byte-identical across them — and every run asserts itself against
//! the simulator's envelope on the fly.
//!
//! Every run returns the semiring result **and** the measured
//! [`RunStats`] and [`WireStats`]; [`ConformanceReport`] confronts the
//! measurement with the closed-form [`BoundReport`] — the paper's
//! inequalities as executable checks — and [`WireConformance`] does the
//! same for the bytes on the wire.
//!
//! Push-down before shipping (Corollary G.2 at the shard level): a bound
//! `Sum` variable occurring in exactly one hyperedge (and one GHD bag) is
//! aggregated out of each shard *locally by its holder* before routing,
//! provided every higher-indexed (inner) bound variable of the *same*
//! hyperedge is also `Sum`-aggregated. The exchange is then sound: `⊗`
//! distributes over `⊕` across the other factors (the variable appears
//! in none of them), `Sum` commutes with `Sum`, and `Product` aggregates
//! are engine-gated to idempotent semirings — for which
//! `(⊕_v f)^m = ⊕_v f^m`. Without the same-factor guard the exchange is
//! wrong: `Σ_v Π_w f(v,w) ≠ Π_w Σ_v f(v,w)` (regression-tested).

use crate::bounds::{model_capacity_bits, BoundReport};
use crate::hash_split::ConsistentHashSplit;
use crate::outcome::ProtocolError;
use faqs_core::{CalProbe, Factors, Pass, PassSite, QueryPlan, Timed};
use faqs_hypergraph::{EdgeId, NodeId};
use faqs_network::{
    Assignment, DeltaPackings, Player, RunStats, SimTransport, Topology, Transport, TransportKind,
    WireStats,
};
use faqs_plan::{CalibrationRegistry, PlacementContext, QueryStats, StatsDigest};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Semiring;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which player holds which shard of each input factor (`K ⊆ V`
/// generalised to sharded inputs, Definition G.7 / Appendix G.6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputPlacement {
    /// `shards[e]` = the players holding factor `e`'s shards; a factor
    /// with one entry is held whole. Multi-shard factors are partitioned
    /// by [`ConsistentHashSplit`] over the factor's first variable.
    shards: Vec<Vec<Player>>,
    output: Player,
}

impl InputPlacement {
    /// An explicit placement: `shards[e]` lists the holders of factor
    /// `e`'s shards (at least one each, which
    /// [`DistributedFaqRun::new`] checks); `output` must learn the
    /// answer.
    pub fn new(shards: Vec<Vec<Player>>, output: Player) -> Self {
        InputPlacement { shards, output }
    }

    /// Whole-relation placement from a protocol [`Assignment`]: one
    /// shard per factor, at the assignment's holder.
    pub fn from_assignment(a: &Assignment) -> Self {
        let shards = (0..a.len())
            .map(|e| vec![a.holder(EdgeId(e as u32))])
            .collect();
        InputPlacement::new(shards, a.output())
    }

    /// Hash-split placement (Appendix G.6): every one of the `k` factors
    /// is sharded across all of `players` by the consistent hash of its
    /// first variable's value.
    pub fn hash_split(k: usize, players: &[Player], output: Player) -> Self {
        InputPlacement::new(vec![players.to_vec(); k], output)
    }

    /// A random placement for property tests, deterministic in `seed`:
    /// each factor is held whole or split across up to three random
    /// players of `g`; the output player is random too.
    pub fn random(k: usize, g: &Topology, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = g.num_players() as u32;
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = (0..k)
            .map(|_| {
                let parts = rng.random_range(1..=3usize);
                (0..parts).map(|_| Player(rng.random_range(0..n))).collect()
            })
            .collect();
        InputPlacement::new(shards, Player(rng.random_range(0..n)))
    }

    /// The designated output player.
    pub fn output(&self) -> Player {
        self.output
    }

    /// The shard holders of factor `e`.
    pub fn shard_holders(&self, e: EdgeId) -> &[Player] {
        &self.shards[e.index()]
    }

    /// The distinct player set `K` (all shard holders plus the output).
    pub fn players(&self) -> Vec<Player> {
        let mut set: BTreeSet<Player> = self.shards.iter().flatten().copied().collect();
        set.insert(self.output);
        set.into_iter().collect()
    }

    fn validate<S: Semiring>(&self, q: &FaqQuery<S>, g: &Topology) -> Result<(), ProtocolError> {
        if self.shards.len() != q.k() {
            return Err(ProtocolError::Invalid(format!(
                "{} shard lists for {} relations",
                self.shards.len(),
                q.k()
            )));
        }
        if let Some(e) = self.shards.iter().position(Vec::is_empty) {
            return Err(ProtocolError::Invalid(format!(
                "factor {e} has no shard holder"
            )));
        }
        for p in self.players() {
            if p.index() >= g.num_players() {
                return Err(ProtocolError::Invalid(format!("{p} not in topology")));
            }
        }
        Ok(())
    }
}

/// Result of one distributed run: the semiring answer (materialised at
/// the output player) plus the scheduler's measurements.
#[derive(Clone, Debug)]
pub struct DistributedOutcome<S: Semiring> {
    /// The result relation over the free variables, identical to
    /// `faqs_core::solve_faq` on the same query.
    pub result: Relation<S>,
    /// Measured rounds / bits / transmissions of the run — identical
    /// across transports (shadow accounting).
    pub stats: RunStats,
    /// The aggregation player chosen for each GHD node (dense by node
    /// index; the root always aggregates at the output player).
    pub node_player: Vec<Player>,
    /// Round at whose end the output player holds the result.
    pub completed_at: u64,
    /// Which transport carried the run.
    pub transport: TransportKind,
    /// Frame bytes delivered — identical across transports.
    pub wire: WireStats,
}

/// A distributed FAQ execution over an arbitrary topology: shards are
/// routed to per-GHD-node aggregation players along Steiner-tree /
/// shortest-path schedules, and the Yannakakis/GHD upward pass runs at
/// those players with the columnar kernel, threading arrival rounds
/// through the dataflow.
///
/// # Example
///
/// ```
/// use faqs_hypergraph::star_query;
/// use faqs_network::{Player, Topology};
/// use faqs_protocols::{DistributedFaqRun, InputPlacement};
/// use faqs_relation::{random_boolean_instance, RandomInstanceConfig};
/// use faqs_semiring::Semiring;
///
/// // A star BCQ, hash-split across the four players of a ring.
/// let q = random_boolean_instance(&star_query(3), &RandomInstanceConfig::default(), true);
/// let g = Topology::ring(4);
/// let players: Vec<Player> = (0..4).map(Player).collect();
/// let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
///
/// let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
/// let out = run.execute().unwrap();
/// assert_eq!(!out.result.total().is_zero(), faqs_core::solve_bcq(&q));
///
/// // The measurement conforms to the paper's bit envelope.
/// assert!(run.conformance(out.stats).within_upper());
/// ```
pub struct DistributedFaqRun<'a, S: Semiring> {
    q: &'a FaqQuery<S>,
    placement: InputPlacement,
    plan: QueryPlan,
    /// The capacity-scaled topology the run executes on.
    scaled: Topology,
    all_links_live: bool,
    /// Attached calibration registry + this query's shape digest: every
    /// successful run then reports predicted-vs-actual pairs at its
    /// multi-input folds, so distributed runs teach the planner exactly
    /// like local executions do. `None` = no telemetry.
    calibration: Option<(Arc<CalibrationRegistry>, StatsDigest)>,
}

impl<'a, S: Semiring> DistributedFaqRun<'a, S> {
    /// Prepares a run: validates the query and placement, builds (and
    /// validates) the [`QueryPlan`] — placement-aware, so `faqs-plan`
    /// scores GHD candidates on the bits they would ship across the
    /// scaled topology — and scales every link to carry
    /// `capacity_tuples` tuples (`r·⌈log₂ D⌉` bits plus annotation) per
    /// round — `1` is the paper's Model 2.1 allowance; pass `0` to keep
    /// `g`'s own (possibly heterogeneous or down) capacities.
    pub fn new(
        q: &'a FaqQuery<S>,
        g: &Topology,
        placement: InputPlacement,
        capacity_tuples: u64,
    ) -> Result<Self, ProtocolError> {
        q.validate()
            .map_err(|e| ProtocolError::Invalid(e.to_string()))?;
        placement.validate(q, g)?;
        let scaled = if capacity_tuples == 0 {
            g.clone()
        } else {
            g.clone()
                .with_uniform_capacity(capacity_tuples * model_capacity_bits(q))
        };
        // The cost model prices each shard at the width its plan's shard
        // nest leaves — the nest `materialise_shards` sums out before
        // routing.
        let ctx = PlacementContext::new(q, &scaled, placement.shards.clone(), placement.output());
        let plan = faqs_plan::plan_query_calibrated(q, Some(&ctx), None, 1.0)
            .map_err(|e| ProtocolError::Engine(e.to_string()))?;
        let all_links_live = scaled.links().all(|l| scaled.capacity(l) > 0);
        Ok(DistributedFaqRun {
            q,
            placement,
            plan,
            scaled,
            all_links_live,
            calibration: None,
        })
    }

    /// Runs `plan` instead of the plan [`DistributedFaqRun::new`]
    /// picked — the distributed twin of the executor's `solve_on`. A
    /// plan built for another hypergraph, free-variable list or
    /// aggregate set is refused with [`ProtocolError::Invalid`]
    /// ([`QueryPlan::check_query`]).
    pub fn with_plan(mut self, plan: QueryPlan) -> Result<Self, ProtocolError> {
        plan.check_query(self.q)
            .map_err(|e| ProtocolError::Invalid(e.to_string()))?;
        self.plan = plan;
        Ok(self)
    }

    /// Attaches a shared [`CalibrationRegistry`]: every execution that
    /// completes then feeds predicted-vs-actual fold-point cardinalities
    /// into it under this query's statistics digest (a run that dies on
    /// the wire teaches nothing). No-op for disabled registries.
    pub fn with_calibration(mut self, calibration: Arc<CalibrationRegistry>) -> Self {
        self.calibration = calibration
            .is_enabled()
            .then(|| (calibration, QueryStats::of(self.q).digest()));
        self
    }

    /// The capacity-scaled topology the run executes on.
    pub fn topology(&self) -> &Topology {
        &self.scaled
    }

    /// The placement this run executes.
    pub fn placement(&self) -> &InputPlacement {
        &self.placement
    }

    /// Executes the full FAQ in memory ([`SimTransport`]). The result
    /// relation equals `faqs_core::solve_faq` on every input; the stats
    /// are the empirical side of [`ConformanceReport`]. A caller that
    /// wants the frames on a socket picks the transport with
    /// [`DistributedFaqRun::execute_on`].
    pub fn execute(&self) -> Result<DistributedOutcome<S>, ProtocolError> {
        self.execute_on(&mut SimTransport::new(&self.scaled))
    }

    /// [`DistributedFaqRun::execute`] on an explicit [`Transport`]
    /// ([`SimTransport`] or [`faqs_network::TcpTransport`]) — the
    /// result, [`RunStats`] and [`WireStats`] are identical on both.
    /// Every run holds its measured model bits to the simulator's upper
    /// envelope and its wire bytes to [`WireConformance`] — the shadow
    /// simulator acting as a live oracle over the wire — and fails with
    /// [`ProtocolError::BoundViolated`] /
    /// [`ProtocolError::WireBoundViolated`] when either escapes, or with
    /// [`ProtocolError::Frame`] when a delivered frame does not decode.
    pub fn execute_on<T: Transport + ?Sized>(
        &self,
        transport: &mut T,
    ) -> Result<DistributedOutcome<S>, ProtocolError> {
        let shards = self.materialise_shards();
        let node_player = self.node_players(&shards);
        let probe = self.calibration.as_ref();
        let probe =
            probe.and_then(|(registry, digest)| CalProbe::new(registry, digest, &self.plan));
        let pass = Pass {
            q: self.q,
            plan: &self.plan,
            probe: probe.as_ref(),
        };
        let mut packings = Packings::new();
        let mut site = Routed {
            run: self,
            transport: &mut *transport,
            shards: &shards,
            node_player: &node_player,
            packings: &mut packings,
        };
        let (result, ready) = pass.run(&mut site)?;
        let stats = transport.stats();
        let wire = transport.wire();
        // Live oracle: a run that escapes the simulator's envelope is a
        // protocol bug, not a measurement to report. `K` is usually the
        // member set the gathers already packed.
        let players = self.placement.players();
        let report = ConformanceReport::evaluate_with(
            self.q,
            &self.scaled,
            &players,
            stats,
            packings.get(&players),
        );
        if !report.within_upper() {
            return Err(ProtocolError::BoundViolated {
                measured_bits: stats.total_bits,
                upper_bits: report.upper_bits,
            });
        }
        let wire_report = self.wire_conformance(&report, wire);
        if !wire_report.within_upper() {
            return Err(ProtocolError::WireBoundViolated {
                measured_bits: wire.wire_bits(),
                upper_bits: wire_report.upper_wire_bits,
            });
        }
        Ok(DistributedOutcome {
            result,
            stats,
            node_player,
            completed_at: ready,
            transport: transport.kind(),
            wire,
        })
    }

    /// Confronts a run's measurement with the paper's bounds evaluated
    /// on this query / (scaled) topology / player set.
    pub fn conformance(&self, stats: RunStats) -> ConformanceReport {
        ConformanceReport::evaluate(self.q, &self.scaled, &self.placement.players(), stats)
    }

    /// Confronts a run's [`WireStats`] with the model
    /// envelope of `report`, translated into wire units for this query:
    /// `upper = blowup·upper_bits + header·frames`, where `blowup` is
    /// the worst per-tuple ratio of codec frame bits (`32r + 8W` per
    /// row) to Model 2.1 bits (`r·⌈log₂D⌉ + value_bits`) over the
    /// arities this query can ship, and `header` covers each frame's
    /// fixed-plus-schema prefix. Exact closed forms from
    /// [`faqs_relation::frame_bytes`] — the same function the codec
    /// sizes its frames with.
    pub fn wire_conformance(&self, report: &ConformanceReport, wire: WireStats) -> WireConformance {
        let log_d = (32 - self.q.domain.saturating_sub(1).leading_zeros()).max(1) as u64;
        let vb = S::value_bits();
        let wire_value_bits = 8 * S::WIRE_VALUE_BYTES as u64;
        let max_arity = self.q.hypergraph.num_vars().max(1);
        let blowup = (1..=max_arity as u64)
            .map(|r| (32 * r + wire_value_bits).div_ceil(r * log_d + vb))
            .fold(1, u64::max);
        let header_bits_per_frame = faqs_relation::frame_bits(max_arity, 0, S::WIRE_VALUE_BYTES);
        WireConformance {
            wire,
            blowup,
            header_bits_per_frame,
            upper_wire_bits: blowup
                .saturating_mul(report.upper_bits)
                .saturating_add(header_bits_per_frame.saturating_mul(wire.frames)),
        }
    }

    /// Per-edge shard relations, pre-aggregated at their holders: each
    /// shard of factor `e` has the plan's [`QueryPlan::shard_nest`]
    /// aggregated out locally before any routing — the nest the cost
    /// model priced.
    fn materialise_shards(&self) -> Vec<Vec<(Player, Relation<S>)>> {
        (0..self.q.k())
            .map(|ei| {
                let e = EdgeId(ei as u32);
                let holders = self.placement.shard_holders(e);
                let factor = self.q.factor(e);
                let parts: Vec<Relation<S>> = if holders.len() == 1 {
                    vec![factor.clone()]
                } else {
                    let split = ConsistentHashSplit::new(holders.len());
                    factor.split_by(holders.len(), |t| {
                        split.owner(t.first().copied().unwrap_or(0))
                    })
                };
                let nest = self.plan.shard_nest(e);
                holders
                    .iter()
                    .zip(parts)
                    .map(|(&p, part)| (p, part.aggregate_out_many(nest)))
                    .collect()
            })
            .collect()
    }

    /// Chooses each GHD node's aggregation player through the planner's
    /// shared `argmin Σ bits·live-distance` rule
    /// ([`faqs_plan::choose_aggregation_players`]): the root aggregates
    /// at the output; every other node picks, among its factors' shard
    /// holders and the output, the player minimising the bit-distance
    /// mass of its *actual* shards (ties to the lowest player id). The
    /// cost model ran the identical rule over estimated masses when the
    /// plan was chosen, so predicted and executed placements agree.
    fn node_players(&self, shards: &[Vec<(Player, Relation<S>)>]) -> Vec<Player> {
        let mut node_shards: Vec<Vec<(Player, u64)>> = vec![Vec::new(); self.plan.slots()];
        for node in self.plan.ghd.node_ids() {
            for &e in self.plan.joins(node) {
                for (p, rel) in &shards[e.index()] {
                    node_shards[node.index()].push((*p, rel.bits(self.q.domain)));
                }
            }
        }
        faqs_plan::choose_aggregation_players(
            &self.scaled,
            &self.plan,
            self.placement.output(),
            &node_shards,
        )
    }

    /// Routes every remote shard of factor `e` to the aggregation player
    /// `to` — across an edge-disjoint Steiner packing when several
    /// holders converge (shards round-robin over the trees), along a
    /// shortest live path otherwise — and reassembles the factor there.
    /// The packing comes from `packings`, which packs each distinct
    /// member set once per execution. Every remote shard travels as an
    /// encoded frame; the reassembly unions the parts in shard order,
    /// local ones from memory and remote ones *decoded* from the bytes
    /// that arrived.
    fn gather_factor<T: Transport + ?Sized>(
        &self,
        e: EdgeId,
        to: Player,
        transport: &mut T,
        shards: &[Vec<(Player, Relation<S>)>],
        packings: &mut Packings,
    ) -> Result<(Relation<S>, u64), ProtocolError> {
        let parts = &shards[e.index()];
        let domain = self.q.domain;
        let remote = || parts.iter().filter(|(p, _)| *p != to);
        let mut packing = None;
        if remote().count() >= 2 && self.all_links_live {
            // At least one remote holder plus `to`: two or more members.
            let mut members: Vec<Player> = remote().map(|(p, _)| *p).collect();
            members.push(to);
            members.sort_unstable();
            members.dedup();
            let cap_min = self
                .scaled
                .links()
                .map(|l| self.scaled.capacity(l))
                .min()
                .unwrap_or(1)
                .max(1);
            let total_bits: u64 = remote().map(|(_, r)| r.bits(domain)).sum();
            let packed = packings
                .entry(members)
                .or_insert_with_key(|members| DeltaPackings::new(&self.scaled, members));
            packing = Some(packed.best(total_bits.div_ceil(cap_min)).1);
        }
        let mut ready = 0u64;
        let mut shipped = 0usize;
        let mut rels = Vec::with_capacity(parts.len());
        for (p, rel) in parts {
            if *p == to {
                rels.push(rel.clone());
                continue;
            }
            let frame = rel.encode_frame();
            let d = match packing {
                // Shards round-robin over the packing's trees.
                Some(trees) => {
                    let tree = &trees[shipped % trees.len()];
                    let (nodes, links) = tree.path(*p, to).expect("terminals are spanned");
                    transport.send_along_path(&nodes, &links, &frame, rel.bits(domain), 1)
                }
                // `route(.., learned_at = 0)` departs at round 1 —
                // identical scheduling to the historical
                // `send_via_shortest_path(.., ready_at = 1)`.
                None => transport.route(*p, to, &frame, rel.bits(domain), 0),
            }
            .map_err(|e| ProtocolError::Unreachable(e.to_string()))?;
            shipped += 1;
            ready = ready.max(d.arrived_at);
            rels.push(Relation::decode_frame(&d.payload).map_err(ProtocolError::Frame)?);
        }
        Ok((Relation::union_all(&rels), ready))
    }
}

/// The Steiner packings one execution has built, by (sorted) member
/// set. A hash-split placement gathers every factor over one set, and
/// the live oracle's `K` is usually that set too, so a run packs once.
type Packings = BTreeMap<Vec<Player>, DeltaPackings>;

/// The routed site of the upward pass: each GHD node is evaluated at
/// its aggregation player, factors are gathered from their shard
/// holders, and messages travel the transport with causal ready rounds.
/// The pass asks for children (and their routes) first, then the bag —
/// the call order the pinned [`RunStats`] were measured under.
struct Routed<'r, 'a, S: Semiring, T: Transport + ?Sized> {
    run: &'r DistributedFaqRun<'a, S>,
    transport: &'r mut T,
    shards: &'r [Vec<(Player, Relation<S>)>],
    node_player: &'r [Player],
    packings: &'r mut Packings,
}

impl<S: Semiring, T: Transport + ?Sized> PassSite<S> for Routed<'_, '_, S, T> {
    type Error = ProtocolError;

    fn bag<'r>(
        &'r mut self,
        pass: &'r Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Factors<'r, S>>, ProtocolError> {
        // Every factor is gathered before the pass joins any: gathering
        // order — and hence round accounting — is operator-independent.
        let me = self.node_player[node.index()];
        let mut ready = 0u64;
        let mut gathered = Vec::new();
        for &e in pass.plan.joins(node) {
            let (factor, arrived) =
                self.run
                    .gather_factor(e, me, self.transport, self.shards, self.packings)?;
            ready = ready.max(arrived);
            gathered.push(Cow::Owned(factor));
        }
        Ok((gathered, ready))
    }

    fn deliver(
        &mut self,
        pass: &Pass<'_, S>,
        from: NodeId,
        to: NodeId,
        message: Relation<S>,
        ready: u64,
    ) -> Result<Timed<Relation<S>>, ProtocolError> {
        let (from, to) = (self.node_player[from.index()], self.node_player[to.index()]);
        if from == to {
            return Ok((message, ready));
        }
        // The message is learned at the end of `ready`, so it departs
        // at `ready + 1` — causal by construction. The frame travels and
        // the *received* bytes become the message the parent folds.
        let d = self
            .transport
            .route(
                from,
                to,
                &message.encode_frame(),
                message.bits(pass.q.domain),
                ready,
            )
            .map_err(|e| ProtocolError::Unreachable(e.to_string()))?;
        let message = Relation::decode_frame(&d.payload).map_err(ProtocolError::Frame)?;
        Ok((message, d.arrived_at))
    }
}

/// Documented slack constant of the executable bound inequalities: the
/// paper's bounds are `Õ(·)` / `Ω̃(·)` with unspecified constants; the
/// conformance envelope grants the upper bound this multiplicative
/// factor (plus a latency additive) before declaring a violation.
pub const CONFORMANCE_SLACK: u64 = 4;

/// The paper's inequalities as executable checks: a measured
/// [`RunStats`] confronted with [`BoundReport::evaluate`] translated
/// into a bit envelope.
///
/// * `upper_bits` — the paper's round upper bound times the network's
///   per-round throughput (every link, both directions), with the
///   [`CONFORMANCE_SLACK`] constants: a protocol meeting the paper's
///   round bound can never move more. Co-located placements (`|K| < 2`)
///   get a zero envelope — the run must be communication-free.
/// * `lower_bits` — the nominal `Ω̃((y + n2)·N / MinCut)` in bit units
///   (each required round pushes at least one bit through the
///   bottleneck). Valid for adversarially *spread* placements on hard
///   instances, which is what the conformance fixtures construct; use
///   [`ConformanceReport::within_upper`] alone for arbitrary
///   placements/instances.
///
/// # Example
///
/// ```
/// use faqs_hypergraph::star_query;
/// use faqs_network::{Player, Topology};
/// use faqs_protocols::{ConformanceReport, DistributedFaqRun, InputPlacement};
/// use faqs_relation::{random_boolean_instance, RandomInstanceConfig};
///
/// let q = random_boolean_instance(&star_query(3), &RandomInstanceConfig::default(), true);
/// let g = Topology::line(4);
/// let players: Vec<Player> = (0..4).map(Player).collect();
/// let run = DistributedFaqRun::new(
///     &q,
///     &g,
///     InputPlacement::hash_split(q.k(), &players, Player(3)),
///     1,
/// )
/// .unwrap();
/// let out = run.execute().unwrap();
///
/// let report: ConformanceReport = run.conformance(out.stats);
/// assert!(report.within_upper(), "measured bits inside the paper's envelope");
/// assert!(report.upper_bits >= report.lower_bits);
/// ```
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The closed-form bound quantities this run is checked against.
    pub bound: BoundReport,
    /// The measured run.
    pub stats: RunStats,
    /// Lower bit envelope (see type-level docs for its validity domain).
    pub lower_bits: u64,
    /// Upper bit envelope.
    pub upper_bits: u64,
}

impl ConformanceReport {
    /// Evaluates the envelope for computing `q` on `g` (capacities as
    /// the run saw them) with player set `players`, against `stats`.
    pub fn evaluate<S: Semiring>(
        q: &FaqQuery<S>,
        g: &Topology,
        players: &[Player],
        stats: RunStats,
    ) -> Self {
        Self::evaluate_with(q, g, players, stats, None)
    }

    /// [`ConformanceReport::evaluate`] on Steiner packings the run
    /// already holds for `(g, players)`; `None` packs afresh.
    fn evaluate_with<S: Semiring>(
        q: &FaqQuery<S>,
        g: &Topology,
        players: &[Player],
        stats: RunStats,
        packings: Option<&DeltaPackings>,
    ) -> Self {
        let bound = BoundReport::evaluate_with(q, g, players, packings);
        let (lower_bits, upper_bits) = if players.len() < 2 {
            (0, 0)
        } else {
            let per_round: u64 = g.links().map(|l| 2 * g.capacity(l)).sum();
            let additive = per_round.saturating_mul(g.diameter() as u64 + q.k() as u64 + 1);
            (
                bound.lower_rounds,
                CONFORMANCE_SLACK
                    .saturating_mul(bound.upper_rounds)
                    .saturating_mul(per_round)
                    .saturating_add(additive),
            )
        };
        ConformanceReport {
            bound,
            stats,
            lower_bits,
            upper_bits,
        }
    }

    /// Whether the measured bits stay inside the upper envelope (for a
    /// co-located placement: whether the run was communication-free).
    pub fn within_upper(&self) -> bool {
        self.stats.total_bits <= self.upper_bits
    }

    /// Whether the measured bits meet the lower envelope.
    pub fn meets_lower(&self) -> bool {
        self.stats.total_bits >= self.lower_bits
    }

    /// `lower_bits ≤ total_bits ≤ upper_bits`.
    pub fn conforms(&self) -> bool {
        self.within_upper() && self.meets_lower()
    }

    /// Panics with the full ledger unless [`ConformanceReport::conforms`].
    pub fn assert_conforms(&self) {
        assert!(
            self.conforms(),
            "bound conformance violated: lower {} ≤ measured {} ≤ upper {} \
             (rounds {}, transmissions {}, bound {:?})",
            self.lower_bits,
            self.stats.total_bits,
            self.upper_bits,
            self.stats.rounds,
            self.stats.transmissions,
            self.bound,
        );
    }
}

/// The model envelope translated into wire units: a run's measured
/// [`WireStats`] confronted with
/// `blowup · upper_bits + header · frames` (see
/// [`DistributedFaqRun::wire_conformance`] for the closed forms). A
/// co-located run gets a zero envelope here too — no frame may ship.
#[derive(Clone, Copy, Debug)]
pub struct WireConformance {
    /// The measured wire traffic.
    pub wire: WireStats,
    /// Worst per-tuple ratio of codec frame bits to Model 2.1 bits for
    /// this query's semiring/domain/arities.
    pub blowup: u64,
    /// Fixed-plus-schema frame prefix allowance, in bits per frame.
    pub header_bits_per_frame: u64,
    /// The wire-unit upper envelope.
    pub upper_wire_bits: u64,
}

impl WireConformance {
    /// Whether the measured wire bits stay inside the envelope.
    pub fn within_upper(&self) -> bool {
        self.wire.wire_bits() <= self.upper_wire_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::{solve_faq, solve_faq_brute_force};
    use faqs_hypergraph::{path_query, star_query, Var};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};

    fn count_instance(h: &faqs_hypergraph::Hypergraph, seed: u64) -> FaqQuery<Count> {
        random_instance(
            h,
            &RandomInstanceConfig {
                tuples_per_factor: 8,
                domain: 4,
                seed,
            },
            vec![],
            |r| {
                use rand::Rng;
                Count(r.random_range(1..4))
            },
        )
    }

    #[test]
    fn whole_placement_matches_engine() {
        for seed in 0..6 {
            let q = count_instance(&star_query(3), seed);
            let g = Topology::line(4);
            let a = Assignment::round_robin(&q, &g, &[0, 1, 2, 3]);
            let run =
                DistributedFaqRun::new(&q, &g, InputPlacement::from_assignment(&a), 1).unwrap();
            let out = run.execute().unwrap();
            assert_eq!(out.result, solve_faq(&q).unwrap(), "seed {seed}");
            assert_eq!(out.result, solve_faq_brute_force(&q), "seed {seed}");
        }
    }

    #[test]
    fn hash_split_placement_matches_engine() {
        for seed in 0..6 {
            let q = count_instance(&path_query(3), seed);
            let g = Topology::ring(5);
            let players: Vec<Player> = (0..5).map(Player).collect();
            let placement = InputPlacement::hash_split(q.k(), &players, Player(2));
            let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
            let out = run.execute().unwrap();
            assert_eq!(out.result, solve_faq(&q).unwrap(), "seed {seed}");
            assert!(out.stats.total_bits > 0, "sharded inputs must communicate");
        }
    }

    #[test]
    fn colocated_run_is_communication_free() {
        let q = count_instance(&star_query(3), 1);
        let g = Topology::line(4);
        let placement = InputPlacement::new(vec![vec![Player(2)]; q.k()], Player(2));
        let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
        let out = run.execute().unwrap();
        assert_eq!(out.result, solve_faq(&q).unwrap());
        assert_eq!(out.stats, RunStats::default());
        let report = run.conformance(out.stats);
        assert_eq!(report.upper_bits, 0, "co-located envelope is zero");
        report.assert_conforms();
    }

    #[test]
    fn root_aggregates_at_the_output_player() {
        let q = count_instance(&star_query(4), 3);
        let g = Topology::grid(2, 3);
        let players: Vec<Player> = (0..6).map(Player).collect();
        let placement = InputPlacement::hash_split(q.k(), &players, Player(5));
        let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
        let out = run.execute().unwrap();
        assert_eq!(out.node_player[run.plan.root().index()], Player(5));
    }

    #[test]
    fn dead_link_is_routed_around() {
        let q = count_instance(&star_query(3), 4);
        // Ring with one down link: still connected through the long way.
        let mut g = Topology::ring(4).with_uniform_capacity(64);
        g.set_capacity(faqs_network::LinkId(0), 0);
        let a = Assignment::round_robin(&q, &g, &[0, 1, 2, 3]);
        // capacity_tuples = 0 keeps the heterogeneous (down) capacities.
        let run = DistributedFaqRun::new(&q, &g, InputPlacement::from_assignment(&a), 0).unwrap();
        let out = run.execute().unwrap();
        assert_eq!(out.result, solve_faq(&q).unwrap());
    }

    #[test]
    fn sum_product_exchange_guard_regression() {
        use faqs_semiring::Gf2;
        // `Σ_{x0} Π_{x1} f(x0, x1)` over GF(2): Equation (4) nests the
        // Product (higher index) inside the Sum, so the per-group
        // Product must run first. Shard pre-aggregation used to sum x0
        // out early — `Π_{x1} Σ_{x0} f` — flipping the answer from 0
        // to 1 on this instance. The same-factor guard must refuse the
        // exchange.
        let h = star_query(1); // single edge {x0, x1}
        let factor = Relation::from_pairs(
            vec![Var(0), Var(1)],
            [(vec![0, 0], Gf2(true)), (vec![1, 1], Gf2(true))],
        );
        let q =
            FaqQuery::new_ss(h, vec![factor], vec![], 2).with_aggregate(Var(1), Aggregate::Product);
        let engine = solve_faq(&q).unwrap();
        assert_eq!(engine, solve_faq_brute_force(&q), "engine vs oracle");

        let g = Topology::line(2);
        for placement in [
            // Co-located (exercises the pure local path) …
            InputPlacement::new(vec![vec![Player(0)]], Player(0)),
            // … and remote (the pre-aggregated shard actually ships).
            InputPlacement::new(vec![vec![Player(1)]], Player(0)),
        ] {
            let run = DistributedFaqRun::new(&q, &g, placement, 1).unwrap();
            assert_eq!(run.execute().unwrap().result, engine);
        }
    }

    #[test]
    fn calibrated_run_reports_fold_telemetry() {
        let q = count_instance(&star_query(3), 2);
        let g = Topology::ring(4);
        let players: Vec<Player> = (0..4).map(Player).collect();
        let placement = InputPlacement::hash_split(q.k(), &players, Player(0));
        let registry = Arc::new(CalibrationRegistry::new());
        let run = DistributedFaqRun::new(&q, &g, placement, 1)
            .unwrap()
            .with_calibration(Arc::clone(&registry));
        let out = run.execute().unwrap();
        assert_eq!(out.result, solve_faq(&q).unwrap());
        let s = registry.stats();
        assert_eq!(s.shapes, 1, "the run's digest is one learned shape");
        assert!(s.samples > 0, "multi-input folds must observe");

        // A disabled registry attaches to nothing and records nothing.
        let off = Arc::new(CalibrationRegistry::off());
        let q2 = count_instance(&star_query(3), 3);
        let placement =
            InputPlacement::hash_split(q2.k(), &(0..4).map(Player).collect::<Vec<_>>(), Player(0));
        let run = DistributedFaqRun::new(&q2, &g, placement, 1)
            .unwrap()
            .with_calibration(Arc::clone(&off));
        run.execute().unwrap();
        assert_eq!(off.stats().samples, 0);
    }

    #[test]
    fn rejects_mismatched_placement() {
        let q = count_instance(&star_query(3), 1);
        let g = Topology::line(2);
        let placement = InputPlacement::new(vec![vec![Player(0)]], Player(0)); // too few
        assert!(DistributedFaqRun::new(&q, &g, placement, 1).is_err());
    }

    #[test]
    fn a_factor_without_a_shard_holder_is_a_typed_error() {
        let q = count_instance(&star_query(3), 1);
        let g = Topology::line(2);
        let mut shards = vec![vec![Player(0)]; q.k()];
        shards[1].clear();
        for placement in [
            InputPlacement::new(shards, Player(0)),
            InputPlacement::hash_split(q.k(), &[], Player(0)),
        ] {
            assert!(matches!(
                DistributedFaqRun::new(&q, &g, placement, 1),
                Err(ProtocolError::Invalid(_))
            ));
        }
    }
}
