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
//! (a payload learned at round `t` departs at `t + 1`), so pipelining
//! and causality hold by construction.
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
//! Every run returns the semiring result **and** its [`RunReport`],
//! built and checked live as every protocol's is. The pass carries no
//! fold observer: calibration telemetry is the executor's
//! (`faqs_exec::Executor`), and the placed planner scores raw estimates.
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
use crate::outcome::{check_players, Inputs, ProtocolError, RunReport};
use faqs_core::{Pass, PassSite, QueryPlan, Timed};
use faqs_hypergraph::{EdgeId, NodeId, Var};
use faqs_network::{
    Assignment, DeltaPackings, Player, RunStats, SimTransport, Topology, Transport, TransportKind,
    WireStats,
};
use faqs_plan::{LiveDistances, PlacementContext};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Aggregate, Semiring};
use std::collections::{BTreeMap, BTreeSet};

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
        check_players(g, self.players())
    }
}

/// Result of one distributed run: the semiring answer (materialised at
/// the output player) plus the scheduler's measurements and the report
/// that judged them.
#[derive(Clone, Debug)]
pub struct DistributedOutcome<S: Semiring> {
    /// The result relation over the free variables, identical to
    /// `faqs_core::solve_faq` on the same query.
    pub result: Relation<S>,
    /// `report.stats`, copied for frozen `benchmark/` (ROADMAP 3(h));
    /// read [`RunReport::stats`] instead.
    pub stats: RunStats,
    /// The aggregation player chosen for each GHD node (dense by node
    /// index; the root always aggregates at the output player).
    pub node_player: Vec<Player>,
    /// Round at whose end the output player holds the result.
    pub completed_at: u64,
    /// Which transport carried the run.
    pub transport: TransportKind,
    /// `report.wire`, copied for frozen `benchmark/`; read
    /// [`RunReport::wire`] instead.
    pub wire: WireStats,
    /// The run's measurement against the paper's bounds, as the live
    /// oracle checked it.
    pub report: RunReport,
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
/// assert!(out.report.conforms());
/// ```
pub struct DistributedFaqRun<'a, S: Semiring> {
    q: &'a FaqQuery<S>,
    placement: InputPlacement,
    plan: QueryPlan,
    /// The capacity-scaled topology the run executes on.
    scaled: Topology,
    /// Live distances on `scaled` from every player of the placement:
    /// built once, read by the planner and by the aggregation-player
    /// choice of every execution.
    distances: LiveDistances,
    all_links_live: bool,
}

impl<'a, S: Semiring> DistributedFaqRun<'a, S> {
    /// Prepares a run: validates the query and placement, builds (and
    /// validates) the [`QueryPlan`] — placement-aware, so `faqs-plan`
    /// scores GHD candidates on the bits they would ship across the
    /// scaled topology — and scales every link to carry
    /// `capacity_tuples` tuples (`r·⌈log₂ D⌉` bits plus annotation) per
    /// round — `1` is the paper's Model 2.1 allowance; pass `0` to keep
    /// `g`'s own (possibly heterogeneous or down) capacities. A player
    /// the output cannot reach over live links is refused with
    /// [`ProtocolError::Unreachable`] before anything is planned.
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
        // The context holds the shard lists while the run plans, and hands
        // them back.
        let InputPlacement { shards, output } = placement;
        let ctx = PlacementContext::new(q, &scaled, shards, output);
        // Every shard and message ends at the output player, so a player
        // its live links cannot reach leaves no executable plan.
        let reach = ctx.distances().from(output);
        let holders = ctx.holders.iter().flatten();
        if let Some(p) = holders.filter(|p| reach[p.index()] == u32::MAX).min() {
            return Err(ProtocolError::Unreachable(format!(
                "placement unreachable: {p} has no live route to the output player {output}"
            )));
        }
        let plan = faqs_plan::plan_query_with(q, Some(&ctx), None)
            .map_err(|e| ProtocolError::Engine(e.to_string()))?;
        let (shards, distances) = ctx.into_parts();
        let all_links_live = scaled.links().all(|l| scaled.capacity(l) > 0);
        Ok(DistributedFaqRun {
            q,
            placement: InputPlacement { shards, output },
            plan,
            scaled,
            distances,
            all_links_live,
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

    /// The plan this run executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
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
    /// are the empirical side of its [`RunReport`]. A caller that
    /// wants the frames on a socket picks the transport with
    /// [`DistributedFaqRun::execute_on`].
    pub fn execute(&self) -> Result<DistributedOutcome<S>, ProtocolError> {
        self.execute_on(&mut SimTransport::new(&self.scaled))
    }

    /// [`DistributedFaqRun::execute`] on an explicit [`Transport`]
    /// ([`SimTransport`] or [`faqs_network::TcpTransport`]) — the
    /// result, [`RunStats`] and [`WireStats`] are identical on both.
    /// Every run builds its [`RunReport`] once and holds itself to it
    /// ([`RunReport::check`]) — the shadow simulator acting as a live
    /// oracle over the wire — failing with
    /// [`ProtocolError::BoundViolated`] /
    /// [`ProtocolError::WireBoundViolated`] when its model bits or wire
    /// bytes escape, or with [`ProtocolError::Frame`] when a delivered
    /// frame does not decode.
    pub fn execute_on<T: Transport + ?Sized>(
        &self,
        transport: &mut T,
    ) -> Result<DistributedOutcome<S>, ProtocolError> {
        let shards = self.materialise_shards();
        let node_player = self.node_players(&shards);
        let pass = Pass {
            q: self.q,
            plan: &self.plan,
            probe: None,
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
        // Live oracle: a run that escapes the simulator's envelope is a
        // protocol bug, not a measurement to report. `K` is usually the
        // member set the gathers already packed.
        let players = self.placement.players();
        let (width, packed) = (self.plan.width, packings.get(&players));
        let bound = BoundReport::evaluate_with(self.q, &self.scaled, &players, width, packed)
            .ok_or_else(|| ProtocolError::Unreachable("the players are not connected".into()))?;
        let link_bits = transport.link_bits().to_vec();
        let measured = (transport.stats(), transport.wire(), link_bits);
        let (inputs, upper) = (Inputs::of(self.q, players.len()), bound.upper_rounds);
        let report = RunReport::new::<S>(&self.scaled, inputs, upper, Some(bound), measured);
        report.check()?;
        Ok(DistributedOutcome {
            result,
            stats: report.stats,
            node_player,
            completed_at: ready,
            transport: transport.kind(),
            wire: report.wire,
            report,
        })
    }

    /// The report of a run that measured `stats`, its bound evaluated
    /// afresh and no wire traffic counted. Kept for frozen `benchmark/`;
    /// read [`DistributedOutcome::report`] instead.
    #[doc(hidden)]
    pub fn conformance(&self, stats: RunStats) -> RunReport {
        let players = self.placement.players();
        let bound = BoundReport::evaluate(self.q, &self.scaled, &players)
            .expect("`new` refused a player set the live links do not connect");
        let (inputs, upper) = (Inputs::of(self.q, players.len()), bound.upper_rounds);
        let measured = (stats, WireStats::default(), vec![]);
        RunReport::new::<S>(&self.scaled, inputs, upper, Some(bound), measured)
    }

    /// `report` with `wire` counted. Kept for frozen `benchmark/`; read
    /// [`DistributedOutcome::report`] instead.
    #[doc(hidden)]
    pub fn wire_conformance(&self, report: &RunReport, wire: WireStats) -> RunReport {
        let inputs = Inputs::of(self.q, self.placement.players().len());
        let (upper, bound) = (report.upper_rounds, report.bound.clone());
        let measured = (report.stats, wire, report.link_bits.clone());
        RunReport::new::<S>(&self.scaled, inputs, upper, bound, measured)
    }

    /// Per-edge shard relations, pre-aggregated at their holders: each
    /// shard of factor `e` has the plan's [`QueryPlan::shard_nest`]
    /// aggregated out locally before any routing — the nest the cost
    /// model priced.
    ///
    /// [`ConsistentHashSplit`] owns a row by its first column. While the
    /// nest keeps that column, every group the nest folds lies inside
    /// one shard, so the factor is aggregated once and its (smaller)
    /// result split: the same shards, bit for bit — the same rows, each
    /// group folded in the same order, the same zeros dropped. A nest
    /// that sums the key out (a path query's end edge) splits first.
    fn materialise_shards(&self) -> Vec<Vec<(Player, Relation<S>)>> {
        (0..self.q.k())
            .map(|ei| {
                let e = EdgeId(ei as u32);
                let holders = self.placement.shard_holders(e);
                let factor = self.q.factor(e);
                let nest = self.plan.shard_nest(e);
                let split = ConsistentHashSplit::new(holders.len());
                let owner = |t: &[u32]| split.owner(t.first().copied().unwrap_or(0));
                let parts: Vec<Relation<S>> = if holders.len() == 1 {
                    vec![factor.clone().aggregate_out_many(nest)]
                } else if shard_key_kept(factor, nest) {
                    let whole = factor.clone().aggregate_out_many(nest);
                    whole.split_by(holders.len(), owner)
                } else {
                    let parts = factor.split_by(holders.len(), owner).into_iter();
                    parts.map(|part| part.aggregate_out_many(nest)).collect()
                };
                holders.iter().copied().zip(parts).collect()
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
            &self.distances,
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
            let cap_min = self.scaled.min_live_capacity();
            let total_bits: u64 = remote().map(|(_, r)| r.bits(domain)).sum();
            let packed = packings
                .entry(members)
                .or_insert_with_key(|members| DeltaPackings::new(&self.scaled, members));
            // `new` checked that the live links connect every player.
            packing = packed
                .best(total_bits.div_ceil(cap_min))
                .map(|(_, trees)| trees);
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
                    let (nodes, links) = tree.path(*p, to).ok_or_else(|| {
                        ProtocolError::Unreachable(format!("no packing tree joins {p} to {to}"))
                    })?;
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

/// Whether aggregating `nest` out of `factor` keeps its first column —
/// the column [`ConsistentHashSplit`] owns a row by. A nullary factor
/// has no key and every row goes to one shard.
fn shard_key_kept<S: Semiring>(factor: &Relation<S>, nest: &[(Var, Aggregate)]) -> bool {
    factor
        .schema()
        .first()
        .is_none_or(|key| nest.iter().all(|(v, _)| v != key))
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

    fn bag(
        &mut self,
        pass: &Pass<'_, S>,
        node: NodeId,
    ) -> Result<Timed<Vec<Relation<S>>>, ProtocolError> {
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
            gathered.push(factor);
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

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_core::{solve_faq, solve_faq_brute_force};
    use faqs_hypergraph::{path_query, star_query};
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::Count;

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
        let report = &out.report;
        assert_eq!(report.upper_bits, 0, "co-located envelope is zero");
        assert_eq!(report.upper_wire_bits, 0, "no frame may ship");
        assert!(out.stats.total_bits >= report.bound.as_ref().unwrap().lower_rounds);
        assert!(report.conforms(), "{report:?}");
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

    /// Each shard as `(holder, schema, rows with their values' bits)`.
    type ShardBits = Vec<(Player, Vec<Var>, Vec<(Vec<u32>, u64)>)>;

    fn shard_bits<S: Semiring>(shards: &[(Player, Relation<S>)], bits: fn(&S) -> u64) -> ShardBits {
        shards
            .iter()
            .map(|(p, rel)| {
                let rows = rel.iter().map(|(t, v)| (t.to_vec(), bits(v))).collect();
                (*p, rel.schema().to_vec(), rows)
            })
            .collect()
    }

    /// Holds `materialise_shards` to the split-then-aggregate it replaced
    /// on every factor of one run, and counts the multi-holder factors
    /// by branch: `[key summed out, key kept]`.
    fn check_materialisation<S: Semiring>(
        q: &FaqQuery<S>,
        g: &Topology,
        placement: InputPlacement,
        bits: fn(&S) -> u64,
        branches: &mut [usize; 2],
    ) {
        let run = DistributedFaqRun::new(q, g, placement, 1).unwrap();
        for (ei, got) in run.materialise_shards().iter().enumerate() {
            let e = EdgeId(ei as u32);
            let holders = run.placement.shard_holders(e);
            let nest = run.plan.shard_nest(e);
            let split = ConsistentHashSplit::new(holders.len());
            let parts = q.factor(e).split_by(holders.len(), |t| {
                split.owner(t.first().copied().unwrap_or(0))
            });
            let want: Vec<(Player, Relation<S>)> = holders
                .iter()
                .copied()
                .zip(parts.into_iter().map(|part| part.aggregate_out_many(nest)))
                .collect();
            assert_eq!(
                shard_bits(got, bits),
                shard_bits(&want, bits),
                "factor {ei}, holders {holders:?}, nest {nest:?}"
            );
            if holders.len() > 1 {
                branches[usize::from(shard_key_kept(q.factor(e), nest))] += 1;
            }
        }
    }

    #[test]
    fn shards_aggregate_before_splitting_bit_for_bit() {
        let prob_instance = |h: &faqs_hypergraph::Hypergraph, seed: u64| {
            let config = RandomInstanceConfig {
                tuples_per_factor: 24,
                domain: 6,
                seed,
            };
            random_instance(h, &config, vec![], |r| {
                use rand::Rng;
                faqs_semiring::Prob(f64::from(r.random_range(1..1000u32)) / 1000.3)
            })
        };
        let g = Topology::grid(2, 3);
        let players: Vec<Player> = g.players().collect();
        let mut branches = [0; 2];
        for h in [star_query(3), path_query(3), faqs_hypergraph::example_h1()] {
            for seed in 0..32 {
                let (qc, qp) = (count_instance(&h, seed), prob_instance(&h, seed));
                for placement in [
                    InputPlacement::random(h.num_edges(), &g, seed),
                    InputPlacement::hash_split(h.num_edges(), &players, Player(seed as u32 % 6)),
                ] {
                    check_materialisation(&qc, &g, placement.clone(), |c| c.0, &mut branches);
                    check_materialisation(&qp, &g, placement, |p| p.0.to_bits(), &mut branches);
                }
            }
        }
        let [summed, kept] = branches;
        assert!(
            summed > 0 && kept > 0,
            "both branches reached: {branches:?}"
        );
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
