//! The planner proper: free-variable re-rooting, the structural default
//! GHD, candidate enumeration, join orders, cost-based selection, and
//! the placement-aware aggregation-player choice.

use crate::calibration::CalibrationRegistry;
use crate::cost::{CostModel, PlanCost};
use crate::error::EngineError;
use crate::stats::QueryStats;
use crate::validate::{
    check_aggregates_admitted, check_elimination_order, check_product_aggregates,
};
use faqs_hypergraph::{
    candidate_decompositions, cyclic_core_candidates, internal_node_width, Decomposition, EdgeId,
    Ghd, Hypergraph, NodeId, Var,
};
use faqs_network::{Player, Topology};
use faqs_relation::{FaqQuery, QueryError};
use faqs_semiring::{Aggregate, Semiring};
use std::collections::{BTreeMap, BTreeSet};

/// Planner knobs.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Whether to gather per-factor statistics and score re-rooted GHD
    /// candidates against the structural default. `false` reproduces
    /// the pre-planner behaviour exactly: the width-minimising GYO-GHD
    /// and smallest-first join orders, no data inspection beyond factor
    /// listing sizes.
    pub use_stats: bool,
    /// Whether multi-factor bags may lower to the worst-case-optimal
    /// generic join when the cost model prices it below the binary
    /// cascade. `false` pins every bag to the cascade (the cascade
    /// reference). Irrelevant in structural mode, which never produces
    /// multi-factor bags.
    pub use_wcoj: bool,
}

impl PlannerConfig {
    /// Statistics-driven planning with the generic join enabled — the
    /// default.
    pub fn stats() -> Self {
        PlannerConfig {
            use_stats: true,
            use_wcoj: true,
        }
    }

    /// Pure-structural planning: the width-minimising GYO-GHD, no data
    /// inspection — the structural reference the differential suites
    /// race the default against.
    pub fn structural() -> Self {
        PlannerConfig {
            use_stats: false,
            use_wcoj: false,
        }
    }
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self::stats()
    }
}

/// Where the input shards live — everything the planner needs to
/// predict shipped bits without depending on the protocol layer's
/// placement type (`DistributedFaqRun` lowers its `InputPlacement` to
/// this).
#[derive(Clone, Debug)]
pub struct PlacementContext<'a> {
    /// The (capacity-scaled) topology the run will execute on.
    pub topology: &'a Topology,
    /// `holders[e]` = the players holding factor `e`'s shards.
    pub holders: Vec<Vec<Player>>,
    /// The player that must learn the answer (the root's aggregation
    /// player is pinned here).
    pub output: Player,
    /// `pre_agg[e]` = factor `e`'s variables passing the GHD-independent
    /// part of the runtime's shard-local Sum push-down guard
    /// ([`pre_agg_candidates`]). The cost model intersects each list
    /// with the candidate GHD's χ-singleton condition and charges the
    /// aggregated shard size the runtime actually ships — not the raw
    /// factor size. Leave empty (`vec![]`) to model runtimes that ship
    /// shards verbatim.
    pub pre_agg: Vec<Vec<Var>>,
}

impl<'a> PlacementContext<'a> {
    /// Builds the context for `q`, deriving [`pre_agg_candidates`] so
    /// predicted shard sizes match what `materialise_shards` ships.
    pub fn new<S: Semiring>(
        q: &FaqQuery<S>,
        topology: &'a Topology,
        holders: Vec<Vec<Player>>,
        output: Player,
    ) -> Self {
        PlacementContext {
            topology,
            holders,
            output,
            pre_agg: pre_agg_candidates(q),
        }
    }
}

/// The GHD-independent part of the runtime's shard-local Sum push-down
/// guard (`materialise_shards`): per factor, the bound `Sum` variables
/// private to that single hyperedge whose exchange respects Equation
/// (4)'s nesting (every higher-indexed bound variable of the same edge
/// is itself `Sum`). A variable in this list is actually pre-aggregated
/// by the runtime iff it additionally sits in exactly one χ bag of the
/// *chosen* GHD — a per-candidate condition the cost model applies
/// itself. One source of truth: the distributed runtime filters this
/// same list instead of re-deriving the guard.
pub fn pre_agg_candidates<S: Semiring>(q: &FaqQuery<S>) -> Vec<Vec<Var>> {
    let h = &q.hypergraph;
    (0..q.k())
        .map(|ei| {
            let edge_vars = h.edge(EdgeId(ei as u32));
            edge_vars
                .iter()
                .copied()
                .filter(|&v| {
                    !q.is_free(v)
                        && q.aggregates[v.index()] == Aggregate::Sum
                        && h.edges().filter(|(_, vars)| vars.contains(&v)).count() == 1
                        && edge_vars.iter().all(|&w| {
                            w <= v || q.is_free(w) || q.aggregates[w.index()] == Aggregate::Sum
                        })
                })
                .collect()
        })
        .collect()
}

/// How one GHD node materialises its bag from its λ factors — the
/// per-bag operator choice the cost model makes and every consumer
/// (engine, executor, incremental maintenance, distributed runtime)
/// replays verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BagOp {
    /// Binary join cascade in `join_order`: seed with the first factor,
    /// absorb the rest one indexed join at a time.
    Cascade,
    /// One worst-case-optimal multiway pass
    /// ([`faqs_relation::generic_join`]) binding `var_order` one
    /// variable at a time — the push-down's layout order: the variables
    /// the parent's bag sees (ascending; at the root, the free variables
    /// in declared order), then the private ones ascending, so the whole
    /// push-down is one scan of trailing columns. Same rows and values
    /// as the cascade, in a different column order. Chosen when the
    /// AGM/FD-aware output bound prices it below the cascade's estimated
    /// intermediates.
    GenericJoin {
        /// The variable binding order (also the output schema).
        var_order: Vec<Var>,
    },
}

impl BagOp {
    /// Whether this is the generic-join lowering.
    pub fn is_generic_join(&self) -> bool {
        matches!(self, BagOp::GenericJoin { .. })
    }
}

/// One scored candidate — the row of the `plan-explain` table.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// Human-readable provenance (`"structural default"` or the forest
    /// roots of the re-rooted decomposition).
    pub label: String,
    /// The candidate's internal-node count `y(T)`.
    pub y: usize,
    /// Predicted cost under the instance's statistics.
    pub cost: PlanCost,
    /// Whether this candidate won.
    pub chosen: bool,
}

/// The planner's output: one validated GHD plus the per-node factor
/// join order, consumed by `faqs-core`'s upward pass, the `faqs-exec`
/// executor, and the distributed runtime — the single place plan shape
/// is decided.
#[derive(Clone, Debug)]
pub struct ChosenPlan {
    /// The GHD the upward pass runs on (hoisted, re-rooted so that
    /// `F ⊆ χ(root)`, validated for push-down legality).
    pub ghd: Ghd,
    /// Factor join order per node (dense by `NodeId` index): the order
    /// the node's λ factors are absorbed. There is exactly one
    /// implementation of this ordering — here — and every consumer
    /// (engine, executor, distributed runtime) replays it.
    pub join_order: Vec<Vec<EdgeId>>,
    /// Per-node operator choice (dense by `NodeId` index): how each
    /// bag's λ factors materialise. All-[`BagOp::Cascade`] in
    /// structural mode and when [`PlannerConfig::use_wcoj`] is off.
    pub bag_ops: Vec<BagOp>,
    /// Predicted cost of the chosen candidate (zero in structural mode,
    /// which predicts nothing).
    pub cost: PlanCost,
    /// Whether statistics were consulted.
    pub stats_aware: bool,
    /// The cost model's predicted row count per GHD node (dense by
    /// `NodeId`; empty in structural mode, which predicts nothing).
    /// These are the `predicted` halves of the executor's
    /// predicted-vs-actual calibration samples.
    pub node_rows: Vec<u64>,
    /// The calibration correction the winning candidate was scored
    /// under (`1.0` = uncalibrated). Plan caches compare this against
    /// the registry's current correction to decide staleness.
    pub correction: f64,
    /// The full scored candidate table (one entry, the default, in
    /// structural mode).
    pub candidates: Vec<CandidateReport>,
}

impl ChosenPlan {
    /// Whether the cost model kept the structural default.
    pub fn chose_default(&self) -> bool {
        self.candidates.first().map(|c| c.chosen).unwrap_or(true)
    }

    /// Whether any bag lowers to the generic join.
    pub fn uses_generic_join(&self) -> bool {
        self.bag_ops.iter().any(BagOp::is_generic_join)
    }
}

/// A canonical serialisation of a rooted GHD, invariant under child
/// order: `(sorted χ | sorted λ : sorted child fingerprints)`. Bag-merge
/// enumeration re-derives the same decomposition from many rotations;
/// deduplicating on this fingerprint keeps each shape's cost simulation
/// from running more than once.
fn ghd_fingerprint(ghd: &Ghd) -> String {
    fn ser(ghd: &Ghd, n: NodeId, out: &mut String) {
        out.push('(');
        let mut chi = ghd.chi(n).to_vec();
        chi.sort_unstable();
        for v in chi {
            out.push_str(&format!("{},", v.0));
        }
        out.push('|');
        let mut lambda = ghd.node(n).lambda.clone();
        lambda.sort_unstable();
        for e in lambda {
            out.push_str(&format!("{},", e.0));
        }
        out.push(':');
        let mut kids: Vec<String> = ghd
            .children(n)
            .into_iter()
            .map(|c| {
                let mut s = String::new();
                ser(ghd, c, &mut s);
                s
            })
            .collect();
        kids.sort();
        for k in kids {
            out.push_str(&k);
        }
        out.push(')');
    }
    let mut s = String::new();
    ser(ghd, ghd.root(), &mut s);
    s
}

/// Finds a core/forest decomposition whose core vertex set contains all
/// `free` variables, re-rooting removed join trees when needed.
///
/// Strategy: start from the canonical decomposition; every free variable
/// already in `V(C(H))` is fine; otherwise consider every forest edge
/// containing a missing free variable as a candidate new root for its
/// join tree. Each candidate is evaluated on a *cloned* decomposition
/// (re-rooting evicts the old root's vertices from the core, so the net
/// coverage change depends on the whole tree, not on the candidate edge
/// alone) and we commit to the candidate that strictly grows the number
/// of covered free variables, preferring the largest gain. Fails only
/// when no candidate re-rooting makes progress — e.g. two free variables
/// demand conflicting roots of the same tree and no single edge contains
/// both. Terminates because coverage strictly increases every round.
pub fn decomposition_for_free_vars(
    h: &Hypergraph,
    free: &[Var],
) -> Result<Decomposition, EngineError> {
    decomposition_covering_free_vars(h, Decomposition::of(h), free)
}

/// [`decomposition_for_free_vars`] from an explicit starting
/// decomposition (any rooting of `h`'s join forest, e.g. one produced by
/// [`Decomposition::reroot`] or a width-minimising search). The greedy
/// ranking bug this fixes is masked from the canonical start — GYO
/// places every tree root core-adjacent — but bites on re-rooted states.
pub fn decomposition_covering_free_vars(
    h: &Hypergraph,
    base: Decomposition,
    free: &[Var],
) -> Result<Decomposition, EngineError> {
    let mut d = base;
    loop {
        let missing: Vec<Var> = free
            .iter()
            .copied()
            .filter(|v| !d.core_vars.contains(v))
            .collect();
        if missing.is_empty() {
            return Ok(d);
        }
        let covered_now = free.len() - missing.len();
        // Trial-run every candidate re-rooting on a clone and keep the
        // best strict improvement. Ranking candidates by a static proxy
        // (e.g. how many free variables the edge holds) is wrong: an
        // edge dense in already-covered free variables can win the
        // ranking yet evict exactly as many covered variables as it
        // adds, stalling the loop on an answerable query.
        let mut best: Option<(usize, Decomposition)> = None;
        for e in d
            .forest_edges
            .iter()
            .copied()
            .filter(|e| missing.iter().any(|v| h.edge(*e).contains(v)))
        {
            let mut trial = d.clone();
            trial.reroot(h, e);
            let covered = free.iter().filter(|v| trial.core_vars.contains(v)).count();
            if covered > covered_now && best.as_ref().map(|(c, _)| covered > *c).unwrap_or(true) {
                best = Some((covered, trial));
            }
        }
        match best {
            Some((_, trial)) => d = trial,
            None => return Err(EngineError::FreeVarsOutsideCore(missing)),
        }
    }
}

/// The *structural default* GHD: the width-minimising one when its core
/// already contains `F`, otherwise a re-rooted decomposition. This is
/// the plan used whenever statistics are disabled, and candidate 0 of
/// every cost-based search — the cost model must beat it strictly to
/// deviate.
pub fn ghd_for_query<S: Semiring>(q: &FaqQuery<S>) -> Result<Ghd, EngineError> {
    let report = internal_node_width(&q.hypergraph);
    let covers = q
        .free_vars
        .iter()
        .all(|v| report.decomposition.core_vars.contains(v));
    if covers {
        return Ok(report.ghd);
    }
    let d = decomposition_for_free_vars(&q.hypergraph, &q.free_vars)?;
    let mut ghd = Ghd::from_decomposition(&q.hypergraph, &d);
    ghd.hoist_md();
    Ok(ghd)
}

/// Whether `order` is a permutation of `λ(node)` — the contract every
/// consumer of a [`ChosenPlan`] `debug_assert`s before absorbing a
/// node's factors. Owned here, next to the order's single producer, so
/// the engine's and the executor's checks cannot drift apart.
pub fn join_order_covers_lambda(
    ghd: &Ghd,
    node: faqs_hypergraph::NodeId,
    order: &[EdgeId],
) -> bool {
    let mut a = order.to_vec();
    let mut b = ghd.node(node).lambda.clone();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The per-node factor join order: each node's λ factors smallest-first
/// by the instance's listing sizes (stable on the λ declaration order).
/// This is the ONE implementation of the ordering heuristic the engine
/// and the executor used to derive independently; both now consume the
/// planner's copy (and `debug_assert` that what they execute is a
/// permutation of the node's λ).
pub fn join_order_for_ghd<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Vec<Vec<EdgeId>> {
    let n_nodes = ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
    let mut order: Vec<Vec<EdgeId>> = vec![Vec::new(); n_nodes];
    for node in ghd.node_ids() {
        let mut factors: Vec<EdgeId> = ghd.node(node).lambda.clone();
        factors.sort_by_key(|&e| q.factor(e).len());
        order[node.index()] = factors;
    }
    order
}

/// Shim for `benchmark/`: [`plan_query_calibrated`] without placement,
/// precomputed statistics or correction.
///
/// `lattice` can only *restrict*: `false` additionally refuses every
/// `Max`/`Min`, `true` leaves the decision to the carrier
/// ([`Semiring::admits`]), as [`plan_query_calibrated`] always does.
/// This and the other two `lattice` shims go at the next `[benchmark]`
/// revision (ROADMAP 3(h)).
#[doc(hidden)]
pub fn plan_query<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    cfg: &PlannerConfig,
) -> Result<ChosenPlan, EngineError> {
    plan_query_placed(q, lattice, cfg, None)
}

/// Shim for `benchmark/`: [`plan_query_calibrated`] with a placement
/// and nothing else; `lattice` as in [`plan_query`].
#[doc(hidden)]
pub fn plan_query_placed<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    cfg: &PlannerConfig,
    placement: Option<&PlacementContext<'_>>,
) -> Result<ChosenPlan, EngineError> {
    if !lattice {
        refuse_max_min(q)?;
    }
    plan_query_calibrated(q, cfg, placement, None, 1.0)
}

/// What `lattice = false` still means on the three signatures that keep
/// the parameter: no `Max`/`Min` at all, whatever the carrier admits.
fn refuse_max_min<S: Semiring>(q: &FaqQuery<S>) -> Result<(), EngineError> {
    let bound = q.hypergraph.vars().filter(|v| !q.is_free(*v));
    for v in bound {
        let op = q.aggregates[v.index()];
        if matches!(op, Aggregate::Max | Aggregate::Min) {
            return Err(EngineError::Invalid(format!(
                "variable {v} uses {op:?}, which this call rules out (lattice = false)"
            )));
        }
    }
    Ok(())
}

/// Shim for `benchmark/`: validates the listings, gathers statistics
/// and quotes them under `calibration`'s correction with the default
/// planner's operators; `lattice` as in [`plan_query`].
#[doc(hidden)]
pub fn cost_quote_calibrated<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    calibration: &CalibrationRegistry,
) -> Result<PlanCost, EngineError> {
    if !lattice {
        refuse_max_min(q)?;
    }
    q.validate()
        .map_err(|e| EngineError::Invalid(e.to_string()))?;
    let stats = QueryStats::of(q);
    let correction = calibration.correction(&stats.digest());
    cost_quote_with_stats(q, &PlannerConfig::stats(), &stats, correction)
}

/// The one admission-control quote: the predicted kernel work of
/// serving `q` with the *structural default* plan, without the full
/// candidate search of [`plan_query_calibrated`] — one cost-model dry
/// run against *precomputed* per-factor statistics (in edge order)
/// under a calibration `correction` (`1.0` to trust the raw
/// estimates), cheap enough to price a request at a serving front door
/// and an upper estimate for the plan the executor will actually run
/// (cost-based selection only ever picks a candidate predicted strictly
/// cheaper than this default).
///
/// Nothing here reads the listings: only the `O(k)` structural half of
/// validation runs ([`FaqQuery::validate_structure`]). The caller
/// vouches that every listed value is inside `q.domain` — it validated
/// the instance when it entered and has applied only in-domain deltas
/// since — and that `stats` describes `q`. Of `cfg` only
/// [`PlannerConfig::use_wcoj`] matters: the quote simulates regardless
/// of [`PlannerConfig::use_stats`] (admission control needs a number
/// even in front of a structural planner), and bags are priced the way
/// *that* planner lowers them, so the quote is for the plan the
/// caller's executor will run.
pub fn cost_quote_with_stats<S: Semiring>(
    q: &FaqQuery<S>,
    cfg: &PlannerConfig,
    stats: &QueryStats,
    correction: f64,
) -> Result<PlanCost, EngineError> {
    assert_eq!(
        stats.factors.len(),
        q.factors.len(),
        "one stats entry per factor"
    );
    let (ghd, order) = validated_default(q, FaqQuery::validate_structure)?;
    let model = CostModel::new(
        stats,
        q.domain,
        S::value_bits(),
        S::WIRE_VALUE_BYTES,
        correction,
    );
    Ok(model
        .simulate(&ghd, &order, &q.free_vars, None, cfg.use_wcoj)
        .0)
}

/// What every planning and quoting door establishes before anything is
/// priced: the instance passes `validate` (the full
/// [`FaqQuery::validate`], or [`FaqQuery::validate_structure`] for a
/// caller that vouches for its listings) — first, because the checks
/// after it index `aggregates` by variable — the carrier admits each
/// bound variable's aggregate, product aggregates are push-down-safe,
/// and the structural default GHD covers `F` at its root and
/// eliminates in a legal order. Returns that default — candidate 0 of
/// every search — with its join order.
/// Its failure is the caller's error: the cost model never papers over
/// an invalid default.
fn validated_default<S: Semiring>(
    q: &FaqQuery<S>,
    validate: impl FnOnce(&FaqQuery<S>) -> Result<(), QueryError>,
) -> Result<(Ghd, Vec<Vec<EdgeId>>), EngineError> {
    validate(q).map_err(|e| EngineError::Invalid(e.to_string()))?;
    check_aggregates_admitted(q)?;
    check_product_aggregates(q)?;
    let ghd = ghd_for_query(q)?;
    let root_chi = ghd.chi(ghd.root());
    if let Some(bad) = q.free_vars.iter().find(|v| !root_chi.contains(v)) {
        return Err(EngineError::FreeVarsOutsideCore(vec![*bad]));
    }
    check_elimination_order(q, &ghd)?;
    let order = join_order_for_ghd(q, &ghd);
    Ok((ghd, order))
}

/// The one planning door: validates `q`, builds the structural default
/// and — with [`PlannerConfig::use_stats`] — scores every re-rooted and
/// core-merged candidate against it, keeping the default unless a
/// candidate is strictly cheaper. The inputs are optional placement
/// (when present, candidates are compared on predicted shipped bits
/// first, kernel work breaking ties), optional precomputed statistics
/// (in edge order; `None` reads each factor's profile), and a per-shape
/// calibration `correction` (the multiplicative row-estimate fix a
/// [`CalibrationRegistry`] learned for this instance's
/// [`StatsDigest`](crate::StatsDigest); pass `1.0` to trust the raw
/// estimates). `faqs-exec`'s plan cache, `solve_faq` and the
/// distributed runtime all plan through here.
pub fn plan_query_calibrated<S: Semiring>(
    q: &FaqQuery<S>,
    cfg: &PlannerConfig,
    placement: Option<&PlacementContext<'_>>,
    stats: Option<&QueryStats>,
    correction: f64,
) -> Result<ChosenPlan, EngineError> {
    if let Some(s) = stats {
        assert_eq!(
            s.factors.len(),
            q.factors.len(),
            "one stats entry per factor"
        );
    }
    let (default_ghd, default_order) = validated_default(q, FaqQuery::validate)?;

    if !cfg.use_stats {
        let n_nodes = default_ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
        return Ok(ChosenPlan {
            candidates: vec![CandidateReport {
                label: "structural default".into(),
                y: default_ghd.internal_count(),
                cost: PlanCost::default(),
                chosen: true,
            }],
            join_order: default_order,
            bag_ops: vec![BagOp::Cascade; n_nodes],
            cost: PlanCost::default(),
            stats_aware: false,
            node_rows: Vec::new(),
            correction: 1.0,
            ghd: default_ghd,
        });
    }

    let gathered;
    let stats = match stats {
        Some(s) => s,
        None => {
            gathered = QueryStats::of(q);
            &gathered
        }
    };
    let model = CostModel::new(
        stats,
        q.domain,
        S::value_bits(),
        S::WIRE_VALUE_BYTES,
        correction,
    );
    let placed = placement.is_some();
    let (default_cost, default_ops, default_rows) = model.simulate(
        &default_ghd,
        &default_order,
        &q.free_vars,
        placement,
        cfg.use_wcoj,
    );
    let mut candidates = vec![CandidateReport {
        label: "structural default".into(),
        y: default_ghd.internal_count(),
        cost: default_cost,
        chosen: true,
    }];
    // Structurally identical candidates (reroot + bag-merge enumeration
    // both re-derive the canonical shape) are deduplicated on their
    // rooted-tree fingerprint before any cost simulation runs.
    let mut seen: BTreeSet<String> = BTreeSet::from([ghd_fingerprint(&default_ghd)]);
    let mut best = (
        default_ghd,
        default_order,
        default_cost,
        0usize,
        default_ops,
        default_rows,
    );

    type Best = (Ghd, Vec<Vec<EdgeId>>, PlanCost, usize, Vec<BagOp>, Vec<u64>);
    let consider = |ghd: Ghd,
                    label: String,
                    candidates: &mut Vec<CandidateReport>,
                    seen: &mut BTreeSet<String>,
                    best: &mut Best| {
        let root_chi = ghd.chi(ghd.root());
        if q.free_vars.iter().any(|v| !root_chi.contains(v)) {
            return;
        }
        // A candidate may be push-down-illegal where the default is
        // legal (different elimination order); skip, never error.
        if check_elimination_order(q, &ghd).is_err() {
            return;
        }
        if !seen.insert(ghd_fingerprint(&ghd)) {
            return;
        }
        let order = join_order_for_ghd(q, &ghd);
        let (cost, ops, rows) = model.simulate(&ghd, &order, &q.free_vars, placement, cfg.use_wcoj);
        candidates.push(CandidateReport {
            label,
            y: ghd.internal_count(),
            cost,
            chosen: false,
        });
        // Strict improvement only: ties keep the default, so uniform
        // instances plan exactly as the structural planner did.
        if cost.key(placed) < best.2.key(placed) {
            *best = (ghd, order, cost, candidates.len() - 1, ops, rows);
        }
    };

    for d in candidate_decompositions(&q.hypergraph) {
        // Free variables must end up in the candidate's core; re-root
        // further if needed, drop the candidate if no rooting works.
        let covered = q.free_vars.iter().all(|v| d.core_vars.contains(v));
        let d = if covered {
            d
        } else {
            match decomposition_covering_free_vars(&q.hypergraph, d, &q.free_vars) {
                Ok(d) => d,
                Err(_) => continue,
            }
        };
        let label = format!(
            "reroot [{}]",
            d.forest_roots
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let mut ghd = Ghd::from_decomposition(&q.hypergraph, &d);
        ghd.hoist_md();
        consider(ghd, label, &mut candidates, &mut seen, &mut best);
    }

    // Cyclic cores: the flat merged bag plus every RIP-valid 2-split of
    // the cycle walk — the shapes the generic join exists to serve.
    for (i, ghd) in cyclic_core_candidates(&q.hypergraph)
        .into_iter()
        .enumerate()
    {
        let label = if ghd.len() == 1 {
            "merged core".to_string()
        } else {
            format!("core split {i}")
        };
        consider(ghd, label, &mut candidates, &mut seen, &mut best);
    }

    // Every candidate priced at the unreachable sentinel means no
    // executable placed plan exists: some shard or message leg has no
    // route at all. Erroring here is the contract the runtime relies
    // on — it never has to discover `NoRoute` mid-execution on a plan
    // the planner silently mispriced.
    if placed && best.2.net_bits == crate::cost::UNREACHABLE_BITS {
        return Err(EngineError::Invalid(
            "placement unreachable: no candidate plan can route every shard and message \
             on the live topology"
                .into(),
        ));
    }

    let chosen_idx = best.3;
    for (i, c) in candidates.iter_mut().enumerate() {
        c.chosen = i == chosen_idx;
    }
    Ok(ChosenPlan {
        ghd: best.0,
        join_order: best.1,
        bag_ops: best.4,
        cost: best.2,
        stats_aware: true,
        node_rows: best.5,
        correction: model.correction(),
        candidates,
    })
}

/// Chooses each GHD node's aggregation player given the shard masses of
/// its factors: the root aggregates at `output` (it must learn the
/// answer); every other node picks, among its shard holders and the
/// output, the player minimising `Σ bits · live-distance` (ties to the
/// lowest player id). Shared by the cost model's predictions and by
/// `DistributedFaqRun`'s actual routing, so predicted and executed
/// placements agree by construction.
///
/// Only *viable* candidates compete: a candidate that cannot reach some
/// shard holder, or that the output player cannot be reached from, is
/// excluded outright rather than priced at a large-but-finite clamp.
/// The clamp was a real bug: with all-zero shard masses every candidate
/// priced to `0 × clamp = 0` and the lowest player id won even when it
/// was marooned, handing the runtime a guaranteed `NoRoute`. When no
/// candidate is viable the node falls back to `output`; the cost model
/// then prices the unroutable legs at the unreachable sentinel and the
/// planner rejects the placement loudly.
pub fn choose_aggregation_players(
    g: &Topology,
    ghd: &Ghd,
    output: Player,
    node_shards: &[Vec<(Player, u64)>],
) -> Vec<Player> {
    let n_nodes = ghd.node_ids().map(|n| n.index()).max().unwrap_or(0) + 1;
    let mut agg = vec![output; n_nodes];
    // One BFS per distinct candidate across all nodes (the output is a
    // candidate for every node; shard holders repeat too).
    let mut dist_cache: BTreeMap<Player, Vec<u32>> = BTreeMap::new();
    for node in ghd.node_ids() {
        if node == ghd.root() {
            continue; // output player, fixed above
        }
        let mass = &node_shards[node.index()];
        let mut candidates: BTreeSet<Player> = BTreeSet::from([output]);
        for &(p, _) in mass {
            candidates.insert(p);
        }
        let mut best: Option<(u64, Player)> = None;
        for &c in &candidates {
            // Live distances: a down link must not make a candidate
            // look closer than its actual detour.
            let dist = dist_cache.entry(c).or_insert_with(|| g.live_distances(c));
            // Viability: every shard (even a zero-bit one — the runtime
            // routes it regardless) and the upward message must have a
            // route. Distances are symmetric here (undirected links),
            // so `dist[output]` prices the candidate→output leg too.
            if dist[output.index()] == u32::MAX
                || mass.iter().any(|&(p, _)| dist[p.index()] == u32::MAX)
            {
                continue;
            }
            let cost = mass.iter().fold(0u64, |acc, &(p, bits)| {
                acc.saturating_add(bits.saturating_mul(dist[p.index()] as u64))
            });
            // Strict `<` keeps the first (lowest-id) minimiser.
            if best.map(|(b, _)| cost < b).unwrap_or(true) {
                best = Some((cost, c));
            }
        }
        if let Some((_, c)) = best {
            agg[node.index()] = c;
        }
    }
    agg
}
