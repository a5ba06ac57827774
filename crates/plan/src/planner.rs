//! The planner proper: free-variable re-rooting, the structural default
//! GHD, candidate enumeration, join orders, cost-based selection, and
//! the placement-aware aggregation-player choice.

use crate::calibration::CalibrationRegistry;
use crate::cost::{CostModel, PlanCost};
use crate::error::EngineError;
use crate::plan::QueryPlan;
use crate::stats::QueryStats;
use crate::validate::{
    check_aggregates_admitted, check_elimination_order, check_product_aggregates,
};
use faqs_hypergraph::{
    candidate_decompositions, cyclic_core_candidates, internal_node_width, Decomposition, Ghd,
    Hypergraph, NodeId, Var,
};
use faqs_network::{Player, Topology};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};
use std::collections::{BTreeMap, BTreeSet};

/// Shim for `benchmark/`, which builds `PlannerConfig::default()` and
/// hands it to [`plan_query`] / [`plan_query_placed`]: planning has one
/// mode, so there is nothing left to configure. Goes at the next
/// `[benchmark]` revision (ROADMAP 3(h)).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct PlannerConfig;

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
}

impl<'a> PlacementContext<'a> {
    /// The context of `holders` and `output` on `topology`. What each
    /// shard sums out before it ships is the candidate plan's
    /// [`QueryPlan::shard_nest`], so `_q` is read by nothing; it stays
    /// in the signature for `benchmark/` until the next `[benchmark]`
    /// revision (ROADMAP 3(h)).
    pub fn new<S: Semiring>(
        _q: &FaqQuery<S>,
        topology: &'a Topology,
        holders: Vec<Vec<Player>>,
        output: Player,
    ) -> Self {
        PlacementContext {
            topology,
            holders,
            output,
        }
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
/// the GHD of the [`structural_plan`] and candidate 0 of every
/// cost-based search — the cost model must beat it strictly to deviate.
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

/// Shim for `benchmark/`: [`plan_query_with`] without placement or
/// precomputed statistics; the [`PlannerConfig`] is ignored.
///
/// `lattice` can only *restrict*: `false` additionally refuses every
/// `Max`/`Min`, `true` leaves the decision to the carrier
/// ([`Semiring::admits`]), as [`plan_query_with`] always does.
/// This and the other two `lattice` shims go at the next `[benchmark]`
/// revision (ROADMAP 3(h)).
#[doc(hidden)]
pub fn plan_query<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    cfg: &PlannerConfig,
) -> Result<QueryPlan, EngineError> {
    plan_query_placed(q, lattice, cfg, None)
}

/// Shim for `benchmark/`: [`plan_query_with`] with a placement
/// and nothing else; `lattice` and the [`PlannerConfig`] as in
/// [`plan_query`].
#[doc(hidden)]
pub fn plan_query_placed<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    _cfg: &PlannerConfig,
    placement: Option<&PlacementContext<'_>>,
) -> Result<QueryPlan, EngineError> {
    if !lattice {
        refuse_max_min(q)?;
    }
    plan_query_with(q, placement, None)
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

/// Shim for `benchmark/`: the structural default's predicted cost —
/// [`structural_plan`] dry-run once against a fresh statistics scan;
/// `lattice` as in [`plan_query`]. The registry goes unread: the cost
/// model scores raw estimates. Nothing else quotes a plan; the shim
/// goes at the next `[benchmark]` revision (ROADMAP 3(h)).
#[doc(hidden)]
pub fn cost_quote_calibrated<S: Semiring>(
    q: &FaqQuery<S>,
    lattice: bool,
    _calibration: &CalibrationRegistry,
) -> Result<PlanCost, EngineError> {
    if !lattice {
        refuse_max_min(q)?;
    }
    let plan = structural_plan(q)?;
    let stats = QueryStats::of(q);
    let model = CostModel::new(&stats, q.domain, S::value_bits());
    Ok(model.simulate(&plan, None).0)
}

/// Refuses statistics that do not describe one entry per factor of `q`.
fn check_stats_len<S: Semiring>(q: &FaqQuery<S>, stats: &QueryStats) -> Result<(), EngineError> {
    if stats.factors.len() == q.k() {
        return Ok(());
    }
    Err(EngineError::Invalid(format!(
        "{} statistics entries for {} factors",
        stats.factors.len(),
        q.k()
    )))
}

/// What every planning door establishes before anything is priced: the
/// instance passes [`FaqQuery::validate`] — first, because the checks
/// after it index `aggregates` by variable — the carrier admits each
/// bound variable's aggregate and product aggregates are
/// push-down-safe.
pub(crate) fn validate_query<S: Semiring>(q: &FaqQuery<S>) -> Result<(), EngineError> {
    q.validate()
        .map_err(|e| EngineError::Invalid(e.to_string()))?;
    check_aggregates_admitted(q)?;
    check_product_aggregates(q)
}

/// What a GHD of a validated `q` must satisfy to be planned: its root
/// covers `F`, and it eliminates in an order Equation (4) licenses.
pub(crate) fn check_runnable<S: Semiring>(q: &FaqQuery<S>, ghd: &Ghd) -> Result<(), EngineError> {
    let root_chi = ghd.chi(ghd.root());
    if let Some(bad) = q.free_vars.iter().find(|v| !root_chi.contains(v)) {
        return Err(EngineError::FreeVarsOutsideCore(vec![*bad]));
    }
    check_elimination_order(q, ghd)
}

/// [`validate_query`], then the structural default — candidate 0 of
/// every search — as an unscored plan, once [`check_runnable`] passes.
/// Its failure is the caller's error: the cost model never papers over
/// an invalid default.
fn default_plan<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
    validate_query(q)?;
    let ghd = ghd_for_query(q)?;
    check_runnable(q, &ghd)?;
    Ok(QueryPlan::build(q, ghd))
}

/// The structural default as a plan, without reading any data: the
/// width-minimising GYO-GHD ([`ghd_for_query`]) with smallest-first join
/// orders, no predicted cost or rows. It is candidate 0 of every
/// [`plan_query_with`] search; on its own it is the
/// reference plan (`faqs_core::solve_faq_reference`), identical for
/// equal data whatever the statistics say.
pub fn structural_plan<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
    let mut plan = default_plan(q)?;
    plan.candidates = vec![CandidateReport {
        label: "structural default".into(),
        y: plan.ghd.internal_count(),
        cost: PlanCost::default(),
        chosen: true,
    }];
    Ok(plan)
}

/// The one planning door: validates `q`, builds the structural default
/// and scores every re-rooted and core-merged candidate against it,
/// keeping the default unless a candidate is strictly cheaper. The
/// inputs are an optional placement (when present, candidates are
/// compared on predicted shipped bits first, kernel work breaking ties)
/// and optional precomputed statistics (in edge order; `None` reads
/// each factor's profile). `faqs-exec`'s plan cache, `solve_faq` and
/// the distributed runtime all plan through here.
pub fn plan_query_with<S: Semiring>(
    q: &FaqQuery<S>,
    placement: Option<&PlacementContext<'_>>,
    stats: Option<&QueryStats>,
) -> Result<QueryPlan, EngineError> {
    if let Some(s) = stats {
        check_stats_len(q, s)?;
    }
    let mut default = default_plan(q)?;

    let gathered;
    let stats = match stats {
        Some(s) => s,
        None => {
            gathered = QueryStats::of(q);
            &gathered
        }
    };
    let model = CostModel::new(stats, q.domain, S::value_bits());
    let placed = placement.is_some();
    (default.cost, default.node_rows) = model.simulate(&default, placement);
    let mut candidates = vec![CandidateReport {
        label: "structural default".into(),
        y: default.ghd.internal_count(),
        cost: default.cost,
        chosen: true,
    }];
    // Structurally identical candidates (reroot + bag-merge enumeration
    // both re-derive the canonical shape) are deduplicated on their
    // rooted-tree fingerprint before any cost simulation runs.
    let mut seen: BTreeSet<String> = BTreeSet::from([ghd_fingerprint(&default.ghd)]);
    // The winner so far, scored, and its row in the candidate table.
    let mut best = (default, 0usize);

    let consider = |ghd: Ghd,
                    label: String,
                    candidates: &mut Vec<CandidateReport>,
                    seen: &mut BTreeSet<String>,
                    best: &mut (QueryPlan, usize)| {
        // A candidate may miss a free variable at its root or be
        // push-down-illegal where the default is legal (different
        // elimination order); skip, never error.
        if check_runnable(q, &ghd).is_err() || !seen.insert(ghd_fingerprint(&ghd)) {
            return;
        }
        let mut plan = QueryPlan::build(q, ghd);
        (plan.cost, plan.node_rows) = model.simulate(&plan, placement);
        candidates.push(CandidateReport {
            label,
            y: plan.ghd.internal_count(),
            cost: plan.cost,
            chosen: false,
        });
        // Strict improvement only: ties keep the default, so uniform
        // instances plan exactly as the structural planner did.
        if plan.cost.key(placed) < best.0.cost.key(placed) {
            *best = (plan, candidates.len() - 1);
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
    if placed && best.0.cost.net_bits == crate::cost::UNREACHABLE_BITS {
        return Err(EngineError::Invalid(
            "placement unreachable: no candidate plan can route every shard and message \
             on the live topology"
                .into(),
        ));
    }

    let (mut plan, chosen) = best;
    for (i, c) in candidates.iter_mut().enumerate() {
        c.chosen = i == chosen;
    }
    plan.candidates = candidates;
    Ok(plan)
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
    plan: &QueryPlan,
    output: Player,
    node_shards: &[Vec<(Player, u64)>],
) -> Vec<Player> {
    let ghd = &plan.ghd;
    let mut agg = vec![output; plan.slots()];
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
