//! The planner proper: free-variable re-rooting, the structural default
//! GHD, candidate enumeration, join orders, cost-based selection, and
//! the placement-aware aggregation-player choice.

use crate::calibration::CalibrationRegistry;
use crate::cost::{CostModel, PlanCost};
use crate::error::EngineError;
use crate::plan::{PlanShape, QueryPlan};
use crate::stats::QueryStats;
use crate::validate::{
    check_aggregates_admitted, check_elimination_order, check_product_aggregates,
};
use faqs_hypergraph::{Decomposition, Ghd, Hypergraph, NodeId, QueryStructure, Var};
use faqs_network::{Player, Topology};
use faqs_relation::FaqQuery;
use faqs_semiring::{Aggregate, Semiring};
use std::fmt::Write;

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
    /// Live distances from every holder and the output, built by
    /// [`PlacementContext::new`]: every aggregation player a candidate
    /// plan can pick is one of them.
    distances: LiveDistances,
}

/// Live hop distances on one topology from a fixed set of sources, one
/// breadth-first search each ([`Topology::live_distances`]; `u32::MAX`
/// = no live route). A placed run builds one from its players and every
/// placement decision — the planner's candidates, its gather and
/// message pricing, and the runtime's aggregation players — reads it.
#[derive(Clone, Debug)]
pub struct LiveDistances {
    /// Dense by player: the distances from a source, empty otherwise.
    rows: Vec<Vec<u32>>,
}

impl LiveDistances {
    /// The distances on `g` from each of `sources`.
    pub fn new(g: &Topology, sources: impl IntoIterator<Item = Player>) -> Self {
        let mut rows = vec![Vec::new(); g.num_players()];
        for s in sources {
            if rows[s.index()].is_empty() {
                rows[s.index()] = g.live_distances(s);
            }
        }
        LiveDistances { rows }
    }

    /// The live distance from `source`, one of the sources the table was
    /// built from, to every player (dense by player).
    pub fn from(&self, source: Player) -> &[u32] {
        &self.rows[source.index()]
    }
}

impl<'a> PlacementContext<'a> {
    /// The context of `holders` and `output` on `topology`, with the
    /// live distances from each of them. What each shard sums out before
    /// it ships is the candidate plan's [`QueryPlan::shard_nest`], so
    /// `_q` is read by nothing; it stays in the signature for
    /// `benchmark/` until the next `[benchmark]` revision (ROADMAP 3(h)).
    pub fn new<S: Semiring>(
        _q: &FaqQuery<S>,
        topology: &'a Topology,
        holders: Vec<Vec<Player>>,
        output: Player,
    ) -> Self {
        let sources = holders.iter().flatten().copied().chain([output]);
        PlacementContext {
            distances: LiveDistances::new(topology, sources),
            topology,
            holders,
            output,
        }
    }

    /// The live distances from every holder and the output.
    pub fn distances(&self) -> &LiveDistances {
        &self.distances
    }

    /// The holders and the distance table, for a run that keeps them
    /// past planning.
    pub fn into_parts(self) -> (Vec<Vec<Player>>, LiveDistances) {
        (self.holders, self.distances)
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

/// The rooted GHDs one search has met, by fingerprint: a canonical
/// serialisation invariant under child order, `(sorted χ | sorted λ |
/// sorted child fingerprints)` as a token list, the brackets and bars
/// taken from the top of `u32`. Bag-merge enumeration re-derives the
/// same decomposition from many rotations; deduplicating on this
/// fingerprint keeps each shape's cost simulation from running more
/// than once. The fingerprints lie end to end in one buffer.
#[derive(Default)]
struct Seen {
    /// Every fingerprint met, end to end.
    tokens: Vec<u32>,
    /// Where each fingerprint in `tokens` ends.
    ends: Vec<usize>,
    /// The spans in `tokens` of the children being serialised.
    spans: Vec<(usize, usize)>,
    /// A copy of sibling fingerprints while they are sorted.
    siblings: Vec<u32>,
}

impl Seen {
    /// Records `ghd`'s fingerprint: `false` when the search met it before.
    fn insert(&mut self, ghd: &Ghd) -> bool {
        let start = self.tokens.len();
        self.serialise(ghd, ghd.root());
        let (met, new) = self.tokens.split_at(start);
        let mut from = 0;
        let known = self.ends.iter().any(|&end| {
            let old = &met[from..end];
            from = end;
            old == new
        });
        if known {
            self.tokens.truncate(start);
        } else {
            self.ends.push(self.tokens.len());
        }
        !known
    }

    /// Appends the fingerprint of the subtree at `n` to `tokens`.
    fn serialise(&mut self, ghd: &Ghd, n: NodeId) {
        const OPEN: u32 = u32::MAX;
        const BAR: u32 = u32::MAX - 1;
        const CLOSE: u32 = u32::MAX - 2;
        let out = &mut self.tokens;
        out.push(OPEN);
        let at = out.len();
        out.extend(ghd.chi(n).iter().map(|v| v.0));
        out[at..].sort_unstable();
        out.push(BAR);
        let at = out.len();
        out.extend(ghd.node(n).lambda.iter().map(|e| e.0));
        out[at..].sort_unstable();
        out.push(BAR);
        // The children's fingerprints, then sorted as token lists.
        let (kids, base) = (out.len(), self.spans.len());
        for c in ghd.children(n) {
            let from = self.tokens.len();
            self.serialise(ghd, c);
            self.spans.push((from, self.tokens.len()));
        }
        if self.spans.len() > base + 1 {
            self.siblings.clear();
            self.siblings.extend_from_slice(&self.tokens[kids..]);
            let span = |&(a, b): &(usize, usize)| &self.siblings[a - kids..b - kids];
            self.spans[base..].sort_unstable_by(|x, y| span(x).cmp(span(y)));
            self.tokens.truncate(kids);
            for s in &self.spans[base..] {
                self.tokens.extend_from_slice(span(s));
            }
        }
        self.spans.truncate(base);
        self.tokens.push(CLOSE);
    }
}

/// Re-roots removed join trees of `base` (any rooting of `h`'s join
/// forest, e.g. the canonical one or a width-minimising one) until its
/// core vertex set contains all `free` variables.
///
/// Strategy: every free variable already in `V(C(H))` is fine;
/// otherwise consider every forest edge containing a missing free
/// variable as a candidate new root for its join tree. Each candidate is
/// evaluated on a *cloned* decomposition (re-rooting evicts the old
/// root's vertices from the core, so the net coverage change depends on
/// the whole tree, not on the candidate edge alone) and we commit to the
/// candidate that strictly grows the number of covered free variables,
/// preferring the largest gain. Fails only when no candidate re-rooting
/// makes progress — e.g. two free variables demand conflicting roots of
/// the same tree and no single edge contains both. Terminates because
/// coverage strictly increases every round.
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

/// The *structural default* as an unscored plan, once [`check_runnable`]
/// passes, and the re-rootings left to score against it. Its GHD is the
/// width witness when the witness's core already contains `F` — that
/// re-rooting, scored, would repeat the default, so it leaves the list —
/// and otherwise the canonical decomposition re-rooted to cover `F`.
/// This is the plan of [`structural_plan`] and candidate 0 of every
/// cost-based search — the cost model must beat it strictly to deviate.
/// Its failure is the caller's error: the cost model never papers over
/// an invalid default.
fn structural_default<S: Semiring>(
    q: &FaqQuery<S>,
    s: QueryStructure,
    shape: &PlanShape,
) -> Result<(QueryPlan, Vec<(Decomposition, Ghd)>), EngineError> {
    let (ghd, reroots) = if q
        .free_vars
        .iter()
        .all(|v| s.witness().0.core_vars.contains(v))
    {
        let (width, reroots) = s.into_witness();
        (width.ghd, reroots)
    } else {
        let canonical = s.canonical().clone();
        let d = decomposition_covering_free_vars(&q.hypergraph, canonical, &q.free_vars)?;
        let mut ghd = Ghd::from_decomposition(&q.hypergraph, &d);
        ghd.hoist_md();
        (ghd, s.reroots)
    };
    check_runnable(q, &ghd)?;
    Ok((QueryPlan::build(q, ghd, shape), reroots))
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
    let mut plan = structural_plan(q)?;
    let stats = QueryStats::of(q);
    let model = CostModel::new(&stats, q.domain, S::value_bits());
    model.score(&mut plan, None);
    Ok(plan.cost)
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

/// The one structural analysis a plan is built from: [`validate_query`],
/// then one GYO run ([`QueryStructure::of`]) and the query's
/// [`PlanShape`]; [`structural_default`] reads the default off it.
fn analyse<S: Semiring>(q: &FaqQuery<S>) -> Result<(QueryStructure, PlanShape), EngineError> {
    validate_query(q)?;
    let structure = QueryStructure::of(&q.hypergraph);
    let shape = PlanShape::of(q, structure.terms());
    Ok((structure, shape))
}

/// The structural default as a plan, without reading any data: the
/// width-minimising GYO-GHD (re-rooted when `F` needs it) with
/// smallest-first join orders, no predicted cost or rows. It is
/// candidate 0 of every [`plan_query_with`] search; on its own it is
/// the reference plan (`faqs_core::solve_faq_reference`), identical for
/// equal data whatever the statistics say.
pub fn structural_plan<S: Semiring>(q: &FaqQuery<S>) -> Result<QueryPlan, EngineError> {
    let (structure, shape) = analyse(q)?;
    let (mut plan, _) = structural_default(q, structure, &shape)?;
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
    let (structure, shape) = analyse(q)?;
    // Cyclic cores: the flat merged bag plus every RIP-valid 2-split of
    // the cycle walk — the shapes the generic join exists to serve —
    // scored after the re-rootings.
    let core = structure.core_candidates(&q.hypergraph);
    let (default, reroots) = structural_default(q, structure, &shape)?;
    let gathered;
    let stats = match stats {
        Some(s) => s,
        None => {
            gathered = QueryStats::of(q);
            &gathered
        }
    };
    let model = CostModel::new(stats, q.domain, S::value_bits());
    let scored = 1 + reroots.len() + core.len();
    let mut search = Search::new(q, placement, &model, &shape, default, scored);

    for (d, ghd) in reroots {
        // Free variables must end up in the candidate's core; re-root
        // further if needed, drop the candidate if no rooting works.
        let (d, ghd) = if q.free_vars.iter().all(|v| d.core_vars.contains(v)) {
            (d, ghd)
        } else {
            let Ok(d) = decomposition_covering_free_vars(&q.hypergraph, d, &q.free_vars) else {
                continue;
            };
            let mut ghd = Ghd::from_decomposition(&q.hypergraph, &d);
            ghd.hoist_md();
            (d, ghd)
        };
        search.consider(ghd, || {
            let mut label = String::from("reroot [");
            for (i, e) in d.forest_roots.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(label, "{sep}{e}");
            }
            label + "]"
        });
    }
    for (i, ghd) in core.into_iter().enumerate() {
        let merged = ghd.len() == 1;
        search.consider(ghd, || match merged {
            true => "merged core".into(),
            false => format!("core split {i}"),
        });
    }
    search.finish()
}

/// One cost-based search: the scored candidate table, the winner so far
/// and the spare plan every further candidate is built into.
struct Search<'s, 'q, S: Semiring> {
    q: &'q FaqQuery<S>,
    placement: Option<&'s PlacementContext<'s>>,
    model: &'s CostModel<'s>,
    shape: &'s PlanShape,
    /// Every candidate scored so far; the default first.
    candidates: Vec<CandidateReport>,
    /// The fingerprints of every GHD met so far.
    seen: Seen,
    /// The winner so far, scored, and its row in the candidate table.
    best: (QueryPlan, usize),
    /// The last loser's plan, whose storage the next candidate reuses.
    spare: Option<QueryPlan>,
}

impl<'s, 'q, S: Semiring> Search<'s, 'q, S> {
    /// A search that has scored the structural default, and will score
    /// at most `most` candidates, the default included.
    fn new(
        q: &'q FaqQuery<S>,
        placement: Option<&'s PlacementContext<'s>>,
        model: &'s CostModel<'s>,
        shape: &'s PlanShape,
        mut default: QueryPlan,
        most: usize,
    ) -> Self {
        model.score(&mut default, placement);
        let mut seen = Seen::default();
        seen.insert(&default.ghd);
        let mut candidates = Vec::with_capacity(most);
        candidates.push(CandidateReport {
            label: "structural default".into(),
            y: default.ghd.internal_count(),
            cost: default.cost,
            chosen: true,
        });
        Search {
            q,
            placement,
            model,
            shape,
            candidates,
            seen,
            best: (default, 0),
            spare: None,
        }
    }

    /// Scores `ghd`, labelled by `label`, unless it cannot run or an
    /// earlier candidate had its shape: structurally identical candidates
    /// (re-root and bag-merge enumeration both re-derive the canonical
    /// shape) are deduplicated on their rooted-tree fingerprint before
    /// any cost simulation runs.
    fn consider(&mut self, ghd: Ghd, label: impl FnOnce() -> String) {
        // A candidate may miss a free variable at its root or be
        // push-down-illegal where the default is legal (different
        // elimination order); skip, never error.
        if check_runnable(self.q, &ghd).is_err() || !self.seen.insert(&ghd) {
            return;
        }
        let mut plan = match self.spare.take() {
            Some(mut plan) => {
                plan.rebuild(self.q, ghd, self.shape);
                plan
            }
            None => QueryPlan::build(self.q, ghd, self.shape),
        };
        self.model.score(&mut plan, self.placement);
        self.candidates.push(CandidateReport {
            label: label(),
            y: plan.ghd.internal_count(),
            cost: plan.cost,
            chosen: false,
        });
        // Strict improvement only: ties keep the default, so uniform
        // instances plan exactly as the structural planner did.
        let placed = self.placement.is_some();
        if plan.cost.key(placed) < self.best.0.cost.key(placed) {
            let row = self.candidates.len() - 1;
            plan = std::mem::replace(&mut self.best, (plan, row)).0;
        }
        self.spare = Some(plan);
    }

    /// The winner with its candidate table.
    fn finish(self) -> Result<QueryPlan, EngineError> {
        // Every candidate priced at the unreachable sentinel means no
        // executable placed plan exists: some shard or message leg has no
        // route at all. Erroring here is the contract the runtime relies
        // on — it never has to discover `NoRoute` mid-execution on a plan
        // the planner silently mispriced.
        let (mut plan, chosen) = self.best;
        if self.placement.is_some() && plan.cost.net_bits == crate::cost::UNREACHABLE_BITS {
            return Err(EngineError::Invalid(
                "placement unreachable: no candidate plan can route every shard and message \
                 on the live topology"
                    .into(),
            ));
        }
        plan.candidates = self.candidates;
        for (i, c) in plan.candidates.iter_mut().enumerate() {
            c.chosen = i == chosen;
        }
        Ok(plan)
    }
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
///
/// `distances` holds a row for the output and every shard holder in
/// `node_shards`, as a [`PlacementContext`]'s table does.
pub fn choose_aggregation_players(
    distances: &LiveDistances,
    plan: &QueryPlan,
    output: Player,
    node_shards: &[Vec<(Player, u64)>],
) -> Vec<Player> {
    let ghd = &plan.ghd;
    let mut agg = vec![output; plan.slots()];
    // The output and the node's shard holders, ascending, one node at a
    // time.
    let mut candidates: Vec<Player> = Vec::new();
    for node in ghd.node_ids() {
        if node == ghd.root() {
            continue; // output player, fixed above
        }
        let mass = &node_shards[node.index()];
        candidates.clear();
        candidates.push(output);
        candidates.extend(mass.iter().map(|&(p, _)| p));
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<(u64, Player)> = None;
        for &c in &candidates {
            // Live distances: a down link must not make a candidate
            // look closer than its actual detour.
            let dist = distances.from(c);
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

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::{EdgeId, GhdNode};

    /// A root bag `{0, 1, 2}` over one leaf per `(χ, λ edge)`, in order.
    fn star(leaves: [([u32; 2], u32); 2]) -> Ghd {
        let root = GhdNode {
            chi: vec![Var(0), Var(1), Var(2)],
            lambda: Vec::new(),
            parent: None,
        };
        let leaves = leaves.map(|(vars, e)| GhdNode {
            chi: vars.map(Var).to_vec(),
            lambda: vec![EdgeId(e)],
            parent: Some(NodeId(0)),
        });
        Ghd::from_nodes([vec![root], leaves.to_vec()].concat(), NodeId(0))
    }

    #[test]
    fn fingerprints_ignore_child_order_only() {
        let mut seen = Seen::default();
        assert!(seen.insert(&star([([0, 1], 0), ([1, 2], 1)])));
        let swapped = star([([1, 2], 1), ([0, 1], 0)]);
        assert!(
            !seen.insert(&swapped),
            "the same tree, children listed the other way"
        );
        let other = star([([0, 1], 1), ([1, 2], 0)]);
        assert!(seen.insert(&other), "the same bags, λ exchanged");
        assert!(!seen.insert(&other));
    }
}
