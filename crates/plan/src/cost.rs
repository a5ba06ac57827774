//! The cost model: a dry run of the Theorem G.3 upward pass over
//! estimated cardinalities.
//!
//! Every candidate GHD is scored by simulating exactly the work the
//! executor will do — materialise each node's bag from its λ factors
//! in one generic-join pass, push each child message down onto the
//! parent's bag, fold messages in node order — but over
//! [`RelationStats`](faqs_relation::RelationStats) instead of data.
//! Join sizes follow the classic independence estimate of the
//! Gottlob–Lee–Valiant cardinality-bound tradition
//! (`|A ⋈ B| ≈ |A|·|B| / ∏_{v shared} max(dᴬ(v), dᴮ(v))`), a bag's
//! output is capped by the AGM/FD-aware bound over its factors, and —
//! when an [`PlacementContext`] is supplied — shipped bits follow Model
//! 2.1's accounting (`r·⌈log₂ D⌉` plus the annotation per tuple,
//! charged once per hop), the same arithmetic `Relation::bits` and
//! `BoundReport` use, so a predicted cost can be confronted with the
//! paper's envelope like a measured one.
//!
//! [`PlacementContext`]: crate::PlacementContext

use crate::plan::{reset, QueryPlan};
use crate::planner::{choose_aggregation_players, PlacementContext};
use crate::stats::QueryStats;
use faqs_hypergraph::{weighted_cover, EdgeId, NodeId, Var};
use faqs_network::Player;
use faqs_semiring::Aggregate;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Row-count estimates are capped here so products of distinct counts
/// never overflow into `inf` (and the final `u64` conversion is safe).
const EST_CAP: f64 = 1e15;

/// Net-bits price of a leg the topology cannot route. The runtime
/// routes *every* shard and message — `NoRoute` aborts the run even
/// for a zero-bit send — so an unreachable leg does not make a plan
/// expensive, it makes it inexecutable: saturate the candidate's
/// `net_bits` outright so any executable candidate beats it, and the
/// planner can turn "no candidate below the sentinel" into a loud
/// error instead of a silently mispriced route.
pub(crate) const UNREACHABLE_BITS: u64 = u64::MAX;

/// Predicted cost of one plan candidate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCost {
    /// Predicted kernel work of the upward pass, in comparisons plus
    /// emitted rows (factor preparation, probes, output).
    pub cpu: u64,
    /// Predicted bits shipped across the topology (Model 2.1
    /// accounting, charged per hop); `0` when no placement was scored.
    pub net_bits: u64,
}

impl PlanCost {
    /// The comparison key: communication dominates when a placement is
    /// being scored (bits are the paper's bounded resource), predicted
    /// kernel work breaks ties; purely local plans compare on kernel
    /// work alone.
    pub fn key(&self, placed: bool) -> (u64, u64) {
        if placed {
            (self.net_bits, self.cpu)
        } else {
            (self.cpu, self.net_bits)
        }
    }
}

/// A cardinality estimate flowing through the simulated pass.
#[derive(Clone, Debug)]
struct Est {
    rows: f64,
    /// Per-variable distinct-count estimates of the current schema, by
    /// ascending variable (the order every product over them runs in).
    distinct: Vec<(Var, f64)>,
}

impl Est {
    fn unit() -> Est {
        Est {
            rows: 1.0,
            distinct: Vec::new(),
        }
    }

    fn arity(&self) -> usize {
        self.distinct.len()
    }

    /// The distinct-count estimate of `v`, when the schema has it.
    fn get(&self, v: Var) -> Option<f64> {
        let at = self.distinct.binary_search_by_key(&v, |&(w, _)| w);
        at.ok().map(|i| self.distinct[i].1)
    }
}

/// The estimator for one query instance: per-factor statistics plus the
/// Model 2.1 bit constants.
pub(crate) struct CostModel<'a> {
    stats: &'a QueryStats,
    /// `⌈log₂ D⌉` bits per domain value.
    log_d: u64,
    /// Bits per semiring annotation (`S::value_bits()`).
    value_bits: u64,
    /// Memoised `log₂` size bounds: one fractional-cover LP per distinct
    /// `(vars, factor set)` pair across all simulated candidates.
    vv_cache: RefCell<VvCache>,
    /// Per node, each shard its bag gathers and the bits it ships: one
    /// table every placed dry run of the search refills.
    node_shards: RefCell<Vec<Vec<(Player, u64)>>>,
    /// The storage of spent estimates, which the next estimate reuses.
    spent: RefCell<Vec<Vec<(Var, f64)>>>,
}

/// Key = the projected variable set plus the absorbed factor set.
type VvCache = BTreeMap<(Vec<Var>, Vec<EdgeId>), f64>;

impl<'a> CostModel<'a> {
    pub(crate) fn new(stats: &'a QueryStats, domain: u32, value_bits: u64) -> CostModel<'a> {
        let log_d = (32 - domain.saturating_sub(1).leading_zeros()).max(1) as u64;
        CostModel {
            stats,
            log_d,
            value_bits,
            vv_cache: RefCell::new(BTreeMap::new()),
            node_shards: RefCell::new(Vec::new()),
            spent: RefCell::new(Vec::new()),
        }
    }

    /// `log₂` of the AGM/FD-aware bound on `|⋈_{e ∈ edges} R_e|`
    /// projected onto `vars`: the weighted fractional edge cover with
    /// `w_e = log₂|R_e|`, tightened by unary "virtual" columns pricing
    /// each variable at `log₂` of its minimum per-factor distinct count
    /// — the Valiant & Valiant functional-dependency refinement of the
    /// plain AGM bound. Only `edges` participate: a bound involving an
    /// unabsorbed factor would undercount a bag estimate's
    /// intermediates.
    fn vv_log2_bound(&self, vars: &[Var], edges: &[EdgeId]) -> f64 {
        let mut key_vars = vars.to_vec();
        key_vars.sort_unstable();
        let mut key_edges = edges.to_vec();
        key_edges.sort_unstable();
        let key = (key_vars, key_edges);
        if let Some(&v) = self.vv_cache.borrow().get(&key) {
            return v;
        }
        let (vars, edges) = (&key.0, &key.1);
        let mut columns: Vec<(f64, Vec<usize>)> = Vec::new();
        for &e in edges {
            let s = &self.stats.factors[e.index()];
            let items: Vec<usize> = vars
                .iter()
                .enumerate()
                .filter(|(_, v)| s.schema.contains(v))
                .map(|(i, _)| i)
                .collect();
            if !items.is_empty() {
                columns.push(((s.rows.max(1) as f64).log2(), items));
            }
        }
        for (i, v) in vars.iter().enumerate() {
            let mut d = f64::INFINITY;
            for &e in edges {
                let s = &self.stats.factors[e.index()];
                if let Some(p) = s.schema.iter().position(|w| w == v) {
                    d = d.min(s.distinct[p].max(1) as f64);
                }
            }
            if d.is_finite() {
                columns.push((d.log2(), vec![i]));
            }
        }
        let bound = match weighted_cover(vars.len(), &columns) {
            Some(sol) => sol.value,
            None => f64::INFINITY,
        };
        self.vv_cache.borrow_mut().insert(key, bound);
        bound
    }

    fn factor_est(&self, e: EdgeId) -> Est {
        let s = &self.stats.factors[e.index()];
        let mut distinct = self.spent.borrow_mut().pop().unwrap_or_default();
        let columns = s.schema.iter().zip(&s.distinct);
        distinct.extend(columns.map(|(&v, &d)| (v, d.max(1) as f64)));
        distinct.sort_unstable_by_key(|&(v, _)| v);
        Est {
            rows: s.rows as f64,
            distinct,
        }
    }

    /// Model 2.1 bits of an estimated relation.
    fn est_bits(&self, est: &Est) -> u64 {
        let per_tuple = est.arity() as u64 * self.log_d + self.value_bits;
        saturating(est.rows) * per_tuple.max(1)
    }

    /// Model 2.1 bits of one shard of factor `e` split across `parts`
    /// holders, after the shard-local push-down of Corollary G.2
    /// aggregated its `nest` away (the runtime aggregates each shard
    /// locally *before* shipping it, so the wire carries only the kept
    /// columns, and at most one tuple per distinct kept-column
    /// combination).
    fn shard_bits(&self, e: EdgeId, parts: usize, nest: &[(Var, Aggregate)]) -> u64 {
        let s = &self.stats.factors[e.index()];
        let mut shard_rows = (s.rows as u64).div_ceil(parts.max(1) as u64);
        let kept = || (0..s.schema.len()).filter(|&i| nest.iter().all(|&(v, _)| v != s.schema[i]));
        let width = kept().count();
        if width < s.schema.len() {
            // Aggregating down to the kept columns caps the shard at
            // their distinct-combination capacity.
            let mut capacity = 1.0f64;
            for i in kept() {
                capacity = (capacity * s.distinct[i].max(1) as f64).min(EST_CAP);
            }
            shard_rows = shard_rows.min(saturating(capacity));
        }
        let per_tuple = width as u64 * self.log_d + self.value_bits;
        shard_rows * per_tuple.max(1)
    }

    /// The estimated join of `cur` and `next`: matches multiply out.
    /// `cap_log2` bounds the output rows by `2^cap_log2` — the VV/AGM
    /// bound over the factors actually absorbed (pass `f64::INFINITY`
    /// when no sound bound applies, e.g. child-message folds whose
    /// inputs are already capped).
    fn join(&self, cur: Est, next: Est, cap_log2: f64) -> Est {
        let mut denom = 1.0f64;
        for &(v, da) in &cur.distinct {
            if let Some(db) = next.get(v) {
                denom *= da.max(db).max(1.0);
            }
        }
        let cap = if cap_log2.is_finite() {
            cap_log2.exp2().min(EST_CAP)
        } else {
            EST_CAP
        };
        let out_rows = (cur.rows * next.rows / denom.max(1.0)).min(cap);
        let mut distinct = cur.distinct;
        for &(v, db) in &next.distinct {
            match distinct.binary_search_by_key(&v, |&(w, _)| w) {
                Ok(i) => distinct[i].1 = distinct[i].1.min(db),
                Err(i) => distinct.insert(i, (v, db)),
            }
        }
        self.recycle(next);
        for (_, d) in &mut distinct {
            *d = d.min(out_rows.max(1.0));
        }
        Est {
            rows: out_rows,
            distinct,
        }
    }

    /// Keeps `est`'s storage for the next estimate.
    fn recycle(&self, est: Est) {
        let mut distinct = est.distinct;
        distinct.clear();
        self.spent.borrow_mut().push(distinct);
    }

    /// The push-down of Corollary G.2: aggregate the estimate down onto
    /// the variables of `keep` (a merge scan over the child relation).
    fn project(&self, est: Est, keep: &[Var], cost: &mut PlanCost) -> Est {
        cost.cpu = cost.cpu.saturating_add(saturating(est.rows));
        let mut distinct = est.distinct;
        distinct.retain(|(v, _)| keep.contains(v));
        let mut capacity = 1.0f64;
        for (_, d) in &distinct {
            capacity = (capacity * d).min(EST_CAP);
        }
        let rows = est.rows.min(capacity);
        for (_, d) in &mut distinct {
            *d = d.min(rows.max(1.0));
        }
        Est { rows, distinct }
    }

    /// A multi-factor bag's output estimate: its factors folded in
    /// `order`, each step capped by the VV/AGM bound over the factors
    /// absorbed so far.
    fn bag_est(&self, order: &[EdgeId]) -> Est {
        let mut absorbed: Vec<EdgeId> = vec![order[0]];
        let mut cur = self.factor_est(order[0]);
        for &e in &order[1..] {
            absorbed.push(e);
            let next = self.factor_est(e);
            let mut vars: Vec<Var> = cur.distinct.iter().map(|&(v, _)| v).collect();
            for &(v, _) in &next.distinct {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let cap = self.vv_log2_bound(&vars, &absorbed);
            cur = self.join(cur, next, cap);
        }
        cur
    }

    /// Scores one candidate plan: simulates the full upward pass over
    /// the estimates — each multi-factor bag evaluated by one
    /// generic-join pass — and, when a placement is given, predicts the
    /// bits each GHD node's gather and each upward message will ship,
    /// using the same aggregation-player choice the runtime makes and
    /// each shard at the width its [`QueryPlan::shard_nest`] leaves.
    /// Writes the cost to `plan.cost` and the per-node predicted row
    /// counts (dense by `NodeId`) to `plan.node_rows`; the row
    /// predictions are what the executor's fold points confront with
    /// `Relation::len` as calibration telemetry.
    pub(crate) fn score(&self, plan: &mut QueryPlan, placement: Option<&PlacementContext<'_>>) {
        let mut node_rows = std::mem::take(&mut plan.node_rows);
        node_rows.clear();
        node_rows.resize(plan.slots(), 0);
        plan.cost = self.simulate(plan, placement, &mut node_rows);
        plan.node_rows = node_rows;
    }

    /// [`CostModel::score`]'s dry run: the cost, with each node's
    /// predicted rows written to `node_rows`.
    fn simulate(
        &self,
        plan: &QueryPlan,
        placement: Option<&PlacementContext<'_>>,
        node_rows: &mut [u64],
    ) -> PlanCost {
        let ghd = &plan.ghd;
        let mut cost = PlanCost::default();

        // Placement: estimated shard masses per node, then the same
        // argmin-bit·distance aggregation players the runtime picks.
        let placed = placement.map(|ctx| {
            let mut node_shards = self.node_shards.borrow_mut();
            reset(&mut node_shards, plan.slots());
            for node in ghd.node_ids() {
                for &e in plan.joins(node) {
                    let holders = ctx.placement.shard_holders(e);
                    let bits = self.shard_bits(e, holders.len(), plan.shard_nest(e));
                    node_shards[node.index()].extend(holders.iter().map(|&p| (p, bits)));
                }
            }
            let agg = choose_aggregation_players(
                ctx.distances(),
                plan,
                ctx.placement.output(),
                &node_shards,
            );
            // Gather cost: every remote shard travels holder → player.
            for node in ghd.node_ids() {
                let to = agg[node.index()];
                let dist = ctx.distances().from(to);
                for &(p, bits) in &node_shards[node.index()] {
                    if p != to {
                        if dist[p.index()] == u32::MAX {
                            // The runtime routes every shard, even an
                            // empty one: no route ⇒ the plan cannot
                            // execute, price it out entirely.
                            cost.net_bits = cost.net_bits.saturating_add(UNREACHABLE_BITS);
                        } else {
                            cost.net_bits = cost
                                .net_bits
                                .saturating_add(bits.saturating_mul(dist[p.index()] as u64));
                        }
                    }
                }
            }
            Placed { ctx, agg }
        });

        let mut dry = DryRun {
            model: self,
            plan,
            placed: placed.as_ref(),
            cost,
            node_rows,
        };
        let root = dry.subtree(plan.root());
        // Root epilogue: one aggregation sweep over the remainder.
        let cost = PlanCost {
            cpu: dry.cost.cpu.saturating_add(saturating(root.rows)),
            ..dry.cost
        };
        self.recycle(root);
        cost
    }
}

/// A placement as one candidate's dry run sees it: the context and each
/// node's aggregation player.
struct Placed<'c, 'g> {
    ctx: &'c PlacementContext<'g>,
    agg: Vec<Player>,
}

/// One dry run of the upward pass over a candidate plan: what it has
/// charged so far and the rows it predicts per node.
struct DryRun<'m, 'p> {
    model: &'m CostModel<'m>,
    plan: &'p QueryPlan,
    placed: Option<&'p Placed<'p, 'p>>,
    cost: PlanCost,
    node_rows: &'p mut [u64],
}

impl DryRun<'_, '_> {
    /// `node`'s estimated relation before its push-down: its bag with
    /// every child's message folded in, in the plan's fold order.
    fn subtree(&mut self, node: NodeId) -> Est {
        let (model, plan) = (self.model, self.plan);
        let order = plan.joins(node);
        let mut acc: Option<Est> = if order.len() < 2 {
            order.first().map(|&e| model.factor_est(e))
        } else {
            // Multi-factor bag: one worst-case-optimal pass. Prepare
            // each factor once — reorder it when its columns disagree
            // with the binding order, then one sweep into the join's
            // per-call trie — then one emit per output row: k column
            // bindings plus a seek.
            let out = model.bag_est(order);
            let k = out.arity() as f64;
            let rows = |e: &EdgeId| model.stats.factors[e.index()].rows.max(1) as f64;
            let max_rows = order.iter().map(rows).fold(1.0f64, f64::max);
            let prep: f64 = order.iter().map(|e| rows(e) * (rows(e).log2() + 1.0)).sum();
            let gj_cpu = saturating(prep + out.rows * (k + max_rows.log2() + 1.0));
            self.cost.cpu = self.cost.cpu.saturating_add(gj_cpu);
            Some(out)
        };
        for &child in plan.children(node) {
            let sub = self.subtree(child);
            let msg = model.project(sub, plan.ghd.chi(node), &mut self.cost);
            if let Some(Placed { ctx, agg }) = self.placed {
                let (from, to) = (agg[child.index()], agg[node.index()]);
                if from != to {
                    let dist = ctx.distances().from(to)[from.index()];
                    let bits = if dist == u32::MAX {
                        // Unroutable message leg ⇒ inexecutable plan
                        // (see the gather loop of `simulate`).
                        UNREACHABLE_BITS
                    } else {
                        model.est_bits(&msg).saturating_mul(dist as u64)
                    };
                    self.cost.net_bits = self.cost.net_bits.saturating_add(bits);
                }
            }
            acc = Some(match acc {
                Some(cur) => {
                    // One `fold_keyed` scan, priced at its
                    // binary-search worst case: the message read once
                    // plus one probe per bag row, then one emitted row
                    // per estimated match. The scan often walks a
                    // cursor instead, so this over-prices (ROADMAP
                    // 7(a)). Child messages are already capped at
                    // their node; no sound factor-set bound applies to
                    // the fold.
                    let probe = saturating(msg.rows)
                        .saturating_add(saturating(cur.rows * (msg.rows.max(1.0).log2() + 1.0)));
                    let out = model.join(cur, msg, f64::INFINITY);
                    self.cost.cpu = self
                        .cost
                        .cpu
                        .saturating_add(probe)
                        .saturating_add(saturating(out.rows));
                    out
                }
                None => msg,
            });
        }
        let est = acc.unwrap_or_else(Est::unit);
        self.node_rows[node.index()] = saturating(est.rows);
        est
    }
}

fn saturating(x: f64) -> u64 {
    // `f64::max` returns the non-NaN operand, so `x.max(0.0)` would turn
    // a NaN estimate into 0 — silently scoring a candidate plan as free
    // and winning the argmin. A poisoned estimate must lose instead.
    if x.is_nan() {
        return u64::MAX;
    }
    x.max(0.0).min(u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_relation::RelationStats;

    #[test]
    fn saturating_pins_nan_inf_and_negatives() {
        assert_eq!(saturating(f64::NAN), u64::MAX, "NaN must not look free");
        assert_eq!(saturating(f64::INFINITY), u64::MAX);
        assert_eq!(saturating(f64::NEG_INFINITY), 0);
        assert_eq!(saturating(-1.0), 0);
        assert_eq!(saturating(0.0), 0);
        assert_eq!(saturating(42.9), 42);
        assert_eq!(saturating(1e300), u64::MAX);
    }

    /// `k` chained binary factors `R_i(x_i, x_{i+1})`, each `rows` rows
    /// with `rows` distinct values per column — dense enough that a
    /// long bag's row product overflows every float milestone.
    fn chain_stats(k: usize, rows: usize) -> QueryStats {
        QueryStats::from_factors(
            (0..k)
                .map(|i| RelationStats {
                    schema: vec![Var(2 * i as u32), Var(2 * i as u32 + 1)],
                    rows,
                    distinct: vec![rows, rows],
                })
                .collect(),
        )
    }

    #[test]
    fn deep_cascades_saturate_at_est_cap_not_infinity() {
        // 40 disjoint-variable factors of 1e6 rows: the naive row
        // product is 1e240 — far past both `EST_CAP` and `u64::MAX` —
        // and no variables are shared, so the independence denominator
        // never trims it. Every intermediate must stay capped and the
        // final cost finite-by-saturation, not NaN/inf-poisoned.
        let stats = chain_stats(40, 1_000_000);
        let model = CostModel::new(&stats, 1 << 20, 64);
        let order: Vec<EdgeId> = (0..40).map(EdgeId).collect();
        let est = model.bag_est(&order);
        assert!(est.rows.is_finite(), "estimate must never go non-finite");
        assert!(est.rows <= EST_CAP, "estimate capped: {}", est.rows);
        assert_eq!(saturating(est.rows), EST_CAP as u64);
    }

    #[test]
    fn non_finite_join_caps_fall_back_to_est_cap() {
        let stats = chain_stats(2, 1000);
        let model = CostModel::new(&stats, 16, 64);
        let a = model.factor_est(EdgeId(0));
        let b = model.factor_est(EdgeId(1));
        for cap in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let out = model.join(a.clone(), b.clone(), cap);
            assert!(out.rows.is_finite(), "cap {cap}: rows {}", out.rows);
            assert!(out.rows <= EST_CAP);
            assert!(out.distinct.iter().all(|(_, d)| d.is_finite()));
        }
        // NaN cap: `exp2(NaN) = NaN`, `min(NaN, EST_CAP) = EST_CAP` via
        // f64::min's non-NaN preference — pin that it cannot poison.
        let out = model.join(a.clone(), b.clone(), f64::NAN.exp2());
        assert!(out.rows.is_finite());
    }

    #[test]
    fn degenerate_zero_row_stats_stay_sane() {
        // Empty factors: estimates are 0, not NaN (0/0 guards), and
        // projections keep capacity arithmetic finite.
        let stats = QueryStats::from_factors(vec![
            RelationStats {
                schema: vec![Var(0), Var(1)],
                rows: 0,
                distinct: vec![0, 0],
            },
            RelationStats {
                schema: vec![Var(1), Var(2)],
                rows: 0,
                distinct: vec![0, 0],
            },
        ]);
        let model = CostModel::new(&stats, 2, 1);
        let est = model.bag_est(&[EdgeId(0), EdgeId(1)]);
        assert!(est.rows.is_finite());
        assert_eq!(saturating(est.rows), 0);
        let proj = model.project(est, &[Var(0)], &mut PlanCost::default());
        assert!(proj.rows.is_finite());
        assert_eq!(model.est_bits(&proj), 0);
    }

    #[test]
    fn pre_aggregated_shards_ship_fewer_bits() {
        // R(x, y): 1024 rows, x has 4 distinct values, y 1024. Shipping
        // the Sum-aggregate over y keeps only x: ≤4 tuples of 1 column.
        let stats = QueryStats::from_factors(vec![RelationStats {
            schema: vec![Var(0), Var(1)],
            rows: 1024,
            distinct: vec![4, 1024],
        }]);
        let model = CostModel::new(&stats, 1 << 10, 64);
        let raw = model.shard_bits(EdgeId(0), 1, &[]);
        let agged = model.shard_bits(EdgeId(0), 1, &[(Var(1), Aggregate::Sum)]);
        assert_eq!(raw, 1024 * (2 * 10 + 64));
        assert_eq!(agged, 4 * (10 + 64));
        // Aggregating everything away leaves one annotation-only tuple.
        let all = model.shard_bits(
            EdgeId(0),
            1,
            &[(Var(1), Aggregate::Sum), (Var(0), Aggregate::Sum)],
        );
        assert_eq!(all, 64);
    }
}
