//! Cross-query batching: one upward pass answers many bindings.
//!
//! A serving workload is rarely distinct shapes — it is one shape
//! probed at many *parameter bindings* ("friends of user 17", "… of
//! user 23", …). Answering each binding independently repeats the
//! whole Theorem G.3 upward pass per call, even though every call
//! shares the plan, the non-parameter factors, and almost all of the
//! join work. [`Executor::solve_batch`] merges such a batch into a
//! single pass:
//!
//! 1. the distinct bindings are sorted and deduplicated;
//! 2. every factor whose schema contains the parameter is restricted to
//!    the binding set in one pass ([`Relation::restrict_in`]: a binary
//!    search per binding on a leading column, else one filtering scan);
//! 3. the restricted query runs through the ordinary plan-cached
//!    executor *once* — same shape, so the plan is shared with
//!    single-binding traffic;
//! 4. the combined answer is sliced back per binding in one scan, each
//!    row going to the binding its parameter value binary-searches to.
//!
//! Correctness: the parameter must be a **free** variable. Then the
//! FAQ semantics (Equation (4) of the paper) fix the parameter in every
//! output tuple — it is never aggregated over — so restricting the
//! parameter-carrying factors to any superset of `{b}` leaves the
//! answer rows at `param = b` untouched, and slicing the batched answer
//! at `b` yields exactly the single-binding answer. On exact carriers
//! the per-binding slices are bit-identical to independent
//! [`Executor::solve`] calls (the differential suite checks this
//! property); inexact carriers such as `Prob` agree up to the usual
//! floating-point reassociation.
//!
//! [`Relation::restrict_in`]: faqs_relation::Relation::restrict_in

use crate::executor::Executor;
use faqs_core::EngineError;
use faqs_hypergraph::Var;
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::Semiring;

impl Executor {
    /// Answers one query shape at many bindings of the free variable
    /// `param` in a single upward pass. `out[i]` equals (bit-for-bit on
    /// exact semirings) the answer of `q` with every `param`-carrying
    /// factor restricted to `param = bindings[i]` — i.e. what `i`
    /// independent [`Executor::solve`] calls on the restricted queries
    /// would return — in the full free-variable schema of `q`.
    ///
    /// Duplicate bindings are answered from the one shared slice;
    /// bindings matching no data get the empty relation. Errors
    /// (invalid shape, worker panic, `param` not free) fail the whole
    /// batch, mirroring the single pass they share.
    pub fn solve_batch<S: Semiring>(
        &self,
        q: &FaqQuery<S>,
        param: Var,
        bindings: &[u32],
    ) -> Result<Vec<Relation<S>>, EngineError> {
        // The answer lists the free variables in declared order, so the
        // parameter's column there is its place among them.
        let col = q.free_vars.iter().position(|v| *v == param);
        let Some(col) = col.filter(|_| param.index() < q.hypergraph.num_vars()) else {
            return Err(EngineError::Invalid(format!(
                "batch parameter {param} must be a free variable of the query"
            )));
        };
        if bindings.is_empty() {
            return Ok(Vec::new());
        }
        let mut distinct = bindings.to_vec();
        distinct.sort_unstable();
        distinct.dedup();

        // Restrict every param-carrying factor to the merged binding set;
        // the rest of the instance is shared untouched.
        let factors = q
            .hypergraph
            .edges()
            .zip(&q.factors)
            .map(|((_, edge), f)| {
                if edge.contains(&param) {
                    f.restrict_in(param, &distinct)
                } else {
                    f.clone()
                }
            })
            .collect();
        let merged = FaqQuery {
            hypergraph: q.hypergraph.clone(),
            factors,
            free_vars: q.free_vars.clone(),
            aggregates: q.aggregates.clone(),
            domain: q.domain,
        };

        // One plan-cached pass for the whole batch (same shape as the
        // single-binding traffic, so they share the cached plan).
        let answer = self.solve(&merged)?;

        // Slice the combined answer back per distinct binding in one scan
        // (each slice gathers its rows in canonical order), then fan
        // duplicates out as cheap clones.
        let schema = answer.schema().to_vec();
        let mut rows: Vec<(Vec<u32>, Vec<S>)> = vec![(Vec::new(), Vec::new()); distinct.len()];
        for (t, v) in answer.iter() {
            if let Ok(p) = distinct.binary_search(&t[col]) {
                rows[p].0.extend_from_slice(t);
                rows[p].1.push(v.clone());
            }
        }
        let slices: Vec<Relation<S>> = rows
            .into_iter()
            .map(|(data, values)| Relation::from_columns(schema.clone(), data, values))
            .collect();
        // `distinct` is sorted and holds every binding, so its partition
        // point is the binding's position.
        Ok(bindings
            .iter()
            .map(|b| slices[distinct.partition_point(|d| d < b)].clone())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_hypergraph::example_h2;
    use faqs_plan::QueryStats;
    use faqs_relation::{random_instance, RandomInstanceConfig};
    use faqs_semiring::{Aggregate, Count};
    use std::collections::HashSet;

    fn inst(free: Vec<Var>, seed: u64) -> FaqQuery<Count> {
        random_instance(
            &example_h2(),
            &RandomInstanceConfig {
                tuples_per_factor: 24,
                domain: 6,
                seed,
            },
            free,
            |_| Count(2),
        )
    }

    /// Restricts the param-carrying factors of `q` to the sorted
    /// `bindings`.
    fn restricted<S: Semiring>(q: &FaqQuery<S>, param: Var, bindings: &[u32]) -> FaqQuery<S> {
        let factors = q
            .hypergraph
            .edges()
            .zip(&q.factors)
            .map(|((_, e), f)| {
                if e.contains(&param) {
                    f.restrict_in(param, bindings)
                } else {
                    f.clone()
                }
            })
            .collect();
        FaqQuery {
            hypergraph: q.hypergraph.clone(),
            factors,
            free_vars: q.free_vars.clone(),
            aggregates: q.aggregates.clone(),
            domain: q.domain,
        }
    }

    #[test]
    fn batch_matches_independent_solves() {
        let ex = Executor::default();
        let param = Var(0);
        let q = inst(vec![param, Var(1)], 7);
        // Duplicates, misses (domain is 6 so 5 may be sparse) and
        // unsorted order all in one batch.
        let bindings = [3u32, 0, 3, 5, 1, 0];
        let batch = ex.solve_batch(&q, param, &bindings).unwrap();
        assert_eq!(batch.len(), bindings.len());
        let mut digests =
            HashSet::from([QueryStats::of(&restricted(&q, param, &[0, 1, 3, 5])).digest()]);
        for (b, got) in bindings.iter().zip(&batch) {
            let solo = restricted(&q, param, &[*b]);
            digests.insert(QueryStats::of(&solo).digest());
            assert_eq!(*got, ex.solve(&solo).unwrap(), "binding {b}");
        }
        // The batched pass and the solo oracles share the shape: one
        // plan build per statistics digest among them, no more.
        assert_eq!(ex.cache_stats().misses, digests.len() as u64);
    }

    #[test]
    fn batch_handles_edges_and_rejects_bound_params() {
        let ex = Executor::default();
        let q = inst(vec![Var(0)], 1);
        assert!(ex.solve_batch(&q, Var(0), &[]).unwrap().is_empty());
        // A binding outside every factor's data: empty answer slice.
        let miss = ex.solve_batch(&q, Var(0), &[4711]).unwrap();
        assert_eq!(miss.len(), 1);
        assert!(miss[0].is_empty());
        // Bound variables are aggregated over — batching on them would
        // silently change semantics, so it is a hard error.
        assert!(matches!(
            ex.solve_batch(&q, Var(2), &[1]),
            Err(EngineError::Invalid(_))
        ));
    }

    #[test]
    fn lattice_batch_matches_independent_solves() {
        let param = Var(0);
        let base = inst(vec![param], 11).with_aggregate(Var(1), Aggregate::Max);
        let ex = Executor::default();
        let batch = ex.solve_batch(&base, param, &[0, 2, 4]).unwrap();
        for (b, got) in [0u32, 2, 4].iter().zip(&batch) {
            let one = restricted(&base, param, &[*b]);
            assert_eq!(*got, ex.solve(&one).unwrap(), "binding {b}");
        }
    }
}
