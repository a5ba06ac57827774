//! TRIBES and set-disjointness instances (Theorem 2.3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One set-disjointness instance over universe `[N]`.
///
/// Following the paper's convention, `DISJ_N(X, Y) = 1` iff
/// `X ∩ Y ≠ ∅`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disj {
    /// Alice's set `X ⊆ [N]`.
    pub x: BTreeSet<u32>,
    /// Bob's set `Y ⊆ [N]`.
    pub y: BTreeSet<u32>,
}

impl Disj {
    /// Evaluates `DISJ(X, Y)`.
    pub fn eval(&self) -> bool {
        self.x.intersection(&self.y).next().is_some()
    }

    /// The intersection witness, if any.
    pub fn witness(&self) -> Option<u32> {
        self.x.intersection(&self.y).next().copied()
    }
}

/// `TRIBES_{m,N}(X̄, Ȳ) = ∧_{i=1}^m DISJ_N(X_i, Y_i)`.
///
/// ```
/// use faqs_lowerbounds::Tribes;
/// let yes = Tribes::random(3, 32, 0.25, true, 7);   // planted witnesses
/// assert!(yes.eval());
/// let no = Tribes::random(3, 32, 0.25, false, 7);   // one pair forced disjoint
/// assert!(!no.eval());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tribes {
    /// Universe size `N`.
    pub n: u32,
    /// The `m` disjointness instances.
    pub pairs: Vec<Disj>,
}

impl Tribes {
    /// Evaluates the AND of the disjointness instances.
    pub fn eval(&self) -> bool {
        self.pairs.iter().all(Disj::eval)
    }

    /// Number of instances `m`.
    pub fn m(&self) -> usize {
        self.pairs.len()
    }

    /// A random instance: each element joins each set independently with
    /// probability `density`. With `planted = true`, every pair receives
    /// a common element so the instance evaluates to `1`; with
    /// `planted = false` one pair is made disjoint so it evaluates `0`.
    pub fn random(m: usize, n: u32, density: f64, planted: bool, seed: u64) -> Self {
        assert!(m >= 1 && n >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(m);
        for _ in 0..m {
            let mut x: BTreeSet<u32> = (0..n).filter(|_| rng.random_bool(density)).collect();
            let mut y: BTreeSet<u32> = (0..n).filter(|_| rng.random_bool(density)).collect();
            if planted {
                let w = rng.random_range(0..n);
                x.insert(w);
                y.insert(w);
            }
            // Keep sets non-empty for well-formed relations.
            if x.is_empty() {
                x.insert(rng.random_range(0..n));
            }
            if y.is_empty() {
                y.insert(rng.random_range(0..n));
            }
            pairs.push(Disj { x, y });
        }
        let mut t = Tribes { n, pairs };
        if !planted {
            // Force the last pair disjoint: Y = complement-ish of X.
            let last = t.pairs.last_mut().expect("m >= 1");
            last.y = (0..n).filter(|v| !last.x.contains(v)).collect();
            if last.y.is_empty() {
                // X was everything; shrink it.
                last.x.remove(&0);
                last.y.insert(0);
            }
        }
        t
    }

    /// The paper's hard-distribution shape (Remark G.5): every pair
    /// intersects in at most one element. `intersecting[i]` controls
    /// whether pair `i` gets its single common element. Public as the
    /// paper's hard input distribution, the one lower-bound instances
    /// are drawn from.
    pub fn single_intersection(n: u32, intersecting: &[bool], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = intersecting
            .iter()
            .map(|&hit| {
                // Split the universe: X from the low half, Y from the
                // high half (disjoint by construction), plus an optional
                // planted witness.
                let half = n / 2;
                let mut x: BTreeSet<u32> = (0..half).filter(|_| rng.random_bool(0.5)).collect();
                let mut y: BTreeSet<u32> = (half..n).filter(|_| rng.random_bool(0.5)).collect();
                if x.is_empty() {
                    x.insert(0);
                }
                if y.is_empty() {
                    y.insert(half);
                }
                if hit {
                    let w = rng.random_range(0..n);
                    x.insert(w);
                    y.insert(w);
                }
                Disj { x, y }
            })
            .collect();
        Tribes { n, pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disj_convention_is_intersection() {
        let d = Disj {
            x: [1, 2].into_iter().collect(),
            y: [2, 3].into_iter().collect(),
        };
        assert!(d.eval());
        assert_eq!(d.witness(), Some(2));
        let e = Disj {
            x: [1].into_iter().collect(),
            y: [2].into_iter().collect(),
        };
        assert!(!e.eval());
    }

    #[test]
    fn planted_instances_evaluate_true() {
        for seed in 0..10 {
            assert!(Tribes::random(4, 16, 0.2, true, seed).eval());
        }
    }

    #[test]
    fn unplanted_instances_evaluate_false() {
        for seed in 0..10 {
            assert!(!Tribes::random(4, 16, 0.2, false, seed).eval());
        }
    }

    #[test]
    fn single_intersection_respects_flags() {
        let t = Tribes::single_intersection(16, &[true, false, true], 3);
        assert!(t.pairs[0].eval());
        assert!(!t.pairs[1].eval());
        assert!(t.pairs[2].eval());
        assert!(!t.eval());
        // At most one witness per pair.
        for p in &t.pairs {
            assert!(p.x.intersection(&p.y).count() <= 1);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            Tribes::random(3, 8, 0.3, true, 9),
            Tribes::random(3, 8, 0.3, true, 9)
        );
    }
}
