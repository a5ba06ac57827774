//! The probability semiring `(ℝ≥0, +, ×)` and the Viterbi / max-product
//! semiring `(ℝ≥0, max, ×)`.

use crate::aggregate::Aggregate;
use crate::traits::Semiring;

const EPS: f64 = 1e-9;

/// The probability (sum-product) semiring `(ℝ≥0, +, ×)`.
///
/// This is the semiring used by the paper's PGM application: with `F = e`
/// for some hyperedge `e`, FAQ-SS computes a *factor marginal* of the
/// graphical model whose factors are the input functions.
#[derive(Clone, Copy, PartialEq, Debug, Default, PartialOrd)]
pub struct Prob(pub f64);

impl Prob {
    /// Creates a probability value, panicking on negative or non-finite
    /// input (the carrier is ℝ≥0).
    pub fn new(v: f64) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "Prob requires finite v >= 0, got {v}"
        );
        Prob(v)
    }

    /// Returns the inner float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl From<f64> for Prob {
    fn from(v: f64) -> Self {
        Prob::new(v)
    }
}

impl Semiring for Prob {
    const NAME: &'static str = "probability";
    // ℝ≥0 cancellation is *approximate*: float rounding means
    // `(a + b) - b` need not be bit-identical to `a`, so delta-maintained
    // answers over `Prob` are exact only up to `approx_eq`. The result is
    // clamped at 0 to stay inside the carrier.
    const HAS_ADDITIVE_INVERSE: bool = true;

    #[inline]
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        Some(Prob((self.0 - other.0).max(0.0)))
    }

    #[inline]
    fn zero() -> Self {
        Prob(0.0)
    }

    #[inline]
    fn one() -> Self {
        Prob(1.0)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        Prob(self.0 + other.0)
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Prob(self.0 * other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0.0
    }

    fn approx_eq(&self, other: &Self) -> bool {
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= EPS * scale
    }

    // IEEE-754 bit pattern, little-endian: the round trip is exact.
    #[inline]
    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        Prob(f64::from_le_bytes(bytes.try_into().expect("8-byte value")))
    }

    fn admits(op: Aggregate) -> bool {
        match op {
            Aggregate::Sum | Aggregate::Product => true,
            // (ℝ≥0, max, ×) has identities 0 and 1 and a·max(b,c) = max(ab,ac)
            // for a ≥ 0: a legal alternative aggregate for bound variables.
            Aggregate::Max => true,
            // identity of min on ℝ≥0 would be +∞, outside the carrier.
            Aggregate::Min => false,
        }
    }

    #[inline]
    fn fold(&self, op: Aggregate, other: &Self) -> Self {
        match op {
            Aggregate::Sum => self.add(other),
            Aggregate::Product => self.mul(other),
            Aggregate::Max => Prob(self.0.max(other.0)),
            Aggregate::Min => Prob(self.0.min(other.0)),
        }
    }
}

/// The max-product (Viterbi) semiring `(ℝ≥0, max, ×)`.
///
/// Instantiating FAQ-SS with [`MaxProd`] computes maximum a-posteriori
/// (MAP) scores in a PGM — one of the classic non-sum examples listed in
/// the generalized-distributive-law literature the paper cites.
#[derive(Clone, Copy, PartialEq, Debug, Default, PartialOrd)]
pub struct MaxProd(pub f64);

impl MaxProd {
    /// Creates a value, panicking on negative or non-finite input.
    pub fn new(v: f64) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "MaxProd requires finite v >= 0, got {v}"
        );
        MaxProd(v)
    }

    /// Returns the inner float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

// Keeps the default `admits`: `max` is this carrier's `⊕` (ask for `Sum`),
// and `min` has no identity on ℝ≥0.
impl Semiring for MaxProd {
    const NAME: &'static str = "max-product";

    #[inline]
    fn zero() -> Self {
        MaxProd(0.0)
    }

    #[inline]
    fn one() -> Self {
        MaxProd(1.0)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        MaxProd(self.0.max(other.0))
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        MaxProd(self.0 * other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0.0
    }

    fn approx_eq(&self, other: &Self) -> bool {
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= EPS * scale
    }

    #[inline]
    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        MaxProd(f64::from_le_bytes(bytes.try_into().expect("8-byte value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_identities() {
        assert!(Prob::zero().is_zero());
        assert_eq!(Prob::one().get(), 1.0);
    }

    #[test]
    fn prob_arithmetic() {
        assert!(Prob(0.25).add(&Prob(0.5)).approx_eq(&Prob(0.75)));
        assert!(Prob(0.25).mul(&Prob(0.5)).approx_eq(&Prob(0.125)));
    }

    #[test]
    fn prob_checked_sub_clamps_at_zero() {
        assert!(Prob(0.75)
            .checked_sub(&Prob(0.5))
            .unwrap()
            .approx_eq(&Prob(0.25)));
        // Over-cancellation (float drift past zero) clamps to the carrier.
        assert_eq!(Prob(0.25).checked_sub(&Prob(0.5)), Some(Prob::zero()));
        const { assert!(Prob::HAS_ADDITIVE_INVERSE) };
        // Max-product has no additive inverse: max is idempotent.
        const { assert!(!MaxProd::HAS_ADDITIVE_INVERSE) };
        assert_eq!(MaxProd(0.5).checked_sub(&MaxProd(0.2)), None);
    }

    #[test]
    #[should_panic(expected = "Prob requires")]
    fn prob_rejects_negative() {
        let _ = Prob::new(-0.5);
    }

    #[test]
    fn maxprod_is_idempotent_additively() {
        let v = MaxProd(0.7);
        assert_eq!(v.add(&v), v);
        assert_eq!(v.add(&MaxProd(0.2)), v);
    }

    #[test]
    fn maxprod_mul() {
        assert!(MaxProd(0.5).mul(&MaxProd(0.5)).approx_eq(&MaxProd(0.25)));
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Prob(0.1 + 0.2);
        let b = Prob(0.3);
        assert!(a.approx_eq(&b));
        assert_ne!(a, b); // exact equality fails, approx passes
    }
}
