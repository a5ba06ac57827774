//! Tropical semirings: min-plus and max-plus.

use crate::traits::Semiring;

/// The min-plus (tropical) semiring `(ℝ ∪ {+∞}, min, +)`.
///
/// FAQ-SS over [`MinPlus`] computes shortest-path style objectives
/// (minimum total cost over all joint assignments), another member of the
/// generalized-distributive-law family the paper situates itself in.
#[derive(Clone, Copy, PartialEq, Debug, PartialOrd)]
pub struct MinPlus(pub f64);

impl MinPlus {
    /// The additive identity `+∞`.
    pub const INFINITY: MinPlus = MinPlus(f64::INFINITY);

    /// Creates a finite cost value.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "MinPlus rejects NaN");
        MinPlus(v)
    }

    /// Returns the inner float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for MinPlus {
    fn default() -> Self {
        Self::INFINITY
    }
}

// Keeps the default `admits`: `min` is this carrier's `⊕` (ask for `Sum`),
// and the identity of `max` would be −∞, not its `0 = +∞`.
impl Semiring for MinPlus {
    const NAME: &'static str = "min-plus";

    #[inline]
    fn zero() -> Self {
        MinPlus(f64::INFINITY)
    }

    #[inline]
    fn one() -> Self {
        MinPlus(0.0)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        MinPlus(self.0.min(other.0))
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        MinPlus(self.0 + other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == f64::INFINITY
    }

    fn approx_eq(&self, other: &Self) -> bool {
        if self.0 == other.0 {
            return true; // covers the two infinities
        }
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= 1e-9 * scale
    }

    // IEEE-754 bit pattern, little-endian: the round trip is exact.
    #[inline]
    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        MinPlus(f64::from_le_bytes(bytes.try_into().expect("8-byte value")))
    }
}

/// The max-plus semiring `(ℝ ∪ {−∞}, max, +)`.
///
/// The log-domain twin of the Viterbi semiring: FAQ-SS over [`MaxPlus`]
/// computes maximum log-likelihood assignments.
#[derive(Clone, Copy, PartialEq, Debug, PartialOrd)]
pub struct MaxPlus(pub f64);

impl MaxPlus {
    /// The additive identity `−∞`.
    pub const NEG_INFINITY: MaxPlus = MaxPlus(f64::NEG_INFINITY);

    /// Creates a finite score value.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "MaxPlus rejects NaN");
        MaxPlus(v)
    }

    /// Returns the inner float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for MaxPlus {
    fn default() -> Self {
        Self::NEG_INFINITY
    }
}

// Keeps the default `admits`: `max` is this carrier's `⊕` (ask for `Sum`),
// and the identity of `min` would be +∞, not its `0 = −∞`.
impl Semiring for MaxPlus {
    const NAME: &'static str = "max-plus";

    #[inline]
    fn zero() -> Self {
        MaxPlus(f64::NEG_INFINITY)
    }

    #[inline]
    fn one() -> Self {
        MaxPlus(0.0)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        MaxPlus(self.0.max(other.0))
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        MaxPlus(self.0 + other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == f64::NEG_INFINITY
    }

    fn approx_eq(&self, other: &Self) -> bool {
        if self.0 == other.0 {
            return true;
        }
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= 1e-9 * scale
    }

    #[inline]
    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        MaxPlus(f64::from_le_bytes(bytes.try_into().expect("8-byte value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minplus_identities() {
        assert!(MinPlus::zero().is_zero());
        assert_eq!(MinPlus::one().get(), 0.0);
        // 0 is absorbing: min-plus "multiplication" with +∞ yields +∞.
        assert!(MinPlus(3.0).mul(&MinPlus::zero()).is_zero());
    }

    #[test]
    fn minplus_behaviour() {
        assert_eq!(MinPlus(3.0).add(&MinPlus(5.0)), MinPlus(3.0));
        assert_eq!(MinPlus(3.0).mul(&MinPlus(5.0)), MinPlus(8.0));
    }

    #[test]
    fn maxplus_identities() {
        assert!(MaxPlus::zero().is_zero());
        assert_eq!(MaxPlus::one().get(), 0.0);
        assert!(MaxPlus(3.0).mul(&MaxPlus::zero()).is_zero());
    }

    #[test]
    fn maxplus_behaviour() {
        assert_eq!(MaxPlus(3.0).add(&MaxPlus(5.0)), MaxPlus(5.0));
        assert_eq!(MaxPlus(3.0).mul(&MaxPlus(5.0)), MaxPlus(8.0));
    }

    #[test]
    #[should_panic(expected = "rejects NaN")]
    fn minplus_rejects_nan() {
        let _ = MinPlus::new(f64::NAN);
    }
}
