//! The counting semiring `(ℕ, +, ×)`.

use crate::aggregate::Aggregate;
use crate::traits::Semiring;

/// The counting semiring `(ℕ, +, ×)` over `u64` with wrapping-checked
/// arithmetic (saturating, since FAQ counts can legitimately overflow on
/// adversarial inputs and the round-complexity experiments only need
/// correct *relative* results).
///
/// Instantiating FAQ-SS with [`Count`] and `F = ∅` computes the number of
/// join results (`#CQ`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Count(pub u64);

impl Count {
    /// Returns the inner counter.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for Count {
    fn from(v: u64) -> Self {
        Count(v)
    }
}

impl Semiring for Count {
    const NAME: &'static str = "counting";
    // ℕ is not a group, but cancellation `a + b - b = a` is exact whenever
    // no intermediate sum or product saturated. Both saturate upwards, so
    // a value below `u64::MAX` is exact while `u64::MAX` may stand for any
    // larger count: `checked_sub` refuses to cancel from it, as it refuses
    // to go negative, and delta maintenance falls back to recompute
    // instead of producing a wrong or wrapped count.
    const HAS_ADDITIVE_INVERSE: bool = true;

    #[inline]
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self.0 == u64::MAX {
            return None;
        }
        self.0.checked_sub(other.0).map(Count)
    }

    #[inline]
    fn zero() -> Self {
        Count(0)
    }

    #[inline]
    fn one() -> Self {
        Count(1)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        Count(self.0.saturating_add(other.0))
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Count(self.0.saturating_mul(other.0))
    }

    #[inline]
    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    const WIRE_VALUE_BYTES: usize = 8;

    #[inline]
    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_wire(bytes: &[u8]) -> Self {
        Count(u64::from_le_bytes(bytes.try_into().expect("8-byte value")))
    }

    fn admits(op: Aggregate) -> bool {
        match op {
            Aggregate::Sum | Aggregate::Product => true,
            // (ℕ, max, ×): identity of max is 0, a·max(b,c) = max(ab,ac). ✓
            Aggregate::Max => true,
            // min has no identity on ℕ (would need +∞).
            Aggregate::Min => false,
        }
    }

    #[inline]
    fn fold(&self, op: Aggregate, other: &Self) -> Self {
        match op {
            Aggregate::Sum => self.add(other),
            Aggregate::Product => self.mul(other),
            Aggregate::Max => Count(self.0.max(other.0)),
            Aggregate::Min => Count(self.0.min(other.0)),
        }
    }
}

// `Count` deliberately does not implement `Ring`: ℕ has no additive
// inverses. `Gf2` is the ring/field used by the matrix-chain substrate.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(Count::zero().get(), 0);
        assert_eq!(Count::one().get(), 1);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Count(3).add(&Count(4)), Count(7));
        assert_eq!(Count(3).mul(&Count(4)), Count(12));
        assert_eq!(Count(3).mul(&Count::zero()), Count(0));
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let big = Count(u64::MAX);
        assert_eq!(big.add(&Count(1)), big);
        assert_eq!(big.mul(&Count(2)), big);
    }

    #[test]
    fn checked_sub_cancels_or_refuses() {
        assert_eq!(Count(7).checked_sub(&Count(4)), Some(Count(3)));
        assert_eq!(Count(4).checked_sub(&Count(4)), Some(Count::zero()));
        assert_eq!(Count(3).checked_sub(&Count(4)), None);
        // A saturated count is a lower bound, not a value: nothing
        // cancels from it, not even itself.
        assert_eq!(Count(u64::MAX).checked_sub(&Count(1)), None);
        assert_eq!(Count(u64::MAX).checked_sub(&Count(u64::MAX)), None);
        assert_eq!(
            Count(u64::MAX - 1).checked_sub(&Count(1)),
            Some(Count(u64::MAX - 2))
        );
        const { assert!(Count::HAS_ADDITIVE_INVERSE) };
    }

    #[test]
    fn lattice_ops() {
        assert_eq!(Count(3).fold(Aggregate::Max, &Count(4)), Count(4));
        assert_eq!(Count(3).fold(Aggregate::Min, &Count(4)), Count(3));
        assert!(Count::admits(Aggregate::Max));
        assert!(!Count::admits(Aggregate::Min));
    }
}
