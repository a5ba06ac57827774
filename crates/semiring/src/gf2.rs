//! The two-element field `F₂`.

use crate::traits::{Ring, Semiring};

/// The field `F₂ = ({0,1}, ⊕ = XOR, ⊗ = AND)`.
///
/// This is the carrier of the chain matrix-vector multiplication problem
/// (Problem 1.1 / Section 6 of the paper): computing `A_k ⋯ A_1 x` over
/// `F₂` on a line topology. The bit-packed matrix types in `faqs-mcm`
/// operate on 64 of these at a time; this scalar type exists so the
/// generic FAQ machinery can also run over `F₂` and so tests can state
/// field laws directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Gf2(pub bool);

impl Gf2 {
    /// Returns the value as `0` or `1`.
    #[inline]
    pub fn bit(self) -> u64 {
        self.0 as u64
    }

    /// The multiplicative inverse; `None` for zero.
    #[inline]
    pub fn inverse(self) -> Option<Self> {
        self.0.then_some(Gf2(true))
    }
}

// Keeps the default `admits`: the field declares no order. On `{0,1}`,
// `max` would be `∨` — a query that wants it wants the `Boolean` carrier.
impl Semiring for Gf2 {
    const NAME: &'static str = "gf2";
    const IDEMPOTENT_MUL: bool = true;
    // Characteristic 2: subtraction is addition, always exact.
    const HAS_ADDITIVE_INVERSE: bool = true;

    #[inline]
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        Some(self.add(other))
    }

    #[inline]
    fn zero() -> Self {
        Gf2(false)
    }

    #[inline]
    fn one() -> Self {
        Gf2(true)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        Gf2(self.0 ^ other.0)
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Gf2(self.0 & other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        !self.0
    }

    #[inline]
    fn value_bits() -> u64 {
        1
    }

    // Listing representation stores only the non-zero field element, so
    // the wire carries presence alone and decode refills `one()`.
    const WIRE_VALUE_BYTES: usize = 0;
}

impl Ring for Gf2 {
    #[inline]
    fn neg(&self) -> Self {
        *self // characteristic 2: −x = x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_tables() {
        let z = Gf2::zero();
        let o = Gf2::one();
        assert_eq!(o.add(&o), z); // 1+1 = 0 mod 2
        assert_eq!(o.add(&z), o);
        assert_eq!(o.mul(&o), o);
        assert_eq!(o.mul(&z), z);
    }

    #[test]
    fn additive_inverse_is_self() {
        for v in [Gf2::zero(), Gf2::one()] {
            assert_eq!(v.add(&v.neg()), Gf2::zero());
            assert_eq!(v.sub(&v), Gf2::zero());
        }
    }

    #[test]
    fn checked_sub_is_xor() {
        assert_eq!(Gf2::one().checked_sub(&Gf2::one()), Some(Gf2::zero()));
        assert_eq!(Gf2::zero().checked_sub(&Gf2::one()), Some(Gf2::one()));
        const { assert!(Gf2::HAS_ADDITIVE_INVERSE) };
    }

    #[test]
    fn inverses() {
        assert_eq!(Gf2::one().inverse(), Some(Gf2::one()));
        assert_eq!(Gf2::zero().inverse(), None);
    }

    #[test]
    fn bit_roundtrip() {
        assert_eq!(Gf2(3 & 1 == 1).bit(), 1);
        assert_eq!(Gf2(2 & 1 == 1).bit(), 0);
    }
}
