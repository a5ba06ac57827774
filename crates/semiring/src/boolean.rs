//! The Boolean semiring `({0,1}, ∨, ∧)`.

use crate::aggregate::Aggregate;
use crate::traits::Semiring;

/// The Boolean semiring `({0,1}, ∨, ∧)`.
///
/// With an empty set of free variables this is exactly the **Boolean
/// Conjunctive Query** (BCQ) instantiation of FAQ-SS from Section 1 of the
/// paper; with all variables free it is the natural join.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Boolean(pub bool);

impl Boolean {
    /// The truthy value `1`.
    pub const TRUE: Boolean = Boolean(true);
    /// The falsy value `0`.
    pub const FALSE: Boolean = Boolean(false);

    /// Returns the inner `bool`.
    #[inline]
    pub fn get(self) -> bool {
        self.0
    }
}

impl From<bool> for Boolean {
    fn from(b: bool) -> Self {
        Boolean(b)
    }
}

impl Semiring for Boolean {
    const NAME: &'static str = "boolean";
    const IDEMPOTENT_MUL: bool = true;

    #[inline]
    fn zero() -> Self {
        Boolean(false)
    }

    #[inline]
    fn one() -> Self {
        Boolean(true)
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        Boolean(self.0 || other.0)
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Boolean(self.0 && other.0)
    }

    #[inline]
    fn is_zero(&self) -> bool {
        !self.0
    }

    #[inline]
    fn value_bits() -> u64 {
        // A Boolean annotation carries no information beyond tuple
        // presence (the listing representation stores only `1` values).
        0
    }

    // Presence-only on the wire too: every stored annotation is `true`.
    const WIRE_VALUE_BYTES: usize = 0;

    fn admits(op: Aggregate) -> bool {
        match op {
            Aggregate::Sum | Aggregate::Product => true,
            Aggregate::Max => true, // max == ∨ == ⊕
            // (D, ∧, ∧) does not have distinct identities 0/1; `min` is the
            // product aggregate here, not an alternative semiring aggregate.
            Aggregate::Min => false,
        }
    }

    #[inline]
    fn fold(&self, op: Aggregate, other: &Self) -> Self {
        match op {
            Aggregate::Sum | Aggregate::Max => Boolean(self.0 || other.0),
            Aggregate::Product | Aggregate::Min => Boolean(self.0 && other.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(Boolean::zero(), Boolean::FALSE);
        assert_eq!(Boolean::one(), Boolean::TRUE);
        assert!(Boolean::zero().is_zero());
        assert!(!Boolean::one().is_zero());
    }

    #[test]
    fn truth_table() {
        let t = Boolean::TRUE;
        let f = Boolean::FALSE;
        assert_eq!(t.add(&f), t);
        assert_eq!(f.add(&f), f);
        assert_eq!(t.mul(&f), f);
        assert_eq!(t.mul(&t), t);
    }

    #[test]
    fn sum_and_product_fold() {
        let vals = vec![Boolean::FALSE, Boolean::TRUE, Boolean::FALSE];
        assert_eq!(Boolean::sum(vals.clone()), Boolean::TRUE);
        assert_eq!(Boolean::product(vals), Boolean::FALSE);
        assert_eq!(Boolean::sum(std::iter::empty()), Boolean::FALSE);
        assert_eq!(Boolean::product(std::iter::empty()), Boolean::TRUE);
    }

    #[test]
    fn zero_value_bits() {
        assert_eq!(Boolean::value_bits(), 0);
    }
}
