//! Property tests: every exported instance satisfies the commutative
//! semiring laws of footnote 2 of the paper.

use crate::*;
use proptest::prelude::*;

/// Checks all semiring laws on a triple of values.
fn check_laws<S: Semiring>(a: S, b: S, c: S) {
    // (D, ⊕) commutative monoid with identity 0.
    assert!(a.add(&b).approx_eq(&b.add(&a)), "⊕ commutes");
    assert!(
        a.add(&b).add(&c).approx_eq(&a.add(&b.add(&c))),
        "⊕ associates"
    );
    assert!(a.add(&S::zero()).approx_eq(&a), "0 is ⊕-identity");

    // (D, ⊗) commutative monoid with identity 1.
    assert!(a.mul(&b).approx_eq(&b.mul(&a)), "⊗ commutes");
    assert!(
        a.mul(&b).mul(&c).approx_eq(&a.mul(&b.mul(&c))),
        "⊗ associates"
    );
    assert!(a.mul(&S::one()).approx_eq(&a), "1 is ⊗-identity");

    // ⊗ distributes over ⊕.
    assert!(
        a.mul(&b.add(&c)).approx_eq(&a.mul(&b).add(&a.mul(&c))),
        "⊗ distributes over ⊕"
    );

    // 0 is absorbing.
    assert!(a.mul(&S::zero()).is_zero(), "0 absorbs under ⊗");
}

proptest! {
    #[test]
    fn boolean_laws(a: bool, b: bool, c: bool) {
        check_laws(Boolean(a), Boolean(b), Boolean(c));
    }

    #[test]
    fn counting_laws(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        check_laws(Count(a), Count(b), Count(c));
    }

    #[test]
    fn prob_laws(a in 0.0f64..1e6, b in 0.0f64..1e6, c in 0.0f64..1e6) {
        check_laws(Prob(a), Prob(b), Prob(c));
    }

    #[test]
    fn maxprod_laws(a in 0.0f64..1e6, b in 0.0f64..1e6, c in 0.0f64..1e6) {
        check_laws(MaxProd(a), MaxProd(b), MaxProd(c));
    }

    #[test]
    fn minplus_laws(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
        check_laws(MinPlus(a), MinPlus(b), MinPlus(c));
    }

    #[test]
    fn maxplus_laws(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
        check_laws(MaxPlus(a), MaxPlus(b), MaxPlus(c));
    }

    #[test]
    fn gf2_laws(a: bool, b: bool, c: bool) {
        check_laws(Gf2(a), Gf2(b), Gf2(c));
    }

    #[test]
    fn gf2_field_laws(a: bool, b: bool) {
        let (a, b) = (Gf2(a), Gf2(b));
        // additive inverse
        prop_assert_eq!(a.add(&a.neg()), Gf2::zero());
        // multiplicative inverse for non-zero
        if !a.is_zero() {
            prop_assert_eq!(a.mul(&a.inverse().unwrap()), Gf2::one());
        }
        // subtraction consistency
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn max_aggregate_distributes_on_prob(a in 0.0f64..1e3, b in 0.0f64..1e3, c in 0.0f64..1e3) {
        // a ⊗ max(b,c) == max(a⊗b, a⊗c): the condition that makes Max a
        // legal semiring aggregate on ℝ≥0 (Section 5's requirement).
        let (a, b, c) = (Prob(a), Prob(b), Prob(c));
        let lhs = a.mul(&b.fold(Aggregate::Max, &c));
        let rhs = a.mul(&b).fold(Aggregate::Max, &a.mul(&c));
        prop_assert!(lhs.approx_eq(&rhs));
    }

    #[test]
    fn max_aggregate_distributes_on_count(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        let (a, b, c) = (Count(a), Count(b), Count(c));
        let lhs = a.mul(&b.fold(Aggregate::Max, &c));
        let rhs = a.mul(&b).fold(Aggregate::Max, &a.mul(&c));
        prop_assert_eq!(lhs, rhs);
    }
}
