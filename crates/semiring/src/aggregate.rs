//! Per-variable aggregate operators for *general* FAQ queries.
//!
//! Equation (4) of the paper allows every bound variable `i > ℓ` its own
//! binary operator `⊕⁽ⁱ⁾`, which must either equal the product `⊗` or form
//! a commutative semiring `(D, ⊕⁽ⁱ⁾, ⊗)` sharing identities `0`/`1` with
//! the base semiring. [`Aggregate`] describes that choice.

use crate::traits::Semiring;

/// The aggregate operator attached to a bound variable of a general FAQ.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Aggregate {
    /// The base semiring's `⊕` (the FAQ-SS case when used everywhere).
    #[default]
    Sum,
    /// The product aggregate `⊕⁽ⁱ⁾ = ⊗`.
    Product,
    /// Binary maximum — legal when `(D, max, ⊗)` shares identities with
    /// the base semiring ([`Semiring::admits`]).
    Max,
    /// Binary minimum — legal when `(D, min, ⊗)` shares identities.
    Min,
}

/// Error returned when an aggregate is not a legal semiring aggregate for
/// the chosen carrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateError {
    /// The offending aggregate.
    pub aggregate: Aggregate,
    /// The semiring's `NAME`.
    pub semiring: &'static str,
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "aggregate {:?} does not form a commutative semiring with shared identities over {}",
            self.aggregate, self.semiring
        )
    }
}

impl std::error::Error for AggregateError {}

impl Aggregate {
    /// Validates the aggregate against the carrier per the paper's
    /// requirement that each `⊕⁽ⁱ⁾ ≠ ⊗` form a semiring with shared
    /// identities — the carrier's own declaration, [`Semiring::admits`],
    /// as a typed error.
    pub fn validate<S: Semiring>(self) -> Result<(), AggregateError> {
        if S::admits(self) {
            Ok(())
        } else {
            Err(AggregateError {
                aggregate: self,
                semiring: S::NAME,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Boolean, Count, Gf2, MaxPlus, MaxProd, MinPlus, Prob};

    #[test]
    fn apply_dispatches() {
        let a = Count(3);
        let b = Count(5);
        assert_eq!(a.fold(Aggregate::Sum, &b), Count(8));
        assert_eq!(a.fold(Aggregate::Product, &b), Count(15));
        assert_eq!(a.fold(Aggregate::Max, &b), Count(5));
        assert_eq!(a.fold(Aggregate::Min, &b), Count(3));
    }

    #[test]
    fn validate_respects_carrier() {
        assert!(Aggregate::Max.validate::<Prob>().is_ok());
        assert!(Aggregate::Min.validate::<Prob>().is_err());
        assert!(Aggregate::Max.validate::<Boolean>().is_ok());
        assert!(Aggregate::Sum.validate::<Count>().is_ok());
    }

    #[test]
    fn carriers_without_an_order_refuse_max_and_min() {
        let err = Aggregate::Max.validate::<MinPlus>().unwrap_err();
        assert_eq!(err.aggregate, Aggregate::Max);
        assert!(err.to_string().contains("min-plus"));
        for op in [Aggregate::Max, Aggregate::Min] {
            assert!(op.validate::<Gf2>().is_err());
            assert!(op.validate::<MaxProd>().is_err());
            assert!(op.validate::<MinPlus>().is_err());
            assert!(op.validate::<MaxPlus>().is_err());
        }
        // No carrier's `0` is the identity of `min`.
        assert!(Aggregate::Min.validate::<Boolean>().is_err());
        assert!(Aggregate::Min.validate::<Count>().is_err());
    }

    #[test]
    #[should_panic(expected = "not an aggregate of the min-plus semiring")]
    fn folding_a_refused_aggregate_is_a_bug_in_the_caller() {
        let _ = MinPlus::new(1.0).fold(Aggregate::Max, &MinPlus::new(2.0));
    }

    #[test]
    fn default_is_sum() {
        assert_eq!(Aggregate::default(), Aggregate::Sum);
    }
}
