//! The core algebraic traits.

use crate::aggregate::Aggregate;
use std::fmt::Debug;

/// A commutative semiring `(D, ⊕, ⊗)` in the sense of the paper's
/// footnote 2:
///
/// 1. `(D, ⊕)` is a commutative monoid with identity [`Semiring::zero`];
/// 2. `(D, ⊗)` is a commutative monoid with identity [`Semiring::one`];
/// 3. `⊗` distributes over `⊕`;
/// 4. `0 ⊗ d = d ⊗ 0 = 0` for every `d ∈ D` (zero is absorbing).
///
/// Values are stored inside relations in *listing representation*: only
/// entries whose value is not [`Semiring::zero`] are materialised, exactly
/// as the paper assumes for the input functions `f_e`.
///
/// Implementations must satisfy the semiring laws; the crate's property
/// tests check them on every provided instance.
pub trait Semiring: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// A short human-readable name, used by the benchmark harness when
    /// printing per-semiring experiment rows.
    const NAME: &'static str;

    /// Whether `⊗` is idempotent (`d ⊗ d = d`). Idempotence makes the
    /// *product aggregate* of general FAQs commute with semiring
    /// aggregates across factorised subexpressions (the multiplicity
    /// blow-up `f^m` collapses to `f`), which is what the engine's
    /// push-down rewriting needs; see `faqs-core` for the discussion.
    const IDEMPOTENT_MUL: bool = false;

    /// Whether [`Semiring::checked_sub`] can cancel `⊕`-contributions —
    /// the capability gate for *delta-maintained* FAQ answers: when it
    /// holds, a factor mutation propagates up the GHD as a pair of
    /// small signed delta relations instead of a subtree recompute.
    ///
    /// This is deliberately weaker than [`Ring`]: `Count` has no
    /// additive inverses on ℕ, yet `a ⊕ b ⊖ b = a` holds whenever the
    /// subtraction stays in the carrier, which is all delta maintenance
    /// needs (a failed cancellation falls back to recompute).
    const HAS_ADDITIVE_INVERSE: bool = false;

    /// Partial cancellation `self ⊖ other`: a value `d` with
    /// `d ⊕ other = self` when the carrier can represent one, `None`
    /// otherwise (the caller must then recompute from scratch). The
    /// default refuses always — only semirings declaring
    /// [`Semiring::HAS_ADDITIVE_INVERSE`] override it.
    #[must_use]
    fn checked_sub(&self, other: &Self) -> Option<Self> {
        let _ = other;
        None
    }

    /// Whether `op` is a legal aggregate for a bound variable of a
    /// general FAQ over this carrier (Section 5): `⊕` and `⊗` always
    /// are; `max` / `min` only when `(D, max, ⊗)` / `(D, min, ⊗)` is a
    /// commutative semiring sharing `0`/`1` with `(D, ⊕, ⊗)`. The
    /// default admits `Sum` and `Product` only — ordered carriers whose
    /// `max` qualifies override it together with [`Semiring::fold`].
    fn admits(op: Aggregate) -> bool {
        matches!(op, Aggregate::Sum | Aggregate::Product)
    }

    /// Folds `other` into `self` under `op` — the one step every
    /// aggregation kernel takes per collapsed tuple.
    ///
    /// # Panics
    ///
    /// The default panics on `Max`/`Min`: every engine door asks
    /// [`Semiring::admits`] (through [`Aggregate::validate`]) before a
    /// query reaches a kernel, so a refused aggregate arriving here is a
    /// bug in the caller. Ordered carriers may stay mechanically total
    /// (answer `min` although they do not admit it) so relation-level
    /// tests can race all four operators.
    #[must_use]
    fn fold(&self, op: Aggregate, other: &Self) -> Self {
        match op {
            Aggregate::Sum => self.add(other),
            Aggregate::Product => self.mul(other),
            Aggregate::Max | Aggregate::Min => {
                panic!("{op:?} is not an aggregate of the {} semiring", Self::NAME)
            }
        }
    }

    /// The additive identity `0` (also the absorbing element of `⊗`).
    fn zero() -> Self;

    /// The multiplicative identity `1`.
    fn one() -> Self;

    /// The semiring addition `⊕`.
    #[must_use]
    fn add(&self, other: &Self) -> Self;

    /// The semiring multiplication `⊗`.
    #[must_use]
    fn mul(&self, other: &Self) -> Self;

    /// Whether this value equals the additive identity.
    ///
    /// Relations drop zero-valued entries eagerly, mirroring the listing
    /// representation `R_e = {(y, f_e(y)) : f_e(y) ≠ 0}`.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// In-place `⊕`-accumulation; override when cheaper than `add`.
    fn add_assign(&mut self, other: &Self) {
        *self = self.add(other);
    }

    /// In-place `⊗`-accumulation; override when cheaper than `mul`.
    fn mul_assign(&mut self, other: &Self) {
        *self = self.mul(other);
    }

    /// `⊕`-sum of an iterator of values (`0` on empty input).
    fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        let mut acc = Self::zero();
        for v in iter {
            acc.add_assign(&v);
        }
        acc
    }

    /// `⊗`-product of an iterator of values (`1` on empty input).
    fn product<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        let mut acc = Self::one();
        for v in iter {
            acc.mul_assign(&v);
        }
        acc
    }

    /// The number of bits needed to communicate one value of this semiring
    /// in the distributed model (Model 2.1 charges `O(r·log₂ D)` bits per
    /// tuple; the value annotation contributes these extra bits for
    /// non-Boolean semirings).
    fn value_bits() -> u64 {
        64
    }

    /// Approximate equality, used by tests on inexact carriers such as
    /// [`crate::Prob`]. Exact by default.
    fn approx_eq(&self, other: &Self) -> bool {
        self == other
    }

    /// Exact byte width of one annotation value in the columnar wire
    /// codec's fixed-width value section (`faqs-relation`'s shard
    /// frames). `0` means the value is implied by presence — listing
    /// representation stores only non-zero entries, so zero-width
    /// carriers (Boolean, GF(2)) decode every row to [`Semiring::one`].
    ///
    /// This is the *wire* width, distinct from [`Semiring::value_bits`]:
    /// the latter prices Model 2.1 communication, the former is the
    /// exact number of bytes a real transport moves.
    const WIRE_VALUE_BYTES: usize = 8;

    /// Appends exactly [`Semiring::WIRE_VALUE_BYTES`] bytes encoding
    /// this value to `out`. Never called when the width is `0`.
    ///
    /// The default panics: semirings shipped across a real transport
    /// must override it (all in-workspace carriers do).
    fn write_wire(&self, out: &mut Vec<u8>) {
        let _ = out;
        unimplemented!("semiring {} has no wire codec", Self::NAME)
    }

    /// Decodes one value from exactly [`Semiring::WIRE_VALUE_BYTES`]
    /// bytes. Inverse of [`Semiring::write_wire`]; never called when
    /// the width is `0`.
    fn read_wire(bytes: &[u8]) -> Self {
        let _ = bytes;
        unimplemented!("semiring {} has no wire codec", Self::NAME)
    }
}

/// A commutative ring: a semiring with additive inverses.
///
/// Used by the matrix-chain-multiplication substrate (Section 6), which
/// works over the two-element field `F₂`.
pub trait Ring: Semiring {
    /// The additive inverse `-self`.
    #[must_use]
    fn neg(&self) -> Self;

    /// Subtraction `self ⊕ (-other)`.
    #[must_use]
    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }
}
