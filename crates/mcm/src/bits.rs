//! Bit-packed linear algebra over `F₂`.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// A vector in `F₂^N`, packed 64 bits per word.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    n: usize,
    words: Vec<u64>,
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.n {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl BitVec {
    /// The zero vector of dimension `n`.
    pub fn zero(n: usize) -> Self {
        BitVec {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A uniformly random vector (deterministic in the RNG).
    pub fn random(n: usize, rng: &mut StdRng) -> Self {
        let mut v = BitVec::zero(n);
        for w in &mut v.words {
            *w = rng.random();
        }
        v.mask_tail();
        v
    }

    /// Builds the `n`-bit vector encoding the integer `enc` (bit `i` of
    /// `enc` = coordinate `i`). Panics if `n > 64`.
    pub fn from_u64(n: usize, enc: u64) -> Self {
        assert!(n <= 64);
        let mut v = BitVec::zero(n);
        v.words[0] = if n == 64 { enc } else { enc & ((1 << n) - 1) };
        v
    }

    /// The integer encoding (inverse of [`BitVec::from_u64`]).
    pub fn to_u64(&self) -> u64 {
        assert!(self.n <= 64);
        self.words.first().copied().unwrap_or(0)
    }

    /// Dimension `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Coordinate `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.n);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets coordinate `i`.
    #[inline]
    pub fn set(&mut self, i: usize, b: bool) {
        debug_assert!(i < self.n);
        if b {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// In-place XOR (`self ⊕= other`).
    pub fn xor_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Inner product over `F₂`.
    pub fn dot(&self, other: &BitVec) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// The first `t` coordinates as a transcript prefix key.
    pub fn prefix_key(&self, t: usize) -> u64 {
        assert!(t <= 64 && t <= self.n);
        if t == 0 {
            return 0;
        }
        let mask = if t == 64 { u64::MAX } else { (1 << t) - 1 };
        self.words[0] & mask
    }

    fn mask_tail(&mut self) {
        let rem = self.n % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// A matrix in `F₂^{N×N}`, row-major bit-packed.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    rows: Vec<BitVec>,
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{}:", self.n, self.n)?;
        for r in &self.rows {
            writeln!(f, "  {r:?}")?;
        }
        Ok(())
    }
}

impl BitMatrix {
    /// The zero matrix.
    pub fn zero(n: usize) -> Self {
        BitMatrix {
            n,
            rows: vec![BitVec::zero(n); n],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n);
        for i in 0..n {
            m.rows[i].set(i, true);
        }
        m
    }

    /// A uniformly random matrix.
    pub fn random(n: usize, rng: &mut StdRng) -> Self {
        BitMatrix {
            n,
            rows: (0..n).map(|_| BitVec::random(n, rng)).collect(),
        }
    }

    /// A uniformly random *invertible* matrix (rejection sampling).
    pub fn random_invertible(n: usize, rng: &mut StdRng) -> Self {
        loop {
            let m = BitMatrix::random(n, rng);
            if m.rank() == n {
                return m;
            }
        }
    }

    /// Entry `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].get(col)
    }

    /// Sets entry `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, b: bool) {
        self.rows[row].set(col, b);
    }

    /// Row `i` as a bit vector.
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// Matrix–vector product `A·x` over `F₂`.
    pub fn mul_vec(&self, x: &BitVec) -> BitVec {
        debug_assert_eq!(self.n, x.len());
        let mut out = BitVec::zero(self.n);
        for (i, row) in self.rows.iter().enumerate() {
            out.set(i, row.dot(x));
        }
        out
    }

    /// Matrix product `self · other`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        debug_assert_eq!(self.n, other.n);
        let n = self.n;
        // Transpose other for row-dot-row products.
        let tr = other.transpose();
        let mut out = BitMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                out.rows[i].set(j, self.rows[i].dot(&tr.rows[j]));
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> BitMatrix {
        let n = self.n;
        let mut out = BitMatrix::zero(n);
        for i in 0..n {
            for j in 0..n {
                if self.get(i, j) {
                    out.set(j, i, true);
                }
            }
        }
        out
    }

    /// Rank over `F₂` (Gaussian elimination on a copy).
    pub fn rank(&self) -> usize {
        let mut rows: Vec<BitVec> = self.rows.clone();
        let mut rank = 0;
        for col in 0..self.n {
            let Some(pivot) = (rank..rows.len()).find(|&r| rows[r].get(col)) else {
                continue;
            };
            rows.swap(rank, pivot);
            let pivot_row = rows[rank].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != rank && row.get(col) {
                    row.xor_assign(&pivot_row);
                }
            }
            rank += 1;
        }
        rank
    }

    /// The number of bits a matrix transmission costs: `N²`.
    pub fn bits(&self) -> u64 {
        (self.n * self.n) as u64
    }
}

/// The chain product `A_k ⋯ A_1 · x` computed centrally (ground truth).
pub fn chain_product(matrices: &[BitMatrix], x: &BitVec) -> BitVec {
    let mut y = x.clone();
    for a in matrices {
        y = a.mul_vec(&y);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn identity_fixes_vectors() {
        let mut r = rng(1);
        let x = BitVec::random(65, &mut r);
        let id = BitMatrix::identity(65);
        assert_eq!(id.mul_vec(&x), x);
    }

    #[test]
    fn mat_vec_matches_manual() {
        // [[1,1],[0,1]] · [1,0] = [1,0]; · [0,1] = [1,1].
        let mut m = BitMatrix::zero(2);
        m.set(0, 0, true);
        m.set(0, 1, true);
        m.set(1, 1, true);
        assert_eq!(m.mul_vec(&BitVec::from_u64(2, 0b01)).to_u64(), 0b01);
        assert_eq!(m.mul_vec(&BitVec::from_u64(2, 0b10)).to_u64(), 0b11);
    }

    #[test]
    fn matrix_product_associates_with_mul_vec() {
        let mut r = rng(2);
        for n in [3usize, 8, 17, 64, 70] {
            let a = BitMatrix::random(n, &mut r);
            let b = BitMatrix::random(n, &mut r);
            let x = BitVec::random(n, &mut r);
            let ab = a.mul(&b);
            assert_eq!(ab.mul_vec(&x), a.mul_vec(&b.mul_vec(&x)), "n = {n}");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut r = rng(3);
        let a = BitMatrix::random(20, &mut r);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(BitMatrix::identity(10).rank(), 10);
        assert_eq!(BitMatrix::zero(10).rank(), 0);
    }

    #[test]
    fn random_invertible_has_full_rank() {
        let mut r = rng(4);
        let a = BitMatrix::random_invertible(12, &mut r);
        assert_eq!(a.rank(), 12);
    }

    #[test]
    fn chain_product_matches_iterated() {
        let mut r = rng(5);
        let ms: Vec<BitMatrix> = (0..4).map(|_| BitMatrix::random(9, &mut r)).collect();
        let x = BitVec::random(9, &mut r);
        let direct = chain_product(&ms, &x);
        let folded = ms
            .iter()
            .rev()
            .fold(BitMatrix::identity(9), |acc, m| acc.mul(m));
        // folded = A1ᵀ-order trap check: acc·m folds left-to-right over
        // reversed list, i.e. A4·A3·A2·A1.
        assert_eq!(folded.mul_vec(&x), direct);
    }

    #[test]
    fn prefix_key_truncates() {
        let v = BitVec::from_u64(8, 0b1011_0110);
        assert_eq!(v.prefix_key(4), 0b0110);
        assert_eq!(v.prefix_key(0), 0);
        assert_eq!(v.prefix_key(8), 0b1011_0110);
    }

    #[test]
    fn dot_product_parity() {
        let a = BitVec::from_u64(4, 0b1101);
        let b = BitVec::from_u64(4, 0b1011);
        // overlap = {0, 3} → even → false.
        assert!(!a.dot(&b));
        let c = BitVec::from_u64(4, 0b0001);
        assert!(a.dot(&c));
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true];
        let mut v = BitVec::zero(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            v.set(i, b);
        }
        assert_eq!(v.to_u64(), 0b1101);
        assert_eq!(v.len(), 4);
    }
}
