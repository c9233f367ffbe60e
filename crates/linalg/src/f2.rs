//! Linear algebra over the two-element field F2, backed by `u64` bitsets.
//!
//! The CH-form stabilizer state stores three n x n binary matrices (F, G, M)
//! and several length-n binary vectors; every update rule is a row XOR, a
//! column XOR, or a parity of an AND of rows. Packing rows into `u64` words
//! makes each of those O(n/64) — this is what gives the O(n^2)-per-amplitude
//! cost quoted in the paper (Sec. 4.1.2).

use std::fmt;

/// Fixed-length bit vector over F2.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Creates a vector from an iterator of bools (length = iterator length).
    pub fn from_bools(bits: impl IntoIterator<Item = bool>) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Creates a vector of `len` bits from the low bits of `value`
    /// (bit `i` of the vector = bit `i` of `value`).
    pub fn from_u64(len: usize, value: u64) -> Self {
        assert!(len <= 64 || value >> len.min(63) == 0);
        let mut v = BitVec::zeros(len);
        if !v.words.is_empty() {
            v.words[0] = if len >= 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// XORs `other` into `self`.
    #[inline]
    pub fn xor_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Entry-wise AND, returning a new vector.
    pub fn and(&self, other: &BitVec) -> BitVec {
        debug_assert_eq!(self.len, other.len);
        BitVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Entry-wise XOR, returning a new vector.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Entry-wise NOT (within `len` bits), returning a new vector.
    pub fn not(&self) -> BitVec {
        let mut out = BitVec {
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Parity (mod-2 sum) of all bits.
    #[inline]
    pub fn parity(&self) -> bool {
        self.words.iter().fold(0u64, |acc, w| acc ^ w).count_ones() & 1 == 1
    }

    /// F2 inner product: parity of `self AND other`.
    #[inline]
    pub fn dot(&self, other: &BitVec) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u64, |acc, (a, b)| acc ^ (a & b))
            .count_ones()
            & 1
            == 1
    }

    /// True when every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Index of the first set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        self.iter_ones().next()
    }

    /// Clears stray bits beyond `len` in the last word.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The packed bits as little-endian `u64` words: bit `i` is bit
    /// `i % 64` of word `i / 64`, and bits past `len` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Lowest 64 bits as a `u64` (vector must be at most 64 bits).
    pub fn as_u64(&self) -> u64 {
        assert!(self.len <= 64, "as_u64 on vector longer than 64 bits");
        self.words.first().copied().unwrap_or(0)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", self.get(i) as u8)?;
        }
        Ok(())
    }
}

/// Square binary matrix with bit-packed rows.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    rows: Vec<BitVec>,
}

impl BitMatrix {
    /// The n x n zero matrix.
    pub fn zeros(n: usize) -> Self {
        BitMatrix {
            n,
            rows: (0..n).map(|_| BitVec::zeros(n)).collect(),
        }
    }

    /// The n x n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n);
        for i in 0..n {
            m.rows[i].set(i, true);
        }
        m
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].get(j)
    }

    /// Writes entry (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
    }

    /// Borrows row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// Replaces row `i`.
    pub fn set_row(&mut self, i: usize, row: BitVec) {
        assert_eq!(row.len(), self.n);
        self.rows[i] = row;
    }

    /// Row operation: `row[dst] ^= row[src]`.
    pub fn xor_row(&mut self, dst: usize, src: usize) {
        if dst == src {
            // XORing a row into itself zeroes it; callers never want that
            // implicitly, so make the intent explicit at the call site.
            panic!("xor_row with dst == src");
        }
        let (a, b) = if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        a.xor_assign(b);
    }

    /// XORs an arbitrary vector into row `dst`.
    pub fn xor_into_row(&mut self, dst: usize, v: &BitVec) {
        self.rows[dst].xor_assign(v);
    }

    /// Column operation: `col[dst] ^= col[src]`.
    pub fn xor_col(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "xor_col with dst == src");
        for row in &mut self.rows {
            if row.get(src) {
                row.flip(dst);
            }
        }
    }

    /// Extracts column `j` as a vector.
    pub fn col(&self, j: usize) -> BitVec {
        BitVec::from_bools((0..self.n).map(|i| self.get(i, j)))
    }

    /// Row-vector x matrix product over F2: `(x^T M)_j = parity_i x_i M_ij`,
    /// computed as the XOR of the rows selected by `x`.
    pub fn vecmat(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.n);
        let mut out = BitVec::zeros(self.n);
        for i in x.iter_ones() {
            out.xor_assign(&self.rows[i]);
        }
        out
    }

    /// Matrix x column-vector product over F2: `(M x)_i = parity_j M_ij x_j`.
    pub fn matvec(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.n);
        BitVec::from_bools((0..self.n).map(|i| self.rows[i].dot(x)))
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.n);
        for i in 0..self.n {
            for j in self.rows[i].iter_ones() {
                t.set(j, i, true);
            }
        }
        t
    }

    /// Matrix product over F2.
    pub fn matmul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.n, other.n);
        let mut out = BitMatrix::zeros(self.n);
        for i in 0..self.n {
            out.rows[i] = other.vecmat(&self.rows[i]);
        }
        out
    }

    /// True when `self * other == I` over F2.
    pub fn is_inverse_of(&self, other: &BitMatrix) -> bool {
        self.matmul(other) == BitMatrix::identity(self.n)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.n, self.n)?;
        for r in &self.rows {
            writeln!(f, "  {:?}", r)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(63));
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn parity_counts_ones_mod_two() {
        let a = BitVec::from_bools([true, true, false, true]);
        assert!(a.parity()); // 3 ones
        let b = BitVec::from_bools([true, false, false, true]);
        assert!(!b.parity()); // 2 ones
        assert!(!BitVec::zeros(77).parity());
    }

    #[test]
    fn dot_is_parity_of_and() {
        let a = BitVec::from_bools([true, true, false, true]);
        let b = BitVec::from_bools([true, false, true, true]);
        // overlap at indices 0 and 3 -> even -> false
        assert!(!a.dot(&b));
        let c = BitVec::from_bools([true, false, false, false]);
        assert!(a.dot(&c));
    }

    #[test]
    fn iter_ones_crosses_word_boundary() {
        let mut v = BitVec::zeros(100);
        for i in [3usize, 63, 64, 99] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 63, 64, 99]);
        assert_eq!(v.first_one(), Some(3));
    }

    #[test]
    fn not_masks_tail_bits() {
        let v = BitVec::zeros(70);
        let n = v.not();
        assert_eq!(n.count_ones(), 70);
        assert!(n.parity() == (70 % 2 == 1));
    }

    #[test]
    fn from_u64_round_trip() {
        let v = BitVec::from_u64(10, 0b1011001110);
        assert_eq!(v.as_u64(), 0b1011001110);
        assert!(v.get(1) && v.get(2) && !v.get(0));
    }

    #[test]
    fn identity_matrix_behaviour() {
        let id = BitMatrix::identity(5);
        let x = BitVec::from_bools([true, false, true, true, false]);
        assert_eq!(id.vecmat(&x), x);
        assert_eq!(id.matvec(&x), x);
        assert!(id.is_inverse_of(&id));
    }

    #[test]
    fn row_and_col_xor() {
        let mut m = BitMatrix::identity(3);
        m.xor_row(0, 1); // row0 = e0 + e1
        assert!(m.get(0, 0) && m.get(0, 1) && !m.get(0, 2));
        m.xor_col(2, 0); // col2 ^= col0: rows with col0 set flip col2
        assert!(m.get(0, 2)); // row 0 had col0 set
        assert!(!m.get(1, 2));
        assert!(m.get(2, 2)); // unchanged (row2 col0 = 0)
    }

    #[test]
    fn vecmat_is_row_xor() {
        let mut m = BitMatrix::zeros(4);
        m.set_row(1, BitVec::from_bools([true, true, false, false]));
        m.set_row(3, BitVec::from_bools([false, true, true, false]));
        let x = BitVec::from_bools([false, true, false, true]);
        let y = m.vecmat(&x);
        // rows 1 XOR 3 = 1,0,1,0 ^ ... wait: row1=1100, row3=0110 -> 1010
        assert_eq!(y, BitVec::from_bools([true, false, true, false]));
    }

    #[test]
    fn matmul_against_naive() {
        let mut a = BitMatrix::zeros(3);
        a.set(0, 1, true);
        a.set(1, 0, true);
        a.set(1, 2, true);
        a.set(2, 2, true);
        let mut b = BitMatrix::zeros(3);
        b.set(0, 0, true);
        b.set(1, 1, true);
        b.set(2, 0, true);
        b.set(2, 1, true);
        let c = a.matmul(&b);
        for i in 0..3 {
            for j in 0..3 {
                let mut expect = false;
                for k in 0..3 {
                    expect ^= a.get(i, k) & b.get(k, j);
                }
                assert_eq!(c.get(i, j), expect, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let mut m = BitMatrix::zeros(4);
        m.set(0, 3, true);
        m.set(2, 1, true);
        assert_eq!(m.transpose().transpose(), m);
        assert!(m.transpose().get(3, 0));
    }

    #[test]
    fn cnot_matrix_relation() {
        // F for a CNOT(0 -> 1) circuit: X_0 -> X_0 X_1 means F row 0 = 11.
        let mut f = BitMatrix::identity(2);
        f.xor_row(0, 1);
        let x = BitVec::from_u64(2, 0b01); // x_0 = 1
        let y = f.vecmat(&x);
        assert_eq!(y.as_u64(), 0b11);
    }
}
