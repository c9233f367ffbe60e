//! Dense row-major complex matrices.
//!
//! Sized for quantum-gate work: typical matrices are 2x2 .. 8x8 unitaries,
//! with occasional (2 chi x 2 chi) factors inside the MPS code. The
//! implementation therefore favours simplicity and cache-friendly row-major
//! loops over blocking tricks that only pay off for huge matrices.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense, row-major matrix of [`C64`] entries.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from rows of real numbers (convenience for tests).
    pub fn from_real(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend(row.iter().map(|&x| C64::real(x)));
        }
        Matrix::from_vec(r, c, data)
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn data(&self) -> &[C64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[C64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (dagger).
    pub fn dagger(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Multiplies every entry by scalar `k`.
    pub fn scale(&self, k: C64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Matrix product `self * rhs`, via the blocked kernels in
    /// [`crate::gemm`] (naive ascending-`k` fold below the packing
    /// threshold, cache-blocked register tiles with deterministic Rayon
    /// row blocks above it).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let data = crate::gemm::matmul(self.rows, self.cols, rhs.cols, &self.data, &rhs.data);
        Matrix::from_vec(self.rows, rhs.cols, data)
    }

    /// Matrix-vector product `self * v` (blocked over row groups in
    /// [`crate::gemm::matvec_into`]).
    pub fn matvec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        crate::gemm::matvec_into(&mut out, self.rows, self.cols, &self.data, v);
        out
    }

    /// Kronecker (tensor) product `self (x) rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == C64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Entry-wise approximate equality with tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// True when `self * self^dagger ~= I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.matmul(&self.dagger())
            .approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// True when the matrix equals its own conjugate transpose within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.dagger(), tol)
    }

    /// True when every off-diagonal entry has magnitude at most `tol`
    /// (square matrices only; non-square matrices are never diagonal).
    /// Each part is bounded before the modulus, whose square underflows to
    /// 0 below about 1e-154, so `tol = 0` accepts only exact zeros.
    pub fn is_diagonal(&self, tol: f64) -> bool {
        let small = |z: C64| z.re.abs() <= tol && z.im.abs() <= tol && z.abs() <= tol;
        self.is_square()
            && (0..self.rows).all(|i| (0..self.cols).all(|j| i == j || small(self[(i, j)])))
    }

    /// Matrix power by repeated squaring (square matrices only).
    pub fn pow(&self, mut e: u32) -> Matrix {
        assert!(self.is_square(), "pow of non-square matrix");
        let mut base = self.clone();
        let mut acc = Matrix::identity(self.rows);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.matmul(&base);
            }
            base = base.matmul(&base);
            e >>= 1;
        }
        acc
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_real(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    #[test]
    fn is_diagonal_checks_off_diagonal_entries() {
        assert!(Matrix::identity(4).is_diagonal(0.0));
        assert!(Matrix::from_real(&[&[2.0, 0.0], &[0.0, -3.0]]).is_diagonal(0.0));
        assert!(!pauli_x().is_diagonal(1e-12));
        assert!(!Matrix::zeros(2, 3).is_diagonal(1.0));
        // |z|^2 of these entries underflows to 0; the entries are not 0.
        let mut tiny = Matrix::identity(2);
        tiny[(0, 1)] = C64::new(1e-200, 0.0);
        assert!(!tiny.is_diagonal(0.0));
        tiny[(0, 1)] = C64::new(0.0, -1e-300);
        assert!(!tiny.is_diagonal(1e-301));
        assert!(tiny.is_diagonal(1e-300));
    }

    fn pauli_y() -> Matrix {
        Matrix::from_vec(2, 2, vec![C64::ZERO, -C64::I, C64::I, C64::ZERO])
    }

    fn pauli_z() -> Matrix {
        Matrix::from_real(&[&[1.0, 0.0], &[0.0, -1.0]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i2 = Matrix::identity(2);
        assert!(x.matmul(&i2).approx_eq(&x, 1e-15));
        assert!(i2.matmul(&x).approx_eq(&x, 1e-15));
    }

    #[test]
    fn pauli_algebra() {
        // X * Y = i Z
        let xy = pauli_x().matmul(&pauli_y());
        assert!(xy.approx_eq(&pauli_z().scale(C64::I), 1e-15));
        // X^2 = I
        assert!(pauli_x().pow(2).approx_eq(&Matrix::identity(2), 1e-15));
    }

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for p in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(p.is_unitary(1e-12));
            assert!(p.is_hermitian(1e-12));
        }
    }

    #[test]
    fn kron_dimensions_and_values() {
        let k = pauli_x().kron(&pauli_z());
        assert_eq!((k.rows(), k.cols()), (4, 4));
        // X(x)Z |00> = |10>  with sign +1 on the z part of |0>
        assert_eq!(k[(2, 0)], C64::ONE);
        assert_eq!(k[(3, 1)], -C64::ONE);
        assert_eq!(k[(0, 0)], C64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A(x)B)(C(x)D) = (AC)(x)(BD)
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = Matrix::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = pauli_x();
        let b = pauli_y();
        let lhs = a.matmul(&b).dagger();
        let rhs = b.dagger().matmul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = pauli_y();
        let v = vec![C64::new(1.0, 2.0), C64::new(-0.5, 0.0)];
        let as_mat = Matrix::from_vec(2, 1, v.clone());
        let mv = m.matvec(&v);
        let mm = m.matmul(&as_mat);
        assert!(mv[0].approx_eq(mm[(0, 0)], 1e-15));
        assert!(mv[1].approx_eq(mm[(1, 0)], 1e-15));
    }

    #[test]
    fn trace_and_norm() {
        let z = pauli_z();
        assert!(z.trace().approx_eq(C64::ZERO, 1e-15));
        assert!((z.frobenius_norm() - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn non_square_is_not_unitary() {
        assert!(!Matrix::zeros(2, 3).is_unitary(1e-9));
    }
}
