//! The CH-form stabilizer state of Bravyi, Browne, Calpin, Campbell,
//! Gosset & Howard, "Simulation of quantum circuits by low-rank stabilizer
//! decompositions" (Quantum 3, 181, 2019) — the
//! `cirq.StabilizerChFormSimulationState` substitute (paper Sec. 4.1.2).
//!
//! Any stabilizer state is written `|psi> = omega * U_C * U_H * |s>` where
//! `U_C` is a *control-type* Clifford circuit (products of CNOT, CZ, S —
//! gates fixing `|0..0>`), `U_H` a layer of Hadamards (`v` marks which
//! qubits), `s` a basis state and `omega` a complex scalar. `U_C` is
//! tracked through its conjugation action:
//!
//! ```text
//! U_C^dag X_p U_C = i^{gamma_p} X^{F_p} Z^{M_p}     (row p of F, M)
//! U_C^dag Z_p U_C = Z^{G_p}                          (row p of G)
//! ```
//!
//! Bitstring amplitudes cost O(n^2 / 64) — independent of circuit depth —
//! which is what makes gate-by-gate sampling of Clifford circuits
//! polynomial (paper Fig. 3). Probabilities are cheaper still: a
//! stabilizer state's `|<x|psi>|^2` is either 0 or one constant, so a
//! candidate costs one support test of `O(|x| n / 64)` word operations.

use bgls_core::SimError;
use bgls_linalg::{BitMatrix, BitVec, C64};
use std::f64::consts::FRAC_1_SQRT_2;

/// A stabilizer state in CH form.
#[derive(Clone, Debug)]
pub struct ChForm {
    n: usize,
    /// X-conjugation rows: `U_C^dag X_p U_C` has X-string `F_p`.
    f: BitMatrix,
    /// Z-conjugation rows: `U_C^dag Z_p U_C = Z^{G_p}`.
    g: BitMatrix,
    /// X-conjugation rows: Z-string part.
    m: BitMatrix,
    /// Phase exponents (`i^{gamma_p}`), stored mod 4.
    gamma: Vec<u8>,
    /// Hadamard layer indicator.
    v: BitVec,
    /// Basis state.
    s: BitVec,
    /// Global scalar.
    omega: C64,
}

impl ChForm {
    /// The all-zeros state `|0...0>` on `n` qubits.
    pub fn zero(n: usize) -> Self {
        ChForm {
            n,
            f: BitMatrix::identity(n),
            g: BitMatrix::identity(n),
            m: BitMatrix::zeros(n),
            gamma: vec![0; n],
            v: BitVec::zeros(n),
            s: BitVec::zeros(n),
            omega: C64::ONE,
        }
    }

    /// The computational basis state `|bits>`.
    pub fn basis(bits: &BitVec) -> Self {
        let mut st = ChForm::zero(bits.len());
        st.s = bits.clone();
        st
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The global scalar `omega`.
    pub fn omega(&self) -> C64 {
        self.omega
    }

    /// Multiplies the global scalar (used by the sum-over-Cliffords
    /// channel to carry decomposition coefficients).
    pub fn scale_omega(&mut self, k: C64) {
        self.omega *= k;
    }

    fn check(&self, q: usize) -> Result<(), SimError> {
        if q >= self.n {
            return Err(SimError::QubitOutOfRange {
                index: q,
                num_qubits: self.n,
            });
        }
        Ok(())
    }

    // ---- left-multiplication rules (gate applied to the state) --------

    /// Left Pauli Z on qubit `p`: `Z_p^dag X_p Z_p = -X_p`.
    pub fn apply_z(&mut self, p: usize) -> Result<(), SimError> {
        self.check(p)?;
        self.gamma[p] = (self.gamma[p] + 2) % 4;
        Ok(())
    }

    /// Left S on qubit `p`: `S^dag X S = i^{-1} X Z`.
    pub fn apply_s(&mut self, p: usize) -> Result<(), SimError> {
        self.check(p)?;
        let gp = self.g.row(p).clone();
        self.m.xor_into_row(p, &gp);
        self.gamma[p] = (self.gamma[p] + 3) % 4;
        Ok(())
    }

    /// Left S^dagger on qubit `p`.
    pub fn apply_sdg(&mut self, p: usize) -> Result<(), SimError> {
        self.check(p)?;
        let gp = self.g.row(p).clone();
        self.m.xor_into_row(p, &gp);
        self.gamma[p] = (self.gamma[p] + 1) % 4;
        Ok(())
    }

    /// Left CZ on qubits `p, q`: `CZ^dag X_p CZ = X_p Z_q`.
    pub fn apply_cz(&mut self, p: usize, q: usize) -> Result<(), SimError> {
        self.check(p)?;
        self.check(q)?;
        if p == q {
            return Err(SimError::Invalid("CZ with identical qubits".into()));
        }
        let gq = self.g.row(q).clone();
        self.m.xor_into_row(p, &gq);
        let gp = self.g.row(p).clone();
        self.m.xor_into_row(q, &gp);
        Ok(())
    }

    /// Left CNOT with control `p`, target `q`:
    /// `CX^dag X_p CX = X_p X_q`, `CX^dag Z_q CX = Z_p Z_q`.
    pub fn apply_cnot(&mut self, p: usize, q: usize) -> Result<(), SimError> {
        self.check(p)?;
        self.check(q)?;
        if p == q {
            return Err(SimError::Invalid("CNOT with identical qubits".into()));
        }
        // gamma_p += gamma_q + 2 * |M_p & F_q| (Z-past-X reordering sign)
        let cross = self.m.row(p).dot(self.f.row(q)) as u8;
        self.gamma[p] = (self.gamma[p] + self.gamma[q] + 2 * cross) % 4;
        let fq = self.f.row(q).clone();
        self.f.xor_into_row(p, &fq);
        let mq = self.m.row(q).clone();
        self.m.xor_into_row(p, &mq);
        let gp = self.g.row(p).clone();
        self.g.xor_into_row(q, &gp);
        Ok(())
    }

    /// Left Pauli X on qubit `p`: pushes `U_C^dag X_p U_C` through `U_H`
    /// onto `(s, omega)`.
    pub fn apply_x(&mut self, p: usize) -> Result<(), SimError> {
        self.check(p)?;
        let a = self.f.row(p).clone(); // X-string
        let b = self.m.row(p).clone(); // Z-string
        self.apply_pauli_string(&a, &b, self.gamma[p]);
        Ok(())
    }

    /// Left Pauli Y on qubit `p`: `Y = i X Z`.
    pub fn apply_y(&mut self, p: usize) -> Result<(), SimError> {
        self.apply_z(p)?;
        self.apply_x(p)?;
        self.omega *= C64::I;
        Ok(())
    }

    /// Applies `i^{phase} X^a Z^b` (a Pauli string already conjugated
    /// through `U_C`) to `U_H |s>`, updating `s` and `omega`.
    fn apply_pauli_string(&mut self, a: &BitVec, b: &BitVec, phase: u8) {
        // Push through H^v: on v=1 qubits X<->Z with sign (-1)^{a_j b_j}.
        let a2 = a.and(&self.v.not()).xor(&b.and(&self.v));
        let b2 = b.and(&self.v.not()).xor(&a.and(&self.v));
        let mut sign = a.and(b).and(&self.v).parity();
        // Apply X^{a2} Z^{b2} to |s>: phase (-1)^{b2 . s}, then s ^= a2.
        sign ^= b2.dot(&self.s);
        self.omega *= C64::i_pow(phase as i64);
        if sign {
            self.omega = -self.omega;
        }
        self.s.xor_assign(&a2);
    }

    /// Left Hadamard on qubit `p` — the Proposition-4 superposition update.
    pub fn apply_h(&mut self, p: usize) -> Result<(), SimError> {
        self.check(p)?;
        // H_p = (X_p + Z_p)/sqrt(2).
        // X term: i^{gamma_p} X^{F_p} Z^{M_p} pushed through U_H:
        //   target u = s ^ [(F_p & ~v) | (M_p & v)],
        //   sign beta = |F_p & M_p & v| + |((M_p & ~v) | (F_p & v)) . s|.
        let fp = self.f.row(p);
        let mp = self.m.row(p);
        let not_v = self.v.not();
        let ax = fp.and(&not_v).xor(&mp.and(&self.v));
        let bx = mp.and(&not_v).xor(&fp.and(&self.v));
        let u = self.s.xor(&ax);
        let beta = (fp.and(mp).and(&self.v).parity() as u8 + bx.dot(&self.s) as u8) % 2;
        // Z term: Z^{G_p} pushed through U_H:
        //   target t = s ^ (G_p & v), sign alpha = |G_p & ~v & s|.
        let gp = self.g.row(p);
        let t = self.s.xor(&gp.and(&self.v));
        let alpha = gp.and(&not_v).dot(&self.s) as u8;
        // H_p|psi> = omega (-1)^alpha U_C U_H (|t> + i^delta |u>)/sqrt(2)
        let delta = (self.gamma[p] + 2 * (alpha + beta)) % 4;
        if alpha == 1 {
            self.omega = -self.omega;
        }
        self.omega *= C64::real(FRAC_1_SQRT_2);
        self.update_sum(t, u, delta)
    }

    // ---- right-multiplication rules (U_C <- U_C W) ---------------------

    /// Right CNOT (control `q`, target `r`): conjugates every tracked
    /// Pauli: `X_q -> X_q X_r`, `Z_r -> Z_q Z_r`.
    fn cnot_right(&mut self, q: usize, r: usize) {
        debug_assert_ne!(q, r);
        self.f.xor_col(r, q);
        self.m.xor_col(q, r);
        self.g.xor_col(q, r);
    }

    /// Right CZ on `q, r`: `X_q -> X_q Z_r`, `X_r -> X_r Z_q`, with sign
    /// `(-1)^{F_pq F_pr}` per row from Z-past-X normal ordering.
    fn cz_right(&mut self, q: usize, r: usize) {
        debug_assert_ne!(q, r);
        for p in 0..self.n {
            let fq = self.f.get(p, q);
            let fr = self.f.get(p, r);
            if fq {
                self.m.set(p, r, self.m.get(p, r) ^ true);
            }
            if fr {
                self.m.set(p, q, self.m.get(p, q) ^ true);
            }
            if fq && fr {
                self.gamma[p] = (self.gamma[p] + 2) % 4;
            }
        }
    }

    /// Right S on `q`: `X_q -> i^{-1} X_q Z_q`.
    fn s_right(&mut self, q: usize) {
        for p in 0..self.n {
            if self.f.get(p, q) {
                self.m.set(p, q, self.m.get(p, q) ^ true);
                self.gamma[p] = (self.gamma[p] + 3) % 4;
            }
        }
    }

    /// Right S^dagger on `q`: `X_q -> i X_q Z_q`.
    fn sdg_right(&mut self, q: usize) {
        for p in 0..self.n {
            if self.f.get(p, q) {
                self.m.set(p, q, self.m.get(p, q) ^ true);
                self.gamma[p] = (self.gamma[p] + 1) % 4;
            }
        }
    }

    /// Rewrites `omega * U_C * U_H * (|t> + i^delta |u>)` back into CH form
    /// (Proposition 4 of Bravyi et al. 2019). The incoming scalar `omega`
    /// must already include all normalization.
    fn update_sum(&mut self, t: BitVec, u: BitVec, delta: u8) -> Result<(), SimError> {
        let d = t.xor(&u);
        if d.is_zero() {
            // (1 + i^delta) |t>
            let factor = C64::ONE + C64::i_pow(delta as i64);
            if factor == C64::ZERO {
                return Err(SimError::Invalid(
                    "CH-form update annihilated the state (internal invariant violated)".into(),
                ));
            }
            self.s = t;
            self.omega *= factor;
            return Ok(());
        }

        // Every t != u branch below factors the pair as
        // sqrt(2) * (unit phase) * W_C * U_H' |s'>; absorb the sqrt(2) here
        // (it cancels the 1/sqrt(2) the caller already applied).
        self.omega *= C64::real(std::f64::consts::SQRT_2);

        // Difference qubits split by Hadamard status.
        let set0: Vec<usize> = d.iter_ones().filter(|&j| !self.v.get(j)).collect();
        let set1: Vec<usize> = d.iter_ones().filter(|&j| self.v.get(j)).collect();

        // Choose the pivot and right-multiply W so that, pushed through
        // U_H, W flips exactly the D\{q} bits of kets whose q-bit is 1.
        let q = if !set0.is_empty() { set0[0] } else { set1[0] };
        if !set0.is_empty() {
            for &j in &set0 {
                if j != q {
                    self.cnot_right(q, j);
                }
            }
            for &j in &set1 {
                self.cz_right(q, j);
            }
        } else {
            for &j in &set1 {
                if j != q {
                    self.cnot_right(j, q);
                }
            }
        }

        // The pushed-through W maps |y> to |y ^ y_q * (D \ {q})>, so the
        // q=0 ket is fixed and the q=1 ket becomes (q=0 ket) ^ e_q. Keep
        // the q=0 ket as the new basis string; if that swaps t and u,
        // rewrite |t> + i^delta |u> = i^delta (|u> + i^{-delta} |t>).
        let (y0, delta_eff) = if !t.get(q) {
            (t, delta)
        } else {
            self.omega *= C64::i_pow(delta as i64);
            (u, (4 - delta) % 4)
        };
        let mut s_new = y0;
        debug_assert!(!s_new.get(q));

        // Resolve the single-qubit superposition |0> + i^delta_eff |1> at q
        // (norm sqrt(2), already absorbed into omega above).
        if !self.v.get(q) {
            // |0> + i^d |1> = sqrt(2) (S^{d odd}) H |d >= 2>
            if delta_eff % 2 == 1 {
                self.s_right(q);
            }
            self.v.set(q, true);
            s_new.set(q, delta_eff == 2 || delta_eff == 3);
        } else {
            match delta_eff {
                0 => {
                    // H(|0> + |1>) = sqrt(2) |0>
                    self.v.set(q, false);
                    s_new.set(q, false);
                }
                2 => {
                    // H(|0> - |1>) = sqrt(2) |1>
                    self.v.set(q, false);
                    s_new.set(q, true);
                }
                1 => {
                    // H(|0> + i|1>) = sqrt(2) e^{i pi/4} Sdg H |0>
                    self.sdg_right(q);
                    self.omega *= C64::new(FRAC_1_SQRT_2, FRAC_1_SQRT_2);
                    s_new.set(q, false);
                }
                _ => {
                    // H(|0> - i|1>) = sqrt(2) e^{-i pi/4} S H |0>
                    self.s_right(q);
                    self.omega *= C64::new(FRAC_1_SQRT_2, -FRAC_1_SQRT_2);
                    s_new.set(q, false);
                }
            }
        }
        self.s = s_new;
        Ok(())
    }

    // ---- amplitudes ----------------------------------------------------

    /// The amplitude `<x|psi>`, in O(n^2 / 64) time.
    pub fn amplitude(&self, x: &BitVec) -> C64 {
        assert_eq!(x.len(), self.n, "bitstring width mismatch");
        // U_C^dag |x> = i^mu |x F| by merging the conjugated X_p strings
        // (ascending p), collecting Z-past-X reordering signs.
        let mut mu: u8 = 0; // mod 4
        let mut xf = BitVec::zeros(self.n);
        let mut za = BitVec::zeros(self.n);
        for p in x.iter_ones() {
            self.conjugation_step(p, &mut mu, &mut xf, &mut za);
        }
        self.amplitude_tail(mu, &xf)
    }

    /// Merges the conjugated `X_p` string into the running
    /// `U_C^dag |x> = i^mu |xF|` state (one set bit of `x`).
    #[inline]
    fn conjugation_step(&self, p: usize, mu: &mut u8, xf: &mut BitVec, za: &mut BitVec) {
        *mu = (*mu + self.gamma[p]) % 4;
        if za.dot(self.f.row(p)) {
            *mu = (*mu + 2) % 4;
        }
        xf.xor_assign(self.f.row(p));
        za.xor_assign(self.m.row(p));
    }

    /// Finishes an amplitude from the merged conjugation state:
    /// `<x|psi> = omega * i^{-mu} <xF| U_H |s>` with
    /// `<xF|U_H|s> = 2^{-|v|/2} (-1)^{|xF & s & v|} [xF agrees with s off v]`.
    fn amplitude_tail(&self, mu: u8, xf: &BitVec) -> C64 {
        let not_v = self.v.not();
        if xf.and(&not_v) != self.s.and(&not_v) {
            return C64::ZERO;
        }
        let mut amp = self.omega * C64::i_pow(-(mu as i64));
        if xf.and(&self.s).and(&self.v).parity() {
            amp = -amp;
        }
        let hw = self.v.count_ones();
        amp * C64::real(FRAC_1_SQRT_2.powi(hw as i32))
    }

    /// Born probability `|<x|psi>|^2`, bit-identical to
    /// `amplitude(x).norm_sqr()` (see `ChForm::probabilities_of_words`).
    pub fn probability_of(&self, x: &BitVec) -> f64 {
        assert_eq!(x.len(), self.n, "bitstring width mismatch");
        self.probabilities_of_words([x.words()])[0]
    }

    /// Born probabilities of bitstrings given as little-endian `u64`
    /// words (bit `p` is bit `p % 64` of word `p / 64`). Since
    /// `U_C^dag |x> = i^mu |xF>`, `x` is in the support iff
    /// `(xF ^ s) & !v == 0`, and every supported amplitude differs from
    /// the tail at `(mu, xF) = (0, s)` only by `i^-mu` and a sign. Those
    /// swap or negate `re`/`im` exactly, so that tail's `norm_sqr`,
    /// computed once per call, equals `amplitude(x).norm_sqr()` bit for
    /// bit; each candidate costs one XOR of `F` rows, `O(|x| n / 64)`.
    pub(crate) fn probabilities_of_words<W: AsRef<[u64]>>(
        &self,
        xs: impl IntoIterator<Item = W>,
    ) -> Vec<f64> {
        let weight = self.amplitude_tail(0, &self.s).norm_sqr();
        xs.into_iter()
            .map(|x| {
                if self.in_support(x.as_ref()) {
                    weight
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Whether `(xF ^ s) & !v` is zero, one output word at a time.
    fn in_support(&self, x: &[u64]) -> bool {
        let (s, v) = (self.s.words(), self.v.words());
        (0..s.len()).all(|j| {
            let mut acc = s[j];
            for (wi, &word) in x.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    acc ^= self.f.row(wi * 64 + bits.trailing_zeros() as usize).words()[j];
                    bits &= bits - 1;
                }
            }
            acc & !v[j] == 0
        })
    }

    /// Exact expectation `<psi| i^{phase} X^x Z^z |psi>` of a Pauli
    /// operator given in symplectic normal form, in `O(n^2 / 64)` time.
    ///
    /// The operator is conjugated through `U_C` exactly as in
    /// [`ChForm::amplitude`] — the X part merges conjugated `X_p` rows
    /// via the same `conjugation_step`, the Z part XORs `G` rows — then
    /// pushed through the Hadamard layer `H^v` and evaluated on the
    /// basis state `|s>`. The result is `|omega|^2 i^k (+-1)` when the
    /// pushed-through operator is Z-only (diagonal), and exactly zero
    /// otherwise — the "Pauli is (not) in the stabilizer group"
    /// dichotomy, computed without touching amplitudes.
    pub fn pauli_expectation(&self, x: &BitVec, z: &BitVec, phase: u8) -> C64 {
        assert_eq!(x.len(), self.n, "X-mask width mismatch");
        assert_eq!(z.len(), self.n, "Z-mask width mismatch");
        // U_C^dag X^x U_C = i^mu X^xf Z^za (ascending-p row merge).
        let mut mu: u8 = 0;
        let mut xf = BitVec::zeros(self.n);
        let mut za = BitVec::zeros(self.n);
        for p in x.iter_ones() {
            self.conjugation_step(p, &mut mu, &mut xf, &mut za);
        }
        // U_C^dag Z^z U_C = Z^zb; Z factors commute freely.
        let mut zb = BitVec::zeros(self.n);
        for p in z.iter_ones() {
            zb.xor_assign(self.g.row(p));
        }
        let d = za.xor(&zb);
        // Push X^xf Z^d through H^v: X<->Z on v qubits, sign (-1)^{xf.d.v}.
        let not_v = self.v.not();
        let x2 = xf.and(&not_v).xor(&d.and(&self.v));
        let z2 = d.and(&not_v).xor(&xf.and(&self.v));
        if !x2.is_zero() {
            // A surviving X component flips |s>, so <s|..|s> vanishes.
            return C64::ZERO;
        }
        let mut sign = xf.and(&d).and(&self.v).parity();
        // <s| Z^z2 |s> = (-1)^{z2 . s}
        sign ^= z2.dot(&self.s);
        let mut val = C64::i_pow((phase + mu) as i64) * C64::real(self.omega.norm_sqr());
        if sign {
            val = -val;
        }
        val
    }

    /// Dense ket (verification only; exponential in `n`).
    pub fn ket(&self) -> Vec<C64> {
        assert!(self.n <= 20, "ket() limited to 20 qubits");
        (0..1u64 << self.n)
            .map(|x| self.amplitude(&BitVec::from_u64(self.n, x)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(n: usize, x: u64) -> BitVec {
        BitVec::from_u64(n, x)
    }

    fn assert_state(st: &ChForm, expect: &[(u64, C64)], tol: f64) {
        let ket = st.ket();
        let mut covered = vec![false; ket.len()];
        for &(x, a) in expect {
            assert!(
                ket[x as usize].approx_eq(a, tol),
                "amplitude at {x:#b}: got {:?}, want {a:?}",
                ket[x as usize]
            );
            covered[x as usize] = true;
        }
        for (x, amp) in ket.iter().enumerate() {
            if !covered[x] {
                assert!(
                    amp.approx_eq(C64::ZERO, tol),
                    "expected zero amplitude at {x:#b}, got {amp:?}"
                );
            }
        }
    }

    const R: f64 = FRAC_1_SQRT_2;

    #[test]
    fn zero_state_amplitudes() {
        let st = ChForm::zero(2);
        assert_state(&st, &[(0, C64::ONE)], 1e-12);
    }

    #[test]
    fn basis_state_amplitudes() {
        let st = ChForm::basis(&bits(3, 0b101));
        assert_state(&st, &[(0b101, C64::ONE)], 1e-12);
    }

    #[test]
    fn x_flips_basis() {
        let mut st = ChForm::zero(2);
        st.apply_x(1).unwrap();
        assert_state(&st, &[(0b10, C64::ONE)], 1e-12);
    }

    #[test]
    fn hadamard_on_zero() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        assert_state(&st, &[(0, C64::real(R)), (1, C64::real(R))], 1e-12);
    }

    #[test]
    fn hadamard_on_one_gives_minus() {
        let mut st = ChForm::zero(1);
        st.apply_x(0).unwrap();
        st.apply_h(0).unwrap();
        assert_state(&st, &[(0, C64::real(R)), (1, C64::real(-R))], 1e-12);
    }

    #[test]
    fn double_hadamard_is_identity() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        st.apply_h(0).unwrap();
        assert_state(&st, &[(0, C64::ONE)], 1e-12);
    }

    #[test]
    fn s_gate_phases_one_component() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        st.apply_s(0).unwrap();
        assert_state(&st, &[(0, C64::real(R)), (1, C64::new(0.0, R))], 1e-12);
    }

    #[test]
    fn s_four_times_is_identity() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        for _ in 0..4 {
            st.apply_s(0).unwrap();
        }
        assert_state(&st, &[(0, C64::real(R)), (1, C64::real(R))], 1e-12);
    }

    #[test]
    fn sdg_inverts_s() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        st.apply_s(0).unwrap();
        st.apply_sdg(0).unwrap();
        assert_state(&st, &[(0, C64::real(R)), (1, C64::real(R))], 1e-12);
    }

    #[test]
    fn ghz_state() {
        let mut st = ChForm::zero(3);
        st.apply_h(0).unwrap();
        st.apply_cnot(0, 1).unwrap();
        st.apply_cnot(1, 2).unwrap();
        assert_state(&st, &[(0b000, C64::real(R)), (0b111, C64::real(R))], 1e-12);
    }

    #[test]
    fn cz_phases_correctly() {
        let mut st = ChForm::zero(2);
        st.apply_h(0).unwrap();
        st.apply_h(1).unwrap();
        st.apply_cz(0, 1).unwrap();
        assert_state(
            &st,
            &[
                (0b00, C64::real(0.5)),
                (0b01, C64::real(0.5)),
                (0b10, C64::real(0.5)),
                (0b11, C64::real(-0.5)),
            ],
            1e-12,
        );
    }

    #[test]
    fn y_gate_on_zero() {
        let mut st = ChForm::zero(1);
        st.apply_y(0).unwrap();
        // Y|0> = i|1>
        assert_state(&st, &[(1, C64::I)], 1e-12);
    }

    #[test]
    fn z_after_h_flips_sign() {
        let mut st = ChForm::zero(1);
        st.apply_h(0).unwrap();
        st.apply_z(0).unwrap();
        assert_state(&st, &[(0, C64::real(R)), (1, C64::real(-R))], 1e-12);
    }

    #[test]
    fn probability_normalization_random_walk() {
        // Long Clifford sequence; total probability must stay 1.
        let mut st = ChForm::zero(4);
        let seq: [(usize, usize, u8); 12] = [
            (0, 0, 0),
            (1, 0, 1),
            (0, 1, 0),
            (2, 3, 2),
            (1, 2, 1),
            (0, 3, 0),
            (3, 1, 2),
            (1, 1, 1),
            (0, 2, 0),
            (2, 0, 2),
            (0, 0, 0),
            (3, 2, 3),
        ];
        for (a, b, kind) in seq {
            match kind {
                0 => st.apply_h(a).unwrap(),
                1 => st.apply_s(a).unwrap(),
                2 => st.apply_cnot(a, b).unwrap(),
                _ => st.apply_cz(a, b).unwrap(),
            }
        }
        let total: f64 = st.ket().iter().map(|a| a.norm_sqr()).sum();
        assert!((total - 1.0).abs() < 1e-10, "norm drifted: {total}");
    }

    /// Every probability entry point, over every `x`, against
    /// `amplitude(x).norm_sqr()` bit for bit.
    fn assert_probabilities_match_amplitudes(st: &ChForm, context: &str) {
        use bgls_core::{BglsState, BitString};
        let n = st.num_qubits();
        let all: Vec<BitString> = (0..1u64 << n).map(|x| BitString::from_u64(n, x)).collect();
        let batched = st.probabilities_batch(&all);
        for (b, &p) in all.iter().zip(&batched) {
            let x = bits(n, b.as_u64());
            let want = st.amplitude(&x).norm_sqr();
            for got in [p, st.probability(*b), st.probability_of(&x)] {
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{context}, x = {x:?}: {got} vs amplitude {want}"
                );
            }
        }
    }

    #[test]
    fn batched_probabilities_are_bit_identical_to_scalar() {
        use bgls_circuit::{generate_random_circuit, Gate, RandomCircuitParams};
        use bgls_core::BglsState;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Scrambled Clifford state (same walk as the normalization test).
        let mut st = ChForm::zero(6);
        let seq: [(usize, usize, u8); 14] = [
            (0, 0, 0),
            (1, 0, 1),
            (0, 1, 2),
            (2, 3, 2),
            (1, 2, 1),
            (4, 3, 0),
            (3, 1, 2),
            (5, 1, 1),
            (0, 2, 3),
            (2, 0, 2),
            (5, 0, 0),
            (3, 2, 3),
            (4, 0, 1),
            (1, 4, 2),
        ];
        for (a, b, kind) in seq {
            match kind {
                0 => st.apply_h(a).unwrap(),
                1 => st.apply_s(a).unwrap(),
                2 => st.apply_cnot(a, b).unwrap(),
                _ => st.apply_cz(a, b).unwrap(),
            }
        }
        assert_probabilities_match_amplitudes(&st, "scrambled walk");
        assert!(st.probabilities_batch(&[]).is_empty());

        // Random Clifford circuits over the whole dispatch set, checked
        // after every gate.
        let gate_set = vec![
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::SqrtX,
            Gate::Cnot,
            Gate::Cz,
            Gate::Swap,
            Gate::ISwap,
        ];
        for n in 1..=10 {
            for seed in 0..2 {
                let params = RandomCircuitParams {
                    qubits: n,
                    moments: 6,
                    op_density: 1.0,
                    gate_set: gate_set.clone(),
                };
                let mut rng = StdRng::seed_from_u64(1000 * n as u64 + seed);
                let circuit = generate_random_circuit(&params, &mut rng);
                let mut st = ChForm::zero(n);
                for (i, op) in circuit.all_operations().enumerate() {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    st.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
                    assert_probabilities_match_amplitudes(
                        &st,
                        &format!("n {n} seed {seed} gate {i}"),
                    );
                }
            }
        }
    }

    #[test]
    fn pauli_expectation_matches_dense_ket() {
        // i^phase X^x Z^z applied to a dense ket, brute force.
        fn dense_expect(ket: &[C64], x: u64, z: u64, phase: u8) -> C64 {
            let mut acc = C64::ZERO;
            for (b, &amp) in ket.iter().enumerate() {
                let mut term = ket[b ^ x as usize].conj() * amp;
                if ((b as u64) & z).count_ones() % 2 == 1 {
                    term = -term;
                }
                acc += term;
            }
            acc * C64::i_pow(phase as i64)
        }
        // Scrambled Clifford state (same walk as the batched test).
        let mut st = ChForm::zero(6);
        let seq: [(usize, usize, u8); 14] = [
            (0, 0, 0),
            (1, 0, 1),
            (0, 1, 2),
            (2, 3, 2),
            (1, 2, 1),
            (4, 3, 0),
            (3, 1, 2),
            (5, 1, 1),
            (0, 2, 3),
            (2, 0, 2),
            (5, 0, 0),
            (3, 2, 3),
            (4, 0, 1),
            (1, 4, 2),
        ];
        for (a, b, kind) in seq {
            match kind {
                0 => st.apply_h(a).unwrap(),
                1 => st.apply_s(a).unwrap(),
                2 => st.apply_cnot(a, b).unwrap(),
                _ => st.apply_cz(a, b).unwrap(),
            }
        }
        let ket = st.ket();
        // (x, z, n_y): Z-strings, X-strings, Y factors (bit in both
        // masks, one i each), and mixed strings.
        let cases: [(u64, u64, u8); 8] = [
            (0, 0, 0),
            (0, 0b000101, 0),
            (0b001100, 0, 0),
            (0b000010, 0b000010, 1),
            (0b110010, 0b011010, 1),
            (0b000111, 0b111000, 0),
            (0b101101, 0b101101, 3),
            (0b111111, 0b111111, 2),
        ];
        for (x, z, ny) in cases {
            let got = st.pauli_expectation(&BitVec::from_u64(6, x), &BitVec::from_u64(6, z), ny);
            let want = dense_expect(&ket, x, z, ny);
            assert!(
                got.approx_eq(want, 1e-10),
                "x={x:b} z={z:b} ny={ny}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn duplicate_qubit_rejected() {
        let mut st = ChForm::zero(2);
        assert!(st.apply_cnot(1, 1).is_err());
        assert!(st.apply_cz(0, 0).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut st = ChForm::zero(2);
        assert!(matches!(
            st.apply_h(2),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }
}
