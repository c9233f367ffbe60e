//! The Aaronson–Gottesman stabilizer tableau (Phys. Rev. A 70, 052328,
//! 2004) — the "stabilizer tableaux" the paper cites as the precursor of
//! the CH form (Sec. 4.1.2).
//!
//! The tableau has no amplitude access, but it can still answer
//! bitstring-probability queries as a *support test*
//! ([`CliffordTableau::basis_probability`]: one row reduction of the
//! stabilizer group per call gives the uniform weight `0.5^k` and the
//! Z-only generators a supported bitstring must satisfy), so it
//! doubles as a full [`bgls_core::BglsState`] backend — one that, unlike
//! the CH form, also supports projective collapse
//! ([`CliffordTableau::project`]) and therefore mid-circuit-measurement
//! Clifford circuits. [`TableauSimulator`] additionally implements the
//! **conventional** way to sample Clifford circuits — evolve, then measure
//! qubit by qubit with collapse — and serves as the baseline the CH-form
//! gate-by-gate sampler is compared against.

use bgls_circuit::{Circuit, Gate, OpKind};
use bgls_core::{BitString, Histogram, SimError};
use bgls_linalg::{BitMatrix, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// CHP-style stabilizer tableau: rows `0..n` are destabilizers, rows
/// `n..2n` stabilizers; each row is a Pauli `(-1)^r X^x Z^z`.
#[derive(Clone, Debug)]
pub struct CliffordTableau {
    n: usize,
    x: BitMatrix, // 2n rows in a (2n)x(2n) matrix; columns past n stay zero
    z: BitMatrix,
    r: BitVec,
}

impl CliffordTableau {
    /// Tableau of the all-zeros state.
    pub fn zero(n: usize) -> Self {
        // Rows are indexed 0..2n inside (2n)x(2n) bit matrices; column j is
        // qubit j (only the first n columns are used).
        let rows = 2 * n;
        let mut x = BitMatrix::zeros(rows.max(1));
        let mut z = BitMatrix::zeros(rows.max(1));
        for i in 0..n {
            x.set(i, i, true); // destabilizer i = X_i
            z.set(n + i, i, true); // stabilizer i = Z_i
        }
        CliffordTableau {
            n,
            x,
            z,
            r: BitVec::zeros(rows.max(1)),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
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

    /// Hadamard on qubit `a`.
    pub fn h(&mut self, a: usize) -> Result<(), SimError> {
        self.check(a)?;
        for i in 0..2 * self.n {
            let xi = self.x.get(i, a);
            let zi = self.z.get(i, a);
            if xi && zi {
                self.r.flip(i);
            }
            self.x.set(i, a, zi);
            self.z.set(i, a, xi);
        }
        Ok(())
    }

    /// Phase gate on qubit `a`.
    pub fn s(&mut self, a: usize) -> Result<(), SimError> {
        self.check(a)?;
        for i in 0..2 * self.n {
            let xi = self.x.get(i, a);
            let zi = self.z.get(i, a);
            if xi && zi {
                self.r.flip(i);
            }
            self.z.set(i, a, zi ^ xi);
        }
        Ok(())
    }

    /// CNOT with control `a`, target `b`.
    pub fn cnot(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(SimError::Invalid("CNOT with identical qubits".into()));
        }
        for i in 0..2 * self.n {
            let xa = self.x.get(i, a);
            let xb = self.x.get(i, b);
            let za = self.z.get(i, a);
            let zb = self.z.get(i, b);
            if xa && zb && (xb == za) {
                self.r.flip(i);
            }
            self.x.set(i, b, xb ^ xa);
            self.z.set(i, a, za ^ zb);
        }
        Ok(())
    }

    /// Multiplies row `i` into row `h` (`row_h <- row_i * row_h`).
    fn rowsum(&mut self, h: usize, i: usize) {
        let phase = 2 * (self.r.get(h) as i32)
            + 2 * (self.r.get(i) as i32)
            + product_phase(
                self.x.row(i).words(),
                self.z.row(i).words(),
                self.x.row(h).words(),
                self.z.row(h).words(),
            );
        // For stabilizer rows the total phase is always real (0 or 2 mod 4).
        // Destabilizer rows may accumulate odd phases — CHP never reads
        // their sign, so collapsing to the high bit is safe.
        self.r.set(h, phase.rem_euclid(4) >= 2);
        self.x.xor_row(h, i);
        self.z.xor_row(h, i);
    }

    /// Index of a stabilizer row anticommuting with `Z_a`, if any — the
    /// measurement of qubit `a` has a random 50/50 outcome exactly when
    /// one exists; otherwise the outcome is deterministic.
    fn anticommuting_stabilizer(&self, a: usize) -> Option<usize> {
        (self.n..2 * self.n).find(|&p| self.x.get(p, a))
    }

    /// Collapses a *random-outcome* measurement of qubit `a` to `outcome`,
    /// where `p` is the anticommuting stabilizer row found by
    /// [`CliffordTableau::anticommuting_stabilizer`]. This is the CHP
    /// update: every other anticommuting row absorbs row `p`, row `p`
    /// moves to the destabilizers, and `+-Z_a` becomes a stabilizer.
    fn collapse(&mut self, a: usize, p: usize, outcome: bool) {
        let n = self.n;
        for i in 0..2 * n {
            if i != p && self.x.get(i, a) {
                self.rowsum(i, p);
            }
        }
        // destabilizer p-n <- old stabilizer p; stabilizer p <- +-Z_a
        let xp = self.x.row(p).clone();
        self.x.set_row(p - n, xp);
        let zp = self.z.row(p).clone();
        self.z.set_row(p - n, zp);
        self.r.set(p - n, self.r.get(p));
        self.x.set_row(p, BitVec::zeros(self.x.n()));
        let mut znew = BitVec::zeros(self.z.n());
        znew.set(a, true);
        self.z.set_row(p, znew);
        self.r.set(p, outcome);
    }

    /// The deterministic measurement outcome of qubit `a` — only valid
    /// when no stabilizer anticommutes with `Z_a`: the sign with which
    /// `Z_a` lies in the stabilizer group.
    fn deterministic_outcome(&self, a: usize) -> bool {
        let mut z = BitVec::zeros(self.z.n());
        z.set(a, true);
        self.stabilizer_sign(&BitVec::zeros(self.x.n()), &z)
            .expect("Z_a commutes with every stabilizer")
    }

    /// Measures qubit `a` in the computational basis, collapsing the state.
    pub fn measure(&mut self, a: usize, rng: &mut impl Rng) -> Result<bool, SimError> {
        self.check(a)?;
        match self.anticommuting_stabilizer(a) {
            Some(p) => {
                let outcome = rng.gen::<bool>();
                self.collapse(a, p, outcome);
                Ok(outcome)
            }
            None => Ok(self.deterministic_outcome(a)),
        }
    }

    /// Projects qubit `a` onto the measurement outcome `value`,
    /// renormalizing implicitly (stabilizer states have no norm to
    /// track). When the outcome is random the projection succeeds with
    /// the forced value; when it is deterministic and contradicts
    /// `value`, the projector annihilates the state and the call fails
    /// with [`SimError::ZeroProbabilityEvent`]. This is what lets the
    /// tableau participate in the trajectory-forest and exact
    /// expectation walks, which the CH form (no projection) cannot.
    pub fn project(&mut self, a: usize, value: bool) -> Result<(), SimError> {
        self.check(a)?;
        match self.anticommuting_stabilizer(a) {
            Some(p) => {
                self.collapse(a, p, value);
                Ok(())
            }
            None if self.deterministic_outcome(a) == value => Ok(()),
            None => Err(SimError::ZeroProbabilityEvent),
        }
    }

    /// `|<bits|psi>|^2` as a support test (see
    /// `CliffordTableau::probabilities_of_words`).
    pub fn basis_probability(&self, bits: &BitString) -> f64 {
        assert_eq!(bits.len(), self.n, "bitstring width mismatch");
        self.probabilities_of_words([[bits.as_u64()]])[0]
    }

    /// `|<x|psi>|^2` for bitstrings given as little-endian `u64` words
    /// (bit `q` is bit `q % 64` of word `q / 64`). A stabilizer state is
    /// uniform over an affine subspace of basis states: row-reducing the
    /// X part of the generators (`O(n^3 / 64)`, once per call) gives its
    /// dimension, the X-rank `k`, and leaves `n - k` generators
    /// `(-1)^r Z^z`. `x` is in the support iff `parity(z & x) == r` for
    /// each (`O(n^2 / 64)`), and then has probability `0.5^k`, the same
    /// product of halves a forced sequential measurement multiplies up.
    fn probabilities_of_words<W: AsRef<[u64]>>(&self, xs: impl IntoIterator<Item = W>) -> Vec<f64> {
        let n = self.n;
        // Stabilizer rows as `[x words | z words]`, `w` words each half:
        // columns past `n` are always zero, so the first `w` words of a
        // (2n-bit) tableau row hold the whole Pauli.
        let w = n.div_ceil(64);
        let stride = 2 * w;
        let mut rows: Vec<u64> = (n..2 * n)
            .flat_map(|i| {
                self.x.row(i).words()[..w]
                    .iter()
                    .chain(&self.z.row(i).words()[..w])
            })
            .copied()
            .collect();
        let mut signs: Vec<bool> = (n..2 * n).map(|i| self.r.get(i)).collect();
        // Row-echelon form in the X part; rows `k..n` end up Z-only.
        let mut k = 0;
        for col in 0..n {
            let has_x = |row: &[u64]| (row[col / 64] >> (col % 64)) & 1 == 1;
            let Some(pivot) = (k..n).find(|&i| has_x(&rows[i * stride..])) else {
                continue;
            };
            for j in 0..stride {
                rows.swap(k * stride + j, pivot * stride + j);
            }
            signs.swap(k, pivot);
            let (head, tail) = rows.split_at_mut((k + 1) * stride);
            let (px, pz) = head[k * stride..].split_at(w);
            let pivot_sign = signs[k];
            for (row, sign) in tail.chunks_exact_mut(stride).zip(&mut signs[k + 1..]) {
                if has_x(row) {
                    let (hx, hz) = row.split_at(w);
                    let phase =
                        2 * (pivot_sign as i32 + *sign as i32) + product_phase(px, pz, hx, hz);
                    // commuting stabilizers multiply to a real sign
                    debug_assert_eq!(phase.rem_euclid(2), 0);
                    *sign = phase.rem_euclid(4) == 2;
                    for (h, p) in row.iter_mut().zip(px.iter().chain(pz)) {
                        *h ^= p;
                    }
                }
            }
            k += 1;
        }
        let weight = 0.5f64.powi(k as i32);
        xs.into_iter()
            .map(|x| {
                let supported = (k..n).all(|i| {
                    let z = &rows[i * stride + w..(i + 1) * stride];
                    let parity = z
                        .iter()
                        .zip(x.as_ref())
                        .fold(0, |acc, (a, b)| acc ^ (a & b));
                    (parity.count_ones() & 1 == 1) == signs[i]
                });
                if supported {
                    weight
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Exact stabilizer expectation `<psi|P|psi>` of a Pauli string via
    /// the stabilizer group, without amplitude access: `P` anticommutes
    /// with some stabilizer generator (expectation `0`), or it equals a
    /// product of generators up to sign (expectation `+-1`; see
    /// `stabilizer_sign`).
    pub fn pauli_expectation(
        &self,
        observable: &bgls_circuit::PauliString,
    ) -> Result<f64, SimError> {
        if let Some(q) = observable.max_qubit() {
            self.check(q)?;
        }
        // P in row convention: per-qubit (x, z) bits, Y = (1, 1) with the
        // phase absorbed (the same convention tableau rows use).
        let mut px = BitVec::zeros(self.x.n());
        let mut pz = BitVec::zeros(self.z.n());
        for (q, op) in observable.iter() {
            let (xb, zb) = op.xz_bits();
            px.set(q, xb);
            pz.set(q, zb);
        }
        Ok(match self.stabilizer_sign(&px, &pz) {
            None => 0.0,
            Some(false) => 1.0,
            Some(true) => -1.0,
        })
    }

    /// The sign with which the Pauli `X^px Z^pz` (row convention) lies in
    /// the stabilizer group: `None` when it anticommutes with some
    /// generator, `Some(true)` when the group holds `-P`. The product
    /// is reconstructed from the destabilizer rows — generator `i`
    /// participates exactly when `P` anticommutes with destabilizer `i`
    /// — and its sign accumulated with the CHP phase function.
    fn stabilizer_sign(&self, px: &BitVec, pz: &BitVec) -> Option<bool> {
        let n = self.n;
        // Symplectic anticommutation test of P against row i.
        let anticommutes = |i: usize| -> bool { px.dot(self.z.row(i)) ^ pz.dot(self.x.row(i)) };
        if (n..2 * n).any(&anticommutes) {
            return None;
        }
        let mut ax = BitVec::zeros(px.len());
        let mut az = BitVec::zeros(pz.len());
        let mut phase: i32 = 0;
        for row in (0..n).filter(|&i| anticommutes(i)).map(|i| n + i) {
            phase += 2 * (self.r.get(row) as i32)
                + product_phase(
                    self.x.row(row).words(),
                    self.z.row(row).words(),
                    ax.words(),
                    az.words(),
                );
            ax.xor_assign(self.x.row(row));
            az.xor_assign(self.z.row(row));
        }
        debug_assert!(
            ax == *px && az == *pz,
            "commuting Pauli must lie in the +- stabilizer group"
        );
        debug_assert_eq!(phase.rem_euclid(2), 0, "stabilizer sign must be real");
        Some(phase.rem_euclid(4) == 2)
    }

    /// Applies a Clifford gate (same acceptance set as the CH form).
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        use Gate::*;
        let near = |v: f64, step: f64| -> Option<i64> {
            let k = (v / step).round();
            ((v - k * step).abs() <= 1e-9).then_some(k as i64)
        };
        let s_pow = |st: &mut Self, q: usize, k: i64| -> Result<(), SimError> {
            for _ in 0..k.rem_euclid(4) {
                st.s(q)?;
            }
            Ok(())
        };
        match gate {
            I => Ok(()),
            H => self.h(qubits[0]),
            S => self.s(qubits[0]),
            Sdg => s_pow(self, qubits[0], 3),
            Z => s_pow(self, qubits[0], 2),
            X => {
                // X = H Z H
                self.h(qubits[0])?;
                s_pow(self, qubits[0], 2)?;
                self.h(qubits[0])
            }
            Y => {
                // Y = Z X up to phase (global phase invisible to the tableau)
                s_pow(self, qubits[0], 2)?;
                self.h(qubits[0])?;
                s_pow(self, qubits[0], 2)?;
                self.h(qubits[0])
            }
            SqrtX => {
                self.h(qubits[0])?;
                self.s(qubits[0])?;
                self.h(qubits[0])
            }
            SqrtXDag => {
                self.h(qubits[0])?;
                s_pow(self, qubits[0], 3)?;
                self.h(qubits[0])
            }
            Cnot => self.cnot(qubits[0], qubits[1]),
            Cz => {
                self.h(qubits[1])?;
                self.cnot(qubits[0], qubits[1])?;
                self.h(qubits[1])
            }
            Swap => {
                self.cnot(qubits[0], qubits[1])?;
                self.cnot(qubits[1], qubits[0])?;
                self.cnot(qubits[0], qubits[1])
            }
            ISwap => {
                self.s(qubits[0])?;
                self.s(qubits[1])?;
                self.h(qubits[1])?;
                self.cnot(qubits[0], qubits[1])?;
                self.h(qubits[1])?;
                self.cnot(qubits[0], qubits[1])?;
                self.cnot(qubits[1], qubits[0])?;
                self.cnot(qubits[0], qubits[1])
            }
            Rz(p) => match near(p.value()?, PI / 2.0) {
                Some(k) => s_pow(self, qubits[0], k),
                None => Err(SimError::NotClifford(format!("rz({})", p.value()?))),
            },
            ZPow(p) => match near(p.value()?, 0.5) {
                Some(k) => s_pow(self, qubits[0], k),
                None => Err(SimError::NotClifford(format!("zpow({})", p.value()?))),
            },
            Rx(p) => match near(p.value()?, PI / 2.0) {
                Some(k) => {
                    self.h(qubits[0])?;
                    s_pow(self, qubits[0], k)?;
                    self.h(qubits[0])
                }
                None => Err(SimError::NotClifford(format!("rx({})", p.value()?))),
            },
            Ry(p) => match near(p.value()?, PI / 2.0) {
                Some(k) => {
                    s_pow(self, qubits[0], 3)?;
                    self.h(qubits[0])?;
                    s_pow(self, qubits[0], k)?;
                    self.h(qubits[0])?;
                    self.s(qubits[0])
                }
                None => Err(SimError::NotClifford(format!("ry({})", p.value()?))),
            },
            CPhase(p) => match near(p.value()?, PI) {
                Some(k) if k.rem_euclid(2) == 1 => {
                    self.h(qubits[1])?;
                    self.cnot(qubits[0], qubits[1])?;
                    self.h(qubits[1])
                }
                Some(_) => Ok(()),
                None => Err(SimError::NotClifford(format!("cp({})", p.value()?))),
            },
            Rzz(p) => match near(p.value()?, PI / 2.0) {
                Some(k) => {
                    self.cnot(qubits[0], qubits[1])?;
                    s_pow(self, qubits[1], k)?;
                    self.cnot(qubits[0], qubits[1])
                }
                None => Err(SimError::NotClifford(format!("rzz({})", p.value()?))),
            },
            other => Err(SimError::NotClifford(other.name().into())),
        }
    }
}

/// The tableau as a gate-by-gate (BGLS) backend: Clifford gates apply
/// natively, probabilities come from
/// [`CliffordTableau::basis_probability`], projection from
/// [`CliffordTableau::project`], and Pauli expectations from
/// [`CliffordTableau::pauli_expectation`]. Channels stay unsupported
/// (trait default) — noisy circuits belong on the density matrix or a
/// trajectory-capable amplitude backend.
///
/// Compared to the CH form each probability call pays an `O(n^3 / 64)`
/// row reduction before its `O(n^2 / 64)` per-candidate tests, but the
/// tableau gains projection — so mid-circuit-measurement Clifford
/// circuits (QEC syndrome extraction et al.) run on the forest engine
/// and the exact expectation walk, both of which the CH form rejects.
impl bgls_core::BglsState for CliffordTableau {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        CliffordTableau::apply_gate(self, gate, qubits)
    }

    fn probability(&self, bits: BitString) -> f64 {
        self.basis_probability(&bits)
    }

    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        assert!(
            candidates.iter().all(|b| b.len() == self.n),
            "bitstring width mismatch"
        );
        self.probabilities_of_words(candidates.iter().map(|b| [b.as_u64()]))
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        CliffordTableau::project(self, qubit, value)
    }

    fn expectation(&self, observable: &bgls_circuit::PauliString) -> Result<f64, SimError> {
        self.pauli_expectation(observable)
    }
}

/// The power of `i` picked up when multiplying the Pauli row `(x1, z1)`
/// into the row `(x2, z2)`: the CHP phase function `g` summed over
/// qubits, 64 at a time. Per qubit, `g` is `+1` or `-1` exactly in the
/// cases of the `plus` and `minus` masks, by the `(x1, z1)` case of
/// the CHP table.
fn product_phase(x1: &[u64], z1: &[u64], x2: &[u64], z2: &[u64]) -> i32 {
    let mut phase = 0;
    for (((&a, &b), &c), &d) in x1.iter().zip(z1).zip(x2).zip(z2) {
        let plus = (a & b & !c & d) | (a & !b & c & d) | (!a & b & c & !d);
        let minus = (a & b & c & !d) | (a & !b & !c & d) | (!a & b & c & d);
        phase += plus.count_ones() as i32 - minus.count_ones() as i32;
    }
    phase
}

/// Conventional Clifford-circuit sampler over the tableau: evolve once per
/// repetition and measure every qubit with collapse (the qubit-by-qubit
/// strategy the gate-by-gate algorithm replaces).
pub struct TableauSimulator {
    n: usize,
    seed: Option<u64>,
}

impl TableauSimulator {
    /// Sampler over `n` qubits.
    pub fn new(n: usize) -> Self {
        TableauSimulator { n, seed: None }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Samples `repetitions` full-register bitstrings from the circuit's
    /// final state (measurement ops in the circuit are ignored; all
    /// qubits are measured at the end).
    pub fn sample(&self, circuit: &Circuit, repetitions: u64) -> Result<Vec<BitString>, SimError> {
        if circuit.num_qubits() > self.n {
            return Err(SimError::QubitOutOfRange {
                index: circuit.num_qubits() - 1,
                num_qubits: self.n,
            });
        }
        let mut rng = match self.seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        };
        // evolve once; clone the evolved tableau per repetition and collapse
        let mut base = CliffordTableau::zero(self.n);
        for op in circuit.all_operations() {
            match &op.kind {
                OpKind::Gate(g) => {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    base.apply_gate(g, &qs)?;
                }
                OpKind::Measure { .. } => {}
                OpKind::Channel(c) => {
                    return Err(SimError::Unsupported(format!(
                        "channel {} on tableau",
                        c.name()
                    )))
                }
            }
        }
        let mut out = Vec::with_capacity(repetitions as usize);
        for _ in 0..repetitions {
            let mut t = base.clone();
            let mut bits = BitString::zeros(self.n);
            for q in 0..self.n {
                bits.set(q, t.measure(q, &mut rng)?);
            }
            out.push(bits);
        }
        Ok(out)
    }

    /// Histogram convenience over [`TableauSimulator::sample`].
    pub fn sample_histogram(
        &self,
        circuit: &Circuit,
        repetitions: u64,
    ) -> Result<Histogram, SimError> {
        let mut h = Histogram::new(self.n);
        for b in self.sample(circuit, repetitions)? {
            h.record(b, 1);
        }
        Ok(h)
    }
}

/// Applies a whole Clifford circuit to a fresh tableau (helper for tests
/// and benchmarks).
pub fn tableau_from_circuit(circuit: &Circuit, n: usize) -> Result<CliffordTableau, SimError> {
    let mut t = CliffordTableau::zero(n);
    for op in circuit.all_operations() {
        if let Some(g) = op.as_gate() {
            let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
            t.apply_gate(g, &qs)?;
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_circuit::{Operation, Qubit};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn zero_state_measures_deterministically_zero() {
        let mut t = CliffordTableau::zero(3);
        let mut r = rng();
        for q in 0..3 {
            assert!(!t.measure(q, &mut r).unwrap());
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = CliffordTableau::zero(2);
        t.apply_gate(&Gate::X, &[1]).unwrap();
        let mut r = rng();
        assert!(!t.measure(0, &mut r).unwrap());
        assert!(t.measure(1, &mut r).unwrap());
    }

    #[test]
    fn hadamard_gives_random_then_consistent_outcomes() {
        let mut ones = 0;
        for seed in 0..200 {
            let mut t = CliffordTableau::zero(1);
            t.h(0).unwrap();
            let mut r = StdRng::seed_from_u64(seed);
            let first = t.measure(0, &mut r).unwrap();
            // post-collapse remeasurement is deterministic
            assert_eq!(t.measure(0, &mut r).unwrap(), first);
            ones += first as u32;
        }
        assert!(ones > 70 && ones < 130, "ones = {ones}");
    }

    #[test]
    fn ghz_measurements_are_correlated() {
        for seed in 0..50 {
            let mut t = CliffordTableau::zero(3);
            t.h(0).unwrap();
            t.cnot(0, 1).unwrap();
            t.cnot(1, 2).unwrap();
            let mut r = StdRng::seed_from_u64(seed);
            let a = t.measure(0, &mut r).unwrap();
            assert_eq!(t.measure(1, &mut r).unwrap(), a);
            assert_eq!(t.measure(2, &mut r).unwrap(), a);
        }
    }

    #[test]
    fn hzh_equals_x() {
        let mut t = CliffordTableau::zero(1);
        t.h(0).unwrap();
        t.apply_gate(&Gate::Z, &[0]).unwrap();
        t.h(0).unwrap();
        let mut r = rng();
        assert!(t.measure(0, &mut r).unwrap());
    }

    #[test]
    fn s_squared_is_z_on_plus_state() {
        // |+> --S S--> Z|+> = |->; H maps it to |1>
        let mut t = CliffordTableau::zero(1);
        t.h(0).unwrap();
        t.s(0).unwrap();
        t.s(0).unwrap();
        t.h(0).unwrap();
        let mut r = rng();
        assert!(t.measure(0, &mut r).unwrap());
    }

    #[test]
    fn tableau_distribution_matches_chform_gate_by_gate() {
        use crate::ChForm;
        use bgls_circuit::{generate_random_circuit, RandomCircuitParams};
        use bgls_core::Simulator;

        let n = 4;
        let mut crng = StdRng::seed_from_u64(19);
        let circuit = generate_random_circuit(&RandomCircuitParams::clifford(n, 15), &mut crng);
        let reps = 20_000u64;

        let tab = TableauSimulator::new(n).with_seed(1);
        let ht = tab.sample_histogram(&circuit, reps).unwrap();

        let ch_samples = Simulator::new(ChForm::zero(n))
            .with_seed(2)
            .sample_final_bitstrings(&circuit, reps)
            .unwrap();
        let mut hc = Histogram::new(n);
        for b in ch_samples {
            hc.record(b, 1);
        }

        for v in 0..1u64 << n {
            let b = BitString::from_u64(n, v);
            let ft = ht.frequency(b);
            let fc = hc.frequency(b);
            assert!(
                (ft - fc).abs() < 0.02,
                "outcome {b}: tableau {ft} vs chform {fc}"
            );
        }
    }

    #[test]
    fn tableau_expectation_matches_chform() {
        use crate::ChForm;
        use bgls_circuit::{generate_random_circuit, PauliString, RandomCircuitParams};
        use bgls_core::BglsState as _;

        let n = 5;
        for seed in 0..6 {
            let mut crng = StdRng::seed_from_u64(seed);
            let circuit = generate_random_circuit(&RandomCircuitParams::clifford(n, 18), &mut crng);
            let tab = tableau_from_circuit(&circuit, n).unwrap();
            let mut ch = ChForm::zero(n);
            for op in circuit.all_operations() {
                let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                ch.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
            }
            for s in ["Z0", "X1 X2", "Y0 Z3", "Z0 Z1 Z2 Z3 Z4", "X0 Y1 Z2", "I"] {
                let p: PauliString = s.parse().unwrap();
                let a = tab.pauli_expectation(&p).unwrap();
                let b = ch.expectation(&p).unwrap();
                assert!(
                    (a - b).abs() < 1e-10,
                    "seed {seed}, {s}: tableau {a} vs chform {b}"
                );
            }
        }
        let t = CliffordTableau::zero(2);
        assert!(t.pauli_expectation(&"Z4".parse().unwrap()).is_err());
    }

    #[test]
    fn product_phase_matches_chp_table() {
        // the CHP phase function g(x1, z1, x2, z2), one qubit at a time
        let g = |x1: u64, z1: u64, x2: u64, z2: u64| -> i32 {
            let (x2, z2) = (x2 as i32, z2 as i32);
            match (x1, z1) {
                (0, 0) => 0,
                (1, 1) => z2 - x2,
                (1, 0) => z2 * (2 * x2 - 1),
                _ => x2 * (1 - 2 * z2),
            }
        };
        let bit = |case: u64, k: u64| (case >> k) & 1;
        let mut total = 0;
        for case in 0..16 {
            let (x1, z1, x2, z2) = (bit(case, 0), bit(case, 1), bit(case, 2), bit(case, 3));
            let want = g(x1, z1, x2, z2);
            assert_eq!(
                product_phase(&[x1], &[z1], &[x2], &[z2]),
                want,
                "case {case:04b}"
            );
            total += want;
        }
        // all 16 cases side by side in one word, then in a second word
        let packed = |k: u64| (0..16).fold(0u64, |acc, case| acc | bit(case, k) << case);
        let [x1, z1, x2, z2] = [0, 1, 2, 3].map(packed);
        assert_eq!(product_phase(&[x1], &[z1], &[x2], &[z2]), total);
        let two = |w: u64| [0, w << 7];
        assert_eq!(product_phase(&two(x1), &two(z1), &two(x2), &two(z2)), total);
    }

    /// The forced-measurement probability the support test replaces:
    /// collapse a clone qubit by qubit, a factor 1/2 per random outcome,
    /// zero on a contradicted deterministic one.
    fn collapse_probability(t: &CliffordTableau, bits: &BitString) -> f64 {
        let mut t = t.clone();
        let mut p = 1.0;
        for q in 0..t.n {
            if t.anticommuting_stabilizer(q).is_some() {
                p *= 0.5;
            }
            if t.project(q, bits.get(q)).is_err() {
                return 0.0;
            }
        }
        p
    }

    /// Batched and scalar tableau probabilities agree bit for bit with
    /// each other and with [`collapse_probability`], and with `want`
    /// (a CH-form or dense reference) to 1e-10 with the same support.
    fn assert_tableau_probabilities(
        t: &CliffordTableau,
        cands: &[BitString],
        want: impl Fn(BitString) -> f64,
        context: &str,
    ) {
        use bgls_core::BglsState as _;
        let batched = t.probabilities_batch(cands);
        assert_eq!(batched.len(), cands.len());
        for (&b, &p) in cands.iter().zip(&batched) {
            for got in [t.basis_probability(&b), collapse_probability(t, &b)] {
                assert!(
                    p.to_bits() == got.to_bits(),
                    "{context}, {b}: batched {p} vs {got}"
                );
            }
            let w = want(b);
            assert!(
                (p - w).abs() < 1e-10 && (p == 0.0) == (w.abs() < 1e-12),
                "{context}, {b}: tableau {p} vs reference {w}"
            );
        }
    }

    fn all_bitstrings(n: usize) -> Vec<BitString> {
        (0..1u64 << n).map(|v| BitString::from_u64(n, v)).collect()
    }

    fn dispatch_set_params(n: usize, moments: usize) -> bgls_circuit::RandomCircuitParams {
        bgls_circuit::RandomCircuitParams {
            qubits: n,
            moments,
            op_density: 1.0,
            gate_set: vec![
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
            ],
        }
    }

    #[test]
    fn basis_probability_matches_chform_amplitudes() {
        use crate::ChForm;
        use bgls_circuit::{generate_random_circuit, RandomCircuitParams};
        use bgls_core::BglsState as _;
        use bgls_statevector::StateVector;

        let n = 4;
        for seed in 0..8 {
            let mut crng = StdRng::seed_from_u64(100 + seed);
            let circuit = generate_random_circuit(&RandomCircuitParams::clifford(n, 12), &mut crng);
            let tab = tableau_from_circuit(&circuit, n).unwrap();
            let mut ch = ChForm::zero(n);
            for op in circuit.all_operations() {
                let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                ch.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
            }
            for v in 0..1u64 << n {
                let b = BitString::from_u64(n, v);
                let pt = tab.basis_probability(&b);
                let pc = ch.probability(b);
                assert!(
                    (pt - pc).abs() < 1e-10,
                    "seed {seed}, {b}: tableau {pt} vs chform {pc}"
                );
            }
        }

        // Every x after every gate of random Clifford circuits, n <= 10.
        for n in 1..=10 {
            let mut crng = StdRng::seed_from_u64(200 + n as u64);
            let circuit = generate_random_circuit(&dispatch_set_params(n, 5), &mut crng);
            let mut tab = CliffordTableau::zero(n);
            let mut ch = ChForm::zero(n);
            let all = all_bitstrings(n);
            for (i, op) in circuit.all_operations().enumerate() {
                let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                tab.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
                ch.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
                let context = format!("n {n} gate {i}");
                assert_tableau_probabilities(&tab, &all, |b| ch.probability(b), &context);
            }
        }

        // States after projections, against a dense state projected alike.
        for n in [3usize, 6, 8] {
            let mut crng = StdRng::seed_from_u64(300 + n as u64);
            let mut tab = CliffordTableau::zero(n);
            let mut sv = StateVector::zero(n);
            let all = all_bitstrings(n);
            for round in 0..4 {
                let circuit = generate_random_circuit(&dispatch_set_params(n, 3), &mut crng);
                for op in circuit.all_operations() {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    tab.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
                    sv.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
                }
                for q in [round % n, (3 * round + 1) % n] {
                    let value = crng.gen::<bool>();
                    let value = if tab.clone().project(q, value).is_ok() {
                        value
                    } else {
                        !value
                    };
                    CliffordTableau::project(&mut tab, q, value).unwrap();
                    sv.project(q, value).unwrap();
                    let context = format!("n {n} round {round} projected q{q}");
                    assert_tableau_probabilities(&tab, &all, |b| sv.probability(b), &context);
                }
            }
        }

        // Widths 33-64, where a tableau row spans two words: sampled
        // outcomes (in the support) and single-bit flips of them.
        for n in [33usize, 47, 64] {
            let mut crng = StdRng::seed_from_u64(400 + n as u64);
            let circuit = generate_random_circuit(&dispatch_set_params(n, 6), &mut crng);
            let mut tab = tableau_from_circuit(&circuit, n).unwrap();
            let mut ch = ChForm::zero(n);
            for op in circuit.all_operations() {
                let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                ch.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
            }
            let sample = |t: &CliffordTableau, rng: &mut StdRng| -> Vec<BitString> {
                let mut out = Vec::new();
                for _ in 0..4 {
                    let mut m = t.clone();
                    let mut b = BitString::zeros(n);
                    for q in 0..n {
                        b.set(q, m.measure(q, rng).unwrap());
                    }
                    out.push(b);
                    for q in [0, n / 2, n - 1] {
                        let mut f = b;
                        f.set(q, !b.get(q));
                        out.push(f);
                    }
                }
                out
            };
            let cands = sample(&tab, &mut crng);
            let context = format!("n {n}");
            assert_tableau_probabilities(&tab, &cands, |b| ch.probability(b), &context);
            // after projections the CH form no longer applies, so check
            // the support against the collapse reference alone
            for q in [0, n - 1] {
                let value = tab.clone().project(q, true).is_ok();
                CliffordTableau::project(&mut tab, q, value).unwrap();
            }
            let cands = sample(&tab, &mut crng);
            let collapse = |b: BitString| collapse_probability(&tab, &b);
            assert_tableau_probabilities(&tab, &cands, collapse, &format!("n {n} projected"));
        }
    }

    #[test]
    fn project_forces_outcomes_and_rejects_impossible_ones() {
        // GHZ: project qubit 0 to 1 -> all qubits read 1 deterministically
        let mut t = CliffordTableau::zero(3);
        t.h(0).unwrap();
        t.cnot(0, 1).unwrap();
        t.cnot(1, 2).unwrap();
        t.project(0, true).unwrap();
        let mut r = rng();
        assert!(t.measure(1, &mut r).unwrap());
        assert!(t.measure(2, &mut r).unwrap());
        // projecting a deterministic qubit onto the wrong value is the
        // impossible event
        assert!(matches!(
            t.project(1, false),
            Err(SimError::ZeroProbabilityEvent)
        ));
        // onto the right value it is a no-op
        t.project(1, true).unwrap();
    }

    #[test]
    fn tableau_runs_as_a_gate_by_gate_backend() {
        use bgls_circuit::{Operation, Qubit};
        use bgls_core::Simulator;

        let n = 3;
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(1), Qubit(2)]).unwrap());
        c.push(Operation::measure(Qubit::range(n), "z").unwrap());
        let result = Simulator::new(CliffordTableau::zero(n))
            .with_seed(3)
            .run(&c, 500)
            .unwrap();
        let h = result.histogram("z").unwrap();
        assert_eq!(h.count_value(0b000) + h.count_value(0b111), 500);
        assert!(h.count_value(0b000) > 150 && h.count_value(0b111) > 150);
    }

    #[test]
    fn tableau_handles_mid_circuit_measurement_via_projection() {
        use bgls_circuit::{Operation, Qubit};
        use bgls_core::Simulator;

        // measure qubit 0 of a Bell pair mid-circuit, then CNOT onto a
        // fresh qubit: records "a" and "b" must agree perfectly
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(2)]).unwrap());
        c.push(Operation::measure(vec![Qubit(2)], "b").unwrap());
        let result = Simulator::new(CliffordTableau::zero(3))
            .with_seed(5)
            .run(&c, 400)
            .unwrap();
        let a = result.histogram("a").unwrap();
        let b = result.histogram("b").unwrap();
        assert_eq!(a.count_value(0), b.count_value(0));
        assert_eq!(a.count_value(1), b.count_value(1));
        assert!(a.count_value(0) > 100 && a.count_value(1) > 100);
    }

    #[test]
    fn non_clifford_gate_rejected() {
        let mut t = CliffordTableau::zero(1);
        assert!(matches!(
            t.apply_gate(&Gate::T, &[0]),
            Err(SimError::NotClifford(_))
        ));
    }

    #[test]
    fn channels_rejected_by_sampler() {
        use bgls_circuit::Channel;
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.5).unwrap(), vec![Qubit(0)]).unwrap());
        let sim = TableauSimulator::new(1);
        assert!(matches!(sim.sample(&c, 1), Err(SimError::Unsupported(_))));
    }

    #[test]
    fn clifford_rotations_accepted() {
        let mut t = CliffordTableau::zero(2);
        t.apply_gate(&Gate::Rz((PI / 2.0).into()), &[0]).unwrap();
        t.apply_gate(&Gate::Rx(PI.into()), &[1]).unwrap();
        t.apply_gate(&Gate::Rzz((PI / 2.0).into()), &[0, 1])
            .unwrap();
        let mut r = rng();
        // Rx(pi) = X up to phase: qubit 1 measures 1
        assert!(t.measure(1, &mut r).unwrap());
    }
}
