//! Density-matrix simulation state — the
//! `cirq.DensityMatrixSimulationState` substitute.
//!
//! Implementation detail: the matrix is stored *vectorized*, i.e. as a
//! `4^n`-amplitude array viewed as a 2n-qubit state, with rho[r, c] at
//! index `r | (c << n)`. Applying `U rho U^dagger` is then just applying
//! `U` on the row qubits and `conj(U)` on the column qubits with the same
//! dense kernels used by [`crate::StateVector`]. Channels apply their full
//! Kraus sum — exactly, with no trajectory sampling — so noisy circuits
//! keep the sample-parallelized BGLS path. On the vectorized form the Kraus
//! sum of a k-qubit channel is one `4^k x 4^k` matrix, the superoperator
//! `S = sum_i K_i (x) conj(K_i)` on qubits `(q.., q + n..)`, so a channel
//! costs one in-place kernel pass like a gate does.

use crate::kernel;
use crate::shard::ShardedBuffer;
use bgls_circuit::{Channel, Gate, PauliString};
use bgls_core::{BglsState, BitString, MarginalState, SimError};
use bgls_linalg::{Matrix, C64};
use rand::RngCore;

/// Mixed state of `n` qubits as a vectorized `2^n x 2^n` density matrix.
/// Entries live in a cache-line-aligned [`ShardedBuffer`], so the sharded
/// dense kernels apply to the vectorized form exactly as they do to a
/// state vector.
#[derive(Debug)]
pub struct DensityMatrix {
    /// Vectorized entries: `rho[r, c]` at `r | (c << n)`.
    vec: ShardedBuffer,
    n: usize,
}

impl Clone for DensityMatrix {
    fn clone(&self) -> Self {
        DensityMatrix {
            vec: self.vec.clone(),
            n: self.n,
        }
    }

    /// Buffer-reusing clone: overwrites the existing entry vector in
    /// place (no reallocation when the widths match) — the per-trajectory
    /// scratch-state path leans on this.
    fn clone_from(&mut self, source: &Self) {
        self.vec.clone_from(&source.vec);
        self.n = source.n;
    }
}

impl DensityMatrix {
    /// The pure all-zeros state `|0..0><0..0|`.
    pub fn zero(n: usize) -> Self {
        assert!(n <= 13, "density matrix limited to 13 qubits (4^n memory)");
        let mut vec = ShardedBuffer::zeroed(1usize << (2 * n));
        vec[0] = C64::ONE;
        DensityMatrix { vec, n }
    }

    /// A pure state `|psi><psi|` from amplitudes of length `2^n`.
    pub fn from_pure(amps: &[C64]) -> Result<Self, SimError> {
        if !amps.len().is_power_of_two() || amps.is_empty() {
            return Err(SimError::Invalid(
                "amplitude count must be a power of two".into(),
            ));
        }
        let n = amps.len().trailing_zeros() as usize;
        let dim = amps.len();
        let mut vec = ShardedBuffer::zeroed(dim * dim);
        for c in 0..dim {
            for r in 0..dim {
                vec[r | (c << n)] = amps[r] * amps[c].conj();
            }
        }
        let mut dm = DensityMatrix { vec, n };
        let tr = dm.trace();
        if tr.abs() <= 0.0 {
            return Err(SimError::Invalid("zero-trace state".into()));
        }
        kernel::scale(&mut dm.vec, 1.0 / tr);
        Ok(dm)
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(n: usize) -> Self {
        let mut dm = DensityMatrix::zero(n);
        dm.vec[0] = C64::ZERO;
        let dim = 1usize << n;
        let w = 1.0 / dim as f64;
        for r in 0..dim {
            dm.vec[r | (r << n)] = C64::real(w);
        }
        dm
    }

    /// Trace (should be 1 within rounding).
    pub fn trace(&self) -> f64 {
        let dim = 1usize << self.n;
        (0..dim).map(|r| self.vec[r | (r << self.n)].re).sum()
    }

    /// Purity `Tr(rho^2)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr(rho^2) = sum_{r,c} rho[r,c] rho[c,r] = sum |rho[r,c]|^2 for
        // Hermitian rho — the squared norm of the vectorized entries.
        kernel::norm_sqr(&self.vec)
    }

    /// Dense copy of the matrix (verification only).
    pub fn to_matrix(&self) -> Matrix {
        let dim = 1usize << self.n;
        Matrix::from_fn(dim, dim, |r, c| self.vec[r | (c << self.n)])
    }

    /// Applies a matrix to the row side and its conjugate to the column
    /// side: `rho -> M rho M^dagger` (not necessarily trace preserving).
    /// Both sides go through [`apply_matrices`](crate::apply_matrices) in one call, so
    /// the row and column sweeps fuse into a single pass when their shard
    /// footprints allow it.
    fn conjugate_by(&mut self, m: &Matrix, qubits: &[usize]) {
        let col_qubits: Vec<usize> = qubits.iter().map(|&q| q + self.n).collect();
        let conj = m.conj();
        kernel::apply_matrices(&mut self.vec, &[(m, qubits), (&conj, &col_qubits)]);
    }

    /// Exact channel application: `rho -> sum_i K_i rho K_i^dagger`.
    ///
    /// On the vectorized `rho` the whole Kraus sum is one linear map, the
    /// channel's Liouville superoperator `S = sum_i K_i (x) conj(K_i)`
    /// (`4^k x 4^k`), acting on the row qubits `q..` and the column qubits
    /// `q + n..` together. It is applied in place in a single kernel pass:
    /// a 1q channel is a 2q op on the parallel shard path, a 2q channel a
    /// 4q op on the gather/scatter path.
    fn apply_channel_exact(&mut self, channel: &Channel, qubits: &[usize]) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        let mut targets = qubits.to_vec();
        targets.extend(qubits.iter().map(|q| q + self.n));
        let zero = Matrix::zeros(1 << targets.len(), 1 << targets.len());
        let s = channel
            .kraus()
            .iter()
            .fold(zero, |s, k| &s + &k.kron(&k.conj()));
        kernel::apply_matrix(&mut self.vec, &s, &targets);
        Ok(())
    }
}

impl BglsState for DensityMatrix {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        let u = gate.unitary()?;
        self.conjugate_by(&u, qubits);
        Ok(())
    }

    fn probability(&self, bits: BitString) -> f64 {
        let r = bits.as_u64() as usize;
        self.vec[r | (r << self.n)].re.max(0.0)
    }

    /// Batched form: the diagonal index arithmetic `r | (r << n)` hoisted
    /// into one tight loop. Same clamped diagonal entries as the scalar
    /// path, bit for bit.
    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        let n = self.n;
        let mut out = Vec::with_capacity(candidates.len());
        for c in candidates {
            let r = c.as_u64() as usize;
            out.push(self.vec[r | (r << n)].re.max(0.0));
        }
        out
    }

    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        _rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        self.apply_channel_exact(channel, qubits).map(|_| 0)
    }

    /// Density matrices absorb the whole channel exactly, so the
    /// "branching" is the single certain branch `[1.0]` — a forest node
    /// on this backend never forks at a channel.
    fn kraus_branch_probabilities(
        &self,
        _channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        self.check_qubits(qubits)?;
        Ok(vec![1.0])
    }

    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        if branch != 0 {
            return Err(SimError::Invalid(format!(
                "deterministic channel has a single branch, got {branch}"
            )));
        }
        self.apply_channel_exact(channel, qubits)
    }

    /// Exact `Tr(rho P)` by one pass over the generalized diagonal:
    /// `P|b> = i^{ny} (-1)^{|b & z|} |b ^ x>` makes the trace a sum of
    /// `rho[b, b ^ x]` entries under Z-parity signs. `O(2^n)` time on
    /// the `O(4^n)` representation, no allocation.
    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        if let Some(q) = observable.max_qubit() {
            self.check_qubits(&[q])?;
        }
        let (x, z, ny) = observable.dense_masks();
        let x = x as usize;
        let dim = 1usize << self.n;
        let mut acc = C64::ZERO;
        for b in 0..dim {
            // Tr(rho P) = sum_b <b| rho P |b> = sum_b phase(b) rho[b, b^x]
            let term = self.vec[b | ((b ^ x) << self.n)];
            if (b as u64 & z).count_ones() % 2 == 1 {
                acc -= term;
            } else {
                acc += term;
            }
        }
        Ok((acc * C64::i_pow(ny as i64)).re)
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        self.check_qubits(&[qubit])?;
        let rmask = 1usize << qubit;
        let cmask = 1usize << (qubit + self.n);
        for (i, z) in self.vec.iter_mut().enumerate() {
            let rbit = i & rmask != 0;
            let cbit = i & cmask != 0;
            if rbit != value || cbit != value {
                *z = C64::ZERO;
            }
        }
        let tr = self.trace();
        if tr <= 0.0 {
            return Err(SimError::ZeroProbabilityEvent);
        }
        kernel::scale(&mut self.vec, 1.0 / tr);
        Ok(())
    }

    fn channels_are_deterministic(&self) -> bool {
        true
    }
}

impl MarginalState for DensityMatrix {
    fn marginal_probability(&self, assignment: &[(usize, bool)]) -> f64 {
        let dim = 1usize << self.n;
        let mut mask = 0usize;
        let mut want = 0usize;
        for &(q, v) in assignment {
            mask |= 1 << q;
            if v {
                want |= 1 << q;
            }
        }
        (0..dim)
            .filter(|r| r & mask == want)
            .map(|r| self.vec[r | (r << self.n)].re)
            .sum::<f64>()
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dummy_rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn zero_state_is_pure_with_unit_trace() {
        let dm = DensityMatrix::zero(2);
        assert!((dm.trace() - 1.0).abs() < 1e-15);
        assert!((dm.purity() - 1.0).abs() < 1e-15);
        assert!((dm.probability(BitString::zeros(2)) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn unitary_evolution_matches_state_vector() {
        let mut dm = DensityMatrix::zero(3);
        let mut sv = StateVector::zero(3);
        for (g, qs) in [
            (Gate::H, vec![0usize]),
            (Gate::T, vec![1]),
            (Gate::Cnot, vec![0, 2]),
            (Gate::Rzz(0.4.into()), vec![1, 2]),
        ] {
            dm.apply_gate(&g, &qs).unwrap();
            sv.apply_gate(&g, &qs).unwrap();
        }
        for v in 0..8u64 {
            let b = BitString::from_u64(3, v);
            assert!(
                (dm.probability(b) - sv.probability(b)).abs() < 1e-12,
                "mismatch at {b}"
            );
        }
        assert!((dm.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut dm = DensityMatrix::zero(1);
        dm.apply_gate(&Gate::H, &[0]).unwrap();
        let ch = Channel::depolarizing(0.5).unwrap();
        dm.apply_kraus(&ch, &[0], &mut dummy_rng()).unwrap();
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        assert!(dm.purity() < 0.99);
    }

    #[test]
    fn bit_flip_probabilities_are_exact() {
        let mut dm = DensityMatrix::zero(1);
        let ch = Channel::bit_flip(0.3).unwrap();
        dm.apply_kraus(&ch, &[0], &mut dummy_rng()).unwrap();
        assert!((dm.probability(BitString::from_u64(1, 1)) - 0.3).abs() < 1e-12);
        assert!((dm.probability(BitString::from_u64(1, 0)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_fixed_point_is_ground_state() {
        let mut dm = DensityMatrix::zero(1);
        dm.apply_gate(&Gate::X, &[0]).unwrap();
        let ch = Channel::amplitude_damping(1.0).unwrap();
        dm.apply_kraus(&ch, &[0], &mut dummy_rng()).unwrap();
        assert!((dm.probability(BitString::zeros(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_probabilities_uniform() {
        let dm = DensityMatrix::maximally_mixed(2);
        for v in 0..4u64 {
            assert!((dm.probability(BitString::from_u64(2, v)) - 0.25).abs() < 1e-15);
        }
        assert!((dm.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn projection_conditions_the_state() {
        let mut dm = DensityMatrix::zero(2);
        dm.apply_gate(&Gate::H, &[0]).unwrap();
        dm.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        dm.project(0, true).unwrap();
        assert!((dm.probability(BitString::from_u64(2, 0b11)) - 1.0).abs() < 1e-12);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_pure_matches_direct_construction() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        sv.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        let dm = DensityMatrix::from_pure(sv.amplitudes()).unwrap();
        assert!((dm.purity() - 1.0).abs() < 1e-12);
        assert!((dm.probability(BitString::from_u64(2, 0b11)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginals_match_statevector() {
        let mut dm = DensityMatrix::zero(2);
        let mut sv = StateVector::zero(2);
        for (g, qs) in [(Gate::H, vec![0usize]), (Gate::Ry(0.8.into()), vec![1])] {
            dm.apply_gate(&g, &qs).unwrap();
            sv.apply_gate(&g, &qs).unwrap();
        }
        use bgls_core::MarginalState as _;
        for q in 0..2 {
            for v in [false, true] {
                let a = dm.marginal_probability(&[(q, v)]);
                let b = sv.marginal_probability(&[(q, v)]);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn kraus_branching_is_the_single_exact_channel() {
        let ch = Channel::bit_flip(0.3).unwrap();
        let dm = DensityMatrix::zero(1);
        assert_eq!(dm.kraus_branch_probabilities(&ch, &[0]).unwrap(), vec![1.0]);
        let mut dm = DensityMatrix::zero(1);
        dm.apply_kraus_branch(&ch, 0, &[0]).unwrap();
        assert!((dm.probability(BitString::from_u64(1, 1)) - 0.3).abs() < 1e-12);
        let mut dm = DensityMatrix::zero(1);
        assert!(dm.apply_kraus_branch(&ch, 1, &[0]).is_err());
    }

    #[test]
    fn pauli_expectation_is_the_operator_trace() {
        use bgls_circuit::{embed_unitary, PauliString, Qubit};
        // mixed state: entangle, then a channel
        let mut dm = DensityMatrix::zero(2);
        dm.apply_gate(&Gate::H, &[0]).unwrap();
        dm.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        dm.apply_gate(&Gate::T, &[1]).unwrap();
        dm.apply_kraus(&Channel::depolarizing(0.2).unwrap(), &[0], &mut dummy_rng())
            .unwrap();
        for s in ["I", "Z0", "X0 X1", "Y0 Z1", "Y0 Y1", "X1"] {
            let p: PauliString = s.parse().unwrap();
            let mut op = Matrix::identity(4);
            for (q, factor) in p.iter() {
                op = embed_unitary(&factor.matrix(), &[Qubit(q as u32)], 2).matmul(&op);
            }
            let want = dm.to_matrix().matmul(&op).trace();
            assert!(want.im.abs() < 1e-12);
            let got = dm.expectation(&p).unwrap();
            assert!((got - want.re).abs() < 1e-12, "{s}: {got} vs {want:?}");
        }
        // depolarizing shrinks <Z0> on |0><0| below 1
        let mut dm = DensityMatrix::zero(1);
        dm.apply_kraus(&Channel::depolarizing(0.3).unwrap(), &[0], &mut dummy_rng())
            .unwrap();
        let z = dm.expectation(&PauliString::z(0)).unwrap();
        assert!((z - 0.6).abs() < 1e-12, "depolarized <Z> = {z}");
    }

    #[test]
    fn clone_from_reuses_buffer() {
        let mut src = DensityMatrix::zero(2);
        src.apply_gate(&Gate::H, &[0]).unwrap();
        let mut dst = DensityMatrix::zero(2);
        let buf = dst.vec.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.vec.as_ptr(), buf, "clone_from reallocated");
        assert!((dst.probability(BitString::from_u64(2, 1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channels_flagged_deterministic() {
        assert!(DensityMatrix::zero(1).channels_are_deterministic());
        assert!(!StateVector::zero(1).channels_are_deterministic());
    }
}
