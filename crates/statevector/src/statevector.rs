//! Dense state-vector simulation state — the
//! `cirq.StateVectorSimulationState` substitute.

use crate::kernel;
use crate::shard::ShardedBuffer;
use bgls_circuit::{Channel, Circuit, Gate, OpKind, PauliString};
use bgls_core::{AmplitudeState, BglsState, BitString, MarginalState, SimError};
use bgls_linalg::{Matrix, C64};
use rand::{Rng, RngCore};

/// A pure state as a dense vector of `2^n` amplitudes. State-index bit `i`
/// is qubit `i`. Storage is a cache-line-aligned [`ShardedBuffer`] so the
/// sharded kernels in `crate::kernel` never straddle a vector lane at a
/// shard boundary.
#[derive(Debug)]
pub struct StateVector {
    amps: ShardedBuffer,
    n: usize,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector {
            amps: self.amps.clone(),
            n: self.n,
        }
    }

    /// Buffer-reusing clone: overwrites the existing amplitude vector in
    /// place (no reallocation when the widths match) — the per-trajectory
    /// scratch-state path leans on this.
    fn clone_from(&mut self, source: &Self) {
        self.amps.clone_from(&source.amps);
        self.n = source.n;
    }
}

impl StateVector {
    /// The all-zeros computational basis state on `n` qubits.
    pub fn zero(n: usize) -> Self {
        Self::computational_basis(n, 0)
    }

    /// The computational basis state `|basis>` on `n` qubits.
    pub fn computational_basis(n: usize, basis: u64) -> Self {
        assert!(n <= 30, "dense state vector limited to 30 qubits");
        assert!(n == 64 || basis >> n == 0, "basis index wider than n");
        let mut amps = ShardedBuffer::zeroed(1usize << n);
        amps[basis as usize] = C64::ONE;
        StateVector { amps, n }
    }

    /// Builds a state from explicit amplitudes (length must be a power of
    /// two); normalizes.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, SimError> {
        if !amps.len().is_power_of_two() || amps.is_empty() {
            return Err(SimError::Invalid(
                "amplitude count must be a nonzero power of two".into(),
            ));
        }
        let n = amps.len().trailing_zeros() as usize;
        let norm = kernel::norm_sqr(&amps);
        if norm <= 0.0 || !norm.is_finite() {
            return Err(SimError::Invalid("state has zero or invalid norm".into()));
        }
        let mut amps = ShardedBuffer::from(amps);
        kernel::scale(&mut amps, 1.0 / norm.sqrt());
        Ok(StateVector { amps, n })
    }

    /// Evolves |0...0> through a unitary circuit (gates only).
    ///
    /// The whole gate list is handed to [`apply_matrices`](crate::apply_matrices) in one
    /// call, so runs of gates whose shard footprints overlap fuse into a
    /// single pass over the amplitudes instead of one sweep per gate.
    pub fn from_circuit(circuit: &Circuit, n: usize) -> Result<Self, SimError> {
        let mut sv = StateVector::zero(n);
        let mut owned: Vec<(Matrix, Vec<usize>)> = Vec::new();
        for op in circuit.all_operations() {
            match &op.kind {
                OpKind::Gate(g) => {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    sv.check_qubits(&qs)?;
                    owned.push((g.unitary()?, qs));
                }
                OpKind::Measure { .. } => {}
                OpKind::Channel(c) => {
                    return Err(SimError::Unsupported(format!(
                        "channel {} in StateVector::from_circuit",
                        c.name()
                    )))
                }
            }
        }
        let ops: Vec<(&Matrix, &[usize])> =
            owned.iter().map(|(m, qs)| (m, qs.as_slice())).collect();
        kernel::apply_matrices(&mut sv.amps, &ops);
        Ok(sv)
    }

    /// Raw amplitudes.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The full Born distribution `P(b) = |<b|psi>|^2` as a dense vector.
    pub fn born_distribution(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Inner product `<self|other>`.
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n, other.n);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Squared norm (should stay 1 within rounding for unitary circuits).
    pub fn norm_sqr(&self) -> f64 {
        kernel::norm_sqr(&self.amps)
    }

    /// Renormalizes to unit norm.
    pub fn renormalize(&mut self) -> Result<(), SimError> {
        let norm = self.norm_sqr();
        if norm <= 0.0 || !norm.is_finite() {
            return Err(SimError::ZeroProbabilityEvent);
        }
        kernel::scale(&mut self.amps, 1.0 / norm.sqrt());
        Ok(())
    }
}

impl BglsState for StateVector {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        let u = gate.unitary()?;
        kernel::apply_matrix(&mut self.amps, &u, qubits);
        Ok(())
    }

    fn probability(&self, bits: BitString) -> f64 {
        debug_assert_eq!(bits.len(), self.n);
        self.amps[bits.as_u64() as usize].norm_sqr()
    }

    /// Batched form: one bounds-checked slice walk over direct amplitude
    /// lookups, with no per-candidate trait dispatch. Values are the same
    /// `|amps[b]|^2` the scalar path computes, bit for bit.
    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        let mut out = Vec::with_capacity(candidates.len());
        for c in candidates {
            debug_assert_eq!(c.len(), self.n);
            out.push(self.amps[c.as_u64() as usize].norm_sqr());
        }
        out
    }

    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        self.check_qubits(qubits)?;
        // Quantum-trajectory branch selection: P(i) = |K_i |psi>|^2.
        let mut r: f64 = rng.gen::<f64>();
        let last = channel.kraus().len() - 1;
        for (i, k) in channel.kraus().iter().enumerate() {
            let mut cand = self.amps.clone();
            kernel::apply_matrix(&mut cand, k, qubits);
            let norm = kernel::norm_sqr(&cand);
            if r < norm || i == last {
                if norm <= 0.0 {
                    return Err(SimError::ZeroProbabilityEvent);
                }
                kernel::scale(&mut cand, 1.0 / norm.sqrt());
                self.amps = cand;
                return Ok(i);
            }
            r -= norm;
        }
        unreachable!("last branch always taken")
    }

    fn kraus_branch_probabilities(
        &self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        self.check_qubits(qubits)?;
        // P(i) = |K_i |psi>|^2 — one reusable scratch buffer for every
        // branch.
        let mut scratch = vec![C64::ZERO; self.amps.len()];
        Ok(channel
            .kraus()
            .iter()
            .map(|k| {
                scratch.copy_from_slice(&self.amps);
                kernel::apply_matrix(&mut scratch, k, qubits);
                kernel::norm_sqr(&scratch)
            })
            .collect())
    }

    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        let k = channel
            .kraus()
            .get(branch)
            .ok_or_else(|| SimError::Invalid(format!("Kraus branch {branch} out of range")))?;
        // apply on a candidate so a zero-weight branch leaves the state
        // untouched instead of poisoned
        let mut cand = self.amps.clone();
        kernel::apply_matrix(&mut cand, k, qubits);
        let norm = kernel::norm_sqr(&cand);
        if norm <= 0.0 {
            return Err(SimError::ZeroProbabilityEvent);
        }
        kernel::scale(&mut cand, 1.0 / norm.sqrt());
        self.amps = cand;
        Ok(())
    }

    /// Exact `<psi|P|psi>`: a one-term [`BglsState::expectations`] call.
    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        Ok(self.expectations(&[observable])?[0])
    }

    /// Exact `<psi|P_t|psi>` for every term by one inner-product pass
    /// over the amplitudes per distinct X-mask: with
    /// `P = i^{ny} X^x Z^z`, `P|b> = i^{ny} (-1)^{|b & z|} |b ^ x>`, so
    /// each amplitude pairs with its X-flipped partner under a Z-parity
    /// sign, and terms with the same `x` share the pairing. Each term
    /// keeps its own per-shard accumulator (a SIMD register lane), fed
    /// in index order and combined by ascending tree fold, so every
    /// value is bit-identical to a lone term's pass, for every thread
    /// count and ISA. Every term is checked against the width before any
    /// pass runs.
    fn expectations(&self, observables: &[&PauliString]) -> Result<Vec<f64>, SimError> {
        for p in observables {
            if let Some(q) = p.max_qubit() {
                self.check_qubits(&[q])?;
            }
        }
        let masks: Vec<(u64, u64, u32)> = observables.iter().map(|p| p.dense_masks()).collect();
        // Distinct X-masks in order of first appearance, with their terms.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for (t, &(x, _, _)) in masks.iter().enumerate() {
            match groups.iter_mut().find(|(gx, _)| *gx == x) {
                Some((_, terms)) => terms.push(t),
                None => groups.push((x, vec![t])),
            }
        }
        let mut out = vec![0.0; observables.len()];
        for (x, terms) in groups {
            let zs: Vec<u64> = terms.iter().map(|&t| masks[t].1).collect();
            let sums = kernel::pauli_sums(&self.amps, x as usize, &zs);
            for (&t, sum) in terms.iter().zip(sums) {
                out[t] = (sum * C64::i_pow(masks[t].2 as i64)).re;
            }
        }
        Ok(out)
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        self.check_qubits(&[qubit])?;
        let mask = 1usize << qubit;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i & mask != 0) != value {
                *a = C64::ZERO;
            }
        }
        self.renormalize()
    }
}

impl AmplitudeState for StateVector {
    fn amplitude(&self, bits: BitString) -> C64 {
        self.amps[bits.as_u64() as usize]
    }
}

impl MarginalState for StateVector {
    /// Marginal mass as one partial per shard combined by ascending tree
    /// fold (thread-count-invariant). Mask bits at or above the shard
    /// boundary are constant across a shard, so non-matching shards are
    /// skipped without touching their amplitudes.
    fn marginal_probability(&self, assignment: &[(usize, bool)]) -> f64 {
        let mut mask = 0usize;
        let mut want = 0usize;
        for &(q, v) in assignment {
            mask |= 1 << q;
            if v {
                want |= 1 << q;
            }
        }
        let high = mask & !(kernel::SHARD_LEN - 1);
        let low_mask = mask & (kernel::SHARD_LEN - 1);
        let low_want = want & (kernel::SHARD_LEN - 1);
        let parts = kernel::shard_partials(&self.amps, |ci, chunk| {
            let base = ci * kernel::SHARD_LEN;
            if base & high != want & high {
                return 0.0;
            }
            chunk
                .iter()
                .enumerate()
                .filter(|(i, _)| i & low_mask == low_want)
                .map(|(_, a)| a.norm_sqr())
                .sum()
        });
        kernel::tree_fold_f64(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_circuit::{Operation, Qubit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn zero_state_has_unit_amplitude_at_origin() {
        let sv = StateVector::zero(3);
        assert_eq!(sv.num_qubits(), 3);
        assert!((sv.probability(BitString::zeros(3)) - 1.0).abs() < 1e-15);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn hadamard_splits_amplitude() {
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        assert!(sv
            .amplitude(BitString::zeros(1))
            .approx_eq(C64::real(FRAC_1_SQRT_2), 1e-12));
        assert!((sv.probability(BitString::from_u64(1, 1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_amplitudes() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(1), Qubit(2)]).unwrap());
        let sv = StateVector::from_circuit(&c, 3).unwrap();
        assert!((sv.probability(BitString::from_u64(3, 0b000)) - 0.5).abs() < 1e-12);
        assert!((sv.probability(BitString::from_u64(3, 0b111)) - 0.5).abs() < 1e-12);
        assert!(sv.probability(BitString::from_u64(3, 0b001)) < 1e-15);
    }

    #[test]
    fn marginal_probability_sums_correctly() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        // P(q0 = 0) = 0.5, P(q1 = 0) = 1.0
        assert!((sv.marginal_probability(&[(0, false)]) - 0.5).abs() < 1e-12);
        assert!((sv.marginal_probability(&[(1, false)]) - 1.0).abs() < 1e-12);
        assert!((sv.marginal_probability(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn projection_collapses_and_renormalizes() {
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        sv.project(0, true).unwrap();
        assert!((sv.probability(BitString::from_u64(1, 1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn projecting_impossible_outcome_errors() {
        let mut sv = StateVector::zero(1);
        assert!(matches!(
            sv.project(0, true),
            Err(SimError::ZeroProbabilityEvent)
        ));
    }

    #[test]
    fn kraus_bit_flip_statistics() {
        let ch = Channel::bit_flip(0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut flips = 0;
        for _ in 0..4000 {
            let mut sv = StateVector::zero(1);
            let branch = sv.apply_kraus(&ch, &[0], &mut rng).unwrap();
            if branch == 1 {
                flips += 1;
                assert!((sv.probability(BitString::from_u64(1, 1)) - 1.0).abs() < 1e-12);
            }
        }
        let f = flips as f64 / 4000.0;
        assert!((f - 0.25).abs() < 0.03, "flip rate {f}");
    }

    #[test]
    fn kraus_branch_probabilities_match_channel_weights() {
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        let ch = Channel::depolarizing(0.12).unwrap();
        let probs = sv.kraus_branch_probabilities(&ch, &[0]).unwrap();
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((probs[0] - 0.88).abs() < 1e-12);
        for p in &probs[1..] {
            assert!((p - 0.04).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_kraus_branch_matches_sampled_branch_state() {
        // forcing branch 1 of a bit flip must yield exactly X|0> = |1>
        let ch = Channel::bit_flip(0.25).unwrap();
        let mut sv = StateVector::zero(1);
        sv.apply_kraus_branch(&ch, 1, &[0]).unwrap();
        assert!((sv.probability(BitString::from_u64(1, 1)) - 1.0).abs() < 1e-12);
        // zero-weight branch errors instead of producing NaNs, and the
        // state is left untouched
        let zero = Channel::bit_flip(0.0).unwrap();
        let mut sv = StateVector::zero(1);
        assert!(matches!(
            sv.apply_kraus_branch(&zero, 1, &[0]),
            Err(SimError::ZeroProbabilityEvent)
        ));
        assert!((sv.probability(BitString::zeros(1)) - 1.0).abs() < 1e-15);
        // out-of-range branch is a typed error
        let mut sv = StateVector::zero(1);
        assert!(sv.apply_kraus_branch(&ch, 9, &[0]).is_err());
    }

    #[test]
    fn clone_from_reuses_buffer_and_copies_amplitudes() {
        let mut src = StateVector::zero(3);
        src.apply_gate(&Gate::H, &[1]).unwrap();
        let mut dst = StateVector::zero(3);
        let buf = dst.amps.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst.amps.as_ptr(), buf, "clone_from reallocated");
        for (a, b) in dst.amplitudes().iter().zip(src.amplitudes()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let sv = StateVector::from_amplitudes(vec![C64::real(3.0), C64::real(4.0)]).unwrap();
        assert!((sv.probability(BitString::zeros(1)) - 9.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_rejects_bad_input() {
        assert!(StateVector::from_amplitudes(vec![C64::ZERO; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![C64::ZERO; 4]).is_err());
        assert!(StateVector::from_amplitudes(vec![]).is_err());
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::computational_basis(2, 0);
        let b = StateVector::computational_basis(2, 3);
        assert!(a.fidelity(&b) < 1e-15);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_qubit_rejected() {
        let mut sv = StateVector::zero(2);
        assert!(matches!(
            sv.apply_gate(&Gate::X, &[2]),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn pauli_expectation_matches_dense_operator() {
        use bgls_circuit::{embed_unitary, PauliString};
        let mut sv = StateVector::zero(3);
        for (g, qs) in [
            (Gate::H, vec![0usize]),
            (Gate::T, vec![1]),
            (Gate::Cnot, vec![0, 2]),
            (Gate::Ry(0.7.into()), vec![1]),
            (Gate::ISwap, vec![1, 2]),
        ] {
            sv.apply_gate(&g, &qs).unwrap();
        }
        for s in ["I", "Z0", "X1", "Y2", "Z0 Z2", "X0 Y1 Z2", "Y0 Y1"] {
            let p: PauliString = s.parse().unwrap();
            // brute force: apply each embedded factor to the ket
            let mut v = sv.amplitudes().to_vec();
            for (q, op) in p.iter() {
                v = embed_unitary(&op.matrix(), &[Qubit(q as u32)], 3).matvec(&v);
            }
            let want: C64 = sv
                .amplitudes()
                .iter()
                .zip(&v)
                .map(|(a, b)| a.conj() * *b)
                .sum();
            assert!(want.im.abs() < 1e-12);
            let got = sv.expectation(&p).unwrap();
            assert!((got - want.re).abs() < 1e-12, "{s}: {got} vs {want:?}");
        }
        assert!(matches!(
            sv.expectation(&"Z5".parse().unwrap()),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn born_distribution_sums_to_one() {
        let mut sv = StateVector::zero(4);
        sv.apply_gate(&Gate::H, &[0]).unwrap();
        sv.apply_gate(&Gate::H, &[2]).unwrap();
        sv.apply_gate(&Gate::Cnot, &[0, 3]).unwrap();
        let p = sv.born_distribution();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
