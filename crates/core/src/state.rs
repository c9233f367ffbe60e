//! State-backend traits.
//!
//! The BGLS simulator is representation-agnostic (paper Sec. 3.1): any type
//! that can (1) apply an operation and (2) compute a bitstring probability
//! can be sampled. [`BglsState`] captures exactly those two capabilities;
//! the optional traits add what specific features need (projection for
//! mid-circuit measurement, marginals for the qubit-by-qubit baseline).

use crate::bitstring::BitString;
use crate::error::SimError;
use bgls_circuit::{Channel, Gate, PauliString};
use bgls_linalg::C64;
use rand::RngCore;

/// A quantum state usable with the gate-by-gate sampler.
///
/// Implementations: dense state vector, density matrix
/// (`bgls-statevector`), CH-form stabilizer state (`bgls-stabilizer`),
/// chain MPS and lazy tensor network (`bgls-mps`).
pub trait BglsState: Clone {
    /// Number of qubits.
    fn num_qubits(&self) -> usize;

    /// Applies a unitary gate to the listed qubits (gate-matrix order:
    /// first listed qubit = most significant gate-index bit).
    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError>;

    /// Probability of measuring `bits` in the computational basis:
    /// `P(b) = |<b|psi>|^2` (paper's `compute_probability`).
    fn probability(&self, bits: BitString) -> f64;

    /// Probabilities of a whole candidate set at once — the batched form
    /// of [`BglsState::probability`] driving the sampler's hot loop.
    ///
    /// The default implementation loops over [`BglsState::probability`];
    /// backends override it to amortize work shared between candidates
    /// (index arithmetic on dense states, environment contraction on
    /// tensor networks).
    ///
    /// **Determinism contract:** implementations must return, for every
    /// candidate, a value bit-identical to what a standalone
    /// `probability` call would return. Shared work is allowed only when
    /// it performs the same floating-point operations in the same order
    /// as the scalar path, so that seeded sampling results do not depend
    /// on whether the batched or scalar path computed them.
    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        candidates.iter().map(|&c| self.probability(c)).collect()
    }

    /// Applies one stochastic Kraus branch of `channel` (quantum
    /// trajectories, paper Sec. 3.2.1): branch `i` is chosen with
    /// probability `|K_i |psi>|^2` and the state renormalized.
    /// Returns the chosen branch index.
    ///
    /// Backends without channel support return
    /// [`SimError::Unsupported`] (the default).
    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        let _ = (channel, qubits, rng);
        Err(SimError::Unsupported("Kraus channels".into()))
    }

    /// Probabilities of every Kraus branch of `channel` on the current
    /// state: `p_i = |K_i |psi>|^2` (pure states) or
    /// `Tr(K_i rho K_i^dagger)` (mixed states). This is the branch-point
    /// query of the trajectory-forest engine: the simulator splits a
    /// node's multiplicities multinomially across these probabilities
    /// instead of sampling one branch per repetition.
    ///
    /// **Determinism contract:** the returned vector must be a pure
    /// function of the state and channel — same values bit for bit on
    /// every call, independent of thread count or call order — and must
    /// list one entry per Kraus operator, in [`Channel::kraus`] order,
    /// summing to 1 within rounding. Backends that apply channels
    /// deterministically (density matrices) return the single branch
    /// `[1.0]`, meaning "the whole channel, applied exactly".
    ///
    /// Backends without channel support return
    /// [`SimError::Unsupported`] (the default).
    fn kraus_branch_probabilities(
        &self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        let _ = (channel, qubits);
        Err(SimError::Unsupported("Kraus branch probabilities".into()))
    }

    /// Applies one *chosen* Kraus branch of `channel` — `K_branch`
    /// followed by renormalization — with no randomness drawn. Together
    /// with [`BglsState::kraus_branch_probabilities`] this decomposes
    /// [`BglsState::apply_kraus`] into its query and commit halves so
    /// the trajectory forest can fork every nonempty branch of a node.
    ///
    /// **Determinism contract:** the post-branch state must be exactly
    /// the state [`BglsState::apply_kraus`] would leave behind had its
    /// internal draw selected `branch` — the forest and replay paths
    /// then walk identical per-branch states. Deterministic-channel
    /// backends accept only `branch == 0` and apply the whole channel.
    /// Returns [`SimError::ZeroProbabilityEvent`] when the branch has
    /// zero weight on this state, leaving the state unchanged (errors
    /// must not poison the state).
    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        let _ = (channel, branch, qubits);
        Err(SimError::Unsupported("Kraus branch application".into()))
    }

    /// Projects `qubit` onto `value` and renormalizes (mid-circuit
    /// measurement collapse). Backends without projection support return
    /// [`SimError::Unsupported`] (the default).
    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        let _ = (qubit, value);
        Err(SimError::Unsupported("projective collapse".into()))
    }

    /// Exact expectation value `<psi|P|psi>` (pure states) or `Tr(rho P)`
    /// (mixed states) of a Hermitian Pauli string on the current state.
    ///
    /// Every exact backend implements this natively: amplitude inner
    /// product on the dense state vector, a diagonal trace walk on the
    /// density matrix, `U_C`-conjugation on the CH-form stabilizer
    /// state, a transfer-matrix sweep on the chain MPS, and a
    /// doubled-network contraction on the lazy tensor network.
    ///
    /// **Contract:** the state is assumed normalized (the expectation is
    /// *not* divided by the norm), the result is a pure function of the
    /// state (deterministic, thread-count independent), and qubits
    /// beyond [`BglsState::num_qubits`] are rejected with
    /// [`SimError::QubitOutOfRange`]. The identity string returns the
    /// squared norm, i.e. `1.0` on a normalized state.
    ///
    /// Backends without expectation support return
    /// [`SimError::Unsupported`] (the default).
    ///
    /// Callers with several terms should prefer
    /// [`BglsState::expectations`], which backends may answer in fewer
    /// passes over the state.
    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        let _ = observable;
        Err(SimError::Unsupported("Pauli expectation".into()))
    }

    /// Exact expectation values of several Pauli strings on the current
    /// state, in order — the batched form of [`BglsState::expectation`]
    /// that the exact expectation walk calls once per frontier node.
    ///
    /// The default implementation loops over [`BglsState::expectation`];
    /// the dense state vector overrides it with one pass over the
    /// amplitudes per distinct X-mask, so a diagonal observable (all
    /// terms Z-strings, such as a MaxCut Hamiltonian) costs one pass
    /// however many terms it has.
    ///
    /// **Determinism contract:** as for
    /// [`BglsState::probabilities_batch`], every value must be
    /// bit-identical to what a standalone `expectation` call returns for
    /// that term, and the first error (in term order) is the one
    /// returned.
    fn expectations(&self, observables: &[&PauliString]) -> Result<Vec<f64>, SimError> {
        observables.iter().map(|p| self.expectation(p)).collect()
    }

    /// True when [`BglsState::apply_kraus`] applies the *whole* channel
    /// deterministically rather than sampling one branch (density
    /// matrices). Such states keep the sample-parallelized path even for
    /// noisy circuits.
    fn channels_are_deterministic(&self) -> bool {
        false
    }

    /// Validates qubit indices against the state size.
    fn check_qubits(&self, qubits: &[usize]) -> Result<(), SimError> {
        let n = self.num_qubits();
        for &q in qubits {
            if q >= n {
                return Err(SimError::QubitOutOfRange {
                    index: q,
                    num_qubits: n,
                });
            }
        }
        Ok(())
    }
}

/// States that expose complex amplitudes `<b|psi>` (every pure-state
/// backend; density matrices only expose probabilities).
pub trait AmplitudeState: BglsState {
    /// The amplitude `<bits|psi>`.
    fn amplitude(&self, bits: BitString) -> C64;
}

/// States that can compute marginal probabilities of partial assignments —
/// what the conventional qubit-by-qubit sampler needs (paper Sec. 2).
pub trait MarginalState: BglsState {
    /// `P(q_{i_1} = v_1, ..., q_{i_k} = v_k)` summed over all unassigned
    /// qubits.
    fn marginal_probability(&self, assignment: &[(usize, bool)]) -> f64;
}

#[cfg(test)]
pub(crate) mod testing {
    //! A tiny reference state-vector backend used by the core crate's own
    //! tests, so `bgls-core` stays independent of `bgls-statevector`.

    use super::*;
    use bgls_circuit::embed_unitary;
    use bgls_circuit::Qubit;

    /// Naive dense state for <= 10 qubits; applies gates by building the
    /// full embedded unitary. Slow but obviously correct.
    #[derive(Clone, Debug)]
    pub struct RefState {
        pub amps: Vec<C64>,
        pub n: usize,
    }

    impl RefState {
        pub fn zero(n: usize) -> Self {
            let mut amps = vec![C64::ZERO; 1 << n];
            amps[0] = C64::ONE;
            RefState { amps, n }
        }
    }

    impl BglsState for RefState {
        fn num_qubits(&self) -> usize {
            self.n
        }

        fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
            self.check_qubits(qubits)?;
            let u = gate.unitary()?;
            let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
            let full = embed_unitary(&u, &qs, self.n);
            self.amps = full.matvec(&self.amps);
            Ok(())
        }

        fn probability(&self, bits: BitString) -> f64 {
            self.amps[bits.as_u64() as usize].norm_sqr()
        }

        fn apply_kraus(
            &mut self,
            channel: &Channel,
            qubits: &[usize],
            rng: &mut dyn RngCore,
        ) -> Result<usize, SimError> {
            use rand::Rng;
            self.check_qubits(qubits)?;
            let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
            let mut r: f64 = rng.gen::<f64>();
            let last = channel.kraus().len() - 1;
            for (i, k) in channel.kraus().iter().enumerate() {
                let full = embed_unitary_nonunitary(k, &qs, self.n);
                let cand = full.matvec(&self.amps);
                let norm: f64 = cand.iter().map(|z| z.norm_sqr()).sum();
                if r < norm || i == last {
                    let scale = 1.0 / norm.sqrt();
                    self.amps = cand.into_iter().map(|z| z * scale).collect();
                    return Ok(i);
                }
                r -= norm;
            }
            unreachable!("loop always returns at the last branch")
        }

        fn kraus_branch_probabilities(
            &self,
            channel: &Channel,
            qubits: &[usize],
        ) -> Result<Vec<f64>, SimError> {
            self.check_qubits(qubits)?;
            let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
            Ok(channel
                .kraus()
                .iter()
                .map(|k| {
                    let full = embed_unitary_nonunitary(k, &qs, self.n);
                    full.matvec(&self.amps)
                        .iter()
                        .map(|z| z.norm_sqr())
                        .sum::<f64>()
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
            let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
            let k = &channel.kraus()[branch];
            let full = embed_unitary_nonunitary(k, &qs, self.n);
            let cand = full.matvec(&self.amps);
            let norm: f64 = cand.iter().map(|z| z.norm_sqr()).sum();
            if norm <= 0.0 {
                return Err(SimError::ZeroProbabilityEvent);
            }
            let scale = 1.0 / norm.sqrt();
            self.amps = cand.into_iter().map(|z| z * scale).collect();
            Ok(())
        }

        fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
            if let Some(q) = observable.max_qubit() {
                self.check_qubits(&[q])?;
            }
            // <psi|P|psi> with P = i^{ny} X^x Z^z: P|b> = i^{ny}
            // (-1)^{|b & z|} |b ^ x>, so the expectation is one pass over
            // the amplitudes.
            let (x, z, ny) = observable.dense_masks();
            let mut acc = C64::ZERO;
            for (b, &amp) in self.amps.iter().enumerate() {
                let term = self.amps[b ^ x as usize].conj() * amp;
                if (b as u64 & z).count_ones() % 2 == 1 {
                    acc -= term;
                } else {
                    acc += term;
                }
            }
            Ok((acc * C64::i_pow(ny as i64)).re)
        }

        fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
            let mut norm = 0.0;
            for (i, a) in self.amps.iter_mut().enumerate() {
                if ((i >> qubit) & 1 == 1) != value {
                    *a = C64::ZERO;
                } else {
                    norm += a.norm_sqr();
                }
            }
            if norm == 0.0 {
                return Err(SimError::ZeroProbabilityEvent);
            }
            let s = 1.0 / norm.sqrt();
            for a in &mut self.amps {
                *a *= s;
            }
            Ok(())
        }
    }

    impl AmplitudeState for RefState {
        fn amplitude(&self, bits: BitString) -> C64 {
            self.amps[bits.as_u64() as usize]
        }
    }

    impl MarginalState for RefState {
        fn marginal_probability(&self, assignment: &[(usize, bool)]) -> f64 {
            self.amps
                .iter()
                .enumerate()
                .filter(|(i, _)| assignment.iter().all(|&(q, v)| ((i >> q) & 1 == 1) == v))
                .map(|(_, a)| a.norm_sqr())
                .sum()
        }
    }

    /// An exact mixed state held as a weighted ensemble of [`RefState`]s
    /// — the core tests' stand-in for a density matrix. Channels apply
    /// deterministically (every member splits into its Kraus branches),
    /// so noisy circuits on it never fork a run.
    #[derive(Clone, Debug)]
    pub struct RefMixture {
        pub members: Vec<(f64, RefState)>,
    }

    impl RefMixture {
        pub fn zero(n: usize) -> Self {
            RefMixture {
                members: vec![(1.0, RefState::zero(n))],
            }
        }
    }

    impl BglsState for RefMixture {
        fn num_qubits(&self) -> usize {
            self.members[0].1.n
        }

        fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
            for (_, member) in &mut self.members {
                member.apply_gate(gate, qubits)?;
            }
            Ok(())
        }

        fn probability(&self, bits: BitString) -> f64 {
            self.members
                .iter()
                .map(|(w, member)| w * member.probability(bits))
                .sum()
        }

        fn apply_kraus(
            &mut self,
            channel: &Channel,
            qubits: &[usize],
            _rng: &mut dyn RngCore,
        ) -> Result<usize, SimError> {
            let mut next = Vec::new();
            for (w, member) in &self.members {
                let probs = member.kraus_branch_probabilities(channel, qubits)?;
                for (branch, p) in probs.into_iter().enumerate() {
                    if p > 0.0 {
                        let mut child = member.clone();
                        child.apply_kraus_branch(channel, branch, qubits)?;
                        next.push((w * p, child));
                    }
                }
            }
            self.members = next;
            Ok(0)
        }

        fn channels_are_deterministic(&self) -> bool {
            true
        }
    }

    /// `embed_unitary` works for any matrix; alias for clarity when
    /// embedding non-unitary Kraus operators.
    fn embed_unitary_nonunitary(
        m: &bgls_linalg::Matrix,
        qubits: &[Qubit],
        n: usize,
    ) -> bgls_linalg::Matrix {
        embed_unitary(m, qubits, n)
    }
}
