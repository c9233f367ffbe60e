//! `BglsState` integration: Clifford gate dispatch onto the CH form.
//!
//! Every Clifford gate in the IR is decomposed into the CH-form primitive
//! set {X, Y, Z, H, S, Sdg, CNOT, CZ}. Rotation gates are accepted at
//! Clifford angles (tracking the global phase in omega); merged `U1`
//! matrices are recognized against the 24-element single-qubit Clifford
//! group, so `fuse` output stays runnable on stabilizer
//! states.

use crate::chform::ChForm;
use bgls_circuit::{Gate, PauliOp, PauliString};
use bgls_core::{AmplitudeState, BglsState, BitString, SimError};
use bgls_linalg::{BitVec, Matrix, C64};
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Angle tolerance for recognizing Clifford rotation angles.
const ANGLE_TOL: f64 = 1e-9;

/// One primitive step in a single-qubit Clifford word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliffordStep {
    /// Hadamard.
    H,
    /// Phase gate.
    S,
}

/// An entry of the single-qubit Clifford group table: the exact product
/// matrix of `word` and the word itself.
struct Clifford1q {
    matrix: Matrix,
    word: Vec<CliffordStep>,
}

/// The 24 single-qubit Clifford operations (up to global phase), each with
/// a shortest {H, S} word, built once by BFS.
fn clifford_1q_table() -> &'static Vec<Clifford1q> {
    static TABLE: OnceLock<Vec<Clifford1q>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let h = Gate::H.unitary().expect("H");
        let s = Gate::S.unitary().expect("S");
        let mut table: Vec<Clifford1q> = vec![Clifford1q {
            matrix: Matrix::identity(2),
            word: vec![],
        }];
        let mut frontier = std::collections::VecDeque::from([0usize]);
        while let Some(idx) = frontier.pop_front() {
            let (base, word) = (table[idx].matrix.clone(), table[idx].word.clone());
            for (gate_m, step) in [(&h, CliffordStep::H), (&s, CliffordStep::S)] {
                let cand = gate_m.matmul(&base);
                if table
                    .iter()
                    .any(|e| matrices_equal_up_to_phase(&e.matrix, &cand, 1e-9).is_some())
                {
                    continue;
                }
                let mut w = word.clone();
                w.push(step); // applied after the existing word
                table.push(Clifford1q {
                    matrix: cand,
                    word: w,
                });
                frontier.push_back(table.len() - 1);
            }
        }
        assert_eq!(
            table.len(),
            24,
            "single-qubit Clifford group has 24 classes"
        );
        table
    })
}

/// If `b = e^{i phi} a`, returns `e^{i phi}`.
fn matrices_equal_up_to_phase(a: &Matrix, b: &Matrix, tol: f64) -> Option<C64> {
    debug_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    // find a reference entry with solid magnitude in a
    let mut phase = None;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            if a[(i, j)].abs() > 0.3 {
                if b[(i, j)].abs() <= tol {
                    return None;
                }
                phase = Some(b[(i, j)] / a[(i, j)]);
                break;
            }
        }
        if phase.is_some() {
            break;
        }
    }
    let phase = phase?;
    if (phase.abs() - 1.0).abs() > 1e-6 {
        return None;
    }
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            if !(a[(i, j)] * phase).approx_eq(b[(i, j)], tol) {
                return None;
            }
        }
    }
    Some(phase)
}

/// Decomposes a single-qubit unitary into an {H, S} word and a global
/// phase, when it is Clifford. Public so the near-Clifford channel and
/// tests can reuse it.
pub fn decompose_clifford_1q(u: &Matrix) -> Option<(Vec<CliffordStep>, C64)> {
    for entry in clifford_1q_table() {
        if let Some(phase) = matrices_equal_up_to_phase(&entry.matrix, u, 1e-8) {
            return Some((entry.word.clone(), phase));
        }
    }
    None
}

/// Nearest integer when within [`ANGLE_TOL`]; `None` otherwise.
fn near_integer(x: f64) -> Option<i64> {
    let r = x.round();
    if (x - r).abs() <= ANGLE_TOL {
        Some(r as i64)
    } else {
        None
    }
}

/// Applies `ZPow(half_steps * 0.5)` (i.e. S^half_steps) to qubit `q`.
fn apply_s_power(st: &mut ChForm, q: usize, half_steps: i64) -> Result<(), SimError> {
    match half_steps.rem_euclid(4) {
        0 => Ok(()),
        1 => st.apply_s(q),
        2 => st.apply_z(q),
        _ => st.apply_sdg(q),
    }
}

/// Applies `Rz(theta)` at a Clifford angle (theta = k pi/2), tracking the
/// global phase `e^{-i theta / 2}` in omega.
fn apply_rz_clifford(st: &mut ChForm, q: usize, theta: f64) -> Result<(), SimError> {
    let k = near_integer(theta / (PI / 2.0))
        .ok_or_else(|| SimError::NotClifford(format!("rz({theta})")))?;
    apply_s_power(st, q, k)?;
    st.scale_omega(C64::cis(-theta / 2.0));
    Ok(())
}

/// Applies any Clifford gate from the IR to a CH-form state.
///
/// Returns [`SimError::NotClifford`] for non-Clifford gates (T, Toffoli,
/// generic rotations, non-Clifford matrices). This is the strict
/// dispatcher; the near-Clifford channel wraps it with the stochastic
/// sum-over-Cliffords substitution.
pub fn apply_clifford_gate(st: &mut ChForm, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
    use Gate::*;
    match gate {
        I => Ok(()),
        X => st.apply_x(qubits[0]),
        Y => st.apply_y(qubits[0]),
        Z => st.apply_z(qubits[0]),
        H => st.apply_h(qubits[0]),
        S => st.apply_s(qubits[0]),
        Sdg => st.apply_sdg(qubits[0]),
        SqrtX => {
            // sqrt(X) = H S H exactly
            let q = qubits[0];
            st.apply_h(q)?;
            st.apply_s(q)?;
            st.apply_h(q)
        }
        SqrtXDag => {
            let q = qubits[0];
            st.apply_h(q)?;
            st.apply_sdg(q)?;
            st.apply_h(q)
        }
        T | Tdg => Err(SimError::NotClifford(gate.name().into())),
        Rz(p) => apply_rz_clifford(st, qubits[0], p.value()?),
        ZPow(p) => {
            let t = p.value()?;
            let k =
                near_integer(t / 0.5).ok_or_else(|| SimError::NotClifford(format!("zpow({t})")))?;
            apply_s_power(st, qubits[0], k)
        }
        Rx(p) => {
            // Rx = H Rz H
            let q = qubits[0];
            let theta = p.value()?;
            if near_integer(theta / (PI / 2.0)).is_none() {
                return Err(SimError::NotClifford(format!("rx({theta})")));
            }
            st.apply_h(q)?;
            apply_rz_clifford(st, q, theta)?;
            st.apply_h(q)
        }
        Ry(p) => {
            // Ry = S Rx Sdg (operator product; rightmost acts first)
            let q = qubits[0];
            let theta = p.value()?;
            if near_integer(theta / (PI / 2.0)).is_none() {
                return Err(SimError::NotClifford(format!("ry({theta})")));
            }
            st.apply_sdg(q)?;
            st.apply_h(q)?;
            apply_rz_clifford(st, q, theta)?;
            st.apply_h(q)?;
            st.apply_s(q)
        }
        U1(m) => {
            let (word, phase) = decompose_clifford_1q(m)
                .ok_or_else(|| SimError::NotClifford("u1q matrix".into()))?;
            let q = qubits[0];
            for step in word {
                match step {
                    CliffordStep::H => st.apply_h(q)?,
                    CliffordStep::S => st.apply_s(q)?,
                }
            }
            st.scale_omega(phase);
            Ok(())
        }
        Cnot => st.apply_cnot(qubits[0], qubits[1]),
        Cz => st.apply_cz(qubits[0], qubits[1]),
        Swap => {
            let (a, b) = (qubits[0], qubits[1]);
            st.apply_cnot(a, b)?;
            st.apply_cnot(b, a)?;
            st.apply_cnot(a, b)
        }
        ISwap => {
            // iSWAP = SWAP . CZ . (S (x) S): rightmost acts first
            let (a, b) = (qubits[0], qubits[1]);
            st.apply_s(a)?;
            st.apply_s(b)?;
            st.apply_cz(a, b)?;
            st.apply_cnot(a, b)?;
            st.apply_cnot(b, a)?;
            st.apply_cnot(a, b)
        }
        CPhase(p) => {
            let theta = p.value()?;
            let k = near_integer(theta / PI)
                .ok_or_else(|| SimError::NotClifford(format!("cp({theta})")))?;
            if k.rem_euclid(2) == 1 {
                st.apply_cz(qubits[0], qubits[1])?;
            }
            Ok(())
        }
        Rzz(p) => {
            // Rzz(theta) = CX . (I (x) Rz(theta)) . CX
            let theta = p.value()?;
            if near_integer(theta / (PI / 2.0)).is_none() {
                return Err(SimError::NotClifford(format!("rzz({theta})")));
            }
            let (a, b) = (qubits[0], qubits[1]);
            st.apply_cnot(a, b)?;
            apply_rz_clifford(st, b, theta)?;
            st.apply_cnot(a, b)
        }
        U2(_) | U(..) | Ccx | Ccz | Cswap => Err(SimError::NotClifford(gate.name().into())),
    }
}

impl BglsState for ChForm {
    fn num_qubits(&self) -> usize {
        ChForm::num_qubits(self)
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        apply_clifford_gate(self, gate, qubits)
    }

    fn probability(&self, bits: BitString) -> f64 {
        self.probabilities_batch(&[bits])[0]
    }

    /// One support test per candidate against a weight computed once
    /// (see [`ChForm::probability_of`]); bit-identical to
    /// `amplitude(x).norm_sqr()`.
    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        let n = ChForm::num_qubits(self);
        assert!(
            candidates.iter().all(|b| b.len() == n),
            "bitstring width mismatch"
        );
        self.probabilities_of_words(candidates.iter().map(|b| [b.as_u64()]))
    }

    /// Exact stabilizer expectation via `U_C` conjugation
    /// ([`ChForm::pauli_expectation`]): `O(n^2 / 64)` per term,
    /// independent of circuit depth, always one of `{0, +-1}` (up to the
    /// state's global scalar) because a Pauli either sits in the
    /// stabilizer group up to sign or anticommutes with some stabilizer.
    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        let n = ChForm::num_qubits(self);
        if let Some(q) = observable.max_qubit() {
            if q >= n {
                return Err(SimError::QubitOutOfRange {
                    index: q,
                    num_qubits: n,
                });
            }
        }
        // P = i^{ny} X^x Z^z (Y contributes to both masks plus one i).
        let mut x = BitVec::zeros(n);
        let mut z = BitVec::zeros(n);
        let mut ny = 0u8;
        for (q, op) in observable.iter() {
            let (xb, zb) = op.xz_bits();
            if xb {
                x.set(q, true);
            }
            if zb {
                z.set(q, true);
            }
            if op == PauliOp::Y {
                ny = (ny + 1) % 4;
            }
        }
        Ok(self.pauli_expectation(&x, &z, ny).re)
    }
}

impl AmplitudeState for ChForm {
    fn amplitude(&self, bits: BitString) -> C64 {
        let x = BitVec::from_u64(bits.len(), bits.as_u64());
        ChForm::amplitude(self, &x)
    }
}

/// The paper's `compute_probability_stabilizer_state` hook.
pub fn compute_probability_stabilizer_state(state: &ChForm, bits: BitString) -> f64 {
    state.probability(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_circuit::Param;

    #[test]
    fn clifford_table_has_24_entries_with_unitary_products() {
        let table = clifford_1q_table();
        assert_eq!(table.len(), 24);
        for e in table {
            assert!(e.matrix.is_unitary(1e-9));
            assert!(e.word.len() <= 8, "word too long: {:?}", e.word);
        }
    }

    #[test]
    fn decompose_recognizes_standard_gates() {
        for g in [
            Gate::I,
            Gate::H,
            Gate::S,
            Gate::Z,
            Gate::X,
            Gate::Y,
            Gate::SqrtX,
        ] {
            let u = g.unitary().unwrap();
            let (word, phase) =
                decompose_clifford_1q(&u).unwrap_or_else(|| panic!("{} not recognized", g.name()));
            // rebuild and compare
            let mut m = Matrix::identity(2);
            for step in &word {
                let gm = match step {
                    CliffordStep::H => Gate::H.unitary().unwrap(),
                    CliffordStep::S => Gate::S.unitary().unwrap(),
                };
                m = gm.matmul(&m);
            }
            assert!(m.scale(phase).approx_eq(&u, 1e-9), "{}", g.name());
        }
    }

    #[test]
    fn decompose_rejects_t_gate() {
        assert!(decompose_clifford_1q(&Gate::T.unitary().unwrap()).is_none());
    }

    #[test]
    fn t_gate_rejected_by_dispatch() {
        let mut st = ChForm::zero(1);
        assert!(matches!(
            st.apply_gate(&Gate::T, &[0]),
            Err(SimError::NotClifford(_))
        ));
    }

    #[test]
    fn rz_at_non_clifford_angle_rejected() {
        let mut st = ChForm::zero(1);
        assert!(matches!(
            st.apply_gate(&Gate::Rz((PI / 4.0).into()), &[0]),
            Err(SimError::NotClifford(_))
        ));
    }

    #[test]
    fn trait_expectation_matches_statevector_on_random_clifford() {
        use bgls_circuit::{generate_random_circuit, RandomCircuitParams};
        use bgls_statevector::StateVector;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let n = 5;
        let mut crng = StdRng::seed_from_u64(11);
        let circuit = generate_random_circuit(&RandomCircuitParams::clifford(n, 20), &mut crng);
        let mut ch = ChForm::zero(n);
        let mut sv = StateVector::zero(n);
        for op in circuit.all_operations() {
            let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
            let g = op.as_gate().unwrap();
            ch.apply_gate(g, &qs).unwrap();
            sv.apply_gate(g, &qs).unwrap();
        }
        for s in [
            "I",
            "Z0",
            "X3",
            "Y1",
            "Z0 Z4",
            "X0 Y2 Z3",
            "Y0 Y1 Y2",
            "X0 X1 X2 X3 X4",
        ] {
            let p: PauliString = s.parse().unwrap();
            let a = ch.expectation(&p).unwrap();
            let b = sv.expectation(&p).unwrap();
            assert!((a - b).abs() < 1e-10, "{s}: chform {a} vs sv {b}");
            // stabilizer expectations of Hermitian Paulis are 0 or +-1
            assert!(a.abs() < 1e-10 || (a.abs() - 1.0).abs() < 1e-10, "{s}: {a}");
        }
        assert!(ch.expectation(&"Z9".parse().unwrap()).is_err());
    }

    #[test]
    fn ghz_stabilizer_expectations() {
        let mut st = ChForm::zero(3);
        st.apply_h(0).unwrap();
        st.apply_cnot(0, 1).unwrap();
        st.apply_cnot(1, 2).unwrap();
        let cases = [
            ("X0 X1 X2", 1.0),
            ("Z0 Z1", 1.0),
            ("Z1 Z2", 1.0),
            ("Z0", 0.0),
            ("X0", 0.0),
            ("Y0 Y1 X2", -1.0),
        ];
        for (s, want) in cases {
            let p: PauliString = s.parse().unwrap();
            let got = st.expectation(&p).unwrap();
            assert!((got - want).abs() < 1e-12, "{s}: {got} vs {want}");
        }
    }

    #[test]
    fn symbolic_parameter_surfaces_circuit_error() {
        let mut st = ChForm::zero(1);
        assert!(matches!(
            st.apply_gate(&Gate::Rz(Param::symbol("x")), &[0]),
            Err(SimError::Circuit(_))
        ));
    }
}
