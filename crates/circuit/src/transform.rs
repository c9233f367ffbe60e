//! Circuit transformers, most importantly [`fuse`], this crate's
//! counterpart of `bgls.optimize_for_bgls` (paper Sec. 3.2.2): merging
//! runs of single-qubit gates so the sampler updates its bitstring once
//! per merged gate instead of once per primitive gate, a documented
//! 1.5-2x runtime win.
//!
//! The composed pass behind `OptimizeConfig::merge_single_qubit_runs` is
//! [`fuse`] ([`merge_single_qubit_gates`] followed by
//! [`drop_identities`]); the pieces are public so callers can run them
//! independently. Every pass
//! preserves the circuit's unitary action exactly — matrices are
//! multiplied, never approximated — so sampling *distributions* are
//! unchanged even though the gate sequence (and hence seeded samples)
//! differs.
//!
//! ```
//! use bgls_circuit::{fuse, Circuit, Gate, Operation, Qubit};
//!
//! let mut c = Circuit::new();
//! // H T H on one qubit: three ops fuse into one U1 matrix
//! for g in [Gate::H, Gate::T, Gate::H] {
//!     c.push(Operation::gate(g, vec![Qubit(0)]).unwrap());
//! }
//! let fused = fuse(&c);
//! assert_eq!(fused.num_operations(), 1);
//! // H H fuses to the identity and is dropped outright
//! let mut id = Circuit::new();
//! for g in [Gate::H, Gate::H] {
//!     id.push(Operation::gate(g, vec![Qubit(0)]).unwrap());
//! }
//! assert_eq!(fuse(&id).num_operations(), 0);
//! ```

use crate::circuit::{Circuit, InsertStrategy};
use crate::gate::Gate;
use crate::op::Operation;
use crate::qubit::Qubit;
use bgls_linalg::{FxHashMap, Matrix, C64};
use std::sync::Arc;

/// Merges maximal runs of consecutive single-qubit gates on each qubit into
/// one [`Gate::U1`]. Multi-qubit gates, measurements, channels, and
/// parameterized gates act as barriers and are kept verbatim.
///
/// The resulting circuit has the same unitary action (exactly — matrices
/// are multiplied, nothing is approximated).
pub fn merge_single_qubit_gates(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new();
    // Pending accumulated 1q unitary per qubit.
    let mut pending: FxHashMap<Qubit, Matrix> = FxHashMap::default();

    let flush = |out: &mut Circuit, pending: &mut FxHashMap<Qubit, Matrix>, qs: &[Qubit]| {
        for q in qs {
            if let Some(u) = pending.remove(q) {
                out.append(
                    Operation::gate(Gate::U1(Arc::new(u)), vec![*q]).expect("1q by construction"),
                    InsertStrategy::Earliest,
                );
            }
        }
    };

    for op in circuit.all_operations() {
        let mergeable = op
            .as_gate()
            .map(|g| g.arity() == 1 && !g.is_parameterized())
            .unwrap_or(false);
        if mergeable {
            let q = op.support()[0];
            let u = op
                .as_gate()
                .unwrap()
                .unitary()
                .expect("non-parameterized gate has a unitary");
            let acc = pending.remove(&q).unwrap_or_else(|| Matrix::identity(2));
            pending.insert(q, u.matmul(&acc));
        } else {
            flush(&mut out, &mut pending, op.support());
            out.append(op.clone(), InsertStrategy::Earliest);
        }
    }
    let rest: Vec<Qubit> = pending.keys().copied().collect();
    let mut rest = rest;
    rest.sort_unstable();
    flush(&mut out, &mut pending, &rest);
    out
}

/// Removes operations that act as the identity: explicit [`Gate::I`] and
/// merged [`Gate::U1`] matrices equal to the identity up to global phase.
pub fn drop_identities(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new();
    for op in circuit.all_operations() {
        let is_identity = match op.as_gate() {
            Some(Gate::I) => true,
            Some(Gate::U1(m)) => is_identity_up_to_phase(m, 1e-12),
            _ => false,
        };
        if !is_identity {
            out.append(op.clone(), InsertStrategy::Earliest);
        }
    }
    out
}

/// The sampler-facing fusion pass behind
/// `OptimizeConfig::merge_single_qubit_runs`:
/// merges maximal runs of adjacent single-qubit gates on each qubit into
/// one [`Gate::U1`] (exact matrix products, nothing approximated), then
/// drops operations that fused to the identity.
///
/// A fused run of diagonal gates produces a diagonal matrix —
/// off-diagonal entries stay exactly zero under diagonal products — which
/// [`Gate::is_diagonal`] recognizes entry-wise, so the sampler's
/// `skip_diagonal_updates` optimization keeps firing on fused circuits.
/// Measurements, channels, multi-qubit gates, and parameterized gates act
/// as barriers and are kept verbatim.
pub fn fuse(circuit: &Circuit) -> Circuit {
    drop_identities(&merge_single_qubit_gates(circuit))
}

/// True when `m ~= e^{i phi} I` for some phase.
pub(crate) fn is_identity_up_to_phase(m: &Matrix, tol: f64) -> bool {
    if !m.is_square() {
        return false;
    }
    let phase = m[(0, 0)];
    if (phase.abs() - 1.0).abs() > tol {
        return false;
    }
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            let expect = if i == j { phase } else { C64::ZERO };
            if !m[(i, j)].approx_eq(expect, tol) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::random::{generate_random_circuit, RandomCircuitParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn op(g: Gate, qs: &[u32]) -> Operation {
        Operation::gate(g, qs.iter().map(|&q| Qubit(q)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn five_sequential_gates_merge_to_one() {
        // the paper's illustrative example (Sec. 3.2.2)
        let mut c = Circuit::new();
        for g in [Gate::H, Gate::S, Gate::T, Gate::H, Gate::Z] {
            c.push(op(g, &[0]));
        }
        let merged = merge_single_qubit_gates(&c);
        assert_eq!(merged.num_operations(), 1);
        // unitary preserved exactly
        let u = c.unitary(1).unwrap();
        let v = merged.unitary(1).unwrap();
        assert!(u.approx_eq(&v, 1e-12));
    }

    #[test]
    fn two_qubit_gates_are_barriers() {
        let mut c = Circuit::new();
        c.push(op(Gate::H, &[0]));
        c.push(op(Gate::Cnot, &[0, 1]));
        c.push(op(Gate::S, &[0]));
        let merged = merge_single_qubit_gates(&c);
        // H | CNOT | S: nothing merges across the CNOT
        assert_eq!(merged.num_operations(), 3);
        let u = c.unitary(2).unwrap();
        let v = merged.unitary(2).unwrap();
        assert!(u.approx_eq(&v, 1e-12));
    }

    #[test]
    fn measurements_are_barriers() {
        let mut c = Circuit::new();
        c.push(op(Gate::H, &[0]));
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        c.push(op(Gate::H, &[0]));
        let merged = merge_single_qubit_gates(&c);
        assert_eq!(merged.num_operations(), 3);
        assert!(merged.has_measurements());
    }

    #[test]
    fn parameterized_gates_pass_through() {
        let mut c = Circuit::new();
        c.push(op(Gate::H, &[0]));
        c.push(op(Gate::Rz(Param::symbol("t")), &[0]));
        c.push(op(Gate::H, &[0]));
        let merged = merge_single_qubit_gates(&c);
        // H | rz(t) | H — symbolic gate blocks merging
        assert_eq!(merged.num_operations(), 3);
        assert!(merged.is_parameterized());
    }

    #[test]
    fn identities_dropped() {
        let mut c = Circuit::new();
        c.push(op(Gate::I, &[0]));
        c.push(op(Gate::H, &[1]));
        c.push(op(Gate::X, &[0]));
        c.push(op(Gate::X, &[0])); // X X = I -> merged U1 is identity
        let opt = fuse(&c);
        assert_eq!(opt.num_operations(), 1);
    }

    #[test]
    fn s_sdg_cancels_up_to_phase() {
        let mut c = Circuit::new();
        c.push(op(Gate::T, &[0]));
        c.push(op(Gate::Tdg, &[0]));
        let opt = fuse(&c);
        assert_eq!(opt.num_operations(), 0);
    }

    #[test]
    fn fused_diagonal_runs_stay_flagged_diagonal() {
        // T S Z on one qubit: every factor diagonal, so the fused U1 must
        // still report is_diagonal (skip_diagonal_updates relies on it).
        let mut c = Circuit::new();
        for g in [Gate::T, Gate::S, Gate::Z] {
            c.push(op(g, &[0]));
        }
        let fused = fuse(&c);
        assert_eq!(fused.num_operations(), 1);
        let gate = fused.all_operations().next().unwrap().as_gate().unwrap();
        assert!(matches!(gate, Gate::U1(_)));
        assert!(gate.is_diagonal());

        // a non-diagonal factor clears the flag
        let mut c = Circuit::new();
        for g in [Gate::T, Gate::H, Gate::Z] {
            c.push(op(g, &[0]));
        }
        let fused = fuse(&c);
        let gate = fused.all_operations().next().unwrap().as_gate().unwrap();
        assert!(!gate.is_diagonal());
    }

    #[test]
    fn fuse_preserves_unitary_and_drops_identities() {
        let mut c = Circuit::new();
        c.push(op(Gate::H, &[0]));
        c.push(op(Gate::H, &[0])); // cancels
        c.push(op(Gate::S, &[1]));
        c.push(op(Gate::T, &[1]));
        let fused = fuse(&c);
        // qubit 0 fused away entirely, qubit 1 fused to one U1
        assert_eq!(fused.num_operations(), 1);
        let u = c.unitary(2).unwrap();
        let v = fused.unitary(2).unwrap();
        assert!(u.approx_eq(&v, 1e-12));
    }

    #[test]
    fn random_circuit_unitary_preserved() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = RandomCircuitParams {
            qubits: 4,
            moments: 20,
            op_density: 0.9,
            gate_set: vec![Gate::H, Gate::S, Gate::T, Gate::X, Gate::Cnot, Gate::Cz],
        };
        let c = generate_random_circuit(&params, &mut rng);
        let opt = fuse(&c);
        assert!(opt.num_operations() <= c.num_operations());
        let u = c.unitary(4).unwrap();
        let v = opt.unitary(4).unwrap();
        assert!(u.approx_eq(&v, 1e-9));
    }

    #[test]
    fn merged_count_drops_for_single_qubit_heavy_circuits() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = RandomCircuitParams {
            qubits: 8,
            moments: 50,
            op_density: 1.0,
            gate_set: vec![Gate::H, Gate::S, Gate::T, Gate::X],
        };
        let c = generate_random_circuit(&params, &mut rng);
        let opt = fuse(&c);
        // all 1q gates with no barriers: everything merges to <= 8 ops
        assert!(opt.num_operations() <= 8);
    }
}
