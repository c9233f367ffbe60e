//! # bgls-stabilizer
//!
//! Stabilizer-state backend for BGLS (paper Sec. 4.1–4.2): the CH-form
//! representation of Bravyi et al. 2019 with O(n^2) bitstring amplitudes
//! and probabilities answered as an O(|x| n / 64) support test,
//! a full Clifford gate dispatcher (including recognition of merged
//! single-qubit Clifford matrices), and the sum-over-Cliffords channel
//! (`act_on_near_clifford`) extending the backend to Clifford+Rz(theta)
//! circuits.
//!
//! ```
//! use bgls_circuit::{Circuit, Gate, Operation, Qubit};
//! use bgls_core::Simulator;
//! use bgls_stabilizer::ChForm;
//!
//! // a 40-qubit GHZ ladder: far beyond dense simulation, trivial here
//! let n = 40;
//! let mut circuit = Circuit::new();
//! circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
//! for i in 1..n as u32 {
//!     circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
//! }
//! let samples = Simulator::new(ChForm::zero(n))
//!     .with_seed(3)
//!     .sample_final_bitstrings(&circuit, 50)
//!     .unwrap();
//! assert!(samples
//!     .iter()
//!     .all(|b| b.as_u64() == 0 || b.as_u64() == (1u64 << n) - 1));
//! ```

#![warn(missing_docs)]

mod chform;
mod estimator;
mod near_clifford;
mod state;
mod tableau;

pub use chform::ChForm;
pub use estimator::{estimate_amplitude, AmplitudeEstimate};
pub use near_clifford::{
    act_on_near_clifford, near_clifford_simulator, rz_decomposition_coefficients,
    stabilizer_extent_rz,
};
pub use state::{
    apply_clifford_gate, compute_probability_stabilizer_state, decompose_clifford_1q, CliffordStep,
};
pub use tableau::{tableau_from_circuit, CliffordTableau, TableauSimulator};
