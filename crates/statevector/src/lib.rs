//! # bgls-statevector
//!
//! Dense simulation states for BGLS: [`StateVector`] (pure states, the
//! `cirq.StateVectorSimulationState` substitute) and [`DensityMatrix`]
//! (mixed states with exact channel application). Both implement the
//! [`bgls_core::BglsState`] trait family and plug directly into
//! `bgls_core::Simulator`.
//!
//! ```
//! use bgls_circuit::{Circuit, Gate, Operation, Qubit};
//! use bgls_core::Simulator;
//! use bgls_statevector::StateVector;
//!
//! let mut circuit = Circuit::new();
//! circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
//! circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
//! circuit.push(Operation::measure(Qubit::range(2), "z").unwrap());
//!
//! let results = Simulator::new(StateVector::zero(2))
//!     .with_seed(1)
//!     .run(&circuit, 100)
//!     .unwrap();
//! let h = results.histogram("z").unwrap();
//! assert_eq!(h.count_value(0b00) + h.count_value(0b11), 100);
//! ```

#![warn(missing_docs)]

mod density;
mod kernel;
mod shard;
mod statevector;

pub use density::DensityMatrix;
pub use kernel::{
    apply_matrices, apply_matrix, norm_sqr, scale, PAR_THRESHOLD, SHARD_BITS, SHARD_LEN,
};
pub use shard::{ShardedBuffer, AMP_ALIGN};
pub use statevector::StateVector;

use bgls_core::{BglsState, BitString};

/// Convenience: the paper's `compute_probability_state_vector` — provided
/// for the hook-style constructor `Simulator::with_hooks`.
pub fn compute_probability_state_vector(state: &StateVector, bits: BitString) -> f64 {
    state.probability(bits)
}
