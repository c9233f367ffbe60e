//! # bgls-circuit
//!
//! Quantum circuit intermediate representation — the Cirq substitute for the
//! BGLS reproduction. Provides:
//!
//! * [`Qubit`], [`Gate`], [`Operation`], [`Moment`], [`Circuit`] — the core
//!   moment-based IR with Cirq's matrix conventions;
//! * [`Param`] / [`ParamResolver`] — symbolic parameters for sweeps
//!   (paper Sec. 4.4);
//! * [`Channel`] — Kraus channels for noisy simulation via trajectories
//!   (Sec. 3.2.1);
//! * [`PauliOp`] / [`PauliString`] / [`PauliSum`] — sparse Pauli
//!   observables with phase-tracked algebra, qubit-wise-commuting
//!   grouping, and basis-rotation emission (the observable side of the
//!   expectation engine in `bgls-core`);
//! * [`fuse`] — single-qubit-run merging (Sec. 3.2.2, the paper's
//!   `optimize_for_bgls`), the optimizer's `merge_single_qubit_runs` pass;
//! * [`generate_random_circuit`] — random-circuit workloads (Sec. 4.1.3);
//! * [`to_qasm`] / [`from_qasm`] — OpenQASM 2.0 interop (Sec. 3.2.4).

#![warn(missing_docs)]

mod channel;
mod circuit;
mod decompose;
mod error;
mod gate;
mod moment;
mod op;
mod optimize;
mod param;
mod pauli;
mod qasm;
mod qubit;
mod random;
mod transform;

pub use channel::Channel;
pub use circuit::{embed_unitary, Circuit, InsertStrategy};
pub use decompose::{
    decompose_ccx, decompose_ccz, decompose_cswap, decompose_op, decompose_three_qubit_gates,
};
pub use error::CircuitError;
pub use gate::{Gate, CLIFFORD_GENERATORS};
pub use moment::Moment;
pub use op::{OpKind, Operation};
pub use optimize::{
    cancel_inverse_pairs, extract_diagonal_runs, fuse_two_qubit_runs, lightcone_prune,
    lightcone_prune_for, optimize, pipeline_for, reorder_commuting_gates, OptimizeConfig,
    PassPipeline, PassStats, RewriteStats,
};
pub use param::{Param, ParamResolver};
pub use pauli::{parity_sign_masked, score_parity_terms, PauliOp, PauliString, PauliSum};
pub use qasm::{from_qasm, observable_pragmas, to_qasm, to_qasm_with_observables};
pub use qubit::Qubit;
pub use random::{
    generate_random_circuit, replace_single_qubit_gates, substitute_gate, RandomCircuitParams,
};
pub use transform::{drop_identities, fuse, merge_single_qubit_gates};
