//! # bgls-core
//!
//! The gate-by-gate sampling simulator of Bravyi, Gosset & Liu (PRL 128,
//! 220503), as packaged by the BGLS paper (SC-W 2023). State-representation
//! agnostic: plug in any [`BglsState`] backend, or supply the paper's raw
//! `(initial_state, apply_op, compute_probability)` triple via
//! [`Simulator::with_hooks`].
//!
//! ```
//! use bgls_core::{Simulator, BglsState};
//! // (see bgls-statevector / bgls-stabilizer / bgls-mps for backends)
//! ```
//!
//! Key pieces:
//! * [`Simulator`] — gate-by-gate sampling on one multiplicity-map
//!   engine: a frontier of `(state, bitstring -> multiplicity)` nodes
//!   that stays at one node for circuits that never fork (the paper's
//!   sample parallelization, Sec. 3.2.3) and forks at stochastic
//!   channels and interior measurements (quantum trajectories,
//!   Sec. 3.2.1), with per-repetition replay for stochastic hooks and
//!   frontiers past their budget;
//! * [`QubitByQubitSimulator`] — the conventional marginal-based baseline
//!   (Sec. 2);
//! * [`BitString`], [`RunResult`], [`Histogram`] — sampling I/O.

#![warn(missing_docs)]

mod baseline;
mod bitstring;
mod clock;
mod error;
mod results;
mod service;
mod simulator;
mod state;

pub use baseline::QubitByQubitSimulator;
pub use bitstring::BitString;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use error::SimError;
pub use results::{ExpectationEstimate, Histogram, RunResult};
pub use service::{BatchPolicy, CacheKey, CacheStats, ResultCache, RetryPolicy};
pub use simulator::{
    categorical, default_apply_op, multinomial_split, stream_seed, ApplyFn, BatchProbFn, OpFaultFn,
    ProbFn, Simulator, SimulatorOptions,
};
pub use state::{AmplitudeState, BglsState, MarginalState};
