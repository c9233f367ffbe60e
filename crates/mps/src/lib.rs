//! # bgls-mps
//!
//! Tensor-network simulation states for BGLS (paper Sec. 4.3):
//!
//! * [`LazyNetworkState`] — the `cirq.contrib.quimb.MPSState` substitute:
//!   one tensor per qubit, each two-qubit gate inserts an
//!   operator-Schmidt bond, amplitudes by slicing + greedy contraction
//!   (the paper's `mps_bitstring_probability`);
//! * [`ChainMps`] — a canonical chain MPS with chi-capped SVD truncation
//!   ([`MpsOptions`]), swap-routing for long-range gates, and
//!   `O(n chi^2)` amplitudes — the representation behind the QAOA
//!   MaxCut experiment (Sec. 4.4). A candidate set is split at the
//!   last-touched site: its left and right environments are shared
//!   through a prefix trie and each candidate closes with one
//!   length-`chi` dot product;
//! * [`PurifiedMps`] — a locally-purified chain for *mixed* states: each
//!   site carries an extra Kraus leg, so channels apply deterministically
//!   (no trajectory forking) at `O(n chi^3 kappa)` cost instead of the
//!   density matrix's `4^n` memory ([`PurifiedOptions`]). Probabilities
//!   use the same split, with `chi x chi` environments.
//!
//! ```
//! use bgls_circuit::Gate;
//! use bgls_core::{BglsState, BitString};
//! use bgls_mps::{ChainMps, MpsOptions};
//!
//! let mut mps = ChainMps::zero(3, MpsOptions::with_max_bond(4));
//! mps.apply_gate(&Gate::H, &[0]).unwrap();
//! mps.apply_gate(&Gate::Cnot, &[0, 2]).unwrap(); // long-range: swap-routed
//! let p = mps.probability(BitString::from_u64(3, 0b101));
//! assert!((p - 0.5).abs() < 1e-10);
//! ```

#![warn(missing_docs)]

mod chain;
mod lazy;
mod purified;
mod schmidt;
mod trie;

pub use chain::{ChainMps, MpsOptions};
pub use lazy::LazyNetworkState;
pub use purified::{PurifiedMps, PurifiedOptions};
pub use schmidt::{operator_schmidt, reconstruct, SchmidtTerm};
