//! # bgls-backend
//!
//! Runtime backend selection for the BGLS stack.
//!
//! The simulator crates are deliberately generic: `Simulator<S>` is
//! monomorphized per state type, and until this crate existed every
//! caller — apps, examples, benches, services — had to hard-wire one
//! concrete backend at compile time. This crate erases that choice to
//! runtime:
//!
//! * [`BackendKind`] — a plain enum naming each state representation
//!   (dense state vector, density matrix, CH-form stabilizer, chi-capped
//!   chain MPS, lazy tensor network);
//! * [`AnyState`] — an enum over all five concrete states that itself
//!   implements [`BglsState`], delegating every operation to the wrapped
//!   variant;
//! * [`SimulatorExt::for_backend`] — `Simulator::for_backend(kind, n,
//!   opts)`, the one-call constructor used by everything that accepts a
//!   backend name from a config file, CLI flag, or request payload.
//!
//! ```
//! use bgls_backend::{BackendKind, SimulatorExt};
//! use bgls_circuit::{Circuit, Gate, Operation, Qubit};
//! use bgls_core::{Simulator, SimulatorOptions};
//!
//! let mut ghz = Circuit::new();
//! ghz.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
//! ghz.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
//!
//! // the backend is a runtime value — e.g. parsed from a request
//! let kind: BackendKind = "chform".parse().unwrap();
//! let sim = Simulator::for_backend(kind, 2, SimulatorOptions::default()).with_seed(1);
//! let samples = sim.sample_final_bitstrings(&ghz, 100).unwrap();
//! assert!(samples.iter().all(|b| b.as_u64() == 0 || b.as_u64() == 0b11));
//! ```

#![warn(missing_docs)]

use bgls_circuit::{Channel, Gate, PauliString};
use bgls_core::{BglsState, BitString, OpFaultFn, SimError, Simulator, SimulatorOptions};
use bgls_mps::{ChainMps, LazyNetworkState, MpsOptions, PurifiedMps, PurifiedOptions};
use bgls_stabilizer::{ChForm, CliffordTableau};
use bgls_statevector::{DensityMatrix, StateVector};
use rand::RngCore;
use std::sync::Arc;

/// Names one of the available state representations.
///
/// This is the value that crosses configuration boundaries: it is
/// `Copy`, comparable, printable, and parseable (`"mps:16"` selects a
/// chain MPS with bond cap 16; `"mps"` the exact chain MPS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Dense pure state vector (`bgls-statevector`): exact for every
    /// unitary circuit, memory `O(2^n)`.
    StateVector,
    /// Dense density matrix (`bgls-statevector`): exact for noisy
    /// circuits — channels apply deterministically, so the multiplicity-map
    /// sample parallelization survives noise. Memory `O(4^n)`.
    DensityMatrix,
    /// CH-form stabilizer state (`bgls-stabilizer`): Clifford circuits at
    /// any width, `O(n^2)` per amplitude.
    ChForm,
    /// Canonical chain MPS (`bgls-mps`) with an optional bond-dimension
    /// cap; `chi: None` keeps the representation exact.
    ChainMps {
        /// Maximum bond dimension (`None` = unbounded/exact).
        chi: Option<usize>,
    },
    /// Lazy tensor network (`bgls-mps`): one tensor per qubit plus
    /// operator-Schmidt bonds, contracted per probability query.
    LazyNetwork,
    /// Locally-purified chain MPS (`bgls-mps`): a *mixed* state whose
    /// sites carry an extra Kraus/purification leg, so channels apply
    /// deterministically (like [`BackendKind::DensityMatrix`]) at
    /// `O(n chi^3 kappa)` cost instead of `O(4^n)` memory — the exact
    /// noisy backend beyond the density matrix's width wall.
    PurifiedMps {
        /// Maximum bond dimension (`None` = unbounded/exact).
        chi: Option<usize>,
        /// Maximum per-site Kraus-leg dimension (`None` = unbounded;
        /// the leg is still rank-compressed exactly after every
        /// channel).
        kraus_dim: Option<usize>,
    },
    /// Aaronson–Gottesman stabilizer tableau (`bgls-stabilizer`):
    /// Clifford circuits at any width with projective collapse, so
    /// mid-circuit-measurement Clifford circuits run (which the CH form
    /// rejects). Each probability call row-reduces the stabilizer
    /// group (`O(n^3 / 64)` word ops) before its per-candidate support
    /// tests, where the CH form needs no per-call reduction, so
    /// terminally-measured Clifford work should still route to
    /// [`BackendKind::ChForm`].
    Tableau,
}

impl BackendKind {
    /// Every *amplitude* backend kind in its default configuration —
    /// what agreement tests and capability probes iterate over. The
    /// chain-MPS entry is the *exact* (uncapped) variant; tests that
    /// want the truncation code path covered push a
    /// `ChainMps { chi: Some(..) }` explicitly. [`BackendKind::Tableau`]
    /// is deliberately excluded: it accepts only Clifford circuits, so
    /// generic agreement suites would reject it — Clifford-specific
    /// tests opt in explicitly. [`BackendKind::PurifiedMps`] is also
    /// excluded: like the density matrix it absorbs channels
    /// deterministically, but suites asserting per-branch trajectory
    /// behavior across `all()` would mis-specify it; the cross-backend
    /// conformance harness (`bgls-testkit`) declares it explicitly.
    pub fn all() -> Vec<BackendKind> {
        vec![
            BackendKind::StateVector,
            BackendKind::DensityMatrix,
            BackendKind::ChForm,
            BackendKind::ChainMps { chi: None },
            BackendKind::LazyNetwork,
        ]
    }

    /// Stable lowercase name (inverse of [`std::str::FromStr`]).
    pub fn name(&self) -> String {
        match self {
            BackendKind::StateVector => "statevector".into(),
            BackendKind::DensityMatrix => "density".into(),
            BackendKind::ChForm => "chform".into(),
            BackendKind::ChainMps { chi: None } => "mps".into(),
            BackendKind::ChainMps { chi: Some(chi) } => format!("mps:{chi}"),
            BackendKind::LazyNetwork => "lazy".into(),
            BackendKind::Tableau => "tableau".into(),
            BackendKind::PurifiedMps {
                chi: None,
                kraus_dim: None,
            } => "pmps".into(),
            BackendKind::PurifiedMps {
                chi: Some(chi),
                kraus_dim: None,
            } => format!("pmps:{chi}"),
            // empty chi slot keeps the name parseable: "pmps::4"
            BackendKind::PurifiedMps {
                chi,
                kraus_dim: Some(k),
            } => format!(
                "pmps:{}:{k}",
                chi.map(|c| c.to_string()).unwrap_or_default()
            ),
        }
    }

    /// True when the backend applies Kraus channels exactly rather than
    /// sampling trajectory branches (the density matrix and the
    /// purified MPS).
    pub fn channels_are_deterministic(&self) -> bool {
        matches!(
            self,
            BackendKind::DensityMatrix | BackendKind::PurifiedMps { .. }
        )
    }

    /// True when `self` and `other` name the same state representation,
    /// ignoring configuration such as the MPS bond cap — `mps:8` and
    /// `mps:64` are the same family.
    pub fn same_family(&self, other: BackendKind) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(&other)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error from parsing a [`BackendKind`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError {
    input: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend '{}' (expected statevector (sv) | density (dm) | chform \
             (stabilizer) | mps[:chi] | pmps[:chi[:kraus]] | lazy | tableau)",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for BackendKind {
    type Err = ParseBackendError;

    /// Parsing is whitespace-trimmed and case-insensitive — backend
    /// names arrive from CLI flags, config files, and request payloads,
    /// where `" MPS:16 "` clearly means `mps:16`. `"stabilizer"` stays
    /// an alias for the CH form (the documented historical name); the
    /// tableau is addressed as `"tableau"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBackendError { input: s.into() };
        let normalized = s.trim().to_ascii_lowercase();
        Ok(match normalized.as_str() {
            "statevector" | "sv" => BackendKind::StateVector,
            "density" | "dm" => BackendKind::DensityMatrix,
            "chform" | "stabilizer" => BackendKind::ChForm,
            "mps" => BackendKind::ChainMps { chi: None },
            "lazy" => BackendKind::LazyNetwork,
            "tableau" => BackendKind::Tableau,
            "pmps" => BackendKind::PurifiedMps {
                chi: None,
                kraus_dim: None,
            },
            other => {
                // an optional-dimension slot: "" means unbounded
                let slot = |s: &str| -> Result<Option<usize>, ParseBackendError> {
                    let s = s.trim();
                    if s.is_empty() {
                        return Ok(None);
                    }
                    s.parse::<usize>()
                        .ok()
                        .filter(|&c| c >= 1)
                        .map(Some)
                        .ok_or_else(err)
                };
                if let Some(dims) = other.strip_prefix("pmps:") {
                    // "pmps:chi", "pmps:chi:kraus", "pmps::kraus"
                    let mut parts = dims.splitn(2, ':');
                    let chi = slot(parts.next().unwrap_or(""))?;
                    let kraus_dim = match parts.next() {
                        Some(k) => slot(k)?,
                        None => None,
                    };
                    if chi.is_none() && kraus_dim.is_none() {
                        return Err(err());
                    }
                    BackendKind::PurifiedMps { chi, kraus_dim }
                } else {
                    let chi = other
                        .strip_prefix("mps:")
                        .and_then(|c| c.trim().parse::<usize>().ok())
                        .filter(|&c| c >= 1)
                        .ok_or_else(err)?;
                    BackendKind::ChainMps { chi: Some(chi) }
                }
            }
        })
    }
}

/// A BGLS state chosen at runtime: one enum over every concrete backend,
/// itself a [`BglsState`].
///
/// `Simulator<AnyState>` is the type behind every runtime-selected
/// pipeline; the enum dispatch adds one match per operation, which is
/// noise next to the `O(2^n)`/`O(n^2)`/`O(n chi^3)` work each operation
/// performs.
#[derive(Debug)]
pub enum AnyState {
    /// Dense pure state.
    StateVector(StateVector),
    /// Dense mixed state.
    DensityMatrix(DensityMatrix),
    /// CH-form stabilizer state.
    ChForm(ChForm),
    /// Canonical chain MPS.
    ChainMps(ChainMps),
    /// Lazy tensor network.
    LazyNetwork(LazyNetworkState),
    /// Stabilizer tableau.
    Tableau(CliffordTableau),
    /// Locally-purified chain MPS (mixed state).
    PurifiedMps(PurifiedMps),
}

impl Clone for AnyState {
    fn clone(&self) -> Self {
        match self {
            AnyState::StateVector(s) => AnyState::StateVector(s.clone()),
            AnyState::DensityMatrix(s) => AnyState::DensityMatrix(s.clone()),
            AnyState::ChForm(s) => AnyState::ChForm(s.clone()),
            AnyState::ChainMps(s) => AnyState::ChainMps(s.clone()),
            AnyState::LazyNetwork(s) => AnyState::LazyNetwork(s.clone()),
            AnyState::Tableau(s) => AnyState::Tableau(s.clone()),
            AnyState::PurifiedMps(s) => AnyState::PurifiedMps(s.clone()),
        }
    }

    /// Buffer-reusing clone when both sides hold the same variant — the
    /// dense backends overwrite their amplitude buffers in place, which
    /// the per-trajectory scratch-state path relies on.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (AnyState::StateVector(s), AnyState::StateVector(src)) => s.clone_from(src),
            (AnyState::DensityMatrix(s), AnyState::DensityMatrix(src)) => s.clone_from(src),
            (AnyState::ChForm(s), AnyState::ChForm(src)) => s.clone_from(src),
            (AnyState::ChainMps(s), AnyState::ChainMps(src)) => s.clone_from(src),
            (AnyState::LazyNetwork(s), AnyState::LazyNetwork(src)) => s.clone_from(src),
            (AnyState::Tableau(s), AnyState::Tableau(src)) => s.clone_from(src),
            (AnyState::PurifiedMps(s), AnyState::PurifiedMps(src)) => s.clone_from(src),
            (slot, src) => *slot = src.clone(),
        }
    }
}

/// Delegates a method call to whichever variant is live.
macro_rules! dispatch {
    ($self:expr, $state:ident => $call:expr) => {
        match $self {
            AnyState::StateVector($state) => $call,
            AnyState::DensityMatrix($state) => $call,
            AnyState::ChForm($state) => $call,
            AnyState::ChainMps($state) => $call,
            AnyState::LazyNetwork($state) => $call,
            AnyState::Tableau($state) => $call,
            AnyState::PurifiedMps($state) => $call,
        }
    };
}

impl AnyState {
    /// The all-zeros initial state of `kind` on `n` qubits.
    pub fn zero(kind: BackendKind, n: usize) -> Self {
        match kind {
            BackendKind::StateVector => AnyState::StateVector(StateVector::zero(n)),
            BackendKind::DensityMatrix => AnyState::DensityMatrix(DensityMatrix::zero(n)),
            BackendKind::ChForm => AnyState::ChForm(ChForm::zero(n)),
            BackendKind::ChainMps { chi } => {
                let options = match chi {
                    Some(chi) => MpsOptions::with_max_bond(chi),
                    None => MpsOptions::exact(),
                };
                AnyState::ChainMps(ChainMps::zero(n, options))
            }
            BackendKind::LazyNetwork => AnyState::LazyNetwork(LazyNetworkState::zero(n)),
            BackendKind::Tableau => AnyState::Tableau(CliffordTableau::zero(n)),
            BackendKind::PurifiedMps { chi, kraus_dim } => {
                let mut options = match chi {
                    Some(chi) => PurifiedOptions::with_max_bond(chi),
                    None => PurifiedOptions::exact(),
                };
                options.max_kraus = kraus_dim;
                AnyState::PurifiedMps(PurifiedMps::zero(n, options))
            }
        }
    }

    /// Which [`BackendKind`] this state is (chi is reported as configured).
    pub fn kind(&self) -> BackendKind {
        match self {
            AnyState::StateVector(_) => BackendKind::StateVector,
            AnyState::DensityMatrix(_) => BackendKind::DensityMatrix,
            AnyState::ChForm(_) => BackendKind::ChForm,
            AnyState::ChainMps(m) => BackendKind::ChainMps {
                chi: m.options().max_bond,
            },
            AnyState::LazyNetwork(_) => BackendKind::LazyNetwork,
            AnyState::Tableau(_) => BackendKind::Tableau,
            AnyState::PurifiedMps(m) => BackendKind::PurifiedMps {
                chi: m.options().max_bond,
                kraus_dim: m.options().max_kraus,
            },
        }
    }
}

impl BglsState for AnyState {
    fn num_qubits(&self) -> usize {
        dispatch!(self, s => s.num_qubits())
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        dispatch!(self, s => s.apply_gate(gate, qubits))
    }

    fn probability(&self, bits: BitString) -> f64 {
        dispatch!(self, s => s.probability(bits))
    }

    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        // one dispatch for the whole batch, then the wrapped backend's
        // specialized batch evaluation
        dispatch!(self, s => s.probabilities_batch(candidates))
    }

    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        dispatch!(self, s => s.apply_kraus(channel, qubits, rng))
    }

    fn kraus_branch_probabilities(
        &self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        dispatch!(self, s => s.kraus_branch_probabilities(channel, qubits))
    }

    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        dispatch!(self, s => s.apply_kraus_branch(channel, branch, qubits))
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        dispatch!(self, s => s.project(qubit, value))
    }

    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        dispatch!(self, s => s.expectation(observable))
    }

    fn expectations(&self, observables: &[&PauliString]) -> Result<Vec<f64>, SimError> {
        dispatch!(self, s => s.expectations(observables))
    }

    fn channels_are_deterministic(&self) -> bool {
        dispatch!(self, s => s.channels_are_deterministic())
    }
}

/// Extension constructor putting runtime backend selection onto
/// [`Simulator`].
pub trait SimulatorExt {
    /// A gate-by-gate simulator over the backend selected by `kind`,
    /// starting from `|0...0>` on `n_qubits` qubits.
    fn for_backend(kind: BackendKind, n_qubits: usize, options: SimulatorOptions) -> Self;
}

impl SimulatorExt for Simulator<AnyState> {
    fn for_backend(kind: BackendKind, n_qubits: usize, options: SimulatorOptions) -> Self {
        Simulator::new(AnyState::zero(kind, n_qubits)).with_options(options)
    }
}

/// Free-function form of [`SimulatorExt::for_backend`].
pub fn simulator_for(kind: BackendKind, n_qubits: usize) -> Simulator<AnyState> {
    Simulator::for_backend(kind, n_qubits, SimulatorOptions::default())
}

/// A declarative backend-failure injection: abort a run at the Nth
/// applied operation, optionally only when it executes on a given
/// backend family.
///
/// This is the fallible-op side of the fault-injection harness. The
/// spec is plain data so it can ride in a service's `FaultPlan`;
/// [`OpFaultSpec::arm`] turns it into the [`OpFaultFn`] hook a
/// [`Simulator::with_fallible_ops`] run consults. The armed hook is a
/// pure function of the application ordinal, so re-running the same
/// plan reproduces the same abort at the same operation — chaos tests
/// stay bit-for-bit deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct OpFaultSpec {
    /// 1-based application ordinal at which the run aborts (every
    /// operation from this ordinal on fails, so the first one hit
    /// surfaces the error).
    pub at_op: u64,
    /// Restrict the fault to one backend family (chi-insensitive, see
    /// [`BackendKind::same_family`]); `None` faults every backend.
    pub only_backend: Option<BackendKind>,
    /// Message carried in the resulting [`SimError::Faulted`].
    pub message: String,
}

impl OpFaultSpec {
    /// A spec failing every backend at `at_op`.
    pub fn new(at_op: u64, message: impl Into<String>) -> Self {
        OpFaultSpec {
            at_op,
            only_backend: None,
            message: message.into(),
        }
    }

    /// Restricts the fault to `kind`'s backend family.
    pub fn for_backend(mut self, kind: BackendKind) -> Self {
        self.only_backend = Some(kind);
        self
    }

    /// Arms the spec for a run on `kind`: `Some(hook)` when the fault
    /// applies to that backend, `None` when the run should proceed
    /// unfaulted (no hook installed — the simulator stays untouched).
    pub fn arm(&self, kind: BackendKind) -> Option<OpFaultFn> {
        match self.only_backend {
            Some(only) if !only.same_family(kind) => return None,
            _ => {}
        }
        let at = self.at_op.max(1);
        let message = self.message.clone();
        Some(Arc::new(move |ordinal, _op| {
            if ordinal >= at {
                Err(SimError::Faulted(message.clone()))
            } else {
                Ok(())
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_circuit::{Circuit, Operation, Qubit};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        for i in 1..n as u32 {
            c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
        }
        c
    }

    #[test]
    fn every_kind_round_trips_through_parse() {
        let mut kinds = BackendKind::all();
        kinds.push(BackendKind::ChainMps { chi: Some(16) });
        kinds.push(BackendKind::Tableau);
        for chi in [None, Some(32)] {
            for kraus_dim in [None, Some(4)] {
                kinds.push(BackendKind::PurifiedMps { chi, kraus_dim });
            }
        }
        for kind in kinds {
            let back: BackendKind = kind.name().parse().unwrap();
            assert_eq!(back, kind, "{kind}");
        }
        assert!("nope".parse::<BackendKind>().is_err());
        assert!("mps:0".parse::<BackendKind>().is_err());
        assert!("pmps:0".parse::<BackendKind>().is_err());
        assert!("pmps:".parse::<BackendKind>().is_err());
        assert!("pmps:8:x".parse::<BackendKind>().is_err());
    }

    #[test]
    fn parsing_trims_whitespace_and_ignores_case() {
        for (input, expected) in [
            ("  statevector ", BackendKind::StateVector),
            ("SV", BackendKind::StateVector),
            ("Density", BackendKind::DensityMatrix),
            ("CHFORM", BackendKind::ChForm),
            // "stabilizer" remains the documented CH-form alias
            ("Stabilizer", BackendKind::ChForm),
            ("Tableau", BackendKind::Tableau),
            (" MPS:16 ", BackendKind::ChainMps { chi: Some(16) }),
            ("\tlazy\n", BackendKind::LazyNetwork),
            (
                " PMPS:64:4 ",
                BackendKind::PurifiedMps {
                    chi: Some(64),
                    kraus_dim: Some(4),
                },
            ),
            (
                "pmps::8",
                BackendKind::PurifiedMps {
                    chi: None,
                    kraus_dim: Some(8),
                },
            ),
        ] {
            assert_eq!(input.parse::<BackendKind>().unwrap(), expected, "{input:?}");
        }
    }

    #[test]
    fn parse_error_lists_the_valid_names() {
        let err = "warp-drive".parse::<BackendKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp-drive"), "{msg}");
        for name in [
            "statevector",
            "density",
            "chform",
            "mps",
            "pmps",
            "lazy",
            "tableau",
        ] {
            assert!(msg.contains(name), "missing {name} in: {msg}");
        }
    }

    #[test]
    fn tableau_backend_samples_clifford_circuits_gate_by_gate() {
        let n = 3;
        let mut circuit = ghz(n);
        circuit.push(Operation::measure(Qubit::range(n), "z").unwrap());
        let sim = simulator_for(BackendKind::Tableau, n).with_seed(13);
        let result = sim.run(&circuit, 300).unwrap();
        let h = result.histogram("z").unwrap();
        let all = (1u64 << n) - 1;
        assert_eq!(h.count_value(0) + h.count_value(all), 300);
        assert!(h.count_value(0) > 75 && h.count_value(all) > 75);
    }

    #[test]
    fn tableau_backend_projects_mid_circuit_measurements() {
        // the CH form rejects this circuit (no projection); the tableau
        // route is exactly what makes it runnable
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(1)], "b").unwrap());
        let chform = simulator_for(BackendKind::ChForm, 2).with_seed(1);
        assert!(chform.run(&c, 10).is_err());
        let tableau = simulator_for(BackendKind::Tableau, 2).with_seed(1);
        let result = tableau.run(&c, 200).unwrap();
        let a = result.histogram("a").unwrap();
        let b = result.histogram("b").unwrap();
        assert_eq!(a.count_value(1), b.count_value(1), "perfectly correlated");
    }

    #[test]
    fn tableau_backend_rejects_non_clifford_and_channels() {
        use bgls_core::SimError;
        let mut t = Circuit::new();
        t.push(Operation::gate(Gate::T, vec![Qubit(0)]).unwrap());
        t.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = simulator_for(BackendKind::Tableau, 1).with_seed(1);
        assert!(matches!(sim.run(&t, 5), Err(SimError::NotClifford(_))));
        let state = AnyState::zero(BackendKind::Tableau, 1);
        assert!(matches!(
            state.kraus_branch_probabilities(&Channel::bit_flip(0.5).unwrap(), &[0]),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn every_backend_samples_ghz_correlations() {
        let n = 3;
        for kind in BackendKind::all() {
            let sim = simulator_for(kind, n).with_seed(7);
            let samples = sim.sample_final_bitstrings(&ghz(n), 200).unwrap();
            let all = (1u64 << n) - 1;
            assert!(
                samples.iter().all(|b| b.as_u64() == 0 || b.as_u64() == all),
                "{kind}: non-GHZ outcome"
            );
            let ones = samples.iter().filter(|b| b.as_u64() == all).count();
            assert!((40..160).contains(&ones), "{kind}: ones = {ones}");
        }
    }

    #[test]
    fn any_state_reports_wrapped_kind() {
        for kind in BackendKind::all() {
            assert_eq!(AnyState::zero(kind, 2).kind(), kind);
        }
        let capped = AnyState::zero(BackendKind::ChainMps { chi: Some(8) }, 2);
        assert_eq!(capped.kind(), BackendKind::ChainMps { chi: Some(8) });
    }

    #[test]
    fn only_density_matrix_reports_deterministic_channels() {
        for kind in BackendKind::all() {
            let state = AnyState::zero(kind, 2);
            assert_eq!(
                state.channels_are_deterministic(),
                kind.channels_are_deterministic(),
                "{kind}"
            );
        }
    }

    #[test]
    fn purified_mps_is_a_deterministic_channel_backend() {
        let kind = BackendKind::PurifiedMps {
            chi: None,
            kraus_dim: None,
        };
        assert!(kind.channels_are_deterministic());
        let state = AnyState::zero(kind, 2);
        assert!(state.channels_are_deterministic());
        assert_eq!(state.kind(), kind);
        // the chi/kraus configuration is reported back and is
        // family-insensitive
        let capped = AnyState::zero(
            BackendKind::PurifiedMps {
                chi: Some(8),
                kraus_dim: Some(2),
            },
            2,
        );
        assert_eq!(
            capped.kind(),
            BackendKind::PurifiedMps {
                chi: Some(8),
                kraus_dim: Some(2),
            }
        );
        assert!(kind.same_family(capped.kind()));
        assert!(!kind.same_family(BackendKind::ChainMps { chi: None }));
        // channel branch contract mirrors the density matrix
        let ch = Channel::bit_flip(0.25).unwrap();
        let probs = state.kraus_branch_probabilities(&ch, &[0]).unwrap();
        assert_eq!(probs, vec![1.0]);
        let mut state = state;
        state.apply_kraus_branch(&ch, 0, &[0]).unwrap();
        assert!((state.probability(bgls_core::BitString::from_u64(2, 0b01)) - 0.25).abs() < 1e-12);
        assert!(matches!(
            state.apply_kraus_branch(&ch, 1, &[0]),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn purified_mps_samples_noisy_circuits_gate_by_gate() {
        // end-to-end: sample-parallel noisy sampling survives on the
        // purified chain because channels are deterministic
        let n = 3;
        let mut circuit = ghz(n);
        circuit.push(
            Operation::channel(Channel::depolarizing(0.05).unwrap(), vec![Qubit(1)]).unwrap(),
        );
        circuit.push(Operation::measure(Qubit::range(n), "z").unwrap());
        let kind = BackendKind::PurifiedMps {
            chi: None,
            kraus_dim: None,
        };
        let result = simulator_for(kind, n)
            .with_seed(11)
            .run(&circuit, 300)
            .unwrap();
        let h = result.histogram("z").unwrap();
        let all = (1u64 << n) - 1;
        // GHZ correlations dominate; weak depolarizing leaks a few
        // single-bit flips
        assert!(h.count_value(0) + h.count_value(all) > 250);
        // determinism: same seed, same histogram
        let again = simulator_for(kind, n)
            .with_seed(11)
            .run(&circuit, 300)
            .unwrap();
        assert_eq!(h.iter_sorted(), again.histogram("z").unwrap().iter_sorted());
    }

    #[test]
    fn probabilities_batch_matches_scalar_on_every_backend() {
        use bgls_core::BitString;
        let n = 3;
        for kind in BackendKind::all() {
            let sim = simulator_for(kind, n).with_seed(1);
            let state = sim.final_state(&ghz(n)).unwrap();
            let base = BitString::zeros(n);
            let cands = base.candidates(&[0, 1, 2]);
            let batched = state.probabilities_batch(&cands);
            for (c, p) in cands.iter().zip(&batched) {
                assert_eq!(
                    p.to_bits(),
                    state.probability(*c).to_bits(),
                    "{kind}: candidate {c}"
                );
            }
        }
    }

    #[test]
    fn expectations_match_per_term_on_every_backend() {
        let n = 3;
        let strings: Vec<PauliString> = ["I", "Z0 Z2", "X0 X1 X2", "Z1", "Y0 Y1", "X0 Z1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let refs: Vec<&PauliString> = strings.iter().collect();
        for kind in BackendKind::all() {
            let state = simulator_for(kind, n).final_state(&ghz(n)).unwrap();
            let batched = state.expectations(&refs).unwrap();
            assert_eq!(batched.len(), strings.len());
            for (p, v) in strings.iter().zip(&batched) {
                let single = state.expectation(p).unwrap();
                assert_eq!(v.to_bits(), single.to_bits(), "{kind}: {p}");
            }
        }
    }

    #[test]
    fn kraus_branch_methods_dispatch_per_backend() {
        let ch = Channel::bit_flip(0.25).unwrap();
        for kind in BackendKind::all() {
            let state = AnyState::zero(kind, 2);
            let probs = state.kraus_branch_probabilities(&ch, &[0]);
            match kind {
                // CH form has no channel support: typed error, not panic
                BackendKind::ChForm => assert!(
                    matches!(probs, Err(bgls_core::SimError::Unsupported(_))),
                    "{kind}"
                ),
                // the density matrix absorbs the channel deterministically
                BackendKind::DensityMatrix => assert_eq!(probs.unwrap(), vec![1.0], "{kind}"),
                _ => {
                    let probs = probs.unwrap();
                    assert_eq!(probs.len(), 2, "{kind}");
                    assert!((probs[0] - 0.75).abs() < 1e-10, "{kind}: {probs:?}");
                    let mut state = state;
                    state.apply_kraus_branch(&ch, 1, &[0]).unwrap();
                    assert!(
                        (state.probability(bgls_core::BitString::from_u64(2, 0b01)) - 1.0).abs()
                            < 1e-10,
                        "{kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_from_preserves_state_across_variants() {
        let mut src = AnyState::zero(BackendKind::StateVector, 2);
        src.apply_gate(&Gate::X, &[1]).unwrap();
        // same variant: in-place copy
        let mut dst = AnyState::zero(BackendKind::StateVector, 2);
        dst.clone_from(&src);
        assert!((dst.probability(bgls_core::BitString::from_u64(2, 0b10)) - 1.0).abs() < 1e-12);
        // different variant: falls back to a fresh clone
        let mut other = AnyState::zero(BackendKind::ChForm, 2);
        other.clone_from(&src);
        assert_eq!(other.kind(), BackendKind::StateVector);
        assert!((other.probability(bgls_core::BitString::from_u64(2, 0b10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn armed_op_fault_aborts_at_the_requested_ordinal() {
        let n = 3;
        let mut circuit = ghz(n);
        circuit.push(Operation::measure(Qubit::range(n), "z").unwrap());
        // the first CNOT is the 2nd applied operation
        let spec = OpFaultSpec::new(2, "injected");
        let sim = simulator_for(BackendKind::StateVector, n)
            .with_seed(5)
            .with_fallible_ops(spec.arm(BackendKind::StateVector).unwrap());
        match sim.run(&circuit, 10) {
            Err(SimError::Faulted(msg)) => assert_eq!(msg, "injected"),
            other => panic!("expected a Faulted error, got {other:?}"),
        }
        // a fault that never fires leaves the run bit-identical
        let late = OpFaultSpec::new(1_000, "never");
        let faulted = simulator_for(BackendKind::StateVector, n)
            .with_seed(5)
            .with_fallible_ops(late.arm(BackendKind::StateVector).unwrap())
            .run(&circuit, 50)
            .unwrap();
        let clean = simulator_for(BackendKind::StateVector, n)
            .with_seed(5)
            .run(&circuit, 50)
            .unwrap();
        assert_eq!(
            faulted.histogram("z").unwrap().iter_sorted(),
            clean.histogram("z").unwrap().iter_sorted()
        );
    }

    #[test]
    fn op_fault_spec_scopes_to_a_backend_family() {
        let spec = OpFaultSpec::new(1, "sv only").for_backend(BackendKind::StateVector);
        assert!(spec.arm(BackendKind::StateVector).is_some());
        assert!(spec.arm(BackendKind::ChForm).is_none());
        // chi configuration does not change the family
        let mps = OpFaultSpec::new(1, "mps").for_backend(BackendKind::ChainMps { chi: Some(8) });
        assert!(mps.arm(BackendKind::ChainMps { chi: None }).is_some());
        assert!(BackendKind::StateVector.same_family(BackendKind::StateVector));
        assert!(!BackendKind::StateVector.same_family(BackendKind::LazyNetwork));
    }

    #[test]
    fn num_qubits_delegates() {
        for kind in BackendKind::all() {
            assert_eq!(AnyState::zero(kind, 5).num_qubits(), 5, "{kind}");
        }
    }
}
