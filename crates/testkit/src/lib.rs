//! # bgls-testkit
//!
//! Support module for the cross-backend conformance battery: one
//! declarative list of circuit classes, an explicit capability matrix
//! saying which [`BackendKind`] claims which class, deterministic
//! circuit builders per class, exact reference distributions computed
//! through the expectation frontier (so mid-circuit measurements and
//! channels are handled exactly, never sampled), and FNV-1a digests of
//! sampling runs for bit-identity assertions.
//!
//! The battery itself lives in the workspace-level `tests/conformance.rs`;
//! this crate only provides the declarative pieces so other suites
//! (property tests, benches, fault-injection) can reuse the same
//! circuits and capability claims instead of re-deriving them.

#![warn(missing_docs)]

use bgls_backend::{AnyState, BackendKind, SimulatorExt};
use bgls_circuit::{
    generate_random_circuit, Channel, Circuit, Gate, Operation, PauliOp, PauliString, PauliSum,
    Qubit, RandomCircuitParams,
};
use bgls_core::{BatchProbFn, BglsState, BitString, SimError, Simulator, SimulatorOptions};
use bgls_linalg::C64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The circuit families of the conformance battery. Every backend that
/// [`supports`] a class must reproduce the exact reference behaviour on
/// that class's circuits — expectation values to 1e-10, sampling
/// histograms to a chi-squared fit, and seed-determinism bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CircuitClass {
    /// Random Clifford circuits: every backend participates, including
    /// the stabilizer pair (CH form, tableau).
    Clifford,
    /// Random universal circuits (T, rotations, Rzz) over 1q/2q gates.
    Universal,
    /// A GHZ-style entangler with sparse single-qubit Kraus channels.
    Noisy,
    /// Clifford circuit with physical mid-circuit measurements (later
    /// gates act on the measured qubits, so the collapse is physical).
    MidCircuit,
    /// A channel after every entangling layer on every qubit — the
    /// trajectory-forking stress case that purified MPS and density
    /// matrices absorb deterministically.
    ChannelHeavy,
}

impl CircuitClass {
    /// Every class, in battery order.
    pub fn all() -> [CircuitClass; 5] {
        [
            CircuitClass::Clifford,
            CircuitClass::Universal,
            CircuitClass::Noisy,
            CircuitClass::MidCircuit,
            CircuitClass::ChannelHeavy,
        ]
    }

    /// Stable lowercase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CircuitClass::Clifford => "clifford",
            CircuitClass::Universal => "universal",
            CircuitClass::Noisy => "noisy",
            CircuitClass::MidCircuit => "mid-circuit",
            CircuitClass::ChannelHeavy => "channel-heavy",
        }
    }
}

impl std::fmt::Display for CircuitClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every *exact* backend configuration under conformance test: the
/// runtime-dispatch set ([`BackendKind::all`]) plus the two kinds it
/// deliberately omits — the Clifford tableau and the purified MPS —
/// each uncapped so agreement is exact, not approximate.
pub fn backends_under_test() -> Vec<BackendKind> {
    let mut kinds = BackendKind::all();
    kinds.push(BackendKind::Tableau);
    kinds.push(BackendKind::PurifiedMps {
        chi: None,
        kraus_dim: None,
    });
    kinds
}

/// The capability matrix: does `kind` claim conformance on `class`?
///
/// Claims are intentionally explicit rather than probed at runtime, so
/// a backend silently losing a capability fails the battery instead of
/// silently shrinking it:
///
/// * the CH form is Clifford-only and has no projective collapse;
/// * the tableau adds mid-circuit collapse but still no channels and no
///   non-Clifford gates;
/// * the chain MPS, lazy network, and state vector run channels as
///   stochastic trajectories; the density matrix and purified MPS run
///   them deterministically — all five claim the noisy classes.
pub fn supports(kind: BackendKind, class: CircuitClass) -> bool {
    let stabilizer = matches!(kind, BackendKind::ChForm | BackendKind::Tableau);
    match class {
        CircuitClass::Clifford => true,
        CircuitClass::Universal => !stabilizer,
        CircuitClass::Noisy | CircuitClass::ChannelHeavy => !stabilizer,
        CircuitClass::MidCircuit => !matches!(kind, BackendKind::ChForm),
    }
}

/// Deterministic battery circuit for `class` on `n` qubits. Circuits
/// carry no final measurement; samplers append their own readout and
/// the expectation checks run on the bare circuit.
pub fn circuit_for(class: CircuitClass, n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    match class {
        CircuitClass::Clifford => {
            generate_random_circuit(&RandomCircuitParams::clifford(n, 3 * n), &mut rng)
        }
        CircuitClass::Universal => {
            let params = RandomCircuitParams {
                qubits: n,
                moments: 2 * n,
                op_density: 0.9,
                gate_set: vec![
                    Gate::H,
                    Gate::T,
                    Gate::Ry(0.7.into()),
                    Gate::Rz((-0.3).into()),
                    Gate::Cnot,
                    Gate::Cz,
                    Gate::Rzz(0.5.into()),
                ],
            };
            generate_random_circuit(&params, &mut rng)
        }
        CircuitClass::Noisy => {
            let mut c = Circuit::new();
            c.push(gate(Gate::H, &[0]));
            for q in 1..n {
                c.push(gate(Gate::Cnot, &[q - 1, q]));
            }
            // Mixed-unitary channels only: gate-by-gate sampling keeps
            // its tracked bitstring consistent through unitary Kraus
            // jumps, while a non-unitary jump (amplitude damping) can
            // zero every candidate. Amplitude-damping agreement is
            // covered by the purified-MPS/density property tests, which
            // compare states, not sampled paths.
            c.push(channel(Channel::depolarizing(0.1).unwrap(), &[0]));
            c.push(channel(Channel::phase_flip(0.15).unwrap(), &[n / 2]));
            c.push(gate(Gate::Ry(0.4.into()), &[n - 1]));
            c.push(channel(Channel::bit_flip(0.05).unwrap(), &[n - 1]));
            c.push(gate(Gate::Cnot, &[0, n - 1]));
            c
        }
        CircuitClass::MidCircuit => {
            let mut c = Circuit::new();
            for op in generate_random_circuit(&RandomCircuitParams::clifford(n, n), &mut rng)
                .all_operations()
            {
                c.push(op.clone());
            }
            // Physical collapse: both measured qubits see later gates.
            c.push(Operation::measure(vec![Qubit(0)], "m0").unwrap());
            c.push(gate(Gate::H, &[0]));
            c.push(gate(Gate::Cnot, &[0, 1]));
            c.push(Operation::measure(vec![Qubit(1)], "m1").unwrap());
            c.push(gate(Gate::S, &[1]));
            c.push(gate(Gate::Cz, &[1, n - 1]));
            c
        }
        CircuitClass::ChannelHeavy => {
            let mut c = Circuit::new();
            for layer in 0..2 {
                for q in 0..n {
                    let angle = 0.3 + 0.1 * (q + layer * n) as f64;
                    c.push(gate(Gate::Ry(angle.into()), &[q]));
                }
                for q in (layer % 2..n.saturating_sub(1)).step_by(2) {
                    c.push(gate(Gate::Cnot, &[q, q + 1]));
                }
                // a channel on every qubit, every layer
                for q in 0..n {
                    let ch = if (q + layer) % 2 == 0 {
                        Channel::bit_flip(0.08).unwrap()
                    } else {
                        Channel::phase_flip(0.12).unwrap()
                    };
                    c.push(channel(ch, &[q]));
                }
            }
            c
        }
    }
}

/// Observables every class is scored on: single-site, two-site, the
/// full Z string, and a mixed multi-term sum with a constant offset.
pub fn observables_for(n: usize) -> Vec<PauliSum> {
    let mut z0 = PauliSum::new();
    z0.add_term(C64::ONE, pauli(&[(0, PauliOp::Z)]));
    let mut zz = PauliSum::new();
    zz.add_term(C64::ONE, pauli(&[(0, PauliOp::Z), (1, PauliOp::Z)]));
    let mut zstring = PauliSum::new();
    zstring.add_term(
        C64::ONE,
        pauli(&(0..n).map(|q| (q, PauliOp::Z)).collect::<Vec<_>>()),
    );
    let mut mixed = PauliSum::new();
    mixed.add_term(C64::real(0.75), pauli(&[(0, PauliOp::X)]));
    mixed.add_term(
        C64::real(-0.25),
        pauli(&[(1, PauliOp::Z), (n - 1, PauliOp::Z)]),
    );
    mixed.add_term(C64::real(0.5), pauli(&[]));
    vec![z0, zz, zstring, mixed]
}

/// Exact expectation of `observable` after `circuit` on backend `kind`,
/// through the runtime dispatch layer. `max_forest_nodes` bounds the
/// exact frontier for trajectory backends (deterministic-channel
/// backends never fork on channels and ignore the headroom).
pub fn expectation_on(
    kind: BackendKind,
    circuit: &Circuit,
    n: usize,
    observable: &PauliSum,
    max_forest_nodes: usize,
) -> Result<f64, SimError> {
    let opts = SimulatorOptions {
        max_forest_nodes,
        ..Default::default()
    };
    Simulator::for_backend(kind, n, opts).expectation_value(circuit, observable)
}

/// The Z-basis projector `|bits><bits|` as a `2^n`-term Pauli sum:
/// `prod_i (I + s_i Z_i) / 2` with `s_i = +1` for bit 0, `-1` for bit 1
/// (bit `i` of `bits` = qubit `i`, the [`BitString`] convention).
pub fn zbasis_projector(n: usize, bits: u64) -> PauliSum {
    let mut sum = PauliSum::new();
    let scale = 1.0 / (1u64 << n) as f64;
    for mask in 0u64..(1 << n) {
        let mut coeff = scale;
        let mut ops = Vec::new();
        for (q, s) in (0..n).map(|q| (q, (bits >> q) & 1)) {
            if (mask >> q) & 1 == 1 {
                ops.push((q, PauliOp::Z));
                if s == 1 {
                    coeff = -coeff;
                }
            }
        }
        sum.add_term(C64::real(coeff), pauli(&ops));
    }
    sum
}

/// The exact final Z-basis distribution of `circuit`, computed on the
/// density-matrix backend through the exact expectation frontier — so
/// Kraus channels contribute their full mixture and mid-circuit
/// measurements fork exactly, with no sampling anywhere. This is the
/// battery's reference for every chi-squared fit. Exponential in `n`;
/// keep `n` small.
pub fn exact_distribution(circuit: &Circuit, n: usize) -> Vec<f64> {
    (0..1u64 << n)
        .map(|bits| {
            expectation_on(
                BackendKind::DensityMatrix,
                circuit,
                n,
                &zbasis_projector(n, bits),
                1 << 12,
            )
            .expect("density matrix serves every battery circuit")
            .max(0.0)
        })
        .collect()
}

/// Runs `circuit` on `kind` with a full-width readout appended and
/// returns the final-measurement counts per basis state, through
/// [`bgls_core::Simulator::run`] — the one path that collapses
/// mid-circuit measurements physically (the bare bitstring sampler
/// strips measurement operations entirely).
pub fn sample_counts(
    kind: BackendKind,
    circuit: &Circuit,
    n: usize,
    reps: u64,
    opts: SimulatorOptions,
) -> Result<Vec<u64>, SimError> {
    sample_counts_on(&Simulator::for_backend(kind, n, opts), circuit, n, reps)
}

/// [`sample_counts`] on a caller-built simulator, e.g. one with a
/// replaced probability hook.
pub fn sample_counts_on(
    sim: &Simulator<AnyState>,
    circuit: &Circuit,
    n: usize,
    reps: u64,
) -> Result<Vec<u64>, SimError> {
    let mut measured = circuit.clone();
    measured.push(Operation::measure(Qubit::range(n), "conf").unwrap());
    let result = sim.run(&measured, reps)?;
    let h = result
        .histogram("conf")
        .expect("appended readout key must be recorded");
    Ok((0..1u64 << n).map(|v| h.count_value(v)).collect())
}

/// Folds a seeded sampling run into an FNV-1a digest of its histogram —
/// the unit of the battery's bit-identity assertions (same seed, any
/// probability hook or thread count, same digest).
pub fn sample_digest(
    kind: BackendKind,
    circuit: &Circuit,
    n: usize,
    reps: u64,
    opts: SimulatorOptions,
) -> Result<u64, SimError> {
    Ok(digest_counts(&sample_counts(kind, circuit, n, reps, opts)?))
}

/// FNV-1a over a count vector, as [`sample_digest`] folds it.
pub fn digest_counts(counts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in counts {
        fnv1a(&mut h, c);
    }
    h
}

/// A probability hook that evaluates one candidate at a time through
/// [`BglsState::probability`] — the scalar reference the batched
/// [`BglsState::probabilities_batch`] must reproduce bit for bit.
/// Install it with [`Simulator::with_batch_hook`].
pub fn per_candidate_hook() -> BatchProbFn<AnyState> {
    Arc::new(|state, candidates| candidates.iter().map(|&c| state.probability(c)).collect())
}

/// FNV-1a over a sample vector: order-sensitive, so equal digests mean
/// the *sequence* of outcomes matched bit for bit.
pub fn digest_samples(samples: &[BitString]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, samples.len() as u64);
    for b in samples {
        fnv1a(&mut h, b.as_u64());
    }
    h
}

fn fnv1a(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn gate(g: Gate, qs: &[usize]) -> Operation {
    Operation::gate(g, qs.iter().map(|&q| Qubit(q as u32)).collect::<Vec<_>>()).unwrap()
}

fn channel(ch: Channel, qs: &[usize]) -> Operation {
    Operation::channel(ch, qs.iter().map(|&q| Qubit(q as u32)).collect::<Vec<_>>()).unwrap()
}

fn pauli(ops: &[(usize, PauliOp)]) -> PauliString {
    PauliString::from_ops(ops.iter().copied()).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_matches_backend_contracts() {
        // Stabilizer backends never claim channel classes; everything
        // claims Clifford; only the CH form sits out mid-circuit.
        for kind in backends_under_test() {
            assert!(supports(kind, CircuitClass::Clifford), "{kind}");
        }
        assert!(!supports(BackendKind::ChForm, CircuitClass::Universal));
        assert!(!supports(BackendKind::Tableau, CircuitClass::Noisy));
        assert!(!supports(BackendKind::ChForm, CircuitClass::MidCircuit));
        assert!(supports(BackendKind::Tableau, CircuitClass::MidCircuit));
        assert!(supports(
            BackendKind::PurifiedMps {
                chi: None,
                kraus_dim: None
            },
            CircuitClass::ChannelHeavy
        ));
    }

    #[test]
    fn battery_circuits_are_deterministic_and_classed() {
        for class in CircuitClass::all() {
            let a = circuit_for(class, 4, 7);
            let b = circuit_for(class, 4, 7);
            assert_eq!(a, b, "{class}: builder must be a pure function");
            let has_channels = a.has_channels();
            match class {
                CircuitClass::Noisy | CircuitClass::ChannelHeavy => {
                    assert!(has_channels, "{class} must carry channels")
                }
                _ => assert!(!has_channels, "{class} must be channel-free"),
            }
        }
        assert!(circuit_for(CircuitClass::MidCircuit, 4, 7)
            .all_operations()
            .any(|op| op.is_measurement()));
    }

    #[test]
    fn projectors_partition_unity() {
        // Summing |b><b| over all b is the identity, so the exact
        // distribution must sum to 1 on a noisy circuit.
        let n = 3;
        let circuit = circuit_for(CircuitClass::Noisy, n, 11);
        let dist = exact_distribution(&circuit, n);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(dist.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn digests_are_order_sensitive_and_seed_stable() {
        let n = 3;
        let circuit = circuit_for(CircuitClass::Clifford, n, 3);
        let opts = SimulatorOptions {
            seed: Some(5),
            ..Default::default()
        };
        let a = sample_digest(BackendKind::StateVector, &circuit, n, 500, opts.clone()).unwrap();
        let b = sample_digest(BackendKind::StateVector, &circuit, n, 500, opts).unwrap();
        assert_eq!(a, b, "same seed must reproduce the digest");
        let x = BitString::from_u64(2, 1);
        let y = BitString::from_u64(2, 2);
        assert_ne!(
            digest_samples(&[x, y]),
            digest_samples(&[y, x]),
            "digest must see sample order"
        );
    }
}
