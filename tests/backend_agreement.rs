//! Cross-backend integration: every state representation plugged into the
//! BGLS simulator must produce the same sampling distribution on circuits
//! it supports — the paper's core "state-agnostic" claim (Sec. 3.1).
//!
//! All backends here are selected at *runtime* through [`BackendKind`] /
//! [`AnyState`]: no function signature names a concrete state type, which
//! is exactly the property a multi-backend service front-end relies on.

use bgls_suite::apps::{
    chi_squared_fits, empirical_distribution, qaoa_maxcut_circuit, resolve_qaoa,
    total_variation_distance, Graph,
};
use bgls_suite::circuit::{
    generate_random_circuit, Channel, Circuit, Gate, Operation, OptimizeConfig, Qubit,
    RandomCircuitParams,
};
use bgls_suite::core::{default_apply_op, BglsState, BitString, Simulator, SimulatorOptions};
use bgls_suite::{AnyState, BackendKind, SimulatorExt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const N: usize = 4;
const REPS: u64 = 20_000;
const TVD_TOL: f64 = 0.03;

fn runtime_simulator(kind: BackendKind) -> Simulator<AnyState> {
    Simulator::for_backend(kind, N, SimulatorOptions::default()).with_seed(99)
}

fn sample_distribution(kind: BackendKind, circuit: &Circuit) -> Vec<f64> {
    let samples = runtime_simulator(kind)
        .sample_final_bitstrings(circuit, REPS)
        .unwrap_or_else(|e| panic!("sampling on {kind}: {e}"));
    empirical_distribution(&samples, N)
}

/// Exact Born distribution of `circuit`, computed through the same
/// runtime dispatch layer (state-vector backend, no concrete type named).
fn born_distribution(circuit: &Circuit) -> Vec<f64> {
    let state = runtime_simulator(BackendKind::StateVector)
        .final_state(circuit)
        .expect("unitary circuit");
    (0..1u64 << N)
        .map(|x| state.probability(BitString::from_u64(N, x)))
        .collect()
}

fn clifford_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(12);
    generate_random_circuit(&RandomCircuitParams::clifford(N, 12), &mut rng)
}

fn ghz_circuit() -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..N as u32 {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    c
}

/// A bound one-layer QAOA MaxCut circuit on the N-vertex ring.
fn qaoa_circuit() -> Circuit {
    let edges: Vec<(usize, usize)> = (0..N).map(|v| (v, (v + 1) % N)).collect();
    let graph = Graph::new(N, edges);
    resolve_qaoa(&qaoa_maxcut_circuit(&graph, 1), &[0.7], &[0.4])
}

fn universal_circuit() -> Circuit {
    let params = RandomCircuitParams {
        qubits: N,
        moments: 10,
        op_density: 0.9,
        gate_set: vec![
            Gate::H,
            Gate::T,
            Gate::Ry(0.7.into()),
            Gate::Cnot,
            Gate::Cz,
            Gate::Rzz(0.5.into()),
        ],
    };
    let mut rng = StdRng::seed_from_u64(13);
    generate_random_circuit(&params, &mut rng)
}

#[test]
fn all_five_backends_agree_on_clifford_circuits() {
    let circuit = clifford_circuit();
    let reference = born_distribution(&circuit);
    for kind in BackendKind::all() {
        let d = sample_distribution(kind, &circuit);
        let tvd = total_variation_distance(&d, &reference);
        assert!(tvd < TVD_TOL, "{kind}: TVD {tvd} vs ideal");
    }
}

#[test]
fn dense_and_tensor_backends_agree_on_universal_circuits() {
    let circuit = universal_circuit();
    let reference = born_distribution(&circuit);
    // the CH form is Clifford-only by design; every other backend must
    // handle the universal gate set
    for kind in BackendKind::all()
        .into_iter()
        .filter(|&k| k != BackendKind::ChForm)
    {
        let d = sample_distribution(kind, &circuit);
        let tvd = total_variation_distance(&d, &reference);
        assert!(tvd < TVD_TOL, "{kind}: TVD {tvd} vs ideal");
    }
}

#[test]
fn run_interface_parity_across_backends() {
    // the Cirq-style run() must give the same histogram semantics everywhere
    let mut circuit = clifford_circuit();
    circuit.push(Operation::measure(Qubit::range(N), "z").unwrap());
    let hv = Simulator::for_backend(BackendKind::StateVector, N, SimulatorOptions::default())
        .with_seed(5)
        .run(&circuit, 5000)
        .unwrap();
    let hc = Simulator::for_backend(BackendKind::ChForm, N, SimulatorOptions::default())
        .with_seed(5)
        .run(&circuit, 5000)
        .unwrap();
    let dv = hv.histogram("z").unwrap().to_distribution();
    let dc = hc.histogram("z").unwrap().to_distribution();
    assert!(total_variation_distance(&dv, &dc) < TVD_TOL);
    assert_eq!(hv.repetitions(), 5000);
    assert_eq!(hc.histogram("z").unwrap().total(), 5000);
}

#[test]
fn skip_diagonal_ablation_leaves_distribution_unchanged() {
    let circuit = universal_circuit();
    let reference = born_distribution(&circuit);
    let sim = Simulator::for_backend(
        BackendKind::StateVector,
        N,
        SimulatorOptions {
            seed: Some(3),
            skip_diagonal_updates: true,
            ..Default::default()
        },
    );
    let samples = sim.sample_final_bitstrings(&circuit, REPS).unwrap();
    let d = empirical_distribution(&samples, N);
    assert!(total_variation_distance(&d, &reference) < TVD_TOL);
}

/// GHZ preparation followed by a random Clifford tail: every
/// runtime-selected backend (including a chi-capped chain MPS, which is
/// exact here because Clifford circuits on 4 qubits stay under the cap)
/// must agree within sampling tolerance.
#[test]
fn runtime_selected_backends_agree_on_ghz_plus_random_clifford() {
    let mut circuit = Circuit::new();
    circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..N as u32 {
        circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    let mut rng = StdRng::seed_from_u64(21);
    for op in
        generate_random_circuit(&RandomCircuitParams::clifford(N, 8), &mut rng).all_operations()
    {
        circuit.push(op.clone());
    }

    let reference = born_distribution(&circuit);
    let mut kinds = BackendKind::all();
    kinds.push(BackendKind::ChainMps { chi: Some(8) });
    for kind in kinds {
        let d = sample_distribution(kind, &circuit);
        let tvd = total_variation_distance(&d, &reference);
        assert!(tvd < TVD_TOL, "{kind}: TVD {tvd} vs ideal");
    }
}

/// A Kraus-channel circuit through the runtime dispatch layer: the
/// density-matrix backend keeps the deterministic-channel (multiplicity
/// map) path while the state vector falls back to per-sample
/// trajectories — and both must agree with each other.
#[test]
fn kraus_channels_agree_between_trajectories_and_density_matrix() {
    let mut circuit = Circuit::new();
    circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    circuit.push(Operation::channel(Channel::depolarizing(0.15).unwrap(), vec![Qubit(0)]).unwrap());
    for i in 1..N as u32 {
        circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
        circuit.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![Qubit(i)]).unwrap());
    }
    circuit.push(Operation::measure(Qubit::range(N), "z").unwrap());

    // capability is queryable before running: only the density matrix
    // applies channels deterministically
    for kind in BackendKind::all() {
        assert_eq!(
            AnyState::zero(kind, N).channels_are_deterministic(),
            kind == BackendKind::DensityMatrix,
            "{kind}"
        );
    }

    let exact = Simulator::for_backend(BackendKind::DensityMatrix, N, SimulatorOptions::default())
        .with_seed(7)
        .run(&circuit, REPS)
        .unwrap();
    let traj = Simulator::for_backend(BackendKind::StateVector, N, SimulatorOptions::default())
        .with_seed(8)
        .run(&circuit, REPS)
        .unwrap();
    let de = exact.histogram("z").unwrap().to_distribution();
    let dt = traj.histogram("z").unwrap().to_distribution();
    let tvd = total_variation_distance(&de, &dt);
    assert!(tvd < TVD_TOL, "trajectories vs exact channels: TVD {tvd}");
}

// ---- batched hot path: determinism and statistical agreement ----------

/// The three circuit families of the batched-path acceptance tests. The
/// Clifford and QAOA entries exercise, respectively, the stabilizer
/// backends' support test and the MPS split sweep over shared left and
/// right environments.
fn agreement_circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("ghz", ghz_circuit()),
        ("random-clifford", clifford_circuit()),
        ("qaoa", qaoa_circuit()),
    ]
}

fn backends_for(name: &str) -> Vec<BackendKind> {
    // the CH form is Clifford-only; QAOA's Rzz angles are not on the grid
    BackendKind::all()
        .into_iter()
        .filter(|&k| !(name == "qaoa" && k == BackendKind::ChForm))
        .collect()
}

/// The paper's three-hook constructor (one scalar probability call per
/// candidate) samples bit-identically to the batched default hook under a
/// fixed seed: the batched hook must return exactly the scalar values, so
/// the multinomial splits consume identical RNG streams.
#[test]
fn with_hooks_and_batched_paths_sample_identically_on_every_backend() {
    for (name, circuit) in agreement_circuits() {
        for kind in backends_for(name) {
            let batched = Simulator::for_backend(kind, N, SimulatorOptions::default());
            let scalar = Simulator::with_hooks(
                AnyState::zero(kind, N),
                Arc::new(default_apply_op),
                Arc::new(|s, b| s.probability(b)),
                false,
            );
            let sample = |sim: Simulator<AnyState>| {
                sim.with_seed(77)
                    .sample_final_bitstrings(&circuit, 4000)
                    .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"))
            };
            assert_eq!(
                sample(batched),
                sample(scalar),
                "{name} on {kind}: batched path diverged from the with_hooks path"
            );
        }
    }
}

/// Fused circuits sample from the same distribution as unfused ones.
/// Fusion changes the executed gate sequence (and hence the seeded RNG
/// stream), so agreement is statistical: fused counts are chi-squared
/// tested against the exact Born weights, and the fused run itself is
/// seed-reproducible. The CH form participates on Clifford circuits —
/// fused `U1` runs of Clifford gates are re-recognized as Clifford.
#[test]
fn fused_circuits_agree_with_unfused_distributions() {
    for (name, circuit) in agreement_circuits() {
        let reference = born_distribution(&circuit);
        for kind in backends_for(name) {
            let run = |fuse: bool, seed: u64| {
                let opts = SimulatorOptions {
                    seed: Some(seed),
                    optimize: fuse.then(|| OptimizeConfig {
                        merge_single_qubit_runs: true,
                        ..OptimizeConfig::off()
                    }),
                    ..Default::default()
                };
                Simulator::for_backend(kind, N, opts)
                    .sample_final_bitstrings(&circuit, REPS)
                    .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"))
            };
            let histogram = |samples: &[BitString]| {
                let mut counts = vec![0u64; 1 << N];
                for b in samples {
                    counts[b.as_u64() as usize] += 1;
                }
                counts
            };
            let fused = run(true, 79);
            let unfused = run(false, 79);
            assert!(
                chi_squared_fits(&histogram(&fused), &reference, 5.0),
                "{name} on {kind}: fused sampling deviates from Born distribution"
            );
            assert!(
                chi_squared_fits(&histogram(&unfused), &reference, 5.0),
                "{name} on {kind}: unfused sampling deviates from Born distribution"
            );
            assert_eq!(
                fused,
                run(true, 79),
                "{name} on {kind}: fused run not seed-stable"
            );
        }
    }
}

/// GHZ through `run()` with the batched path: only the two legal
/// outcomes, and their counts pass the shared chi-squared check against
/// the ideal 50/50 split (replacing ad-hoc "loose 5-sigma" windows).
#[test]
fn ghz_outcome_counts_pass_chi_squared_on_every_backend() {
    let mut circuit = ghz_circuit();
    circuit.push(Operation::measure(Qubit::range(N), "z").unwrap());
    let all_ones = (1u64 << N) - 1;
    for kind in BackendKind::all() {
        let r = Simulator::for_backend(kind, N, SimulatorOptions::default())
            .with_seed(80)
            .run(&circuit, 20_000)
            .unwrap();
        let h = r.histogram("z").unwrap();
        let zeros = h.count_value(0);
        let ones = h.count_value(all_ones);
        assert_eq!(zeros + ones, 20_000, "{kind}: non-GHZ outcome sampled");
        assert!(
            chi_squared_fits(&[zeros, ones], &[1.0, 1.0], 5.0),
            "{kind}: GHZ branch counts {zeros}/{ones} fail chi-squared"
        );
    }
}
