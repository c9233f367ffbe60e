//! Bench: trajectory-forest execution vs per-trajectory replay on noisy
//! circuits (the workload class PR 3 moves off the replay path).
//!
//! Three 16-qubit workloads at 10^4 repetitions, each with *sparse*
//! stochastic noise so the forest frontier stays near a handful of
//! branch histories while replay pays a full state evolution per
//! repetition:
//!
//! * `ghz` — GHZ ladder with a low-probability bit flip on every qubit;
//! * `clifford` — random Clifford circuit with sparse depolarizing noise;
//! * `qaoa` — one-layer ring-MaxCut QAOA with per-qubit bit-flip noise.
//!
//! Configurations per workload:
//! * `replay` — `parallelize_samples: false`: the per-repetition replay
//!   engine (Rayon across repetitions);
//! * `forest` — the trajectory-forest engine (default options).
//!
//! Both sample identical distributions (chi-squared-verified in
//! `tests/trajectory_forest.rs`); the acceptance bar for this PR is
//! forest >= 3x faster than replay on the GHZ workload.

use bgls_apps::{qaoa_maxcut_circuit, resolve_qaoa, Graph};
use bgls_bench::clifford_workload;
use bgls_circuit::{Channel, Circuit, Gate, Operation, Qubit};
use bgls_core::{Simulator, SimulatorOptions};
use bgls_statevector::StateVector;
use criterion::{criterion_group, criterion_main, Criterion};

const QUBITS: usize = 16;
const NOISE: f64 = 0.001;

/// 10^4 repetitions when timing; a token count in `--test` smoke mode,
/// where a single untimed replay run at full reps would dominate CI.
fn reps() -> u64 {
    if std::env::args().any(|a| a == "--test") {
        100
    } else {
        10_000
    }
}

fn with_terminal_noise(mut circuit: Circuit, p: f64, channel: fn(f64) -> Channel) -> Circuit {
    for q in 0..QUBITS as u32 {
        circuit.push(Operation::channel(channel(p), vec![Qubit(q)]).unwrap());
    }
    circuit.push(Operation::measure(Qubit::range(QUBITS), "m").unwrap());
    circuit
}

fn sparse_noise_ghz() -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..QUBITS as u32 {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    with_terminal_noise(c, NOISE, |p| Channel::bit_flip(p).unwrap())
}

fn noisy_clifford() -> Circuit {
    with_terminal_noise(clifford_workload(QUBITS, 12, 7), NOISE, |p| {
        Channel::depolarizing(p).unwrap()
    })
}

fn noisy_qaoa() -> Circuit {
    let edges: Vec<(usize, usize)> = (0..QUBITS).map(|v| (v, (v + 1) % QUBITS)).collect();
    let graph = Graph::new(QUBITS, edges);
    let circuit = resolve_qaoa(&qaoa_maxcut_circuit(&graph, 1), &[0.7], &[0.4]);
    with_terminal_noise(circuit, NOISE, |p| Channel::bit_flip(p).unwrap())
}

fn options(forest: bool) -> SimulatorOptions {
    SimulatorOptions {
        seed: Some(11),
        parallelize_samples: forest,
        ..Default::default()
    }
}

fn bench_trajectory_forest(c: &mut Criterion) {
    let workloads = [
        ("ghz", sparse_noise_ghz()),
        ("clifford", noisy_clifford()),
        ("qaoa", noisy_qaoa()),
    ];
    let mut group = c.benchmark_group("trajectory_forest");
    group.sample_size(2);
    for (name, circuit) in &workloads {
        for (path, forest) in [("replay", false), ("forest", true)] {
            group.bench_function(format!("{name}/{path}"), |b| {
                let sim = Simulator::new(StateVector::zero(QUBITS)).with_options(options(forest));
                b.iter(|| sim.run(circuit, reps()).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_trajectory_forest);
criterion_main!(benches);
