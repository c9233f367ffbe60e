//! Bench: the multiplicity-map sample parallelization (paper Fig. 2):
//! runtime saturates with repetitions when enabled — plus the batched vs
//! scalar candidate-probability hooks on the saturated map.

use bgls_bench::universal_workload;
use bgls_circuit::{Circuit, Operation, Qubit};
use bgls_core::{default_apply_op, BglsState, Simulator, SimulatorOptions};
use bgls_statevector::StateVector;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn workload(qubits: usize, moments: usize) -> Circuit {
    let mut circuit = universal_workload(qubits, moments, 42);
    circuit.push(Operation::measure(Qubit::range(qubits), "m").unwrap());
    circuit
}

fn bench_parallelization(c: &mut Criterion) {
    let circuit = workload(8, 20);
    let mut group = c.benchmark_group("sample_parallelization");
    group.sample_size(10);
    for &reps in &[16u64, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("multiplicity_map", reps), &reps, |b, _| {
            let sim = Simulator::new(StateVector::zero(8)).with_seed(7);
            b.iter(|| sim.run(&circuit, reps).unwrap());
        });
        if reps <= 256 {
            group.bench_with_input(BenchmarkId::new("per_sample", reps), &reps, |b, _| {
                let sim = Simulator::new(StateVector::zero(8)).with_options(SimulatorOptions {
                    seed: Some(7),
                    parallelize_samples: false,
                    ..Default::default()
                });
                b.iter(|| sim.run(&circuit, reps).unwrap());
            });
        }
    }
    group.finish();
}

/// Scalar vs batched candidate evaluation at a repetition count that
/// saturates the 8-qubit multiplicity map (every basis state populated),
/// where candidate-probability evaluation dominates the step cost.
/// `scalar` is the paper's three-hook constructor ([`Simulator::with_hooks`],
/// one probability call per candidate); `batched` is [`Simulator::new`].
fn bench_batched_redistribution(c: &mut Criterion) {
    let circuit = workload(8, 20);
    let mut group = c.benchmark_group("sample_parallelization_batched");
    group.sample_size(10);
    let reps = 100_000u64;
    let scalar = Simulator::with_hooks(
        StateVector::zero(8),
        Arc::new(default_apply_op),
        Arc::new(|s, b| s.probability(b)),
        false,
    );
    let batched = Simulator::new(StateVector::zero(8));
    for (label, sim) in [("scalar", scalar), ("batched", batched)] {
        let sim = sim.with_seed(7);
        group.bench_function(label, |b| {
            b.iter(|| sim.run(&circuit, reps).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallelization, bench_batched_redistribution);
criterion_main!(benches);
