//! Bench: the batched candidate-probability hot path on the paper's
//! sample-parallelized sampler. A 16-qubit, 40-moment random circuit at
//! 10^5 repetitions saturates the multiplicity map, so runtime is
//! dominated by candidate evaluation and redistribution — exactly what
//! the batched hook, the per-entry RNG streams, and gate fusion target.
//!
//! Configurations (redistribution fans out across Rayon threads on
//! multi-core hosts in all three):
//! * `scalar`  — the paper's three-hook constructor
//!   ([`Simulator::with_hooks`]): one `compute_probability` call per
//!   candidate, no fusion;
//! * `batched` — [`Simulator::new`]: `probabilities_batch`;
//! * `batched_fused` — the full hot path, adding the optimizer's
//!   single-qubit merge pass.
//!
//! All three produce identically distributed histograms; `scalar` and
//! `batched` are bit-identical under a fixed seed.

use bgls_bench::universal_workload;
use bgls_circuit::{Operation, OptimizeConfig, Qubit};
use bgls_core::{default_apply_op, BglsState, Simulator, SimulatorOptions};
use bgls_statevector::StateVector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

const QUBITS: usize = 16;
const MOMENTS: usize = 40;
const REPS: u64 = 100_000;

fn bench_batch_probability(c: &mut Criterion) {
    let mut circuit = universal_workload(QUBITS, MOMENTS, 42);
    circuit.push(Operation::measure(Qubit::range(QUBITS), "m").unwrap());
    let mut group = c.benchmark_group("batch_probability");
    group.sample_size(2);
    let scalar = Simulator::with_hooks(
        StateVector::zero(QUBITS),
        Arc::new(default_apply_op),
        Arc::new(|s, b| s.probability(b)),
        false,
    );
    let batched = Simulator::new(StateVector::zero(QUBITS));
    let fused = batched.clone().with_options(SimulatorOptions {
        optimize: Some(OptimizeConfig {
            merge_single_qubit_runs: true,
            ..OptimizeConfig::off()
        }),
        ..Default::default()
    });
    for (label, sim) in [
        ("scalar", scalar),
        ("batched", batched),
        ("batched_fused", fused),
    ] {
        let sim = sim.with_seed(7);
        group.bench_function(label, |b| {
            b.iter(|| sim.run(&circuit, REPS).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_probability);
criterion_main!(benches);
