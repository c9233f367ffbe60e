//! Bench: sharded dense-state kernels vs the flat per-gate loops.
//!
//! The workload is the dense-backend hot path at production scale — a
//! 24-qubit state vector (256 MiB of amplitudes, far out of cache):
//!
//! * `sweep_24q/gate_by_gate` — a 1q/2q gate sweep (H on every qubit,
//!   then Rzz on the nearest-neighbour chain) applied one
//!   `apply_matrix` call at a time: every gate is a full read+write
//!   pass over the 256 MiB buffer;
//! * `sweep_24q/fused_passes` — the same sweep through
//!   `apply_matrices`, which groups consecutive gates into
//!   shard-blocked passes (each pass touches every shard once, applying
//!   every gate of the pass while the shard is cache-resident);
//! * `reduce_24q/*` — `norm_sqr` (tree-reduced over shards) and a
//!   4-qubit marginal probability mass, the reduction shapes behind
//!   renormalization, Kraus branch weights, and Born batches.
//!
//! Acceptance for the sharding PR: >= 2x on the gate sweep vs the
//! pre-shard kernels, and the portable runtime-dispatch binary within
//! 10% of the old `-C target-cpu=native` build on the same sweep.
//! Before/after medians are recorded in `BENCH_statevector_shards.json`.

use bgls_circuit::Gate;
use bgls_core::MarginalState;
use bgls_linalg::{Matrix, C64};
use bgls_statevector::{apply_matrix, norm_sqr, StateVector};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 24;

/// The 24-qubit 1q/2q sweep: H on every qubit, Rzz(0.3) on the chain.
fn sweep_ops() -> Vec<(Matrix, Vec<usize>)> {
    let h = Gate::H.unitary().unwrap();
    let zz = Gate::Rzz(0.3.into()).unitary().unwrap();
    let mut ops = Vec::new();
    for q in 0..N {
        ops.push((h.clone(), vec![q]));
    }
    for q in 0..N - 1 {
        ops.push((zz.clone(), vec![q, q + 1]));
    }
    ops
}

fn random_amps(n: usize) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(24);
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let norm = norm_sqr(&amps).sqrt();
    amps.iter_mut().for_each(|z| *z = *z / norm);
    amps
}

fn bench_gate_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_24q");
    group.sample_size(5);
    let ops = sweep_ops();
    let mut amps = random_amps(N);
    group.bench_function("gate_by_gate", |b| {
        b.iter(|| {
            for (u, qs) in &ops {
                apply_matrix(&mut amps, u, qs);
            }
        })
    });
    group.bench_function("fused_passes", |b| {
        let op_refs: Vec<(&Matrix, &[usize])> =
            ops.iter().map(|(u, qs)| (u, qs.as_slice())).collect();
        b.iter(|| bgls_statevector::apply_matrices(&mut amps, &op_refs))
    });
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_24q");
    group.sample_size(10);
    let amps = random_amps(N);
    group.bench_function("norm_sqr", |b| b.iter(|| norm_sqr(&amps)));
    let sv = StateVector::from_amplitudes(random_amps(N)).unwrap();
    group.bench_function("marginal_4q_mass", |b| {
        b.iter(|| sv.marginal_probability(&[(0, false), (7, true), (13, false), (23, true)]))
    });
    group.finish();
}

criterion_group!(benches, bench_gate_sweep, bench_reductions);
criterion_main!(benches);
