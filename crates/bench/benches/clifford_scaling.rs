//! Bench: CH-form Clifford sampling runtime vs depth and width
//! (paper Fig. 3).

use bgls_bench::clifford_workload;
use bgls_core::Simulator;
use bgls_stabilizer::{ChForm, CliffordTableau, TableauSimulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("clifford_depth_n10");
    group.sample_size(10);
    for &depth in &[25usize, 100, 400] {
        let circuit = clifford_workload(10, depth, 11);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            let sim = Simulator::new(ChForm::zero(10)).with_seed(3);
            b.iter(|| sim.sample_final_bitstrings(&circuit, 100).unwrap());
        });
    }
    group.finish();
}

fn bench_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("clifford_width_d100");
    group.sample_size(10);
    for &n in &[8usize, 24, 48] {
        let circuit = clifford_workload(n, 100, 13);
        group.bench_with_input(BenchmarkId::new("bgls_chform", n), &n, |b, _| {
            let sim = Simulator::new(ChForm::zero(n)).with_seed(3);
            b.iter(|| sim.sample_final_bitstrings(&circuit, 100).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("tableau_bgls", n), &n, |b, _| {
            let sim = Simulator::new(CliffordTableau::zero(n)).with_seed(3);
            b.iter(|| sim.sample_final_bitstrings(&circuit, 100).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("tableau_reference", n), &n, |b, _| {
            let sim = TableauSimulator::new(n).with_seed(3);
            b.iter(|| sim.sample(&circuit, 100).unwrap());
        });
    }
    group.finish();
}

fn bench_amplitude_cost(c: &mut Criterion) {
    // the f(n, d) claim directly: a single CH-form probability query is
    // a support test of at most O(n^2 / 64) word operations, independent
    // of the depth that produced the state
    use bgls_core::{BglsState, BitString};
    let mut group = c.benchmark_group("chform_amplitude");
    for &n in &[8usize, 16, 32, 64] {
        let circuit = clifford_workload(n, 50, 5);
        let mut st = ChForm::zero(n);
        for op in circuit.all_operations() {
            let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
            st.apply_gate(op.as_gate().unwrap(), &qs).unwrap();
        }
        let bits = BitString::from_u64(n, 0b1011);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(st.probability(bits)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_depth, bench_width, bench_amplitude_cost);
criterion_main!(benches);
