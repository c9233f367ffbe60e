//! Bench: the Pauli-observable expectation engine.
//!
//! Five workloads, one per evaluation strategy the subsystem ships:
//!
//! * `exact_tfim` — exact transverse-field Ising energy
//!   (`Simulator::expectation_value`) of a Trotter-style layer on the
//!   dense state vector (16 qubits, 31 terms in 17 amplitude passes, one
//!   per X-mask) and the exact chain MPS (24 qubits, transfer-matrix
//!   sweeps riding the GEMM layer);
//! * `exact_qaoa` — the exact MaxCut energy of a one-layer 14-qubit QAOA
//!   binding on the dense state vector, the per-job work of the
//!   `qaoa_sweep` benchmark workload: `Rzz` gates as diagonal phase ops
//!   and every (diagonal) term in one amplitude pass;
//! * `exact_clifford` — a 40-qubit random-Clifford state scored against
//!   a 40-term Z/X-string battery on the CH form (`U_C`-conjugation,
//!   `O(n^2 / 64)` per term, no amplitudes);
//! * `shot_groups` — the grouped shot estimator
//!   (`Simulator::estimate_expectation`) on the 16-qubit TFIM: two
//!   qubit-wise-commuting groups, one basis-rotated 10^4-shot sampling
//!   run each, on the multiplicity-map hot path;
//! * `lazy_doubled` — doubled-network contraction expectations on the
//!   lazy tensor network (12 qubits x 6 brickwork layers).
//!
//! The recorded baseline lives in `BENCH_observable_expectation.json`.

use bgls_apps::{maxcut_hamiltonian, qaoa_maxcut_circuit, Graph};
use bgls_apps::{tfim_layer_circuit, transverse_field_ising};
use bgls_circuit::{ParamResolver, PauliString, PauliSum};
use bgls_core::{BglsState, Simulator};
use bgls_linalg::C64;
use bgls_mps::{ChainMps, LazyNetworkState, MpsOptions};
use bgls_stabilizer::ChForm;
use bgls_statevector::StateVector;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_exact_tfim(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_tfim");
    group.sample_size(10);
    let n_sv = 16;
    let h_sv = transverse_field_ising(n_sv, 1.0, 0.6, false);
    let circuit_sv = tfim_layer_circuit(n_sv);
    group.bench_function("statevector_16", |b| {
        let sim = Simulator::new(StateVector::zero(n_sv));
        b.iter(|| sim.expectation_value(&circuit_sv, &h_sv).unwrap());
    });
    let n_mps = 24;
    let h_mps = transverse_field_ising(n_mps, 1.0, 0.6, false);
    let circuit_mps = tfim_layer_circuit(n_mps);
    group.bench_function("mps_24", |b| {
        let sim = Simulator::new(ChainMps::zero(n_mps, MpsOptions::exact()));
        b.iter(|| sim.expectation_value(&circuit_mps, &h_mps).unwrap());
    });
    group.finish();
}

fn bench_exact_qaoa(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_qaoa");
    group.sample_size(10);
    // the qaoa_sweep ansatz: G(14, 0.3) graph, one QAOA layer
    let n = 14;
    let graph = Graph::erdos_renyi(n, 0.3, &mut StdRng::seed_from_u64(57));
    let binding = ParamResolver::from_pairs([("gamma0", 0.7), ("beta0", 0.4)]);
    let circuit = qaoa_maxcut_circuit(&graph, 1).resolve(&binding);
    let h = maxcut_hamiltonian(&graph);
    group.bench_function("statevector_14", |b| {
        let sim = Simulator::new(StateVector::zero(n));
        b.iter(|| sim.expectation_value(&circuit, &h).unwrap());
    });
    group.finish();
}

fn bench_exact_clifford(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_clifford");
    group.sample_size(10);
    let n = 40;
    // scrambled Clifford state: H/S/CNOT walk across the register
    let mut state = ChForm::zero(n);
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..400 {
        let a = rng.gen_range(0..n);
        match rng.gen_range(0..3) {
            0 => state.apply_h(a).unwrap(),
            1 => state.apply_s(a).unwrap(),
            _ => {
                let mut b = rng.gen_range(0..n);
                if b == a {
                    b = (a + 1) % n;
                }
                state.apply_cnot(a, b).unwrap();
            }
        }
    }
    // 40-term battery of random-support Z- and X-strings
    let mut battery = PauliSum::new();
    for t in 0..40usize {
        let ops: Vec<usize> = (0..n).filter(|q| (q * 7 + t * 13) % 5 == 0).collect();
        let string = if t % 2 == 0 {
            PauliString::z_string(&ops).unwrap()
        } else {
            PauliString::from_ops(ops.iter().map(|&q| (q, bgls_circuit::PauliOp::X))).unwrap()
        };
        battery.add_term(C64::real(1.0 + t as f64 / 40.0), string);
    }
    group.bench_function("chform_40q_40terms", |b| {
        b.iter(|| {
            battery
                .terms()
                .iter()
                .map(|(c, p)| c.re * state.expectation(p).unwrap())
                .sum::<f64>()
        });
    });
    group.finish();
}

fn bench_shot_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("shot_groups");
    group.sample_size(10);
    let n = 16;
    let h = transverse_field_ising(n, 1.0, 0.6, false);
    let circuit = tfim_layer_circuit(n);
    group.bench_function("tfim_16_1e4_shots", |b| {
        let sim = Simulator::new(StateVector::zero(n)).with_seed(3);
        b.iter(|| sim.estimate_expectation(&circuit, &h, 10_000).unwrap());
    });
    group.finish();
}

fn bench_lazy_doubled(c: &mut Criterion) {
    let mut group = c.benchmark_group("lazy_doubled");
    group.sample_size(10);
    let n = 12;
    let mut rng = StdRng::seed_from_u64(4);
    let circuit = bgls_apps::brickwork_circuit(n, 6, &mut rng);
    let mut state = LazyNetworkState::zero(n);
    for op in circuit.all_operations() {
        if let Some(gate) = op.as_gate() {
            let qubits: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
            state.apply_gate(gate, &qubits).unwrap();
        }
    }
    let h = transverse_field_ising(n, 1.0, 0.6, false);
    group.bench_function("tfim_12_brickwork", |b| {
        b.iter(|| {
            h.terms()
                .iter()
                .map(|(c, p)| c.re * state.expectation(p).unwrap())
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_tfim,
    bench_exact_qaoa,
    bench_exact_clifford,
    bench_shot_groups,
    bench_lazy_doubled
);
criterion_main!(benches);
