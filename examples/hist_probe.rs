//! Determinism probe: prints seeded sampling histograms, one block per
//! backend and engine, and the bits of three exact expectation values.
//! Every sampling block runs the multiplicity-map forest; only the
//! circuit decides whether its frontier forks:
//!
//! * `chain_chi32`, `lazy` — final-state samples
//!   (`sample_final_bitstrings`) of unitary brickworks on the chain MPS
//!   (chi=32) and the lazy network: one node;
//! * `statevector_map` — an 8-qubit map wide enough to fan its
//!   redistribution out across Rayon threads: one node;
//! * `forest_mid`, `forest_fin` — a noisy, mid-circuit-measured circuit
//!   on the statevector: channel and measurement forks;
//! * `sample_final` — final-state samples of the same circuit, its
//!   measurements stripped: channel forks only;
//! * `with_hooks` — the paper's three-hook constructor
//!   (`Simulator::with_hooks`) on the `statevector_map` circuit; must
//!   print the same block;
//! * `density` — a noisy 8-qubit circuit on the density matrix, whose
//!   exact channels keep it at one node;
//! * `chform` — a 20-qubit Clifford circuit on the CH form: one node;
//! * `tableau_mid`, `tableau_fin` — a 16-qubit mid-circuit-measured
//!   Clifford circuit on the tableau: measurement forks;
//! * `pmps` — a noisy 12-qubit brickwork on the purified MPS, which
//!   absorbs each channel exactly: one node;
//! * `exact_expectation` — a 14-qubit QAOA MaxCut energy and a 16-qubit
//!   transverse-field Ising energy on the statevector (diagonal gate ops
//!   and the grouped Pauli pass, across two shards for the 16-qubit
//!   state) and an 8-qubit QAOA energy on the density matrix.
//!
//! Diff the output across revisions (or across `RAYON_NUM_THREADS`
//! settings) to check that a change left seeded sampling behaviour
//! bit-identical:
//!
//! ```text
//! cargo run --release --example hist_probe > before.txt
//! # ... apply changes ...
//! cargo run --release --example hist_probe | diff before.txt -
//! RAYON_NUM_THREADS=1 cargo run --release --example hist_probe > t1.txt
//! RAYON_NUM_THREADS=4 cargo run --release --example hist_probe | diff t1.txt -
//! ```

use bgls_apps::{brickwork_circuit, random_u2_brickwork};
use bgls_apps::{
    maxcut_hamiltonian, qaoa_maxcut_circuit, tfim_layer_circuit, transverse_field_ising, Graph,
};
use bgls_circuit::{generate_random_circuit, ParamResolver, PauliSum, RandomCircuitParams};
use bgls_circuit::{Channel, Circuit, Gate, Operation, Qubit};
use bgls_core::{default_apply_op, BglsState, BitString, Histogram, Simulator};
use bgls_mps::{ChainMps, LazyNetworkState, MpsOptions, PurifiedMps, PurifiedOptions};
use bgls_stabilizer::{ChForm, CliffordTableau};
use bgls_statevector::{DensityMatrix, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn print_samples(label: &str, samples: &[BitString]) {
    let mut hist: std::collections::BTreeMap<String, u64> = Default::default();
    for b in samples {
        *hist.entry(format!("{b}")).or_insert(0) += 1;
    }
    println!("{label}:");
    for (b, c) in &hist {
        println!("  {b} {c}");
    }
}

fn print_histogram(label: &str, h: &Histogram) {
    println!("{label} ({} outcomes):", h.support_size());
    for (b, c) in h.iter_sorted() {
        println!("  {b} {c}");
    }
}

/// An 8-qubit brickwork circuit with a full readout: its multiplicity
/// map holds well over the 64 entries at which redistribution fans out.
fn wide_map_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(5);
    let mut c = brickwork_circuit(8, 6, &mut rng);
    c.push(Operation::measure(Qubit::range(8), "m").unwrap());
    c
}

/// A brickwork spread, then sparse bit-flip noise and a mid-circuit
/// measurement: a trajectory-forest run whose frontier stays inside the
/// default budget.
fn noisy_forest_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(6);
    let mut c = brickwork_circuit(8, 6, &mut rng);
    for q in [0, 3, 6] {
        c.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![Qubit(q)]).unwrap());
    }
    c.push(Operation::measure(vec![Qubit(0)], "mid").unwrap());
    c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    c.push(Operation::measure(Qubit::range(8), "fin").unwrap());
    c
}

/// Brickwork layers with depolarizing noise on every qubit between them
/// and amplitude damping before a full readout. The density backend
/// absorbs each channel exactly, so repetitions ride one multiplicity map.
fn noisy_density_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(7);
    let mut c = Circuit::new();
    for _ in 0..3 {
        c.extend_circuit(&brickwork_circuit(8, 2, &mut rng));
        for q in 0..8 {
            c.push(
                Operation::channel(Channel::depolarizing(0.02).unwrap(), vec![Qubit(q)]).unwrap(),
            );
        }
    }
    for q in [1, 4, 7] {
        c.push(
            Operation::channel(Channel::amplitude_damping(0.1).unwrap(), vec![Qubit(q)]).unwrap(),
        );
    }
    c.push(Operation::measure(Qubit::range(8), "m").unwrap());
    c
}

/// A 20-qubit random Clifford circuit with a full readout.
fn clifford_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(10);
    let mut c = generate_random_circuit(&RandomCircuitParams::clifford(20, 12), &mut rng);
    c.push(Operation::measure(Qubit::range(20), "m").unwrap());
    c
}

/// A 16-qubit Clifford circuit that measures qubit 0, reuses it, and
/// reads every qubit out at the end.
fn midcircuit_clifford_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(14);
    let mut c = generate_random_circuit(&RandomCircuitParams::clifford(16, 3), &mut rng);
    c.push(Operation::measure(vec![Qubit(0)], "early").unwrap());
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.extend_circuit(&generate_random_circuit(
        &RandomCircuitParams::clifford(16, 8),
        &mut rng,
    ));
    c.push(Operation::measure(Qubit::range(16), "fin").unwrap());
    c
}

/// A 12-qubit brickwork (random 1q layer, staggered CZ bricks) with
/// depolarizing noise on every qubit after each layer and a full
/// readout. The purified MPS absorbs each channel exactly, so the
/// repetitions ride one multiplicity map.
fn noisy_pmps_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(15);
    let one_q = [Gate::SqrtX, Gate::T, Gate::H];
    let mut c = Circuit::new();
    for layer in 0..6 {
        for q in 0..12 {
            let g = one_q[rng.gen_range(0..one_q.len())].clone();
            c.push(Operation::gate(g, vec![Qubit(q)]).unwrap());
        }
        for q in (layer % 2..11).step_by(2) {
            c.push(Operation::gate(Gate::Cz, vec![Qubit(q), Qubit(q + 1)]).unwrap());
        }
        for q in 0..12 {
            c.push(
                Operation::channel(Channel::depolarizing(0.01).unwrap(), vec![Qubit(q)]).unwrap(),
            );
        }
    }
    c.push(Operation::measure(Qubit::range(12), "m").unwrap());
    c
}

/// A one-layer QAOA MaxCut ansatz on a seeded random graph, bound at a
/// fixed `(gamma, beta)`, and its MaxCut observable.
fn qaoa_instance(n: usize, seed: u64) -> (Circuit, PauliSum) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = Graph::erdos_renyi(n, 0.3, &mut rng);
    let binding = ParamResolver::from_pairs([("gamma0", 0.7), ("beta0", 0.4)]);
    (
        qaoa_maxcut_circuit(&graph, 1).resolve(&binding),
        maxcut_hamiltonian(&graph),
    )
}

fn main() {
    let mut rng = StdRng::seed_from_u64(32);
    let chain_circuit = random_u2_brickwork(20, 8, &mut rng);
    let sim = Simulator::new(ChainMps::zero(20, MpsOptions::with_max_bond(32))).with_seed(1);
    print_samples(
        "chain_chi32",
        &sim.sample_final_bitstrings(&chain_circuit, 200).unwrap(),
    );

    let mut rng = StdRng::seed_from_u64(9);
    let lazy_circuit = brickwork_circuit(14, 4, &mut rng);
    let sim = Simulator::new(LazyNetworkState::zero(14)).with_seed(2);
    print_samples(
        "lazy",
        &sim.sample_final_bitstrings(&lazy_circuit, 200).unwrap(),
    );

    let wide = wide_map_circuit();
    let sim = Simulator::new(StateVector::zero(8)).with_seed(3);
    let result = sim.run(&wide, 4000).unwrap();
    print_histogram("statevector_map", result.histogram("m").unwrap());

    let noisy = noisy_forest_circuit();
    let sim = Simulator::new(StateVector::zero(8)).with_seed(4);
    let result = sim.run(&noisy, 3000).unwrap();
    print_histogram("forest_mid", result.histogram("mid").unwrap());
    print_histogram("forest_fin", result.histogram("fin").unwrap());
    print_samples(
        "sample_final",
        &sim.sample_final_bitstrings(&noisy, 2000).unwrap(),
    );

    // The scalar per-candidate hook: must print the same block as
    // statevector_map.
    let sim = Simulator::with_hooks(
        StateVector::zero(8),
        Arc::new(default_apply_op),
        Arc::new(|s, b| s.probability(b)),
        false,
    )
    .with_seed(3);
    let result = sim.run(&wide, 4000).unwrap();
    print_histogram("with_hooks", result.histogram("m").unwrap());

    let sim = Simulator::new(DensityMatrix::zero(8)).with_seed(5);
    let result = sim.run(&noisy_density_circuit(), 4000).unwrap();
    print_histogram("density", result.histogram("m").unwrap());

    let sim = Simulator::new(ChForm::zero(20)).with_seed(6);
    let result = sim.run(&clifford_circuit(), 400).unwrap();
    print_histogram("chform", result.histogram("m").unwrap());

    let sim = Simulator::new(CliffordTableau::zero(16)).with_seed(7);
    let result = sim.run(&midcircuit_clifford_circuit(), 300).unwrap();
    print_histogram("tableau_mid", result.histogram("early").unwrap());
    print_histogram("tableau_fin", result.histogram("fin").unwrap());

    let pmps = PurifiedMps::zero(12, PurifiedOptions::with_max_bond(4).with_max_kraus(4));
    let sim = Simulator::new(pmps).with_seed(8);
    let result = sim.run(&noisy_pmps_circuit(), 500).unwrap();
    print_histogram("pmps", result.histogram("m").unwrap());

    println!("exact_expectation (f64 bits):");
    let (circuit, h) = qaoa_instance(14, 16);
    let e = Simulator::new(StateVector::zero(14))
        .expectation_value(&circuit, &h)
        .unwrap();
    println!("  qaoa14_statevector {:016x}", e.to_bits());
    let e = Simulator::new(StateVector::zero(16))
        .expectation_value(
            &tfim_layer_circuit(16),
            &transverse_field_ising(16, 1.0, 0.6, false),
        )
        .unwrap();
    println!("  tfim16_statevector {:016x}", e.to_bits());
    let (circuit, h) = qaoa_instance(8, 17);
    let e = Simulator::new(DensityMatrix::zero(8))
        .expectation_value(&circuit, &h)
        .unwrap();
    println!("  qaoa8_density {:016x}", e.to_bits());
}
