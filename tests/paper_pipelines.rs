//! End-to-end pipelines from the paper, shrunk to test size: each of the
//! four example sections must run through the public API.

use bgls_suite::apps::{
    brute_force_maxcut, cut_value, empirical_distribution, ghz_random_cnot_circuit, overlap,
    solve_maxcut_qaoa_mps, Graph,
};
use bgls_suite::circuit::{from_qasm, fuse, substitute_gate, to_qasm, Gate, Operation, Qubit};
use bgls_suite::core::Simulator;
use bgls_suite::mps::LazyNetworkState;
use bgls_suite::stabilizer::near_clifford_simulator;
use bgls_suite::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sec41_clifford_sampling_pipeline() {
    // random H/S/CNOT circuit sampled on the CH form through run()
    use bgls_suite::circuit::{generate_random_circuit, RandomCircuitParams};
    use bgls_suite::stabilizer::ChForm;
    let mut rng = StdRng::seed_from_u64(4);
    let mut circuit = generate_random_circuit(&RandomCircuitParams::clifford(8, 40), &mut rng);
    circuit.push(Operation::measure(Qubit::range(8), "z").unwrap());
    let r = Simulator::new(ChForm::zero(8))
        .with_seed(1)
        .run(&circuit, 500)
        .unwrap();
    assert_eq!(r.histogram("z").unwrap().total(), 500);
}

#[test]
fn sec42_near_clifford_overlap_beats_chance_and_lags_exact() {
    use bgls_suite::circuit::{generate_random_circuit, RandomCircuitParams};
    let n = 5;
    let mut rng = StdRng::seed_from_u64(6);
    let circuit = generate_random_circuit(&RandomCircuitParams::clifford_t(n, 15), &mut rng);
    let n_t = circuit.count_ops_where(|op| op.as_gate() == Some(&Gate::T));
    assert!(n_t > 0, "workload should contain T gates");
    let ideal = StateVector::from_circuit(&circuit, n)
        .unwrap()
        .born_distribution();

    let reps = 4000;
    let nc = near_clifford_simulator(n)
        .with_seed(2)
        .sample_final_bitstrings(&circuit, reps)
        .unwrap();
    let ov_nc = overlap(&empirical_distribution(&nc, n), &ideal);
    let exact = Simulator::new(StateVector::zero(n))
        .with_seed(3)
        .sample_final_bitstrings(&circuit, reps)
        .unwrap();
    let ov_exact = overlap(&empirical_distribution(&exact, n), &ideal);

    assert!(ov_nc > 0.3, "near-Clifford overlap collapsed: {ov_nc}");
    assert!(
        ov_exact > ov_nc - 0.02,
        "exact ({ov_exact}) should not lag near-Clifford ({ov_nc})"
    );
}

#[test]
fn sec42_t_to_s_substitution_restores_exactness() {
    use bgls_suite::circuit::{generate_random_circuit, RandomCircuitParams};
    let n = 5;
    let mut rng = StdRng::seed_from_u64(8);
    let ct = generate_random_circuit(&RandomCircuitParams::clifford_t(n, 15), &mut rng);
    let pure = substitute_gate(&ct, &Gate::T, &Gate::S);
    assert!(pure.is_clifford());
    let ideal = StateVector::from_circuit(&pure, n)
        .unwrap()
        .born_distribution();
    let samples = near_clifford_simulator(n)
        .with_seed(4)
        .sample_final_bitstrings(&pure, 4000)
        .unwrap();
    let ov = overlap(&empirical_distribution(&samples, n), &ideal);
    assert!(ov > 0.9, "pure Clifford should sample near-exactly: {ov}");
}

#[test]
fn sec43_ghz_random_cnot_mps_pipeline() {
    let mut rng = StdRng::seed_from_u64(10);
    let n = 9;
    let circuit = ghz_random_cnot_circuit(n, &mut rng);
    let samples = Simulator::new(LazyNetworkState::zero(n))
        .with_seed(5)
        .sample_final_bitstrings(&circuit, 400)
        .unwrap();
    let all0 = samples.iter().filter(|b| b.as_u64() == 0).count();
    let all1 = samples
        .iter()
        .filter(|b| b.as_u64() == (1 << n) - 1)
        .count();
    assert_eq!(all0 + all1, 400, "GHZ admits only two outcomes");
    assert!(all0 > 140 && all0 < 260);
}

#[test]
fn sec44_qaoa_maxcut_small_instance() {
    let mut rng = StdRng::seed_from_u64(20);
    let graph = Graph::erdos_renyi(8, 0.35, &mut rng);
    let (_, optimal) = brute_force_maxcut(&graph);
    let sol = solve_maxcut_qaoa_mps(&graph, 8, 5, 80, 400, 3).unwrap();
    assert_eq!(cut_value(&graph, sol.partition), sol.cut);
    assert!(
        sol.cut + 1 >= optimal,
        "QAOA best-sampled cut {} too far from optimum {optimal}",
        sol.cut
    );
}

#[test]
fn sec324_qasm_import_sample_export_round_trip() {
    let src = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg m[2];
        h q[0];
        cx q[0], q[1];
        measure q[0] -> m[0];
        measure q[1] -> m[1];
    "#;
    let circuit = from_qasm(src).unwrap();
    let r = Simulator::new(StateVector::zero(2))
        .with_seed(7)
        .run(&circuit, 1000)
        .unwrap();
    let h = r.histogram("m").unwrap();
    assert_eq!(h.count_value(0b00) + h.count_value(0b11), 1000);
    // export, re-import, unitaries agree
    let qasm = to_qasm(&circuit).unwrap();
    let back = from_qasm(&qasm).unwrap();
    let u1 = circuit.without_measurements().unitary(2).unwrap();
    let u2 = back.without_measurements().unitary(2).unwrap();
    assert!(u1.approx_eq(&u2, 1e-10));
}

#[test]
fn sec322_optimizer_preserves_sampling_distribution() {
    use bgls_suite::circuit::{generate_random_circuit, RandomCircuitParams};
    let params = RandomCircuitParams {
        qubits: 4,
        moments: 25,
        op_density: 1.0,
        gate_set: vec![Gate::H, Gate::T, Gate::S, Gate::X, Gate::Cnot],
    };
    let mut rng = StdRng::seed_from_u64(30);
    let raw = generate_random_circuit(&params, &mut rng);
    let merged = fuse(&raw);
    assert!(merged.num_operations() < raw.num_operations());

    let d_raw = StateVector::from_circuit(&raw, 4)
        .unwrap()
        .born_distribution();
    let samples = Simulator::new(StateVector::zero(4))
        .with_seed(8)
        .sample_final_bitstrings(&merged, 20_000)
        .unwrap();
    let d_merged = empirical_distribution(&samples, 4);
    let ov = overlap(&d_merged, &d_raw);
    assert!(
        ov > 0.97,
        "merged circuit distribution drifted: overlap {ov}"
    );
}
