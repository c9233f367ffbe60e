//! Cross-validation of the CH-form stabilizer backend against the dense
//! state-vector backend: on random Clifford circuits, every computational
//! basis amplitude must agree (including global phase, since the CH form
//! tracks omega exactly).

use bgls_circuit::{fuse, generate_random_circuit, Gate, Operation, Qubit, RandomCircuitParams};
use bgls_core::{BglsState, BitString};
use bgls_stabilizer::ChForm;
use bgls_statevector::StateVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

/// Applies a circuit to both backends and asserts amplitude agreement.
fn assert_backends_agree(circuit: &bgls_circuit::Circuit, n: usize, tol: f64) {
    let mut ch = ChForm::zero(n);
    let mut sv = StateVector::zero(n);
    for op in circuit.all_operations() {
        let g = op.as_gate().expect("unitary circuits only");
        let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
        ch.apply_gate(g, &qs)
            .unwrap_or_else(|e| panic!("chform failed on {}: {e}", g.name()));
        sv.apply_gate(g, &qs).unwrap();
    }
    let ket = ch.ket();
    for (x, amp) in sv.amplitudes().iter().enumerate() {
        assert!(
            ket[x].approx_eq(*amp, tol),
            "amplitude mismatch at {x:#b}: chform {:?} vs dense {:?}\ncircuit: {:?}",
            ket[x],
            amp,
            circuit
        );
    }
}

fn clifford_gate_pool() -> Vec<Gate> {
    vec![
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::SqrtX,
        Gate::SqrtXDag,
        Gate::Cnot,
        Gate::Cz,
        Gate::Swap,
        Gate::ISwap,
        Gate::Rz((PI / 2.0).into()),
        Gate::Rz(PI.into()),
        Gate::Rz((-PI / 2.0).into()),
        Gate::Rx((PI / 2.0).into()),
        Gate::Ry((-PI / 2.0).into()),
        Gate::ZPow(0.5.into()),
        Gate::ZPow(1.5.into()),
        Gate::CPhase(PI.into()),
        Gate::Rzz((PI / 2.0).into()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random circuits over the full Clifford gate pool agree with the
    /// dense simulator on every amplitude.
    #[test]
    fn random_clifford_circuits_match_dense(
        seed in 0u64..10_000,
        n in 1usize..6,
        moments in 1usize..30,
    ) {
        let params = RandomCircuitParams {
            qubits: n,
            moments,
            op_density: 0.9,
            gate_set: clifford_gate_pool(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generate_random_circuit(&params, &mut rng);
        assert_backends_agree(&circuit, n, 1e-8);
    }

    /// H/S/CNOT-only circuits (the paper's Fig. 3 workload) agree, and the
    /// merged (`fuse`) form agrees too — merged single-qubit
    /// Clifford products are re-recognized from their matrices.
    #[test]
    fn optimized_clifford_circuits_match_dense(
        seed in 0u64..10_000,
        n in 2usize..5,
        moments in 1usize..25,
    ) {
        let params = RandomCircuitParams::clifford(n, moments);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generate_random_circuit(&params, &mut rng);
        assert_backends_agree(&circuit, n, 1e-8);
        let merged = fuse(&circuit);
        assert_backends_agree(&merged, n, 1e-8);
    }

    /// The total probability over all bitstrings is exactly 1 after any
    /// Clifford evolution (the CH form is never renormalized).
    #[test]
    fn norm_is_preserved(seed in 0u64..10_000, n in 1usize..7, moments in 1usize..40) {
        let params = RandomCircuitParams::clifford(n, moments);
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generate_random_circuit(&params, &mut rng);
        let mut ch = ChForm::zero(n);
        for op in circuit.all_operations() {
            let g = op.as_gate().unwrap();
            let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
            ch.apply_gate(g, &qs).unwrap();
        }
        let total: f64 = (0..1u64 << n)
            .map(|x| ch.probability(BitString::from_u64(n, x)))
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "norm = {total}");
    }
}

#[test]
fn deep_clifford_circuit_stays_exact() {
    // depth 400 on 8 qubits: amplitudes still match the dense backend
    let params = RandomCircuitParams::clifford(8, 400);
    let mut rng = StdRng::seed_from_u64(7);
    let circuit = generate_random_circuit(&params, &mut rng);
    assert_backends_agree(&circuit, 8, 1e-7);
}

#[test]
fn bgls_sampling_on_chform_matches_ideal_distribution() {
    use bgls_core::Simulator;
    // A fixed 3-qubit Clifford circuit with a non-uniform distribution.
    let mut c = bgls_circuit::Circuit::new();
    let ops: Vec<Operation> = vec![
        Operation::gate(Gate::H, vec![Qubit(0)]).unwrap(),
        Operation::gate(Gate::S, vec![Qubit(0)]).unwrap(),
        Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap(),
        Operation::gate(Gate::H, vec![Qubit(2)]).unwrap(),
        Operation::gate(Gate::Cz, vec![Qubit(1), Qubit(2)]).unwrap(),
        Operation::gate(Gate::H, vec![Qubit(1)]).unwrap(),
    ];
    for op in ops {
        c.push(op);
    }
    let ideal = StateVector::from_circuit(&c, 3)
        .unwrap()
        .born_distribution();

    let sim = Simulator::new(ChForm::zero(3)).with_seed(11);
    let samples = sim.sample_final_bitstrings(&c, 40_000).unwrap();
    let mut counts = [0u64; 8];
    for b in samples {
        counts[b.as_u64() as usize] += 1;
    }
    for (x, &cnt) in counts.iter().enumerate() {
        let freq = cnt as f64 / 40_000.0;
        assert!(
            (freq - ideal[x]).abs() < 0.02,
            "outcome {x}: freq {freq} vs ideal {}",
            ideal[x]
        );
    }
}

#[test]
fn ghz_chform_sampling_via_run() {
    use bgls_core::Simulator;
    let mut c = bgls_circuit::Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..10u32 {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    c.push(Operation::measure(Qubit::range(10), "z").unwrap());
    let sim = Simulator::new(ChForm::zero(10)).with_seed(5);
    let r = sim.run(&c, 2000).unwrap();
    let h = r.histogram("z").unwrap();
    let zeros = h.count_value(0);
    let ones = h.count_value((1u64 << 10) - 1);
    assert_eq!(zeros + ones, 2000);
    assert!(zeros > 850 && zeros < 1150, "zeros = {zeros}");
}
