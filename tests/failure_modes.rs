//! Failure-injection integration tests: invalid inputs must surface typed
//! errors through the whole stack, never panics.

use bgls_suite::circuit::{
    from_qasm, Channel, Circuit, CircuitError, Gate, Operation, Param, PauliSum, Qubit,
};
use bgls_suite::core::{BglsState, SimError, Simulator};
use bgls_suite::mps::{ChainMps, LazyNetworkState, MpsOptions};
use bgls_suite::stabilizer::ChForm;
use bgls_suite::statevector::StateVector;

fn measured_bell() -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    c.push(Operation::measure(Qubit::range(2), "z").unwrap());
    c
}

#[test]
fn unresolved_parameter_is_a_typed_error() {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::Rz(Param::symbol("theta")), vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
    let err = Simulator::new(StateVector::zero(1)).run(&c, 5).unwrap_err();
    match err {
        SimError::Circuit(CircuitError::UnresolvedParameter(s)) => assert_eq!(s, "theta"),
        other => panic!("expected unresolved-parameter error, got {other}"),
    }
}

#[test]
fn missing_measurement_is_reported() {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    assert!(matches!(
        Simulator::new(StateVector::zero(1)).run(&c, 5),
        Err(SimError::NoMeasurements)
    ));
}

#[test]
fn circuit_wider_than_state_is_reported() {
    let err = Simulator::new(StateVector::zero(1))
        .run(&measured_bell(), 5)
        .unwrap_err();
    assert!(matches!(
        err,
        SimError::QubitOutOfRange {
            index: 1,
            num_qubits: 1
        }
    ));
}

#[test]
fn non_clifford_gate_on_stabilizer_state_is_reported() {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::T, vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
    let err = Simulator::new(ChForm::zero(1)).run(&c, 5).unwrap_err();
    assert!(matches!(err, SimError::NotClifford(_)), "got {err}");
}

#[test]
fn channels_on_stabilizer_state_unsupported() {
    let mut st = ChForm::zero(1);
    let mut rng = rand::rngs::OsRng;
    let err = st
        .apply_kraus(&Channel::bit_flip(0.5).unwrap(), &[0], &mut rng)
        .unwrap_err();
    assert!(matches!(err, SimError::Unsupported(_)));
}

#[test]
fn three_qubit_gates_on_tensor_networks_unsupported() {
    for err in [
        LazyNetworkState::zero(3).apply_gate(&Gate::Ccx, &[0, 1, 2]),
        ChainMps::zero(3, MpsOptions::exact()).apply_gate(&Gate::Ccx, &[0, 1, 2]),
    ] {
        assert!(matches!(err, Err(SimError::Unsupported(_))));
    }
}

#[test]
fn invalid_channel_probability_rejected_at_construction() {
    assert!(matches!(
        Channel::depolarizing(1.1),
        Err(CircuitError::Invalid(_))
    ));
}

#[test]
fn qasm_errors_carry_line_numbers() {
    let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nmystery q[1];\n";
    match from_qasm(src) {
        Err(CircuitError::QasmParse { line, .. }) => assert_eq!(line, 4),
        other => panic!("expected QASM parse error, got {other:?}"),
    }
}

#[test]
fn arity_mismatch_rejected_at_operation_construction() {
    assert!(matches!(
        Operation::gate(Gate::Ccx, vec![Qubit(0), Qubit(1)]),
        Err(CircuitError::ArityMismatch {
            expected: 3,
            got: 2,
            ..
        })
    ));
}

#[test]
fn mid_circuit_measurement_requires_projection_support() {
    // CH form has no projection; mid-circuit measurement must error, not
    // silently give wrong statistics.
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
    c.push(Operation::gate(Gate::X, vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "b").unwrap());
    let err = Simulator::new(ChForm::zero(1))
        .with_seed(1)
        .run(&c, 5)
        .unwrap_err();
    assert!(matches!(err, SimError::Unsupported(_)), "got {err}");
}

#[test]
fn zero_repetitions_is_a_clean_empty_result() {
    let r = Simulator::new(StateVector::zero(2))
        .run(&measured_bell(), 0)
        .unwrap();
    assert_eq!(r.repetitions(), 0);
    assert!(r.histogram("z").is_none());
}

#[test]
fn estimate_expectation_rejects_degenerate_shot_counts() {
    // 0 shots would divide by zero; 1 shot leaves the variance term
    // 0/0 = NaN. Both must be typed errors, not silent NaNs.
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    let obs: bgls_suite::circuit::PauliSum = "Z0".parse().unwrap();
    let sim = Simulator::new(StateVector::zero(1)).with_seed(3);
    for shots in [0, 1] {
        match sim.estimate_expectation(&c, &obs, shots) {
            Err(SimError::Invalid(msg)) => assert!(msg.contains("2 shots"), "{msg}"),
            other => panic!("shots={shots}: expected Invalid, got {other:?}"),
        }
    }
    // The smallest legal count yields finite values.
    let est = sim.estimate_expectation(&c, &obs, 2).unwrap();
    assert!(est.value.is_finite());
    assert!(est.std_error.is_finite());
}

#[test]
fn all_zero_weights_are_a_zero_probability_event() {
    use bgls_suite::core::{categorical, multinomial_split};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    assert!(matches!(
        categorical(&[0.0, 0.0, 0.0], &mut rng),
        Err(SimError::ZeroProbabilityEvent)
    ));
    assert!(matches!(
        multinomial_split(10, &[0.0, 0.0], &mut rng),
        Err(SimError::ZeroProbabilityEvent)
    ));
}

#[test]
fn nan_and_negative_weights_are_invalid() {
    use bgls_suite::core::{categorical, multinomial_split};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2);
    for bad in [f64::NAN, -0.25, f64::INFINITY] {
        let weights = [0.5, bad, 0.25];
        match categorical(&weights, &mut rng) {
            Err(SimError::Invalid(msg)) => {
                assert!(msg.contains("weight"), "{msg}")
            }
            other => panic!("weight {bad}: expected Invalid, got {other:?}"),
        }
        assert!(matches!(
            multinomial_split(10, &weights, &mut rng),
            Err(SimError::Invalid(_))
        ));
    }
}

#[test]
fn empty_weight_vectors_cannot_be_sampled() {
    use bgls_suite::core::categorical;
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    assert!(categorical(&[], &mut rng).is_err());
}

/// Sampled outcomes are `BitString`s of at most 64 qubits: a wider state
/// is a typed error from every sampling entry point, not a panic, while
/// the exact expectation path (no bitstrings) still serves it.
#[test]
fn sampling_wider_than_a_bitstring_is_a_typed_error() {
    let n = 70;
    let mut ghz = Circuit::new();
    ghz.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for q in 1..n as u32 {
        ghz.push(Operation::gate(Gate::Cnot, vec![Qubit(q - 1), Qubit(q)]).unwrap());
    }
    let zz: PauliSum = "Z0 Z69".parse().unwrap();
    let sim = Simulator::new(ChForm::zero(n)).with_seed(1);
    assert!(matches!(
        sim.sample_final_bitstrings(&ghz, 10),
        Err(SimError::Unsupported(_))
    ));
    assert!(matches!(
        sim.estimate_expectation(&ghz, &zz, 10),
        Err(SimError::Unsupported(_))
    ));
    let exact = sim.expectation_value(&ghz, &zz).unwrap();
    assert!((exact - 1.0).abs() < 1e-12, "<Z0 Z69> = {exact}");
    ghz.push(Operation::measure(Qubit::range(n), "z").unwrap());
    assert!(matches!(sim.run(&ghz, 10), Err(SimError::Unsupported(_))));
}
