//! Statistical property tests of the gate-by-gate sampler itself: on
//! random circuits, the empirical sampling distribution must converge to
//! the exact Born distribution, on every backend path (multiplicity map,
//! per-sample trajectories, mid-circuit measurement collapse) — plus
//! property tests of the sampling primitives `multinomial_split` and
//! `categorical` against the shared chi-squared harness.

use bgls_suite::apps::{chi_squared_fits, empirical_distribution, total_variation_distance};
use bgls_suite::circuit::{
    decompose_three_qubit_gates, generate_random_circuit, Circuit, Gate, Operation, Qubit,
    RandomCircuitParams,
};
use bgls_suite::core::{categorical, multinomial_split, Simulator, SimulatorOptions};
use bgls_suite::mps::{ChainMps, MpsOptions};
use bgls_suite::statevector::StateVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_circuit(seed: u64, n: usize, moments: usize) -> Circuit {
    let params = RandomCircuitParams {
        qubits: n,
        moments,
        op_density: 0.9,
        gate_set: vec![
            Gate::H,
            Gate::T,
            Gate::SqrtX,
            Gate::Ry(0.9.into()),
            Gate::Cnot,
            Gate::Cz,
        ],
    };
    generate_random_circuit(&params, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multiplicity-map path converges to the Born distribution.
    #[test]
    fn parallel_sampling_matches_born(seed in 0u64..1000, n in 2usize..5) {
        let circuit = random_circuit(seed, n, 8);
        let ideal = StateVector::from_circuit(&circuit, n).unwrap().born_distribution();
        let samples = Simulator::new(StateVector::zero(n))
            .with_seed(seed)
            .sample_final_bitstrings(&circuit, 20_000)
            .unwrap();
        let emp = empirical_distribution(&samples, n);
        let tvd = total_variation_distance(&emp, &ideal);
        prop_assert!(tvd < 0.04, "TVD {tvd}");
    }

    /// The per-sample (trajectory) path draws from the same distribution.
    #[test]
    fn trajectory_sampling_matches_born(seed in 0u64..1000, n in 2usize..4) {
        let circuit = random_circuit(seed, n, 6);
        let ideal = StateVector::from_circuit(&circuit, n).unwrap().born_distribution();
        let sim = Simulator::new(StateVector::zero(n)).with_options(SimulatorOptions {
            seed: Some(seed),
            parallelize_samples: false,
            ..Default::default()
        });
        let samples = sim.sample_final_bitstrings(&circuit, 6000).unwrap();
        let emp = empirical_distribution(&samples, n);
        let tvd = total_variation_distance(&emp, &ideal);
        prop_assert!(tvd < 0.06, "TVD {tvd}");
    }

    /// Toffoli circuits run on the chain MPS after decomposition, agreeing
    /// with the dense simulator running the undecomposed circuit.
    #[test]
    fn decomposed_toffoli_circuits_agree(seed in 0u64..1000) {
        let mut c = random_circuit(seed, 3, 3);
        c.push(Operation::gate(Gate::Ccx, vec![Qubit(0), Qubit(1), Qubit(2)]).unwrap());
        let ideal = StateVector::from_circuit(&c, 3).unwrap().born_distribution();
        let two_q = decompose_three_qubit_gates(&c);
        let samples = Simulator::new(ChainMps::zero(3, MpsOptions::exact()))
            .with_seed(seed)
            .sample_final_bitstrings(&two_q, 15_000)
            .unwrap();
        let emp = empirical_distribution(&samples, 3);
        let tvd = total_variation_distance(&emp, &ideal);
        prop_assert!(tvd < 0.05, "TVD {tvd}");
    }
}

/// Random weight vector with `k` bins, roughly `zero_every`-th of them
/// exactly zero (always at least one positive bin).
fn random_weights(rng: &mut StdRng, k: usize, zero_every: usize) -> Vec<f64> {
    let mut w: Vec<f64> = (0..k)
        .map(|_| {
            if rng.gen_range(0usize..zero_every) == 0 {
                0.0
            } else {
                rng.gen_range(0.05..1.0)
            }
        })
        .collect();
    if w.iter().all(|&x| x == 0.0) {
        w[0] = 1.0;
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `multinomial_split` conserves the total and never populates a
    /// zero-weight bin.
    #[test]
    fn multinomial_split_conserves_total_and_zero_bins(
        seed in 0u64..100_000,
        m in 0u64..200_000,
        k in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = random_weights(&mut rng, k, 3);
        let counts = multinomial_split(m, &weights, &mut rng).unwrap();
        prop_assert_eq!(counts.len(), weights.len());
        prop_assert_eq!(counts.iter().sum::<u64>(), m, "total not conserved");
        for (c, w) in counts.iter().zip(&weights) {
            prop_assert!(*w > 0.0 || *c == 0, "zero-weight bin got {c} trials");
        }
    }

    /// The chained-binomial split is distributed like `m` independent
    /// categorical draws: both empirical histograms pass a chi-squared
    /// test against the normalized weights.
    #[test]
    fn multinomial_split_matches_repeated_categorical(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = random_weights(&mut rng, 5, 5);
        let m = 40_000u64;
        let split_counts = multinomial_split(m, &weights, &mut rng).unwrap();
        let mut draw_counts = vec![0u64; weights.len()];
        for _ in 0..m {
            draw_counts[categorical(&weights, &mut rng).unwrap()] += 1;
        }
        prop_assert!(
            chi_squared_fits(&split_counts, &weights, 5.0),
            "multinomial_split deviates: {split_counts:?} vs weights {weights:?}"
        );
        prop_assert!(
            chi_squared_fits(&draw_counts, &weights, 5.0),
            "categorical deviates: {draw_counts:?} vs weights {weights:?}"
        );
    }

    /// `categorical` never returns the index of a zero-weight bin, and
    /// always returns an in-range index.
    #[test]
    fn categorical_never_selects_zero_weight(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = random_weights(&mut rng, 6, 2);
        for _ in 0..500 {
            let idx = categorical(&weights, &mut rng).unwrap();
            prop_assert!(idx < weights.len());
            prop_assert!(weights[idx] > 0.0, "zero-weight index {idx} from {weights:?}");
        }
    }
}

#[test]
fn mid_circuit_measurement_on_chain_mps() {
    // H(0); measure(0); CNOT(0 -> 2); measure(2): outcomes must agree —
    // exercises ChainMps::project through the trajectory path.
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
    c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(2)]).unwrap());
    c.push(Operation::measure(vec![Qubit(2)], "b").unwrap());
    let sim = Simulator::new(ChainMps::zero(3, MpsOptions::exact())).with_seed(4);
    let r = sim.run(&c, 600).unwrap();
    let a1 = r.histogram("a").unwrap().count_value(1);
    let b1 = r.histogram("b").unwrap().count_value(1);
    assert_eq!(a1, b1, "collapse must correlate the two measurements");
    assert!(a1 > 220 && a1 < 380, "a1 = {a1}");
}

#[test]
fn noisy_mps_trajectories_match_density_matrix() {
    use bgls_suite::circuit::Channel;
    use bgls_suite::statevector::DensityMatrix;
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::channel(Channel::depolarizing(0.2).unwrap(), vec![Qubit(0)]).unwrap());
    c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    c.push(Operation::measure(Qubit::range(2), "z").unwrap());

    let mps = Simulator::new(ChainMps::zero(2, MpsOptions::exact())).with_seed(1);
    let r_mps = mps.run(&c, 20_000).unwrap();
    let dm = Simulator::new(DensityMatrix::zero(2)).with_seed(2);
    let r_dm = dm.run(&c, 20_000).unwrap();

    let d1 = r_mps.histogram("z").unwrap().to_distribution();
    let d2 = r_dm.histogram("z").unwrap().to_distribution();
    let tvd = total_variation_distance(&d1, &d2);
    assert!(
        tvd < 0.03,
        "TVD between MPS trajectories and exact DM: {tvd}"
    );
}

#[test]
fn brickwork_sampling_matches_born_distribution() {
    use bgls_suite::apps::brickwork_circuit;
    let mut rng = StdRng::seed_from_u64(11);
    let circuit = brickwork_circuit(5, 8, &mut rng);
    let ideal = StateVector::from_circuit(&circuit, 5)
        .unwrap()
        .born_distribution();
    let samples = Simulator::new(StateVector::zero(5))
        .with_seed(3)
        .sample_final_bitstrings(&circuit, 40_000)
        .unwrap();
    let emp = empirical_distribution(&samples, 5);
    assert!(total_variation_distance(&emp, &ideal) < 0.05);
}
