//! Cross-backend conformance battery.
//!
//! One declarative matrix (see `bgls-testkit`): circuit classes down
//! the side, backends across the top, and three assertions at every
//! `(backend, class)` cell the capability matrix claims:
//!
//! 1. **Expectations** agree pairwise to 1e-10 across all claiming
//!    backends — exact values through the expectation frontier, so
//!    channels and mid-circuit measurements contribute their full
//!    mixture with no sampling noise.
//! 2. **Histograms** of seeded sampling runs pass a 5-sigma chi-squared
//!    fit against the exact Born distribution (computed once on the
//!    density matrix through the same frontier).
//! 3. **Digests** of the sampled sequence are bit-identical between the
//!    batched and per-candidate probability hooks and across
//!    `RAYON_NUM_THREADS` (the thread-count half runs in child
//!    processes, since the vendored Rayon pins its pool size per
//!    process).
//!
//! The battery is the enforcement side of the capability matrix: a
//! backend silently losing a capability fails its cells instead of
//! silently shrinking the suite.

use bgls_suite::apps::chi_squared_fits;
use bgls_suite::core::{Simulator, SimulatorOptions};
use bgls_suite::{BackendKind, CostModel, SimulatorExt};
use bgls_testkit::{
    backends_under_test, circuit_for, digest_counts, exact_distribution, expectation_on,
    observables_for, per_candidate_hook, sample_counts, sample_counts_on, sample_digest, supports,
    CircuitClass,
};
use std::process::Command;

/// Battery width: small enough that the exact reference (2^n projector
/// expectations of 2^n terms each) stays cheap, large enough that every
/// backend routes multi-qubit entanglement and swap paths.
const N: usize = 4;
const SEED: u64 = 2024;
const EXPECT_TOL: f64 = 1e-10;
/// Frontier headroom for trajectory backends on the channel-heavy
/// class: 8 two-branch channels fork at most 2^8 = 256 leaves.
const FRONTIER: usize = 1 << 12;

fn claiming(class: CircuitClass) -> Vec<BackendKind> {
    backends_under_test()
        .into_iter()
        .filter(|&k| supports(k, class))
        .collect()
}

#[test]
fn expectations_agree_pairwise_across_all_claiming_backends() {
    for class in CircuitClass::all() {
        let circuit = circuit_for(class, N, SEED);
        for (oi, obs) in observables_for(N).iter().enumerate() {
            let values: Vec<(BackendKind, f64)> = claiming(class)
                .into_iter()
                .map(|kind| {
                    let v = expectation_on(kind, &circuit, N, obs, FRONTIER)
                        .unwrap_or_else(|e| panic!("{class} obs#{oi} on {kind}: {e}"));
                    (kind, v)
                })
                .collect();
            for (i, (ka, va)) in values.iter().enumerate() {
                for (kb, vb) in &values[i + 1..] {
                    assert!(
                        (va - vb).abs() <= EXPECT_TOL,
                        "{class} obs#{oi}: {ka} = {va} vs {kb} = {vb}"
                    );
                }
            }
        }
    }
}

#[test]
fn sampled_histograms_fit_the_exact_born_distribution() {
    const REPS: u64 = 4000;
    for class in CircuitClass::all() {
        let circuit = circuit_for(class, N, SEED);
        let exact = exact_distribution(&circuit, N);
        for kind in claiming(class) {
            let opts = SimulatorOptions {
                seed: Some(91),
                max_forest_nodes: FRONTIER,
                ..Default::default()
            };
            let counts = sample_counts(kind, &circuit, N, REPS, opts)
                .unwrap_or_else(|e| panic!("{class} on {kind}: {e}"));
            assert!(
                chi_squared_fits(&counts, &exact, 5.0),
                "{class} on {kind}: histogram fails 5-sigma chi-squared vs exact Born"
            );
        }
    }
}

#[test]
fn sampling_digests_are_invariant_across_probability_hooks() {
    const REPS: u64 = 2000;
    for class in CircuitClass::all() {
        let circuit = circuit_for(class, N, SEED);
        for kind in claiming(class) {
            let batched = Simulator::for_backend(
                kind,
                N,
                SimulatorOptions {
                    seed: Some(57),
                    max_forest_nodes: FRONTIER,
                    ..Default::default()
                },
            );
            let scalar = batched.clone().with_batch_hook(per_candidate_hook());
            let digest = |sim: &Simulator<_>| {
                let counts = sample_counts_on(sim, &circuit, N, REPS)
                    .unwrap_or_else(|e| panic!("{class} on {kind}: {e}"));
                digest_counts(&counts)
            };
            let reference = digest(&batched);
            assert_eq!(
                digest(&batched),
                reference,
                "{class} on {kind}: digest drifted on a repeat run"
            );
            assert_eq!(
                digest(&scalar),
                reference,
                "{class} on {kind}: per-candidate hook drifted from the batched hook"
            );
        }
    }
}

/// Child half of the thread-count protocol: fold every claiming
/// backend's sampled sequence for the named class into one digest under
/// whatever `RAYON_NUM_THREADS` the parent chose.
#[test]
fn conformance_child_emit() {
    let Ok(scenario) = std::env::var("BGLS_CONFORMANCE_CLASS") else {
        return;
    };
    let out = std::env::var("BGLS_CONFORMANCE_OUT").expect("output path set alongside class");
    let class = CircuitClass::all()
        .into_iter()
        .find(|c| c.name() == scenario)
        .unwrap_or_else(|| panic!("unknown class {scenario}"));
    let circuit = circuit_for(class, N, SEED);
    let mut digest = 0u64;
    for kind in claiming(class) {
        let opts = SimulatorOptions {
            seed: Some(23),
            max_forest_nodes: FRONTIER,
            ..Default::default()
        };
        let d = sample_digest(kind, &circuit, N, 1000, opts)
            .unwrap_or_else(|e| panic!("{class} on {kind}: {e}"));
        digest = digest.rotate_left(7) ^ d;
    }
    std::fs::write(out, format!("{digest:016x}")).expect("write child digest");
}

#[test]
fn sampling_digests_are_bit_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    for class in CircuitClass::all() {
        let mut digests: Vec<String> = Vec::new();
        for threads in ["1", "4"] {
            let out = std::env::temp_dir().join(format!(
                "bgls_conformance_digest_{}_{}_{threads}",
                std::process::id(),
                class.name(),
            ));
            let status = Command::new(&exe)
                .args(["--exact", "conformance_child_emit", "--nocapture"])
                .env("RAYON_NUM_THREADS", threads)
                .env("BGLS_CONFORMANCE_CLASS", class.name())
                .env("BGLS_CONFORMANCE_OUT", &out)
                .status()
                .expect("spawn child test process");
            assert!(
                status.success(),
                "{class}: child failed at {threads} threads"
            );
            let digest = std::fs::read_to_string(&out).expect("read child digest");
            let _ = std::fs::remove_file(&out);
            digests.push(digest);
        }
        assert!(
            digests.iter().all(|d| d == &digests[0]),
            "{class}: digests differ across RAYON_NUM_THREADS=1/4: {digests:?}"
        );
    }
}

/// The tentpole's reach claim: an exact noisy-channel expectation at 20
/// qubits, where the density matrix's 4^20 complex amplitudes (~17 TB)
/// cannot be allocated. GHZ(20) with single-qubit depolarizing noise on
/// every qubit has the closed form `<Z^(x20)> = (1 - 4p/3)^20`, so the
/// purified-MPS answer is checked against pencil and paper, not against
/// another simulator.
#[test]
fn purified_mps_serves_wide_noisy_expectations_beyond_the_density_matrix() {
    use bgls_suite::circuit::{Channel, Circuit, Gate, Operation, PauliOp, PauliString, Qubit};
    use bgls_suite::linalg::C64;
    use bgls_suite::plan::CircuitProfile;

    let n = 20;
    let p = 0.1;
    let mut circuit = Circuit::new();
    circuit.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for q in 1..n as u32 {
        circuit.push(Operation::gate(Gate::Cnot, vec![Qubit(q - 1), Qubit(q)]).unwrap());
    }
    for q in 0..n as u32 {
        circuit
            .push(Operation::channel(Channel::depolarizing(p).unwrap(), vec![Qubit(q)]).unwrap());
    }
    let mut zn = bgls_suite::circuit::PauliSum::new();
    zn.add_term(
        C64::ONE,
        PauliString::from_ops((0..n).map(|q| (q, PauliOp::Z))).unwrap(),
    );

    let pmps = BackendKind::PurifiedMps {
        chi: None,
        kraus_dim: None,
    };
    let value = expectation_on(pmps, &circuit, n, &zn, 16).expect("purified MPS serves 20 qubits");
    let analytic = (1.0 - 4.0 * p / 3.0).powi(n as i32);
    assert!(
        (value - analytic).abs() < 1e-10,
        "purified MPS {value} vs closed form {analytic}"
    );

    // The cost model agrees this is out of the density matrix's reach:
    // its static units dwarf the purified chain's by many orders of
    // magnitude (4^20 amplitudes vs n * chi^3 * kappa tensor work).
    let profile = CircuitProfile::of(&circuit);
    let dm = CostModel::static_units(&profile, &BackendKind::DensityMatrix);
    let pm = CostModel::static_units(&profile, &pmps);
    assert!(
        dm > 1e6 * pm,
        "density units {dm} must dwarf purified-MPS units {pm}"
    );
}
