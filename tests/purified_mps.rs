//! Property suite for the purified-MPS mixed-state backend.
//!
//! Three contracts:
//!
//! 1. **Exact agreement**: on random channel circuits of up to 10
//!    qubits, the uncapped purified MPS matches the density matrix to
//!    1e-10 on every basis probability and on Pauli expectations —
//!    including non-unital channels (amplitude damping) and two-qubit
//!    depolarizing, which the trajectory samplers cannot serve.
//! 2. **Truncation monotonicity**: the final-state error against the
//!    exact chain is non-increasing in the bond cap, and a cap wide
//!    enough for the circuit reproduces the exact state. (The
//!    *cumulative discarded weight* is deliberately not asserted
//!    monotone: a tightly capped chain collapses toward a product state
//!    and stops discarding, so that quantity is not ordered across
//!    caps.)
//! 3. **Thread-count determinism**: seeded noisy sampling through the
//!    runtime-dispatched purified backend digests identically under
//!    `RAYON_NUM_THREADS=1/4` (child processes, since the vendored
//!    Rayon pins its pool per process).

use bgls_suite::circuit::{Channel, Gate, PauliOp, PauliString};
use bgls_suite::core::{BglsState, BitString, Simulator, SimulatorOptions};
use bgls_suite::mps::{PurifiedMps, PurifiedOptions};
use bgls_suite::statevector::DensityMatrix;
use bgls_suite::{BackendKind, SimulatorExt};
use bgls_testkit::{
    circuit_for, digest_counts, per_candidate_hook, sample_counts_on, sample_digest, CircuitClass,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::Command;

/// One random operation applied to the purified chain and (when given)
/// mirrored onto a density matrix. Gates and channels are drawn from
/// pools both backends apply deterministically, so the comparison is
/// exact, not statistical.
fn apply_random_op(
    rng: &mut StdRng,
    n: usize,
    pmps: &mut PurifiedMps,
    mut dm: Option<&mut DensityMatrix>,
) -> Result<(), bgls_suite::core::SimError> {
    let q = rng.gen_range(0..n);
    let q2 = if n > 1 {
        let mut other = rng.gen_range(0..n - 1);
        if other >= q {
            other += 1;
        }
        other
    } else {
        q
    };
    match rng.gen_range(0..8u8) {
        0 => {
            let gate = [Gate::H, Gate::S, Gate::T][rng.gen_range(0..3usize)].clone();
            pmps.apply_gate(&gate, &[q])?;
            dm.map_or(Ok(()), |d| d.apply_gate(&gate, &[q]))
        }
        1 => {
            let gate = Gate::Ry(rng.gen_range(-1.5..1.5).into());
            pmps.apply_gate(&gate, &[q])?;
            dm.map_or(Ok(()), |d| d.apply_gate(&gate, &[q]))
        }
        2 | 3 => {
            let gate = if rng.gen() { Gate::Cnot } else { Gate::Cz };
            pmps.apply_gate(&gate, &[q, q2])?;
            dm.map_or(Ok(()), |d| d.apply_gate(&gate, &[q, q2]))
        }
        4 => both_channel(
            Channel::depolarizing(rng.gen_range(0.01..0.3)),
            &[q],
            pmps,
            dm.as_deref_mut(),
        ),
        5 => both_channel(
            Channel::amplitude_damping(rng.gen_range(0.05..0.4)),
            &[q],
            pmps,
            dm.as_deref_mut(),
        ),
        6 => both_channel(
            Channel::bit_flip(rng.gen_range(0.01..0.2)),
            &[q],
            pmps,
            dm.as_deref_mut(),
        ),
        _ => both_channel(
            Channel::depolarizing2(rng.gen_range(0.01..0.2)),
            &[q, q2],
            pmps,
            dm,
        ),
    }
}

fn both_channel(
    ch: Result<Channel, bgls_suite::circuit::CircuitError>,
    qs: &[usize],
    pmps: &mut PurifiedMps,
    dm: Option<&mut DensityMatrix>,
) -> Result<(), bgls_suite::core::SimError> {
    let ch = ch.expect("valid channel probability");
    // both backends are deterministic: the rng argument is never drawn
    let mut dummy = StdRng::seed_from_u64(0);
    pmps.apply_kraus(&ch, qs, &mut dummy)?;
    if let Some(d) = dm {
        d.apply_kraus(&ch, qs, &mut dummy)?;
    }
    Ok(())
}

fn random_pauli(rng: &mut StdRng, n: usize) -> PauliString {
    PauliString::from_ops((0..n).filter_map(|q| match rng.gen_range(0..4u8) {
        0 => None,
        1 => Some((q, PauliOp::X)),
        2 => Some((q, PauliOp::Y)),
        _ => Some((q, PauliOp::Z)),
    }))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole's correctness anchor: purified MPS and density
    /// matrix are the same quantum channel-evolution, represented
    /// differently, so they must agree to near machine precision.
    #[test]
    fn purified_mps_matches_density_matrix_on_random_channel_circuits(
        seed in 0u64..100_000,
        // debug-profile density evolution is O(ops * 4^n): the random
        // sweep stays at <= 8 qubits; the pinned case below covers the
        // 10-qubit ceiling once instead of per proptest case
        n in 2usize..9,
        ops in 4usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pmps = PurifiedMps::zero(n, PurifiedOptions::exact());
        let mut dm = DensityMatrix::zero(n);
        for _ in 0..ops {
            apply_random_op(&mut rng, n, &mut pmps, Some(&mut dm)).unwrap();
        }
        // the exact options still carry the 1e-12 SVD cutoff, so the
        // discarded weight is bounded by (ops x sites) values below 1e-24
        prop_assert!(pmps.truncation_weight() < 1e-18, "exact options must not truncate");
        for bits in 0..1u64 << n {
            let b = BitString::from_u64(n, bits);
            let (p, d) = (pmps.probability(b), dm.probability(b));
            prop_assert!(
                (p - d).abs() < 1e-10,
                "probability of {bits:0n$b}: purified {p} vs density {d}"
            );
        }
        for _ in 0..4 {
            let obs = random_pauli(&mut rng, n);
            let (ep, ed) = (pmps.expectation(&obs).unwrap(), dm.expectation(&obs).unwrap());
            prop_assert!(
                (ep - ed).abs() < 1e-10,
                "<{obs}>: purified {ep} vs density {ed}"
            );
        }
    }

    /// A wider bond cap never yields a worse final state: the L1
    /// distance between the capped chain's Z-basis distribution and the
    /// exact chain's is non-increasing in chi (small slack — sequential
    /// local truncations are not globally optimal), and a wide cap
    /// reproduces the exact state.
    #[test]
    fn truncation_error_is_monotone_in_the_bond_cap(
        seed in 0u64..100_000,
        n in 4usize..8,
    ) {
        // Brickwork of Ry walls + CNOT layers with one channel pair:
        // entangling enough that tight bond caps genuinely truncate, but
        // channel-sparse, so the Kraus legs stay small. (A channel soup
        // like the agreement test's drives the Kraus rank — legally
        // bounded by 2*l*r — into the hundreds once bonds widen, and the
        // leg-compression SVDs then dominate the runtime.)
        let evolve = |options: PurifiedOptions| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = PurifiedMps::zero(n, options);
            let mut dummy = StdRng::seed_from_u64(0);
            for layer in 0..4usize {
                for q in 0..n {
                    st.apply_gate(&Gate::Ry(rng.gen_range(-1.5..1.5).into()), &[q])
                        .unwrap();
                }
                for q in (layer % 2..n - 1).step_by(2) {
                    st.apply_gate(&Gate::Cnot, &[q, q + 1]).unwrap();
                }
                if layer == 1 {
                    st.apply_kraus(&Channel::depolarizing(0.1).unwrap(), &[0], &mut dummy)
                        .unwrap();
                    st.apply_kraus(
                        &Channel::amplitude_damping(0.2).unwrap(),
                        &[n - 1],
                        &mut dummy,
                    )
                    .unwrap();
                }
            }
            st
        };
        let exact = evolve(PurifiedOptions::exact());
        let l1_error = |cap: usize| {
            let st = evolve(PurifiedOptions::with_max_bond(cap));
            (0..1u64 << n)
                .map(|bits| {
                    let b = BitString::from_u64(n, bits);
                    (st.probability(b) - exact.probability(b)).abs()
                })
                .sum::<f64>()
        };
        let errors: Vec<f64> = [2usize, 4, 8, 16, 64].iter().map(|&c| l1_error(c)).collect();
        for w in errors.windows(2) {
            prop_assert!(
                w[1] <= w[0] + 1e-2,
                "final-state error must not grow with chi: {errors:?}"
            );
        }
        prop_assert!(
            errors[4] < 1e-9,
            "a 64-wide cap must be exact at {n} qubits: {errors:?}"
        );
        prop_assert!(
            errors[4] <= errors[0] + 1e-12,
            "endpoints must be ordered: {errors:?}"
        );
    }
}

/// The 10-qubit ceiling of the agreement contract, pinned to one seed
/// so the quadratically larger density evolution runs once, not per
/// proptest case.
#[test]
fn purified_mps_matches_density_matrix_at_ten_qubits() {
    let n = 10;
    let mut rng = StdRng::seed_from_u64(31);
    let mut pmps = PurifiedMps::zero(n, PurifiedOptions::exact());
    let mut dm = DensityMatrix::zero(n);
    for _ in 0..16 {
        apply_random_op(&mut rng, n, &mut pmps, Some(&mut dm)).unwrap();
    }
    for _ in 0..6 {
        let obs = random_pauli(&mut rng, n);
        let (ep, ed) = (
            pmps.expectation(&obs).unwrap(),
            dm.expectation(&obs).unwrap(),
        );
        assert!(
            (ep - ed).abs() < 1e-10,
            "<{obs}>: purified {ep} vs density {ed}"
        );
    }
    for bits in [0u64, 1, 0b1111111111, 0b1010101010, 0b0101010101, 513] {
        let b = BitString::from_u64(n, bits);
        let (p, d) = (pmps.probability(b), dm.probability(b));
        assert!(
            (p - d).abs() < 1e-10,
            "P({bits:010b}): purified {p} vs density {d}"
        );
    }
}

/// Same seed, same run — twice in the same process, and once more with
/// candidate probabilities evaluated one at a time instead of batched.
/// The cross-process thread-count half is below.
#[test]
fn seeded_noisy_sampling_is_reproducible_in_process() {
    let n = 6;
    let circuit = circuit_for(CircuitClass::ChannelHeavy, n, 404);
    let pmps = BackendKind::PurifiedMps {
        chi: None,
        kraus_dim: None,
    };
    let opts = SimulatorOptions {
        seed: Some(11),
        ..Default::default()
    };
    let a = sample_digest(pmps, &circuit, n, 3000, opts.clone()).unwrap();
    let b = sample_digest(pmps, &circuit, n, 3000, opts.clone()).unwrap();
    assert_eq!(a, b, "same seed must give the same samples");
    let scalar = Simulator::for_backend(pmps, n, opts).with_batch_hook(per_candidate_hook());
    let c = digest_counts(&sample_counts_on(&scalar, &circuit, n, 3000).unwrap());
    assert_eq!(a, c, "the batched hook must not change seeded samples");
}

/// Child half of the thread-count protocol.
#[test]
fn purified_child_emit() {
    let Ok(seed) = std::env::var("BGLS_PURIFIED_SEED") else {
        return;
    };
    let out = std::env::var("BGLS_PURIFIED_OUT").expect("output path set alongside seed");
    let seed: u64 = seed.parse().expect("numeric seed");
    let n = 6;
    let circuit = circuit_for(CircuitClass::ChannelHeavy, n, 404);
    let pmps = BackendKind::PurifiedMps {
        chi: None,
        kraus_dim: None,
    };
    let opts = SimulatorOptions {
        seed: Some(seed),
        ..Default::default()
    };
    let digest = sample_digest(pmps, &circuit, n, 3000, opts).unwrap();
    std::fs::write(out, format!("{digest:016x}")).expect("write child digest");
}

#[test]
fn seeded_noisy_sampling_is_bit_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut digests: Vec<String> = Vec::new();
    for threads in ["1", "4"] {
        let out = std::env::temp_dir().join(format!(
            "bgls_purified_digest_{}_{threads}",
            std::process::id(),
        ));
        let status = Command::new(&exe)
            .args(["--exact", "purified_child_emit", "--nocapture"])
            .env("RAYON_NUM_THREADS", threads)
            .env("BGLS_PURIFIED_SEED", "77")
            .env("BGLS_PURIFIED_OUT", &out)
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "child failed at {threads} threads");
        let digest = std::fs::read_to_string(&out).expect("read child digest");
        let _ = std::fs::remove_file(&out);
        digests.push(digest);
    }
    assert_eq!(
        digests[0], digests[1],
        "purified-MPS sampling digests differ across RAYON_NUM_THREADS=1/4"
    );
}
