//! Determinism suite for the sharded dense-state kernels.
//!
//! Three contracts, each load-bearing for the suite's bit-identity
//! guarantee (see `docs/ARCHITECTURE.md`, "Determinism contracts"):
//!
//! 1. **Sharded vs flat**: circuits evolved through the shard-blocked,
//!    pass-fused kernels agree with a plain flat-loop reference — bit
//!    for bit when the gate's qubit order matches the kernel's
//!    positional order, and to 1e-12 when the kernel permutes a 2q
//!    matrix into positional order (the 4-term accumulation order
//!    changes, nothing else).
//! 2. **Thread counts**: amplitude bits, norms, Pauli expectations, and
//!    marginal masses are identical under `RAYON_NUM_THREADS=1/2/8`.
//!    The vendored Rayon caches its thread count per process, so each
//!    count runs in a spawned child process (`child_emit`) that writes
//!    a digest of every result bit.
//! 3. **Forced ISA paths**: the scalar, AVX2, and AVX-512 kernels (and
//!    NEON on aarch64) return the same bits for gates and reductions.
//!
//! Alongside them, the density backend's channel superoperator pass is
//! checked against the explicit Kraus sum `sum_i K_i rho K_i^dagger`.

use bgls_suite::circuit::{
    embed_unitary, generate_random_circuit, Channel, Circuit, Gate, OpKind, Operation, PauliString,
    Qubit, RandomCircuitParams,
};
use bgls_suite::core::{BglsState, BitString, MarginalState};
use bgls_suite::linalg::{Matrix, C64};
use bgls_suite::statevector::{DensityMatrix, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use std::sync::Arc;

fn matrix_gate(u: Matrix, k: usize) -> Gate {
    match k {
        1 => Gate::U1(Arc::new(u)),
        2 => Gate::U2(Arc::new(u)),
        _ => Gate::U(Arc::new(u), k),
    }
}

// ---------------------------------------------------------------- circuits

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for q in 0..n - 1 {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(q as u32), Qubit(q as u32 + 1)]).unwrap());
    }
    c
}

fn random_clifford(n: usize, moments: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    generate_random_circuit(&RandomCircuitParams::clifford(n, moments), &mut rng)
}

/// One QAOA layer on the ring graph: H wall, Rzz chain, Rx wall.
fn qaoa_ring(n: usize) -> Circuit {
    let mut c = Circuit::new();
    for q in 0..n {
        c.push(Operation::gate(Gate::H, vec![Qubit(q as u32)]).unwrap());
    }
    for q in 0..n {
        let a = q as u32;
        let b = ((q + 1) % n) as u32;
        c.push(Operation::gate(Gate::Rzz((-0.42).into()), vec![Qubit(a), Qubit(b)]).unwrap());
    }
    for q in 0..n {
        c.push(Operation::gate(Gate::Rx(1.3.into()), vec![Qubit(q as u32)]).unwrap());
    }
    c
}

fn gate_ops(circuit: &Circuit) -> Vec<(Matrix, Vec<usize>)> {
    circuit
        .all_operations()
        .filter_map(|op| match &op.kind {
            OpKind::Gate(g) => Some((
                g.unitary().unwrap(),
                op.support().iter().map(|q| q.index()).collect(),
            )),
            _ => None,
        })
        .collect()
}

// --------------------------------------------------------------- reference

/// The pre-shard flat kernel: for each gate subset, gather the `2^k`
/// partner amplitudes, multiply by the unitary row by row with
/// left-to-right accumulation (gate bit `k-1-j` maps to `qubits[j]`).
#[allow(clippy::assign_op_pattern)] // verbatim copy of the legacy loop
fn reference_apply(amps: &mut [C64], u: &Matrix, qubits: &[usize]) {
    let masks: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
    let k = qubits.len();
    let dim = 1usize << k;
    let offsets: Vec<usize> = (0..dim)
        .map(|g| {
            let mut off = 0;
            for (j, &m) in masks.iter().enumerate() {
                if (g >> (k - 1 - j)) & 1 == 1 {
                    off |= m;
                }
            }
            off
        })
        .collect();
    let all: usize = masks.iter().sum();
    for base in 0..amps.len() {
        if base & all != 0 {
            continue;
        }
        let vals: Vec<C64> = offsets.iter().map(|&o| amps[base | o]).collect();
        for (row, &off) in offsets.iter().enumerate() {
            let mut acc = u[(row, 0)] * vals[0];
            for (col, v) in vals.iter().enumerate().skip(1) {
                acc = acc + u[(row, col)] * *v;
            }
            amps[base | off] = acc;
        }
    }
}

fn reference_evolve(circuit: &Circuit, n: usize) -> Vec<C64> {
    let mut amps = vec![C64::ZERO; 1usize << n];
    amps[0] = C64::ONE;
    for (u, qs) in gate_ops(circuit) {
        reference_apply(&mut amps, &u, &qs);
    }
    amps
}

fn max_abs_diff(a: &[C64], b: &[C64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm_sqr().sqrt())
        .fold(0.0, f64::max)
}

// ------------------------------------------------------ sharded vs flat

#[test]
fn sharded_path_matches_flat_reference() {
    // Sizes straddle the shard boundary (2^14 amplitudes): 10q fits in
    // one shard, 15q and 18q need cross-shard pairing and quads.
    for (circuit, n) in [
        (ghz(10), 10),
        (ghz(15), 15),
        (random_clifford(15, 8, 7), 15),
        (random_clifford(18, 6, 11), 18),
        (qaoa_ring(16), 16),
    ] {
        let sv = StateVector::from_circuit(&circuit, n).unwrap();
        let want = reference_evolve(&circuit, n);
        let diff = max_abs_diff(sv.amplitudes(), &want);
        assert!(
            diff <= 1e-12,
            "{n}q circuit: sharded path diverged from flat reference by {diff:e}"
        );
    }
}

#[test]
fn sharded_path_is_bitwise_for_positional_gate_order() {
    // When a 2q gate already lists the higher qubit first, the kernel
    // uses the matrix as-is and every arithmetic step matches the flat
    // reference exactly — 0 ulp, across the shard boundary.
    let n = 16;
    let mut circuit = Circuit::new();
    for q in 0..n {
        circuit.push(Operation::gate(Gate::H, vec![Qubit(q as u32)]).unwrap());
    }
    for q in 0..n - 1 {
        circuit.push(
            Operation::gate(
                Gate::Rzz(0.37.into()),
                vec![Qubit(q as u32 + 1), Qubit(q as u32)],
            )
            .unwrap(),
        );
    }
    circuit.push(Operation::gate(Gate::T, vec![Qubit(3)]).unwrap());
    let sv = StateVector::from_circuit(&circuit, n).unwrap();
    let want = reference_evolve(&circuit, n);
    for (i, (got, want)) in sv.amplitudes().iter().zip(&want).enumerate() {
        assert!(
            got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
            "bit mismatch at index {i}: {got:?} vs {want:?}"
        );
    }
}

#[test]
fn fused_from_circuit_matches_gate_by_gate_bitwise() {
    // Pass fusion changes memory traffic, never values: from_circuit
    // (fused passes) must equal op-by-op apply_gate bit for bit.
    for (circuit, n) in [
        (ghz(15), 15),
        (random_clifford(16, 6, 3), 16),
        (qaoa_ring(15), 15),
    ] {
        let fused = StateVector::from_circuit(&circuit, n).unwrap();
        let mut unfused = StateVector::zero(n);
        for (u, qs) in gate_ops(&circuit) {
            // route through the same compiled path, one op at a time
            let g = matrix_gate(u, qs.len());
            unfused.apply_gate(&g, &qs).unwrap();
        }
        for (i, (a, b)) in fused
            .amplitudes()
            .iter()
            .zip(unfused.amplitudes())
            .enumerate()
        {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{n}q: fused/unfused bit mismatch at {i}"
            );
        }
    }
}

#[test]
fn density_matrix_sharded_path_matches_statevector() {
    // 10 qubits vectorize to 2^20 entries — 64 shards — so the density
    // backend crosses the shard boundary even at modest widths.
    let n = 10;
    let circuit = random_clifford(n, 6, 19);
    let mut dm = DensityMatrix::zero(n);
    for (u, qs) in gate_ops(&circuit) {
        let k = qs.len();
        dm.apply_gate(&matrix_gate(u, k), &qs).unwrap();
    }
    let want = reference_evolve(&circuit, n);
    for v in 0..1u64 << n {
        let p = want[v as usize].norm_sqr();
        let got = dm.probability(BitString::from_u64(n, v));
        assert!(
            (got - p).abs() <= 1e-12,
            "probability mismatch at basis state {v}: {got} vs {p}"
        );
    }
    assert!((dm.purity() - 1.0).abs() < 1e-10);
    assert!((dm.trace() - 1.0).abs() < 1e-12);
}

// ------------------------------------------------ channel superoperators

/// `a * b`, skipping the zero entries of `a`. An embedded k-qubit Kraus
/// operator has `2^k` nonzeros per row, so this costs `O(4^n 2^k)` where
/// a dense product costs `O(8^n)`.
fn sparse_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for (j, &x) in a.row(r).iter().enumerate() {
            if x != C64::ZERO {
                for c in 0..b.cols() {
                    out[(r, c)] += x * b[(j, c)];
                }
            }
        }
    }
    out
}

/// `sum_i K_i rho K_i^dagger` with each `K_i` embedded as a dense
/// `2^n x 2^n` operator: the textbook form of a channel on a mixed state.
/// `K rho K^dagger` is evaluated as `(K (K rho)^dagger)^dagger`.
fn kraus_sum_reference(rho: &Matrix, channel: &Channel, qubits: &[usize], n: usize) -> Matrix {
    let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
    let zero = Matrix::zeros(rho.rows(), rho.cols());
    channel.kraus().iter().fold(zero, |acc, k| {
        let full = embed_unitary(k, &qs, n);
        let left = sparse_matmul(&full, rho);
        &acc + &sparse_matmul(&full, &left.dagger()).dagger()
    })
}

#[test]
fn channel_superoperator_matches_explicit_kraus_sum() {
    // 8 qubits vectorize to 2^16 entries, four shards. Column qubit q + 8
    // is shard-local for q < 6 and a shard-index bit for q >= 6, so the
    // 1q placements cover the local and the cross-shard superoperator
    // shapes; the 2q placements run the 4q gather/scatter path.
    let n = 8;
    let mut rng = StdRng::seed_from_u64(0);
    let mut mixed = DensityMatrix::zero(n);
    for (u, qs) in gate_ops(&random_clifford(n, 6, 29)) {
        mixed.apply_gate(&matrix_gate(u, qs.len()), &qs).unwrap();
    }
    for q in 0..n {
        mixed
            .apply_gate(&Gate::Ry((0.3 + 0.1 * q as f64).into()), &[q])
            .unwrap();
    }
    for q in [1, 4, 6] {
        let ch = Channel::amplitude_damping(0.15).unwrap();
        mixed.apply_kraus(&ch, &[q], &mut rng).unwrap();
    }
    assert!(mixed.purity() < 0.99, "input state must be mixed");

    let one_qubit = [
        Channel::depolarizing(0.2).unwrap(),
        Channel::bit_flip(0.3).unwrap(),
        Channel::phase_flip(0.25).unwrap(),
        Channel::amplitude_damping(0.4).unwrap(),
    ];
    let mut cases: Vec<(Channel, Vec<usize>)> = Vec::new();
    for ch in &one_qubit {
        for q in [0, 5, 7] {
            cases.push((ch.clone(), vec![q]));
        }
    }
    for qs in [vec![6, 7], vec![0, 7]] {
        cases.push((Channel::depolarizing2(0.3).unwrap(), qs));
    }

    let rho = mixed.to_matrix();
    for (ch, qs) in cases {
        let want = kraus_sum_reference(&rho, &ch, &qs, n);
        let mut dm = mixed.clone();
        dm.apply_kraus(&ch, &qs, &mut rng).unwrap();
        let got = dm.to_matrix();
        let diff = max_abs_diff(got.data(), want.data());
        assert!(diff <= 1e-12, "{} on {qs:?}: off by {diff:e}", ch.name());
        assert!(
            (dm.trace() - mixed.trace()).abs() <= 1e-12,
            "{} on {qs:?}: trace {} -> {}",
            ch.name(),
            mixed.trace(),
            dm.trace()
        );
        assert!(
            got.is_hermitian(1e-12),
            "{} on {qs:?}: not Hermitian",
            ch.name()
        );
    }
}

// -------------------------------------------------- thread-count digests

fn fnv1a(digest: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *digest ^= byte as u64;
        *digest = digest.wrapping_mul(0x100000001b3);
    }
}

/// Digest of every observable bit a scenario produces: amplitudes (or
/// basis probabilities for the density backend), squared norm, a Pauli
/// expectation, and a marginal mass. The density scenario interleaves
/// channels with its gates: depolarizing on every qubit plus one
/// two-qubit depolarizing a third of the way in, amplitude damping on
/// every qubit two thirds of the way in.
fn scenario_digest(scenario: &str) -> u64 {
    let (kind, n) = scenario.split_once(':').expect("scenario kind:n");
    let n: usize = n.parse().expect("scenario width");
    let mut digest = 0xcbf29ce484222325u64;
    if kind == "density" {
        let mut dm = DensityMatrix::zero(n);
        let mut rng = StdRng::seed_from_u64(0);
        let ops = gate_ops(&random_clifford(n, 6, 19));
        let third = ops.len() / 3;
        for (i, (u, qs)) in ops.into_iter().enumerate() {
            let k = qs.len();
            dm.apply_gate(&matrix_gate(u, k), &qs).unwrap();
            if i == third {
                let depol = Channel::depolarizing(0.05).unwrap();
                for q in 0..n {
                    dm.apply_kraus(&depol, &[q], &mut rng).unwrap();
                }
                let depol2 = Channel::depolarizing2(0.1).unwrap();
                dm.apply_kraus(&depol2, &[0, 1], &mut rng).unwrap();
            } else if i == 2 * third {
                let damp = Channel::amplitude_damping(0.1).unwrap();
                for q in 0..n {
                    dm.apply_kraus(&damp, &[q], &mut rng).unwrap();
                }
            }
        }
        for v in 0..1u64 << n {
            fnv1a(
                &mut digest,
                dm.probability(BitString::from_u64(n, v)).to_bits(),
            );
        }
        fnv1a(&mut digest, dm.purity().to_bits());
        let exp = dm
            .expectation(&"X0 Z1".parse::<PauliString>().unwrap())
            .unwrap();
        fnv1a(&mut digest, exp.to_bits());
        fnv1a(
            &mut digest,
            dm.marginal_probability(&[(0, true), (n - 1, false)])
                .to_bits(),
        );
        return digest;
    }
    let circuit = match kind {
        "ghz" => ghz(n),
        "clifford" => random_clifford(n, 6, 11),
        "qaoa" => qaoa_ring(n),
        other => panic!("unknown scenario kind {other}"),
    };
    let sv = StateVector::from_circuit(&circuit, n).unwrap();
    for a in sv.amplitudes() {
        fnv1a(&mut digest, a.re.to_bits());
        fnv1a(&mut digest, a.im.to_bits());
    }
    fnv1a(&mut digest, sv.norm_sqr().to_bits());
    let obs: PauliString = format!("X0 Z{} Y{}", n / 2, n - 1).parse().unwrap();
    fnv1a(&mut digest, sv.expectation(&obs).unwrap().to_bits());
    let marginal = sv.marginal_probability(&[(0, false), (n / 2, true), (n - 1, true)]);
    fnv1a(&mut digest, marginal.to_bits());
    digest
}

/// Child half of the subprocess protocol: when `BGLS_CHILD_SCENARIO` is
/// set, compute that scenario's digest under whatever `RAYON_NUM_THREADS`
/// the parent chose and write it to `BGLS_CHILD_OUT`. A bare test run
/// (no env) is a no-op success.
#[test]
fn child_emit() {
    let Ok(scenario) = std::env::var("BGLS_CHILD_SCENARIO") else {
        return;
    };
    let out = std::env::var("BGLS_CHILD_OUT").expect("BGLS_CHILD_OUT set alongside scenario");
    let digest = scenario_digest(&scenario);
    std::fs::write(out, format!("{digest:016x}")).expect("write child digest");
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    // The vendored Rayon reads RAYON_NUM_THREADS once per process, so
    // each thread count gets its own child process running `child_emit`.
    let exe = std::env::current_exe().expect("test binary path");
    // Debug builds (plain `cargo test`) run the same contract on smaller
    // states; release CI covers the full 22-qubit spread.
    let scenarios: &[&str] = if cfg!(debug_assertions) {
        &["ghz:16", "clifford:12", "qaoa:12", "density:10"]
    } else {
        &["ghz:22", "clifford:18", "qaoa:16", "density:10"]
    };
    for scenario in scenarios {
        let mut digests: Vec<String> = Vec::new();
        for threads in ["1", "2", "8"] {
            let out = std::env::temp_dir().join(format!(
                "bgls_shard_digest_{}_{}_{threads}",
                std::process::id(),
                scenario.replace(':', "_"),
            ));
            let status = Command::new(&exe)
                .args(["--exact", "child_emit", "--nocapture"])
                .env("RAYON_NUM_THREADS", threads)
                .env("BGLS_CHILD_SCENARIO", scenario)
                .env("BGLS_CHILD_OUT", &out)
                .status()
                .expect("spawn child test process");
            assert!(
                status.success(),
                "{scenario}: child failed at {threads} threads"
            );
            let digest = std::fs::read_to_string(&out).expect("read child digest");
            let _ = std::fs::remove_file(&out);
            digests.push(digest);
        }
        assert!(
            digests.iter().all(|d| d == &digests[0]),
            "{scenario}: digests differ across RAYON_NUM_THREADS=1/2/8: {digests:?}"
        );
    }
}

// ------------------------------------------------------- forced ISA paths

#[test]
fn forced_isa_paths_agree_bitwise() {
    use bgls_suite::linalg::dispatch::{self, Isa};
    // Gates and reductions over a 15-qubit state: every kernel shape
    // (1q low/high, 2q local/mixed/cross, norm, marginal, expectation)
    // gets exercised, under each ISA the host supports. All paths share
    // one arithmetic contract, so agreement is exact — 0 ulp.
    let circuit = random_clifford(15, 8, 23);
    let run = || {
        let sv = StateVector::from_circuit(&circuit, 15).unwrap();
        let obs: PauliString = "Y1 X7 Z14".parse().unwrap();
        (
            sv.amplitudes().to_vec(),
            sv.norm_sqr(),
            sv.expectation(&obs).unwrap(),
            sv.marginal_probability(&[(2, true), (14, false)]),
        )
    };
    dispatch::force_isa(Isa::Scalar).expect("scalar always available");
    let (amps0, norm0, exp0, marg0) = run();
    for isa in [Isa::Avx2, Isa::Avx512, Isa::Neon] {
        if !dispatch::isa_supported(isa) {
            continue;
        }
        dispatch::force_isa(isa).unwrap();
        let (amps, norm, exp, marg) = run();
        for (i, (a, b)) in amps.iter().zip(&amps0).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{isa:?}: amplitude bit mismatch vs scalar at {i}"
            );
        }
        assert_eq!(norm.to_bits(), norm0.to_bits(), "{isa:?}: norm bits");
        assert_eq!(exp.to_bits(), exp0.to_bits(), "{isa:?}: expectation bits");
        assert_eq!(marg.to_bits(), marg0.to_bits(), "{isa:?}: marginal bits");
    }
    // leave the process on the detected path for any tests that follow
    dispatch::force_isa(dispatch::detected_isa()).unwrap();
}
