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
//! checked against the explicit Kraus sum `sum_i K_i rho K_i^dagger`;
//! exactly diagonal gates, which run as shard-local phase multiplies, are
//! checked against the flat reference at every shard placement; and the
//! grouped Pauli pass (`StateVector::expectations`) is checked against a
//! lone term's pass bit for bit.

use bgls_suite::circuit::{
    embed_unitary, generate_random_circuit, Channel, Circuit, Gate, OpKind, Operation, PauliString,
    Qubit, RandomCircuitParams,
};
use bgls_suite::core::{BglsState, BitString, MarginalState, SimError};
use bgls_suite::linalg::{Matrix, C64};
use bgls_suite::statevector::{apply_matrices, apply_matrix, norm_sqr, DensityMatrix, StateVector};
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

// ------------------------------------------------------- diagonal gates

/// Every exactly-diagonal catalogue gate, plus diagonal custom matrices
/// (`U1`, and `U2` via `matrix_gate`), by arity.
fn diagonal_gates() -> (Vec<Gate>, Vec<Gate>) {
    let u1 = Matrix::from_vec(
        2,
        2,
        vec![C64::cis(0.3), C64::ZERO, C64::ZERO, C64::cis(-1.1)],
    );
    let mut u2 = Matrix::identity(4);
    for (g, phase) in [0.2, -0.7, 1.9, 0.4].into_iter().enumerate() {
        u2[(g, g)] = C64::cis(phase);
    }
    let one = vec![
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Rz(0.37.into()),
        Gate::ZPow(0.29.into()),
        matrix_gate(u1, 1),
    ];
    let two = vec![
        Gate::Cz,
        Gate::CPhase(0.81.into()),
        Gate::Rzz((-0.42).into()),
        matrix_gate(u2, 2),
    ];
    (one, two)
}

/// 1q and 2q placements on a 16-qubit (four-shard) state: in-shard low
/// and high bits, shard-index bits, and 2q pairs that are local, mixed
/// and cross-shard, listed in both qubit orders.
fn diagonal_placements() -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let one = vec![vec![0], vec![1], vec![2], vec![13], vec![14], vec![15]];
    let two = vec![
        vec![1, 0],
        vec![0, 1],
        vec![2, 1],
        vec![9, 3],
        vec![3, 12],
        vec![15, 3],
        vec![0, 14],
        vec![15, 14],
        vec![14, 15],
    ];
    (one, two)
}

/// Random amplitudes with every component nonzero, and the uniform real
/// state after an H wall (every imaginary part an exact zero).
fn diagonal_test_states(n: usize) -> Vec<Vec<C64>> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(31);
    let random: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let mut wall = Circuit::new();
    for q in 0..n {
        wall.push(Operation::gate(Gate::H, vec![Qubit(q as u32)]).unwrap());
    }
    vec![random, reference_evolve(&wall, n)]
}

/// The diagonal op's contract against the dense flat reference: every
/// nonzero component equal bit for bit (a zero may differ in sign only),
/// so the squared norm is bit-identical too.
fn assert_nonzero_bits_equal(got: &[C64], want: &[C64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        for (a, b) in [(g.re, w.re), (g.im, w.im)] {
            if b == 0.0 {
                assert_eq!(a, 0.0, "{what}: index {i} should be zero, got {a:e}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: bit mismatch at {i}");
            }
        }
    }
    assert_eq!(
        norm_sqr(got).to_bits(),
        norm_sqr(want).to_bits(),
        "{what}: norm bits"
    );
}

#[test]
fn diagonal_gates_match_flat_reference_at_every_placement() {
    let n = 16;
    let (one, two) = diagonal_gates();
    let (one_at, two_at) = diagonal_placements();
    for amps in diagonal_test_states(n) {
        for (gates, placements) in [(&one, &one_at), (&two, &two_at)] {
            for gate in gates {
                let u = gate.unitary().unwrap();
                for qs in placements {
                    let mut want = amps.clone();
                    reference_apply(&mut want, &u, qs);
                    let mut got = amps.clone();
                    apply_matrix(&mut got, &u, qs);
                    assert_nonzero_bits_equal(&got, &want, &format!("{} on {qs:?}", gate.name()));
                }
            }
        }
    }
}

#[test]
fn fused_diagonal_gates_match_flat_reference() {
    // Diagonal ops ride inside whatever segment is open, including ones
    // whose mask spans shard-index bits: interleave them with H on the
    // shard-index qubits and run the whole list as one fused call.
    let n = 16;
    let (one, two) = diagonal_gates();
    let (one_at, two_at) = diagonal_placements();
    let mut ops: Vec<(Matrix, Vec<usize>)> = Vec::new();
    let h = Gate::H.unitary().unwrap();
    for (i, qs) in one_at.iter().enumerate() {
        ops.push((one[i % one.len()].unitary().unwrap(), qs.clone()));
        ops.push((h.clone(), vec![14 + i % 2]));
    }
    for (i, qs) in two_at.iter().enumerate() {
        ops.push((two[i % two.len()].unitary().unwrap(), qs.clone()));
        if i % 3 == 0 {
            ops.push((h.clone(), vec![15]));
        }
    }
    let refs: Vec<(&Matrix, &[usize])> = ops.iter().map(|(u, q)| (u, q.as_slice())).collect();
    for amps in diagonal_test_states(n) {
        let mut want = amps.clone();
        for (u, qs) in &ops {
            reference_apply(&mut want, u, qs);
        }
        let mut got = amps.clone();
        apply_matrices(&mut got, &refs);
        assert_nonzero_bits_equal(&got, &want, "fused sequence");
        // the statevector's one-gate entry point takes the same ops
        let mut single = amps.clone();
        for (u, qs) in &ops {
            apply_matrix(&mut single, u, qs);
        }
        assert_nonzero_bits_equal(&single, &want, "gate by gate");
    }
}

#[test]
fn near_diagonal_matrix_stays_on_the_dense_kernel() {
    // Off-diagonals of 1e-13 are not zero: the gate must run the dense
    // 4-term kernel, whose bits (for the positional qubit order) equal
    // the flat reference on every component, and differ from the exact
    // diagonal part applied alone.
    let n = 16;
    let mut u = Matrix::identity(4);
    for (g, phase) in [0.2, -0.7, 1.9, 0.4].into_iter().enumerate() {
        u[(g, g)] = C64::cis(phase);
    }
    let diagonal = u.clone();
    u[(0, 3)] = C64::new(1e-13, 0.0);
    u[(2, 1)] = C64::new(0.0, -1e-13);
    let amps = diagonal_test_states(n).swap_remove(0);
    for qs in [vec![9, 3], vec![15, 3], vec![15, 14]] {
        let mut want = amps.clone();
        reference_apply(&mut want, &u, &qs);
        let mut got = amps.clone();
        apply_matrix(&mut got, &u, &qs);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{qs:?}: dense bit mismatch at {i}"
            );
        }
        let mut diag_only = amps.clone();
        apply_matrix(&mut diag_only, &diagonal, &qs);
        assert!(
            got.iter().zip(&diag_only).any(|(a, b)| a != b),
            "{qs:?}: the 1e-13 off-diagonals were dropped"
        );
    }
}

// ------------------------------------------------- grouped Pauli passes

/// The lone-term inner-product loop the grouped pass must reproduce:
/// `<psi|P|psi>` with `P|b> = i^{ny} (-1)^{|b & z|} |b ^ x>`, one
/// complex accumulator per shard of 2^14 amplitudes, partials combined by
/// the ascending pairwise tree fold.
fn lone_term_expectation(amps: &[C64], p: &PauliString) -> f64 {
    let (x, z, ny) = p.dense_masks();
    let mut parts: Vec<C64> = amps
        .chunks(1 << 14)
        .enumerate()
        .map(|(ci, chunk)| {
            let mut acc = C64::ZERO;
            for (i, &amp) in chunk.iter().enumerate() {
                let b = (ci << 14) + i;
                let term = amps[b ^ x as usize].conj() * amp;
                if (b as u64 & z).count_ones() % 2 == 1 {
                    acc -= term;
                } else {
                    acc += term;
                }
            }
            acc
        })
        .collect();
    let mut len = parts.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            parts[i] = parts[2 * i] + parts[2 * i + 1];
        }
        if len % 2 == 1 {
            parts[half] = parts[len - 1];
            len = half + 1;
        } else {
            len = half;
        }
    }
    (parts[0] * C64::i_pow(ny as i64)).re
}

/// Term counts that cross the grouped pass's lane-block edges (blocks of
/// up to 32 terms; 1- and 8-lane blocks below that).
const TERM_COUNTS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 70];

/// `count` Pauli terms over `n` qubits with one shared X-mask: all-Z
/// strings (X-mask 0, the first one the identity) or strings flipping
/// qubits 0 and `n - 1` (X-mask != 0, crossing shards at 15 and 16
/// qubits), each with its own scattered Z pattern (a Z on a flipped
/// qubit makes it a Y).
fn term_block(n: usize, count: usize, flip: bool) -> Vec<PauliString> {
    let x = if flip { 1u64 | 1 << (n - 1) } else { 0 };
    (0..count as u64)
        .map(|k| {
            let z = if k == 0 && !flip {
                0
            } else {
                (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n)
            };
            let ops: Vec<String> = (0..n)
                .filter_map(|q| match (x >> q & 1, z >> q & 1) {
                    (1, 0) => Some(format!("X{q}")),
                    (1, 1) => Some(format!("Y{q}")),
                    (0, 1) => Some(format!("Z{q}")),
                    _ => None,
                })
                .collect();
            let text = if ops.is_empty() {
                "I".into()
            } else {
                ops.join(" ")
            };
            text.parse().unwrap()
        })
        .collect()
}

/// Every term list the grouped-pass tests evaluate at width `n`: the
/// X-mask-0 and X-mask != 0 blocks at each of [`TERM_COUNTS`] (both in
/// one call), plus a hand-written mix of identity, Z-only, X and Y
/// strings with X-masks shared by several terms.
fn grouped_term_lists(n: usize) -> Vec<Vec<PauliString>> {
    let last = n - 1;
    let mut lists: Vec<Vec<PauliString>> = TERM_COUNTS
        .iter()
        .map(|&count| {
            let mut terms = term_block(n, count, false);
            terms.extend(term_block(n, count, true));
            terms
        })
        .collect();
    lists.push(
        [
            "I".to_string(),
            "Z0 Z1".to_string(),
            format!("X0 X{last}"),
            format!("Z1 Z{last}"),
            "Y0 Y1".to_string(),
            "X2".to_string(),
            format!("Y0 Z1 Y{last}"),
            "Z2".to_string(),
            format!("X0 Z1 X{last}"),
            "Y2 Z1".to_string(),
            "X0 X1 Z2".to_string(),
            "I".to_string(),
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect(),
    );
    lists
}

#[test]
fn grouped_pauli_pass_matches_lone_terms_bitwise() {
    // Below one shard (3, 10 qubits), exactly one (14), and two and four
    // shards on the parallel path (15 = PAR_THRESHOLD, 16). Every value
    // of every grouped call equals its term's lone call and the lone
    // reference loop, 0 ulp.
    for n in [3usize, 10, 14, 15, 16] {
        let last = n - 1;
        let sv = StateVector::from_circuit(&qaoa_ring(n), n).unwrap();
        let mut sv2 = sv.clone();
        sv2.apply_gate(&Gate::Ry(0.61.into()), &[2]).unwrap();
        sv2.apply_gate(&Gate::S, &[last]).unwrap();
        let lists = grouped_term_lists(n);
        for state in [sv, sv2] {
            let mut lone: Vec<(String, u64)> = Vec::new();
            for terms in &lists {
                let refs: Vec<&PauliString> = terms.iter().collect();
                let grouped = state.expectations(&refs).unwrap();
                for (p, got) in terms.iter().zip(&grouped) {
                    let key = p.to_string();
                    let want = match lone.iter().find(|(k, _)| *k == key) {
                        Some(&(_, bits)) => bits,
                        None => {
                            let single = state.expectation(p).unwrap().to_bits();
                            let reference = lone_term_expectation(state.amplitudes(), p);
                            assert_eq!(single, reference.to_bits(), "{n}q {p}: lone call");
                            lone.push((key, single));
                            single
                        }
                    };
                    assert_eq!(got.to_bits(), want, "{n}q {p}: grouped vs lone");
                }
            }
        }
    }
}

#[test]
fn grouped_pauli_pass_rejects_a_term_beyond_the_width() {
    let sv = StateVector::from_circuit(&qaoa_ring(10), 10).unwrap();
    let ok: PauliString = "Z0 Z1".parse().unwrap();
    let wide: PauliString = "X2 Z10".parse().unwrap();
    for refs in [vec![&ok, &wide], vec![&wide, &ok]] {
        assert!(matches!(
            sv.expectations(&refs),
            Err(SimError::QubitOutOfRange {
                index: 10,
                num_qubits: 10
            })
        ));
    }
    assert_eq!(sv.expectations(&[]).unwrap(), Vec::<f64>::new());
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
    // (1q low/high, 2q local/mixed/cross, diagonal ops at in-shard and
    // shard-index placements, norm, marginal, grouped expectations) gets
    // exercised, under each ISA the host supports. All paths share one
    // arithmetic contract, so agreement is exact — 0 ulp.
    let mut circuit = random_clifford(15, 8, 23);
    let (one, two) = diagonal_gates();
    for (i, gate) in one.into_iter().enumerate() {
        let q = [0, 1, 2, 5, 13, 14][i % 6];
        circuit.push(Operation::gate(gate, vec![Qubit(q)]).unwrap());
    }
    for (gate, (a, b)) in two.into_iter().zip([(1, 0), (14, 3), (2, 9), (0, 14)]) {
        circuit.push(Operation::gate(gate, vec![Qubit(a), Qubit(b)]).unwrap());
    }
    // The grouped Pauli pass runs every term list of
    // `grouped_term_lists` (lane-block edges, X-mask 0 and != 0) at
    // widths 3 to 16, on this state at 15 qubits and on QAOA rings.
    let run = || {
        let sv = StateVector::from_circuit(&circuit, 15).unwrap();
        let mut exps = Vec::new();
        for n in [3usize, 10, 14, 15, 16] {
            let ring = StateVector::from_circuit(&qaoa_ring(n), n).unwrap();
            let states = if n == 15 {
                vec![&sv, &ring]
            } else {
                vec![&ring]
            };
            for terms in grouped_term_lists(n) {
                let refs: Vec<&PauliString> = terms.iter().collect();
                for state in &states {
                    exps.extend(state.expectations(&refs).unwrap());
                }
            }
        }
        (
            sv.amplitudes().to_vec(),
            sv.norm_sqr(),
            exps,
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
        assert_eq!(exp.len(), exp0.len());
        for (i, (e, e0)) in exp.iter().zip(&exp0).enumerate() {
            assert_eq!(e.to_bits(), e0.to_bits(), "{isa:?}: expectation {i} bits");
        }
        assert_eq!(marg.to_bits(), marg0.to_bits(), "{isa:?}: marginal bits");
    }
    // leave the process on the detected path for any tests that follow
    dispatch::force_isa(dispatch::detected_isa()).unwrap();
}
