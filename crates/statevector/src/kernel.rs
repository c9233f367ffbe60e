//! Sharded gate-application kernels over dense amplitude arrays.
//!
//! Shared by the state-vector backend and the (vectorized) density-matrix
//! backend. The amplitude array is processed as fixed-length power-of-two
//! **shards** ([`SHARD_LEN`] amplitudes = 256 KiB, sized to sit in L2):
//!
//! * a gate whose qubits all lie **below** [`SHARD_BITS`] is shard-local —
//!   every shard is updated independently;
//! * a gate touching an index bit at or above [`SHARD_BITS`] pairs shards
//!   (or groups four of them, for a 2q gate with both qubits high) and
//!   exchanges amplitude blocks between them.
//!
//! Shard ownership is fixed: shard `s` covers amplitudes
//! `[s * SHARD_LEN, (s + 1) * SHARD_LEN)`, and each parallel task owns a
//! disjoint shard group, so serial and parallel execution perform the exact
//! same per-amplitude arithmetic — results are bit-identical for every
//! `RAYON_NUM_THREADS`, including 1. Reductions ([`norm_sqr`]) compute one
//! partial per shard and combine them with a fixed ascending-shard pairwise
//! tree fold, which is likewise thread-count-invariant.
//!
//! The arithmetic floor under the shard loops is
//! [`bgls_linalg::dispatch`] — runtime-ISA-selected (AVX-512/AVX2/NEON/
//! scalar) split-re/im microkernels that are bit-identical across paths.
//!
//! [`apply_matrices`] adds pass fusion on top: consecutive ops whose
//! shard-bit footprint fits one shard group are applied back-to-back while
//! the group is cache-resident, turning k full-buffer memory passes into
//! one. Because gates act elementwise on disjoint shard groups, fusion is
//! bit-identical to gate-by-gate application.
//!
//! A 1q/2q matrix whose off-diagonal entries are exactly zero (`Rz`, `T`,
//! `S`, `Cz`, `CPhase`, `Rzz`, diagonal custom matrices) compiles to a
//! **diagonal op**: one complex multiply per amplitude
//! ([`bgls_linalg::dispatch::apply_diag`]) instead of a butterfly. It never
//! moves amplitudes between shards — a qubit on a shard-index bit only
//! picks which diagonal entries a shard sees — so it is shard-local at any
//! placement and never splits a fused segment. Its nonzero output bits
//! equal the dense kernel's, whose extra terms are products with exact
//! zeros that add `±0`; only the sign of an exactly-zero component may
//! differ, and no probability, norm or expectation can see that.

use bgls_linalg::{dispatch, Matrix, C64};
use rayon::prelude::*;
use std::cell::RefCell;

/// log2 of the shard length. 2^14 amplitudes × 16 bytes = 256 KiB per
/// shard: small enough that a 4-shard group (the largest the fused engine
/// forms) stays cache-resident, large enough to amortize dispatch.
pub const SHARD_BITS: usize = 14;

/// Amplitudes per shard (`1 << SHARD_BITS`).
pub const SHARD_LEN: usize = 1 << SHARD_BITS;

/// Arrays at or above this length (= two shards) run the shard loops in
/// parallel; below it the array is a single (possibly short) shard and runs
/// serially. Serial and parallel paths iterate the same shard decomposition
/// in the same per-shard order, so the threshold affects scheduling only,
/// never results.
pub const PAR_THRESHOLD: usize = 2 * SHARD_LEN;

/// Shard length actually used for `amps`: full shards when the array is
/// large, the whole array as one shard when it is smaller than [`SHARD_LEN`].
#[inline]
fn shard_bits_for(len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    SHARD_BITS.min(len.trailing_zeros() as usize)
}

/// Inserts a zero bit at position `b`, shifting higher bits up.
#[inline]
fn insert_zero(t: usize, b: usize) -> usize {
    ((t >> b) << (b + 1)) | (t & ((1usize << b) - 1))
}

fn validate(len: usize, u: &Matrix, qubits: &[usize]) {
    let k = qubits.len();
    assert_eq!(u.rows(), 1 << k, "matrix size does not match qubit count");
    assert!(len.is_power_of_two());
    let n_bits = len.trailing_zeros() as usize;
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < n_bits, "qubit {q} out of range for {n_bits} bits");
        assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
    }
}

/// Applies a `2^k x 2^k` unitary (or any matrix — density-matrix channel
/// superoperators reuse this) to the amplitudes, acting on `qubits`.
/// Gate-matrix convention: the first listed qubit is the most significant
/// gate-index bit; state index bit `q` belongs to qubit `q`.
///
/// # Panics
/// Panics if dimensions are inconsistent or a qubit index repeats/overflows.
pub fn apply_matrix(amps: &mut [C64], u: &Matrix, qubits: &[usize]) {
    validate(amps.len(), u, qubits);
    let sb = shard_bits_for(amps.len());
    match qubits.len() {
        0 => {}
        1 | 2 => {
            let op = compile_op(u, qubits, sb).expect("1q/2q op always compiles");
            run_segment(amps, sb, op.mask(), std::slice::from_ref(&op));
        }
        _ => apply_kq(amps, u, qubits),
    }
}

/// Applies a sequence of matrices — gates, or the row and column halves of
/// a density-matrix gate — with **pass fusion**: consecutive ops
/// whose combined shard-bit footprint spans at most four shards are applied
/// in one pass over memory, per shard group, while the group is
/// cache-resident.
///
/// Bit-identical to calling [`apply_matrix`] per op in order (gates act
/// elementwise on disjoint shard groups, so per-amplitude arithmetic and
/// ordering are unchanged) — only the memory traffic differs.
///
/// # Panics
/// As [`apply_matrix`], for any op in the list.
pub fn apply_matrices(amps: &mut [C64], ops: &[(&Matrix, &[usize])]) {
    for (u, qs) in ops {
        validate(amps.len(), u, qs);
    }
    let sb = shard_bits_for(amps.len());
    let mut seg: Vec<ShardOp> = Vec::new();
    let mut mask = Mask::default();
    for (u, qs) in ops {
        match compile_op(u, qs, sb) {
            Some(op) => {
                if let Some(m) = mask.union(op.mask()) {
                    mask = m;
                } else {
                    run_segment(amps, sb, mask, &seg);
                    seg.clear();
                    mask = op.mask();
                }
                seg.push(op);
            }
            None => {
                // k = 0 or k >= 3: flush and fall back to the unfused path.
                if !seg.is_empty() {
                    run_segment(amps, sb, mask, &seg);
                    seg.clear();
                    mask = Mask::default();
                }
                apply_matrix(amps, u, qs);
            }
        }
    }
    if !seg.is_empty() {
        run_segment(amps, sb, mask, &seg);
    }
}

/// Up to two shard-index bits — the footprint of one fused segment.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Mask {
    bits: [usize; 2],
    len: usize,
}

impl Mask {
    fn one(b: usize) -> Mask {
        Mask {
            bits: [b, 0],
            len: 1,
        }
    }

    fn two(bl: usize, bh: usize) -> Mask {
        debug_assert!(bl < bh);
        Mask {
            bits: [bl, bh],
            len: 2,
        }
    }

    fn slice(&self) -> &[usize] {
        &self.bits[..self.len]
    }

    /// Position of shard bit `b` within the mask.
    fn pos(&self, b: usize) -> usize {
        self.slice()
            .iter()
            .position(|&x| x == b)
            .expect("bit in mask")
    }

    /// Sorted union, or `None` when it would exceed two bits.
    fn union(&self, other: Mask) -> Option<Mask> {
        let mut bits = [0usize; 2];
        let mut len = 0;
        let (a, b) = (self.slice(), other.slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if len == 2 {
                return None;
            }
            bits[len] = next;
            len += 1;
        }
        Some(Mask { bits, len })
    }
}

/// A 1q/2q gate classified against the shard boundary. Shard-local qubits
/// keep their in-shard bit position; high qubits are reduced to shard-index
/// bits (`q - SHARD_BITS`). 2q coefficient arrays are stored in
/// **positional** order — gate bit 1 is the higher memory bit — matching
/// the [`bgls_linalg::dispatch`] convention.
#[derive(Clone)]
enum ShardOp {
    /// Exactly diagonal 1q/2q gate: amplitude `i` is multiplied by
    /// `d[g(i)]`, gate bit 1 set when `i & mh != 0` and bit 0 when
    /// `i & ml != 0` (`mh = 0` for a 1q gate). Masks are absolute index
    /// bits; shard-local at every placement.
    Diag { mh: usize, ml: usize, d: [C64; 4] },
    /// 1q gate below the shard boundary.
    Local1q { q: usize, u: [C64; 4] },
    /// 1q gate on shard-index bit `b`.
    Cross1q { b: usize, u: [C64; 4] },
    /// 2q gate with both qubits below the boundary (`ql < qh`).
    Local2q { qh: usize, ql: usize, u: [C64; 16] },
    /// 2q gate with the high qubit on shard-index bit `b`, low in-shard.
    Mixed2q { b: usize, ql: usize, u: [C64; 16] },
    /// 2q gate with both qubits on shard-index bits (`bl < bh`).
    Cross2q { bh: usize, bl: usize, u: [C64; 16] },
}

impl ShardOp {
    fn mask(&self) -> Mask {
        match *self {
            ShardOp::Diag { .. } | ShardOp::Local1q { .. } | ShardOp::Local2q { .. } => {
                Mask::default()
            }
            ShardOp::Cross1q { b, .. } | ShardOp::Mixed2q { b, .. } => Mask::one(b),
            ShardOp::Cross2q { bh, bl, .. } => Mask::two(bl, bh),
        }
    }
}

fn u4_of(u: &Matrix) -> [C64; 4] {
    let d = u.data();
    [d[0], d[1], d[2], d[3]]
}

/// Row-major coefficients with gate bits swapped: `out[r][c] =
/// u[swap(r)][swap(c)]` where `swap` exchanges the two gate index bits.
/// Used when the caller's first-listed qubit is the *lower* memory bit, so
/// the kernels can always treat gate bit 1 as the higher one.
fn u16_swapped(u: &Matrix) -> [C64; 16] {
    let sw = |i: usize| ((i & 1) << 1) | (i >> 1);
    let mut out = [C64::ZERO; 16];
    for (r, row) in out.chunks_exact_mut(4).enumerate() {
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = u[(sw(r), sw(c))];
        }
    }
    out
}

fn u16_of(u: &Matrix) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    out.copy_from_slice(u.data());
    out
}

/// Classifies a 1q/2q gate against the shard boundary `sb`; `None` for any
/// other arity. Exactly diagonal matrices (off-diagonals `== 0.0`, not
/// merely small) become [`ShardOp::Diag`] wherever their qubits sit.
fn compile_op(u: &Matrix, qubits: &[usize], sb: usize) -> Option<ShardOp> {
    if matches!(qubits.len(), 1 | 2) && u.is_diagonal(0.0) {
        let d = |g: usize| u[(g, g)];
        return Some(match *qubits {
            [q] => ShardOp::Diag {
                mh: 0,
                ml: 1 << q,
                d: [d(0), d(1), d(0), d(1)],
            },
            // First listed qubit = gate bit 1, whichever memory bit it is.
            [qa, qb] => ShardOp::Diag {
                mh: 1 << qa,
                ml: 1 << qb,
                d: [d(0), d(1), d(2), d(3)],
            },
            _ => unreachable!("arity checked above"),
        });
    }
    match *qubits {
        [q] => Some(if q < sb {
            ShardOp::Local1q { q, u: u4_of(u) }
        } else {
            ShardOp::Cross1q {
                b: q - sb,
                u: u4_of(u),
            }
        }),
        [qa, qb] => {
            // Positional form: gate bit 1 = higher memory bit.
            let (qh, ql, u16) = if qa > qb {
                (qa, qb, u16_of(u))
            } else {
                (qb, qa, u16_swapped(u))
            };
            Some(if qh < sb {
                ShardOp::Local2q { qh, ql, u: u16 }
            } else if ql < sb {
                ShardOp::Mixed2q {
                    b: qh - sb,
                    ql,
                    u: u16,
                }
            } else {
                ShardOp::Cross2q {
                    bh: qh - sb,
                    bl: ql - sb,
                    u: u16,
                }
            })
        }
        _ => None,
    }
}

/// Shared amplitude base pointer for handing disjoint shard slices to
/// parallel tasks.
struct SharedAmps {
    ptr: *mut C64,
}

// SAFETY: tasks created by `run_segment` access disjoint shard index sets.
unsafe impl Send for SharedAmps {}
// SAFETY: as above — disjointness is enforced by the group enumeration.
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    /// # Safety
    /// Callers must hold a unique borrow of the underlying array and never
    /// request the same shard index from two live slices.
    #[allow(clippy::mut_from_ref)] // disjointness contract documented above
    unsafe fn shard(&self, idx: usize, shard_len: usize) -> &mut [C64] {
        std::slice::from_raw_parts_mut(self.ptr.add(idx * shard_len), shard_len)
    }
}

/// Applies a fused segment: every op in `ops`, in order, over each shard
/// group induced by `mask`. Groups are disjoint, so they run in parallel
/// when the array is large; the serial path walks the identical groups.
fn run_segment(amps: &mut [C64], sb: usize, mask: Mask, ops: &[ShardOp]) {
    let shard_len = 1usize << sb;
    let ns = amps.len() >> sb;
    let p = mask.len;
    let groups = ns >> p;
    let len = amps.len();
    let shared = SharedAmps {
        ptr: amps.as_mut_ptr(),
    };
    let run = |g: usize| {
        // Base shard of the group: insert zeros at the mask bits
        // (ascending), then enumerate the group's shards in gate-subset
        // order.
        let mut base = g;
        for &b in mask.slice() {
            base = insert_zero(base, b);
        }
        let mut idx = [0usize; 4];
        for (sub, slot) in idx[..1 << p].iter_mut().enumerate() {
            let mut s = base;
            for (j, &b) in mask.slice().iter().enumerate() {
                if (sub >> j) & 1 == 1 {
                    s |= 1 << b;
                }
            }
            *slot = s;
        }
        for op in ops {
            // SAFETY: groups partition the shard set and `idx` holds
            // distinct indices, so all slices handed out are disjoint.
            unsafe { apply_to_group(&shared, shard_len, &idx, p, mask, op) }
        }
    };
    if len >= PAR_THRESHOLD && groups > 1 {
        (0..groups).into_par_iter().for_each(run);
    } else {
        (0..groups).for_each(run);
    }
}

/// Applies one op to the shard group `idx[..1 << p]`.
///
/// # Safety
/// The group's shard indices must be disjoint from those of any other live
/// task, and `idx[sub]` must follow the gate-subset order built by
/// `run_segment`.
unsafe fn apply_to_group(
    shared: &SharedAmps,
    shard_len: usize,
    idx: &[usize; 4],
    p: usize,
    mask: Mask,
    op: &ShardOp,
) {
    match op {
        ShardOp::Diag { mh, ml, d } => {
            let local = shard_len - 1;
            for &s in &idx[..1 << p] {
                // Gate bits on shard-index qubits are constant over the
                // shard: fold them into the entries the shard sees.
                let base = s * shard_len;
                let g0 = (((base & mh != 0) as usize) << 1) | ((base & ml != 0) as usize);
                let ds = [d[g0], d[g0 | 1], d[g0 | 2], d[g0 | 3]];
                dispatch::apply_diag(shared.shard(s, shard_len), mh & local, ml & local, &ds);
            }
        }
        ShardOp::Local1q { q, u } => {
            for &s in &idx[..1 << p] {
                dispatch::apply_1q_slice(shared.shard(s, shard_len), *q, u);
            }
        }
        ShardOp::Local2q { qh, ql, u } => {
            for &s in &idx[..1 << p] {
                dispatch::apply_2q_slice(shared.shard(s, shard_len), *qh, *ql, u);
            }
        }
        ShardOp::Cross1q { b, u } => {
            let j = 1usize << mask.pos(*b);
            for sub in 0..(1usize << p) {
                if sub & j == 0 {
                    dispatch::apply_1q_pair(
                        shared.shard(idx[sub], shard_len),
                        shared.shard(idx[sub | j], shard_len),
                        u,
                    );
                }
            }
        }
        ShardOp::Mixed2q { b, ql, u } => {
            let j = 1usize << mask.pos(*b);
            for sub in 0..(1usize << p) {
                if sub & j == 0 {
                    dispatch::apply_2q_pair(
                        shared.shard(idx[sub], shard_len),
                        shared.shard(idx[sub | j], shard_len),
                        *ql,
                        u,
                    );
                }
            }
        }
        ShardOp::Cross2q { bh, bl, u } => {
            let jh = 1usize << mask.pos(*bh);
            let jl = 1usize << mask.pos(*bl);
            for sub in 0..(1usize << p) {
                if sub & (jh | jl) == 0 {
                    dispatch::apply_2q_quad(
                        shared.shard(idx[sub], shard_len),
                        shared.shard(idx[sub | jl], shard_len),
                        shared.shard(idx[sub | jh], shard_len),
                        shared.shard(idx[sub | jh | jl], shard_len),
                        u,
                    );
                }
            }
        }
    }
}

thread_local! {
    /// Reusable gather buffer for the k-qubit gather/scatter path — one
    /// allocation per thread instead of one per chunk (same pattern as
    /// `Tensor::contract`'s GEMM scratch).
    static KQ_SCRATCH: RefCell<Vec<C64>> = const { RefCell::new(Vec::new()) };
}

fn apply_kq(amps: &mut [C64], u: &Matrix, qubits: &[usize]) {
    let k = qubits.len();
    let dim = 1usize << k;
    let top = *qubits.iter().max().expect("k >= 1");
    let chunk = 1usize << (top + 1);
    // Sorted qubit positions for zero-insertion enumeration.
    let mut sorted: Vec<usize> = qubits.to_vec();
    sorted.sort_unstable();
    // offsets[g] = OR of qubit masks selected by gate index g
    // (gate bit (k-1-j) <-> qubits[j]).
    let offsets: Vec<usize> = (0..dim)
        .map(|g| {
            let mut off = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                if (g >> (k - 1 - j)) & 1 == 1 {
                    off |= 1 << q;
                }
            }
            off
        })
        .collect();

    let per_chunk = chunk >> k;
    let body = |slice: &mut [C64]| {
        KQ_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < dim {
                buf.resize(dim, C64::ZERO);
            }
            let gathered = &mut buf[..dim];
            for i in 0..per_chunk {
                // expand i by inserting zero bits at each sorted qubit
                // position
                let mut base = i;
                for &q in &sorted {
                    base = insert_zero(base, q);
                }
                for (g, &off) in offsets.iter().enumerate() {
                    gathered[g] = slice[base | off];
                }
                for (row, &off) in offsets.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &g) in gathered.iter().enumerate() {
                        acc = u[(row, col)].mul_add(g, acc);
                    }
                    slice[base | off] = acc;
                }
            }
        })
    };
    if amps.len() >= PAR_THRESHOLD && amps.len() / chunk > 1 {
        amps.par_chunks_mut(chunk).for_each(body);
    } else {
        amps.chunks_mut(chunk).for_each(body);
    }
}

/// One partial per [`SHARD_LEN`] chunk (the last may be short), in shard
/// order, computed in parallel above [`PAR_THRESHOLD`]. Each partial is a
/// pure function of its chunk, so the vector is thread-count-invariant.
pub(crate) fn shard_partials<T, F>(amps: &[C64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[C64]) -> T + Sync,
{
    if amps.len() >= PAR_THRESHOLD {
        let chunks: Vec<(usize, &[C64])> = amps.chunks(SHARD_LEN).enumerate().collect();
        chunks.into_par_iter().map(|(i, c)| f(i, c)).collect()
    } else {
        amps.chunks(SHARD_LEN)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect()
    }
}

/// Ascending pairwise tree fold: `parts[i] <- parts[2i] + parts[2i+1]`
/// per level. Fixed order, so reductions are bit-identical regardless of
/// how the partials were scheduled.
pub(crate) fn tree_fold_f64(mut parts: Vec<f64>) -> f64 {
    if parts.is_empty() {
        return 0.0;
    }
    let mut n = parts.len();
    while n > 1 {
        let half = n / 2;
        for i in 0..half {
            parts[i] = parts[2 * i] + parts[2 * i + 1];
        }
        if n % 2 == 1 {
            parts[half] = parts[n - 1];
            n = half + 1;
        } else {
            n = half;
        }
    }
    parts[0]
}

/// The Z-parity walk's flip table for one block of up to
/// [`dispatch::TERM_LANES`] terms: row `k` holds, per term, the sign bit
/// (bit 63) that flips when the index steps to an `i` with `k` trailing
/// zeros. That step flips index bits `0..=k`, so the flip is the parity
/// of `z & ((2 << k) - 1)`. A shard's walk needs rows `0..SHARD_BITS`.
fn parity_flips(zs: &[u64]) -> Vec<dispatch::LaneSigns> {
    (0..SHARD_BITS)
        .map(|k| {
            let mut row = [0u64; dispatch::TERM_LANES];
            for (f, &z) in row.iter_mut().zip(zs) {
                *f = ((z & ((2u64 << k) - 1)).count_ones() as u64 & 1) << 63;
            }
            row
        })
        .collect()
}

/// The sums `S_t = sum_b (-1)^{|b & z_t|} conj(a[b ^ x]) a[b]` for every
/// term `t` that shares X-mask `x`, from one pass over the amplitudes.
///
/// Each shard runs [`dispatch::pauli_lanes`] once per block of up to
/// [`dispatch::TERM_LANES`] terms: the product `conj(a[b ^ x]) a[b]` is
/// computed once per amplitude and added under each term's Z-parity
/// sign into that term's register lane, in index order, and the
/// per-shard partials combine by the ascending tree fold. Adding the
/// sign-flipped product equals subtracting it bit for bit (IEEE `a - b`
/// is `a + (-b)`), so each `S_t` is exactly what a pass for term `t`
/// alone computes, on every ISA and for every thread count. For `x = 0`
/// the product is `|a|^2` (what `conj(a) a` computes, with an exact `+0`
/// imaginary part), so the returned imaginary parts are `+0`, as a
/// complex accumulator's would be.
pub(crate) fn pauli_sums(amps: &[C64], x: usize, zs: &[u64]) -> Vec<C64> {
    let blocks: Vec<(&[u64], Vec<dispatch::LaneSigns>)> = zs
        .chunks(dispatch::TERM_LANES)
        .map(|block| (block, parity_flips(block)))
        .collect();
    // A shard's partner amplitudes `a[b ^ x]` lie in shard `ci ^ xh`, at
    // in-shard offset `i ^ xl`.
    let (xh, xl) = (x & !(SHARD_LEN - 1), x & (SHARD_LEN - 1));
    let parts = shard_partials(amps, |ci, chunk| {
        let base = ci * SHARD_LEN;
        let partner = (x != 0).then(|| (&amps[base ^ xh..][..chunk.len()], xl));
        let mut sums = Vec::with_capacity(zs.len());
        for (block, flips) in &blocks {
            let mut sign = [0u64; dispatch::TERM_LANES];
            for (s, &z) in sign.iter_mut().zip(*block) {
                *s = ((base as u64 & z).count_ones() as u64 & 1) << 63;
            }
            let (re, im) = dispatch::pauli_lanes(chunk, partner, block.len(), &sign, flips);
            sums.extend((0..block.len()).map(|t| (re[t], im[t])));
        }
        sums
    });
    (0..zs.len())
        .map(|t| {
            let (re, im): (Vec<f64>, Vec<f64>) = parts.iter().map(|p| p[t]).unzip();
            C64::new(tree_fold_f64(re), tree_fold_f64(im))
        })
        .collect()
}

/// Squared norm of an amplitude array: per-shard 8-lane partials
/// ([`bgls_linalg::dispatch::sum_norm_sqr`]) combined by ascending tree
/// fold — bit-identical for every thread count and ISA path.
pub fn norm_sqr(amps: &[C64]) -> f64 {
    tree_fold_f64(shard_partials(amps, |_, c| dispatch::sum_norm_sqr(c)))
}

/// Scales every amplitude by a real factor.
pub fn scale(amps: &mut [C64], factor: f64) {
    if amps.len() >= PAR_THRESHOLD {
        amps.par_chunks_mut(SHARD_LEN)
            .for_each(|c| dispatch::scale(c, factor));
    } else {
        dispatch::scale(amps, factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_circuit::{embed_unitary, Gate, Qubit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_amps(rng: &mut StdRng, n: usize) -> Vec<C64> {
        (0..1usize << n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn check_against_embedding(gate: &Gate, qubits: &[usize], n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let amps = random_amps(&mut rng, n);
        let u = gate.unitary().unwrap();

        let mut fast = amps.clone();
        apply_matrix(&mut fast, &u, qubits);

        let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q as u32)).collect();
        let full = embed_unitary(&u, &qs, n);
        let slow = full.matvec(&amps);

        for (a, b) in fast.iter().zip(&slow) {
            assert!(
                a.approx_eq(*b, 1e-10),
                "{} on {:?}: {a:?} vs {b:?}",
                gate.name(),
                qubits
            );
        }
    }

    /// The pre-shard flat reference loops (bit-for-bit the old kernel
    /// semantics): 1q/2q row updates with left-associated accumulation.
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

    fn bit_eq(a: &[C64], b: &[C64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "bit mismatch at {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn one_qubit_kernels_match_embedding() {
        for q in 0..4 {
            check_against_embedding(&Gate::H, &[q], 4, 1);
            check_against_embedding(&Gate::SqrtX, &[q], 4, 2);
            check_against_embedding(&Gate::Rz(0.7.into()), &[q], 4, 3);
        }
    }

    #[test]
    fn two_qubit_kernels_match_embedding_all_orders() {
        for qa in 0..4 {
            for qb in 0..4 {
                if qa == qb {
                    continue;
                }
                check_against_embedding(&Gate::Cnot, &[qa, qb], 4, 4);
                check_against_embedding(&Gate::ISwap, &[qa, qb], 4, 5);
                check_against_embedding(&Gate::Rzz(0.3.into()), &[qa, qb], 4, 6);
            }
        }
    }

    #[test]
    fn three_qubit_kernels_match_embedding() {
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            check_against_embedding(&Gate::Ccx, &p, 4, 7);
            check_against_embedding(&Gate::Cswap, &p, 5, 8);
        }
    }

    #[test]
    fn sharded_path_matches_flat_reference() {
        // 16 qubits = 4 shards: exercises local, cross-pair, mixed, and
        // cross-quad shard cases against the flat pre-shard loops.
        //
        // Gates listed higher-qubit-first accumulate their 4-term rows in
        // the same column order as the legacy loops, so they must agree to
        // 0 ulp. Gates listed lower-qubit-first are permuted to positional
        // order (gate bit 1 = higher memory bit), which reorders the
        // addition chain — those agree to 1e-12 instead.
        let n = 16;
        let mut rng = StdRng::seed_from_u64(12);
        let amps = random_amps(&mut rng, n);
        let exact: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::H, vec![13]),
            (Gate::H, vec![14]),
            (Gate::H, vec![15]),
            (Gate::Cnot, vec![9, 3]),
            (Gate::ISwap, vec![14, 2]),
            (Gate::Rzz(0.3.into()), vec![15, 14]),
            (Gate::Cnot, vec![15, 0]),
        ];
        for (gate, qs) in exact {
            let u = gate.unitary().unwrap();
            let mut fast = amps.clone();
            apply_matrix(&mut fast, &u, &qs);
            let mut slow = amps.clone();
            reference_apply(&mut slow, &u, &qs);
            bit_eq(&fast, &slow);
        }
        let reordered: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::Cnot, vec![3, 9]),
            (Gate::ISwap, vec![2, 14]),
            (Gate::Rzz(0.3.into()), vec![14, 15]),
        ];
        for (gate, qs) in reordered {
            let u = gate.unitary().unwrap();
            let mut fast = amps.clone();
            apply_matrix(&mut fast, &u, &qs);
            let mut slow = amps.clone();
            reference_apply(&mut slow, &u, &qs);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn fused_passes_match_gate_by_gate_bitwise() {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(13);
        let amps = random_amps(&mut rng, n);
        let mut ops: Vec<(Matrix, Vec<usize>)> = Vec::new();
        for q in 0..n {
            ops.push((Gate::H.unitary().unwrap(), vec![q]));
        }
        for q in 0..n - 1 {
            ops.push((Gate::Rzz(0.3.into()).unitary().unwrap(), vec![q, q + 1]));
        }
        ops.push((Gate::Ccx.unitary().unwrap(), vec![15, 2, 7]));
        ops.push((Gate::ISwap.unitary().unwrap(), vec![1, 14]));

        let mut unfused = amps.clone();
        for (u, qs) in &ops {
            apply_matrix(&mut unfused, u, qs);
        }
        let mut fused = amps.clone();
        let refs: Vec<(&Matrix, &[usize])> = ops.iter().map(|(u, q)| (u, q.as_slice())).collect();
        apply_matrices(&mut fused, &refs);
        bit_eq(&fused, &unfused);
    }

    #[test]
    fn large_array_parallel_path_matches() {
        // exceed PAR_THRESHOLD to exercise the rayon branches
        let n = 16;
        let mut rng = StdRng::seed_from_u64(9);
        let amps = random_amps(&mut rng, n);
        let u = Gate::Cnot.unitary().unwrap();

        let mut fast = amps.clone();
        apply_matrix(&mut fast, &u, &[14, 3]);

        let mut seq = amps;
        reference_apply(&mut seq, &u, &[14, 3]);
        for (a, b) in fast.iter().zip(&seq) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn exactly_diagonal_gates_compile_to_diagonal_ops() {
        use bgls_circuit::Gate::*;
        let one = [I, Z, S, Sdg, T, Tdg, Rz(0.3.into()), ZPow(0.2.into())];
        let two = [Cz, CPhase(0.7.into()), Rzz(0.4.into())];
        let sb = SHARD_BITS;
        for g in one {
            for q in [0, sb - 1, sb + 1] {
                let op = compile_op(&g.unitary().unwrap(), &[q], sb).unwrap();
                assert!(matches!(op, ShardOp::Diag { .. }), "{} on {q}", g.name());
                assert_eq!(op.mask(), Mask::default());
            }
        }
        for g in two {
            for qs in [[1, 0], [0, sb + 1], [sb + 1, sb]] {
                let op = compile_op(&g.unitary().unwrap(), &qs, sb).unwrap();
                assert!(matches!(op, ShardOp::Diag { .. }), "{} on {qs:?}", g.name());
                assert_eq!(op.mask(), Mask::default());
            }
        }
        // X-type gates and near-diagonal matrices keep the dense kernel.
        for (u, qs) in [
            (Gate::H.unitary().unwrap(), vec![0]),
            (Gate::Cnot.unitary().unwrap(), vec![1, 0]),
        ] {
            assert!(!matches!(
                compile_op(&u, &qs, sb),
                Some(ShardOp::Diag { .. })
            ));
        }
        let mut near = Matrix::identity(2);
        near[(0, 1)] = C64::new(1e-200, 0.0); // |z| underflows to 0, z != 0
        assert!(!matches!(
            compile_op(&near, &[0], sb),
            Some(ShardOp::Diag { .. })
        ));
    }

    #[test]
    fn norm_tree_fold_matches_plain_sum() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [3usize, 10, 15, 16] {
            let amps = random_amps(&mut rng, n);
            let plain: f64 = amps.iter().map(|z| z.norm_sqr()).sum();
            let tree = norm_sqr(&amps);
            assert!(
                (plain - tree).abs() <= 1e-10 * plain.max(1.0),
                "n={n}: {plain} vs {tree}"
            );
        }
    }

    #[test]
    fn tree_fold_is_ascending_pairwise() {
        let parts = vec![1.0, 2.0, 4.0, 8.0, 16.0];
        // ((1+2) + (4+8)) fold with odd carry: level 1 -> [3, 12, 16],
        // level 2 -> [15, 16], level 3 -> 31.
        assert_eq!(tree_fold_f64(parts), 31.0);
        assert_eq!(tree_fold_f64(vec![]), 0.0);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut amps = random_amps(&mut rng, 6);
        let before = norm_sqr(&amps);
        apply_matrix(&mut amps, &Gate::H.unitary().unwrap(), &[3]);
        apply_matrix(&mut amps, &Gate::Ccx.unitary().unwrap(), &[5, 0, 2]);
        let after = norm_sqr(&amps);
        assert!((before - after).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubits_panic() {
        let mut amps = vec![C64::ONE; 4];
        apply_matrix(&mut amps, &Gate::Cnot.unitary().unwrap(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut amps = vec![C64::ONE; 4];
        apply_matrix(&mut amps, &Gate::X.unitary().unwrap(), &[2]);
    }
}
