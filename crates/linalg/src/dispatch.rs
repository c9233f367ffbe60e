//! Runtime-ISA-dispatched dense gate and reduction microkernels.
//!
//! The dense backends (state vector, vectorized density matrix) spend
//! essentially all of their time in five kernel shapes: 1q-gate butterflies,
//! 2q-gate 4-term updates, diagonal-gate phase multiplies, `|z|^2`
//! reductions, and Pauli-term sums ([`pauli_lanes`]: one product per
//! amplitude added under up to [`TERM_LANES`] sign patterns, one SIMD lane
//! per term). This module provides those kernels in SIMD form for AVX2,
//! AVX-512, and NEON (which runs the diagonal multiply and the term sums as
//! the scalar loop), plus a safe portable scalar path, and
//! selects an implementation **once at startup** via
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`. That replaces
//! the old `-C target-cpu=native` build flag: one shipped binary now runs the
//! wide kernels wherever the host supports them and falls back to the scalar
//! path everywhere else.
//!
//! # Determinism contract
//!
//! Every ISA path computes **bit-identical** results to the scalar path:
//!
//! * complex products are evaluated as
//!   `(w.re*a.re - w.im*a.im, w.re*a.im + w.im*a.re)` in every path; the SIMD
//!   form `a * splat(w.re) + swap(a) * [-w.im, +w.im]` is equal bit-for-bit
//!   because IEEE-754 multiplication is commutative, `x * (-y)` flips exactly
//!   the sign bit of `x * y`, and `x + (-y) == x - y`;
//! * no FMA contraction anywhere — products and sums stay separate ops;
//! * multi-term gate updates accumulate left-to-right in row order, the same
//!   association in every path;
//! * [`sum_norm_sqr`] folds through a fixed 8-lane accumulator layout
//!   (lane `j` takes elements `8i + j` of the `f64` view, the tail starts at
//!   lane 0, lanes fold in ascending order), so scalar, AVX2 (2×4 lanes),
//!   AVX-512 (1×8 lanes), and NEON (4×2 lanes) all perform the exact same
//!   additions in the exact same order;
//! * [`pauli_lanes`] gives each term its own lane, and each lane performs
//!   exactly the lone term's sequence: XOR the sign into the product's
//!   bits, add, in index order from `+0`. Lanes never mix, so the block
//!   width (8 scalar, 16 AVX2, 32 AVX-512 lanes; one lane for a lone term)
//!   and how a caller splits its terms into calls change no bit.
//!
//! This is what lets the sharded state-vector layer assert 0-ulp agreement
//! between forced-scalar and detected-SIMD runs, and lets CI force paths via
//! the `BGLS_ISA` environment variable without perturbing histograms.
//!
//! # Index convention
//!
//! Gate coefficient arrays are row-major (`u[row * dim + col]`). For the 2q
//! kernels, gate index bit 1 is the **higher** memory bit and bit 0 the
//! lower; callers with the opposite qubit order permute the 4×4 matrix before
//! calling (see `bgls-statevector`'s kernel layer).

use crate::C64;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set families the kernels can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar Rust — always available, the canonical semantics.
    Scalar,
    /// x86-64 AVX2 (4 `f64` lanes).
    Avx2,
    /// x86-64 AVX-512 F+VL (8 `f64` lanes; interleaved sub-kernels reuse the
    /// AVX2 forms).
    Avx512,
    /// AArch64 NEON (2 `f64` lanes).
    Neon,
}

impl Isa {
    /// Lower-case name, as accepted by the `BGLS_ISA` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }

    fn encode(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
            Isa::Avx512 => 3,
            Isa::Neon => 4,
        }
    }

    fn decode(v: u8) -> Isa {
        match v {
            2 => Isa::Avx2,
            3 => Isa::Avx512,
            4 => Isa::Neon,
            _ => Isa::Scalar,
        }
    }
}

/// The active ISA, encoded; 0 = not yet initialized.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Best ISA the running host supports, by runtime feature detection.
pub fn detected_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx2")
        {
            return Isa::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
    }
    Isa::Scalar
}

/// True when `isa` can run on this host (compiled in *and* detected).
pub fn isa_supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        Isa::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
        Isa::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        }
        Isa::Neon => {
            #[cfg(target_arch = "aarch64")]
            {
                std::arch::is_aarch64_feature_detected!("neon")
            }
            #[cfg(not(target_arch = "aarch64"))]
            {
                false
            }
        }
    }
}

/// The ISA the kernels currently dispatch to.
///
/// Resolved lazily on first use: the `BGLS_ISA` environment variable
/// (`scalar` | `avx2` | `avx512` | `neon`) wins when it names a supported
/// path, otherwise the best detected ISA is used. The choice is cached for
/// the life of the process; tests may override it via [`force_isa`].
pub fn active_isa() -> Isa {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != 0 {
        return Isa::decode(v);
    }
    let choice = std::env::var("BGLS_ISA")
        .ok()
        .and_then(|s| Isa::parse(&s))
        .filter(|&isa| isa_supported(isa))
        .unwrap_or_else(detected_isa);
    ACTIVE.store(choice.encode(), Ordering::Relaxed);
    choice
}

/// Forces the kernels onto `isa`, for tests and benchmarks.
///
/// Fails without changing the active path when the host cannot run `isa`.
/// Because every path is bit-identical, flipping the ISA mid-process never
/// changes numerical results — only throughput.
pub fn force_isa(isa: Isa) -> Result<(), String> {
    if !isa_supported(isa) {
        return Err(format!("ISA {} not supported on this host", isa.name()));
    }
    ACTIVE.store(isa.encode(), Ordering::Relaxed);
    Ok(())
}

/// Views a complex slice as its interleaved `[re, im, ..]` f64 storage.
#[inline]
fn as_f64(s: &[C64]) -> &[f64] {
    // SAFETY: C64 is #[repr(C)] { re: f64, im: f64 }, so a slice of n C64 is
    // layout-identical to a slice of 2n f64 with the same alignment.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), s.len() * 2) }
}

/// Mutable variant of [`as_f64`].
#[inline]
fn as_f64_mut(s: &mut [C64]) -> &mut [f64] {
    // SAFETY: as in `as_f64`.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len() * 2) }
}

macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {
        match active_isa() {
            Isa::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: active_isa() only returns Avx2/Avx512 when the host
            // supports the corresponding features.
            Isa::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: active_isa() only returns Neon when NEON is detected.
            Isa::Neon => unsafe { neon::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    };
}

/// Applies a 1q gate (`u = [u00, u01, u10, u11]`) to every amplitude pair
/// split by bit `q` of the index within `s`.
///
/// # Panics
/// Panics unless `s.len()` is a multiple of `2 << q`.
pub fn apply_1q_slice(s: &mut [C64], q: usize, u: &[C64; 4]) {
    assert_eq!(
        s.len() % (2usize << q),
        0,
        "slice not a multiple of 2^(q+1)"
    );
    dispatch!(apply_1q_slice(s, q, u))
}

/// Applies a 1q gate across two equal-length slices: `lo[i]`/`hi[i]` are the
/// bit-clear/bit-set halves of each amplitude pair.
///
/// # Panics
/// Panics unless `lo.len() == hi.len()`.
pub fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], u: &[C64; 4]) {
    assert_eq!(lo.len(), hi.len(), "pair halves differ in length");
    dispatch!(apply_1q_pair(lo, hi, u))
}

/// Applies a 2q gate (row-major 4×4 `u`; gate bit 1 = index bit `qh`, gate
/// bit 0 = index bit `ql`) within `s`.
///
/// # Panics
/// Panics unless `ql < qh` and `s.len()` is a multiple of `2 << qh`.
pub fn apply_2q_slice(s: &mut [C64], qh: usize, ql: usize, u: &[C64; 16]) {
    assert!(ql < qh, "2q kernel requires ql < qh");
    assert_eq!(
        s.len() % (2usize << qh),
        0,
        "slice not a multiple of 2^(qh+1)"
    );
    dispatch!(apply_2q_slice(s, qh, ql, u))
}

/// Applies a 2q gate whose high gate bit selects between two equal-length
/// slices (`lo` = bit clear, `hi` = bit set) and whose low gate bit is index
/// bit `ql` within each slice.
///
/// # Panics
/// Panics unless the slices match in length and that length is a multiple of
/// `2 << ql`.
pub fn apply_2q_pair(lo: &mut [C64], hi: &mut [C64], ql: usize, u: &[C64; 16]) {
    assert_eq!(lo.len(), hi.len(), "pair halves differ in length");
    assert_eq!(
        lo.len() % (2usize << ql),
        0,
        "slice not a multiple of 2^(ql+1)"
    );
    dispatch!(apply_2q_pair(lo, hi, ql, u))
}

/// Applies a 2q gate elementwise across four equal-length slices, one per
/// gate basis index (`a00` = both bits clear, `a01` = low bit set, `a10` =
/// high bit set, `a11` = both set).
///
/// # Panics
/// Panics unless all four slices have equal length.
pub fn apply_2q_quad(
    a00: &mut [C64],
    a01: &mut [C64],
    a10: &mut [C64],
    a11: &mut [C64],
    u: &[C64; 16],
) {
    assert!(
        a00.len() == a01.len() && a00.len() == a10.len() && a00.len() == a11.len(),
        "quad slices differ in length"
    );
    dispatch!(apply_2q_quad(a00, a01, a10, a11, u))
}

/// Applies a diagonal gate: `s[i] = d[g(i)] * s[i]`, where the gate index
/// `g(i)` has bit 1 set when `i & mh != 0` and bit 0 set when `i & ml != 0`.
///
/// Each mask is one index bit or 0 (a gate bit that is constant over the
/// slice — the caller folds its value into `d`), so one kernel covers 1q and
/// 2q diagonal gates at any bit position and a plain complex scale (`mh = ml
/// = 0`). Every product is the canonical `cmul(d[g], a)`, which is exactly
/// the one nonzero term of the dense kernels' row sum for a diagonal matrix.
///
/// # Panics
/// Panics unless each mask is 0 or a single bit, the two differ when both
/// are set, and `s.len()` is a multiple of twice the higher mask bit.
pub fn apply_diag(s: &mut [C64], mh: usize, ml: usize, d: &[C64; 4]) {
    assert!(
        mh.count_ones() <= 1 && ml.count_ones() <= 1,
        "diagonal masks must be single bits or 0"
    );
    assert!(mh & ml == 0, "diagonal masks must differ");
    assert_eq!(
        s.len() % (mh.max(ml) << 1).max(1),
        0,
        "slice not a multiple of twice the highest mask bit"
    );
    if s.is_empty() {
        return;
    }
    dispatch!(apply_diag(s, mh, ml, d))
}

/// Gate index of amplitude `i` under the [`apply_diag`] masks.
#[inline(always)]
fn diag_index(i: usize, mh: usize, ml: usize) -> usize {
    (((i & mh != 0) as usize) << 1) | ((i & ml != 0) as usize)
}

/// Length of the runs over which [`apply_diag`]'s per-lane coefficients are
/// constant for a `w`-complex vector: up to the lowest mask bit at or above
/// the vector width (bits below it vary inside each vector), or the whole
/// slice when there is none. The slice length is a multiple of the run.
#[inline(always)]
fn diag_run(len: usize, mh: usize, ml: usize, w: usize) -> usize {
    let outer = (mh | ml) & !(w - 1);
    if outer == 0 {
        len
    } else {
        len.min(outer & outer.wrapping_neg())
    }
}

/// Sum of `|z|^2` over the slice through the canonical 8-lane accumulator
/// (see the module docs) — bit-identical on every ISA path.
pub fn sum_norm_sqr(s: &[C64]) -> f64 {
    dispatch!(sum_norm_sqr(s))
}

/// Scales every amplitude by a real factor.
pub fn scale(s: &mut [C64], k: f64) {
    dispatch!(scale(s, k))
}

/// Pauli terms one [`pauli_lanes`] call sums, one accumulator lane each.
pub const TERM_LANES: usize = 32;

/// One `f64` sign bit (bit 63) per term lane.
pub type LaneSigns = [u64; TERM_LANES];

/// Per-lane `(real, imaginary)` sums returned by [`pauli_lanes`].
pub type LaneSums = ([f64; TERM_LANES], [f64; TERM_LANES]);

/// Sums one shared product per amplitude under each of up to
/// [`TERM_LANES`] sign patterns, one lane per Pauli term: lane `t` is
/// `sum_i (-1)^{s_t(i)} p(i)`, added in index order from `+0`.
///
/// * `partner = None`: `p(i) = |a[i]|^2` (the X-mask-0, diagonal case;
///   the imaginary sums are `+0`).
/// * `partner = Some((b, xl))`: `p(i) = conj(b[i ^ xl]) * a[i]`.
///
/// The sign bit (bit 63) `s_t(i)` is `sign[t]` at `i = 0`, and the step to
/// index `i` XORs in `flips[i.trailing_zeros()][t]`. Applying it is an
/// XOR of the product's bits, so each lane's add sequence is exactly a
/// lone term's scalar loop, on every ISA path and for every block split
/// of the terms: the sums are bit-identical to one call per term. Only
/// the first `terms` lanes are summed; the rest are returned as `0.0`.
///
/// # Panics
/// Panics unless `1 <= terms <= TERM_LANES`, `a.len() <= 2^flips.len()`,
/// and, with a partner, `b.len() == a.len()` is a power of two above
/// `xl`.
pub fn pauli_lanes(
    a: &[C64],
    partner: Option<(&[C64], usize)>,
    terms: usize,
    sign: &LaneSigns,
    flips: &[LaneSigns],
) -> LaneSums {
    assert!(
        (1..=TERM_LANES).contains(&terms),
        "1 to {TERM_LANES} terms per call"
    );
    assert!(
        flips.len() >= usize::BITS as usize || a.len() <= 1usize << flips.len(),
        "flip table shorter than the index walk"
    );
    if let Some((b, xl)) = partner {
        assert_eq!(b.len(), a.len(), "partner slice differs in length");
        assert!(
            a.is_empty() || (a.len().is_power_of_two() && xl < a.len()),
            "partner offset outside a power-of-two slice"
        );
    }
    let mut out = ([0.0; TERM_LANES], [0.0; TERM_LANES]);
    if a.is_empty() {
        return out;
    }
    let walk = LaneWalk {
        a,
        partner,
        sign,
        flips,
    };
    dispatch!(pauli_lanes(&walk, terms, &mut out));
    out
}

/// The inputs of one [`pauli_lanes`] call, shared by every lane block.
struct LaneWalk<'a> {
    a: &'a [C64],
    partner: Option<(&'a [C64], usize)>,
    sign: &'a LaneSigns,
    flips: &'a [LaneSigns],
}

impl LaneWalk<'_> {
    /// Runs `terms` lanes as blocks of `W` (a power of two dividing
    /// [`TERM_LANES`]; one ISA's register budget): a lone term as a
    /// one-lane block, up to 8 terms as one 8-lane block. Inlined into
    /// each ISA's `#[target_feature]` function, so the compiler
    /// vectorizes the lane loops at that ISA's width.
    #[inline(always)]
    fn run<const W: usize>(&self, terms: usize, out: &mut LaneSums) {
        if terms == 1 {
            self.block::<1>(0, terms, out);
        } else if terms <= 8 {
            self.block::<8>(0, terms, out);
        } else {
            for off in (0..terms).step_by(W) {
                self.block::<W>(off, terms, out);
            }
        }
    }

    /// Lanes `off..off + N` in registers, for the diagonal or the
    /// partnered product.
    #[inline(always)]
    fn block<const N: usize>(&self, off: usize, terms: usize, out: &mut LaneSums) {
        let (re, im) = match self.partner {
            None => self.walk::<N, true>(off, |i| (self.a[i].norm_sqr().to_bits(), 0)),
            Some((b, xl)) => self.walk::<N, false>(off, |i| {
                let t = b[i ^ xl].conj() * self.a[i];
                (t.re.to_bits(), t.im.to_bits())
            }),
        };
        let used = N.min(terms - off);
        out.0[off..off + used].copy_from_slice(&re[..used]);
        out.1[off..off + used].copy_from_slice(&im[..used]);
    }

    /// The index walk for lanes `off..off + N`: the signs, and the real
    /// (plus, unless `DIAG`, imaginary) sums, live in `N`-lane arrays the
    /// compiler keeps in vector registers.
    #[inline(always)]
    fn walk<const N: usize, const DIAG: bool>(
        &self,
        off: usize,
        product: impl Fn(usize) -> (u64, u64),
    ) -> ([f64; N], [f64; N]) {
        // Bounds every lane slice below once, outside the walk.
        assert!(off + N <= TERM_LANES);
        let mut s: [u64; N] = self.sign[off..off + N].try_into().unwrap();
        let mut re = [0.0f64; N];
        let mut im = [0.0f64; N];
        let mut add = |s: &[u64; N], (tr, ti): (u64, u64)| {
            for j in 0..N {
                re[j] += f64::from_bits(tr ^ s[j]);
            }
            if !DIAG {
                for j in 0..N {
                    im[j] += f64::from_bits(ti ^ s[j]);
                }
            }
        };
        add(&s, product(0));
        for i in 1..self.a.len() {
            let f = &self.flips[i.trailing_zeros() as usize][off..off + N];
            for j in 0..N {
                s[j] ^= f[j];
            }
            add(&s, product(i));
        }
        (re, im)
    }
}

/// Canonical portable kernels. Every SIMD module below must match these
/// bit-for-bit; the unit tests enforce it on whatever the host detects.
mod scalar {
    use super::{as_f64, as_f64_mut, LaneSums, LaneWalk, C64};

    /// The one complex-product form every path shares:
    /// `(w.re*a.re - w.im*a.im, w.re*a.im + w.im*a.re)`.
    #[inline(always)]
    fn cmul(w: C64, a: C64) -> C64 {
        C64::new(w.re * a.re - w.im * a.im, w.re * a.im + w.im * a.re)
    }

    pub(super) fn apply_1q_slice(s: &mut [C64], q: usize, u: &[C64; 4]) {
        let m = 1usize << q;
        for chunk in s.chunks_exact_mut(m << 1) {
            let (lo, hi) = chunk.split_at_mut(m);
            apply_1q_pair(lo, hi, u);
        }
    }

    pub(super) fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], u: &[C64; 4]) {
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let a0 = *a;
            let a1 = *b;
            *a = cmul(u[0], a0) + cmul(u[1], a1);
            *b = cmul(u[2], a0) + cmul(u[3], a1);
        }
    }

    pub(super) fn apply_2q_slice(s: &mut [C64], qh: usize, ql: usize, u: &[C64; 16]) {
        let mh = 1usize << qh;
        for chunk in s.chunks_exact_mut(mh << 1) {
            let (lo, hi) = chunk.split_at_mut(mh);
            apply_2q_pair(lo, hi, ql, u);
        }
    }

    pub(super) fn apply_2q_pair(lo: &mut [C64], hi: &mut [C64], ql: usize, u: &[C64; 16]) {
        let ml = 1usize << ql;
        for (clo, chi) in lo
            .chunks_exact_mut(ml << 1)
            .zip(hi.chunks_exact_mut(ml << 1))
        {
            let (a00, a01) = clo.split_at_mut(ml);
            let (a10, a11) = chi.split_at_mut(ml);
            apply_2q_quad(a00, a01, a10, a11, u);
        }
    }

    pub(super) fn apply_2q_quad(
        a00: &mut [C64],
        a01: &mut [C64],
        a10: &mut [C64],
        a11: &mut [C64],
        u: &[C64; 16],
    ) {
        for i in 0..a00.len() {
            let x00 = a00[i];
            let x01 = a01[i];
            let x10 = a10[i];
            let x11 = a11[i];
            a00[i] = cmul(u[0], x00) + cmul(u[1], x01) + cmul(u[2], x10) + cmul(u[3], x11);
            a01[i] = cmul(u[4], x00) + cmul(u[5], x01) + cmul(u[6], x10) + cmul(u[7], x11);
            a10[i] = cmul(u[8], x00) + cmul(u[9], x01) + cmul(u[10], x10) + cmul(u[11], x11);
            a11[i] = cmul(u[12], x00) + cmul(u[13], x01) + cmul(u[14], x10) + cmul(u[15], x11);
        }
    }

    pub(super) fn apply_diag(s: &mut [C64], mh: usize, ml: usize, d: &[C64; 4]) {
        for (i, a) in s.iter_mut().enumerate() {
            *a = cmul(d[super::diag_index(i, mh, ml)], *a);
        }
    }

    /// Shared accumulator epilogue: fold tail elements into the lanes
    /// starting at lane 0, then fold lanes in ascending order.
    #[inline(always)]
    pub(super) fn finish_norm(mut acc: [f64; 8], tail: &[f64]) -> f64 {
        for (j, &x) in tail.iter().enumerate() {
            acc[j] += x * x;
        }
        let mut total = acc[0];
        for lane in &acc[1..] {
            total += *lane;
        }
        total
    }

    pub(super) fn sum_norm_sqr(s: &[C64]) -> f64 {
        let f = as_f64(s);
        let mut acc = [0.0f64; 8];
        let mut chunks = f.chunks_exact(8);
        for ch in &mut chunks {
            for j in 0..8 {
                acc[j] += ch[j] * ch[j];
            }
        }
        finish_norm(acc, chunks.remainder())
    }

    pub(super) fn scale(s: &mut [C64], k: f64) {
        for x in as_f64_mut(s) {
            *x *= k;
        }
    }

    /// Blocks of 8 lanes: the widest whose signs and sums fit the 16
    /// baseline registers.
    pub(super) fn pauli_lanes(walk: &LaneWalk, terms: usize, out: &mut LaneSums) {
        walk.run::<8>(terms, out)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{as_f64, as_f64_mut, scalar, LaneSums, LaneWalk, C64};
    use std::arch::x86_64::*;

    /// Broadcast pair for one gate coefficient: `(splat(w.re),
    /// [-w.im, +w.im, -w.im, +w.im])`. With [`cmul2`] this evaluates the
    /// canonical complex product on two packed complexes at once.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn coeff(w: C64) -> (__m256d, __m256d) {
        (
            _mm256_set1_pd(w.re),
            _mm256_set_pd(w.im, -w.im, w.im, -w.im),
        )
    }

    /// Per-128-bit-lane coefficients: low lane applies `wl`, high lane `wh`.
    /// Used by the interleaved (q = 0) kernel where the two gate rows live in
    /// one vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn coeff2(wl: C64, wh: C64) -> (__m256d, __m256d) {
        (
            _mm256_set_pd(wh.re, wh.re, wl.re, wl.re),
            _mm256_set_pd(wh.im, -wh.im, wl.im, -wl.im),
        )
    }

    /// Canonical complex product of coefficient `(wre, wim)` with two packed
    /// complexes: `a * wre + swap(a) * wim`. No FMA — see the module-level
    /// determinism contract.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn cmul2(a: __m256d, w: (__m256d, __m256d)) -> __m256d {
        _mm256_add_pd(
            _mm256_mul_pd(a, w.0),
            _mm256_mul_pd(_mm256_permute_pd(a, 0b0101), w.1),
        )
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], u: &[C64; 4]) {
        let (w00, w01, w10, w11) = (coeff(u[0]), coeff(u[1]), coeff(u[2]), coeff(u[3]));
        let n = lo.len();
        let vec_n = n & !1; // two complexes per vector
        let (lof, hif) = (as_f64_mut(lo), as_f64_mut(hi));
        let mut i = 0;
        while i < vec_n * 2 {
            // SAFETY: i + 4 <= 2 * n, unaligned loads/stores.
            unsafe {
                let a0 = _mm256_loadu_pd(lof.as_ptr().add(i));
                let a1 = _mm256_loadu_pd(hif.as_ptr().add(i));
                let r0 = _mm256_add_pd(cmul2(a0, w00), cmul2(a1, w01));
                let r1 = _mm256_add_pd(cmul2(a0, w10), cmul2(a1, w11));
                _mm256_storeu_pd(lof.as_mut_ptr().add(i), r0);
                _mm256_storeu_pd(hif.as_mut_ptr().add(i), r1);
            }
            i += 4;
        }
        if vec_n < n {
            scalar::apply_1q_pair(&mut lo[vec_n..], &mut hi[vec_n..], u);
        }
    }

    /// Interleaved q = 0 form: each vector holds one `[a0, a1]` pair.
    #[target_feature(enable = "avx2")]
    fn apply_1q_interleaved(s: &mut [C64], u: &[C64; 4]) {
        let wa = coeff2(u[0], u[2]); // column 0, rows (0, 1)
        let wb = coeff2(u[1], u[3]); // column 1, rows (0, 1)
        let f = as_f64_mut(s);
        let mut i = 0;
        while i < f.len() {
            // SAFETY: s.len() is even (pairs), so i + 4 <= f.len().
            unsafe {
                let v = _mm256_loadu_pd(f.as_ptr().add(i));
                let a0 = _mm256_permute2f128_pd(v, v, 0x00);
                let a1 = _mm256_permute2f128_pd(v, v, 0x11);
                let r = _mm256_add_pd(cmul2(a0, wa), cmul2(a1, wb));
                _mm256_storeu_pd(f.as_mut_ptr().add(i), r);
            }
            i += 4;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn apply_1q_slice(s: &mut [C64], q: usize, u: &[C64; 4]) {
        if q == 0 {
            apply_1q_interleaved(s, u);
            return;
        }
        let m = 1usize << q;
        for chunk in s.chunks_exact_mut(m << 1) {
            let (lo, hi) = chunk.split_at_mut(m);
            apply_1q_pair(lo, hi, u);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn apply_2q_quad(
        a00: &mut [C64],
        a01: &mut [C64],
        a10: &mut [C64],
        a11: &mut [C64],
        u: &[C64; 16],
    ) {
        let mut w = [(_mm256_setzero_pd(), _mm256_setzero_pd()); 16];
        for (wi, &c) in w.iter_mut().zip(u.iter()) {
            *wi = coeff(c);
        }
        let n = a00.len();
        let vec_n = n & !1;
        let mut i = 0;
        while i < vec_n * 2 {
            // SAFETY: i + 4 <= 2 * n on all four equal-length streams.
            unsafe {
                let p00 = as_f64_mut(a00).as_mut_ptr().add(i);
                let p01 = as_f64_mut(a01).as_mut_ptr().add(i);
                let p10 = as_f64_mut(a10).as_mut_ptr().add(i);
                let p11 = as_f64_mut(a11).as_mut_ptr().add(i);
                let x00 = _mm256_loadu_pd(p00);
                let x01 = _mm256_loadu_pd(p01);
                let x10 = _mm256_loadu_pd(p10);
                let x11 = _mm256_loadu_pd(p11);
                let mut r0 = cmul2(x00, w[0]);
                r0 = _mm256_add_pd(r0, cmul2(x01, w[1]));
                r0 = _mm256_add_pd(r0, cmul2(x10, w[2]));
                r0 = _mm256_add_pd(r0, cmul2(x11, w[3]));
                let mut r1 = cmul2(x00, w[4]);
                r1 = _mm256_add_pd(r1, cmul2(x01, w[5]));
                r1 = _mm256_add_pd(r1, cmul2(x10, w[6]));
                r1 = _mm256_add_pd(r1, cmul2(x11, w[7]));
                let mut r2 = cmul2(x00, w[8]);
                r2 = _mm256_add_pd(r2, cmul2(x01, w[9]));
                r2 = _mm256_add_pd(r2, cmul2(x10, w[10]));
                r2 = _mm256_add_pd(r2, cmul2(x11, w[11]));
                let mut r3 = cmul2(x00, w[12]);
                r3 = _mm256_add_pd(r3, cmul2(x01, w[13]));
                r3 = _mm256_add_pd(r3, cmul2(x10, w[14]));
                r3 = _mm256_add_pd(r3, cmul2(x11, w[15]));
                _mm256_storeu_pd(p00, r0);
                _mm256_storeu_pd(p01, r1);
                _mm256_storeu_pd(p10, r2);
                _mm256_storeu_pd(p11, r3);
            }
            i += 4;
        }
        if vec_n < n {
            scalar::apply_2q_quad(
                &mut a00[vec_n..],
                &mut a01[vec_n..],
                &mut a10[vec_n..],
                &mut a11[vec_n..],
                u,
            );
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn apply_2q_pair(lo: &mut [C64], hi: &mut [C64], ql: usize, u: &[C64; 16]) {
        if ql == 0 {
            // Interleaved low bit — rare in the sharded layout; the scalar
            // form is bit-identical by contract.
            scalar::apply_2q_pair(lo, hi, ql, u);
            return;
        }
        let ml = 1usize << ql;
        for (clo, chi) in lo
            .chunks_exact_mut(ml << 1)
            .zip(hi.chunks_exact_mut(ml << 1))
        {
            let (a00, a01) = clo.split_at_mut(ml);
            let (a10, a11) = chi.split_at_mut(ml);
            apply_2q_quad(a00, a01, a10, a11, u);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn apply_2q_slice(s: &mut [C64], qh: usize, ql: usize, u: &[C64; 16]) {
        let mh = 1usize << qh;
        for chunk in s.chunks_exact_mut(mh << 1) {
            let (lo, hi) = chunk.split_at_mut(mh);
            apply_2q_pair(lo, hi, ql, u);
        }
    }

    /// Two vectors (four complexes) per step, so lane bits 0 and 1 may both
    /// be mask bits and each step loads its coefficients once.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply_diag(s: &mut [C64], mh: usize, ml: usize, d: &[C64; 4]) {
        let run = super::diag_run(s.len(), mh, ml, 4);
        if !run.is_multiple_of(4) {
            scalar::apply_diag(s, mh, ml, d);
            return;
        }
        // Per run-level gate index: coefficients of the two vectors' lanes.
        let lane = |j: usize| super::diag_index(j, mh, ml);
        let mut w = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 2]; 4];
        for (g, wg) in w.iter_mut().enumerate() {
            for (k, wk) in wg.iter_mut().enumerate() {
                *wk = coeff2(d[g | lane(2 * k)], d[g | lane(2 * k + 1)]);
            }
        }
        for (r, chunk) in s.chunks_exact_mut(run).enumerate() {
            let [w0, w1] = w[super::diag_index(r * run, mh, ml)];
            let f = as_f64_mut(chunk);
            let mut i = 0;
            while i < f.len() {
                // SAFETY: the run is a multiple of 4, so i + 8 <= f.len().
                unsafe {
                    let p = f.as_mut_ptr().add(i);
                    let a0 = _mm256_loadu_pd(p);
                    let a1 = _mm256_loadu_pd(p.add(4));
                    _mm256_storeu_pd(p, cmul2(a0, w0));
                    _mm256_storeu_pd(p.add(4), cmul2(a1, w1));
                }
                i += 8;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sum_norm_sqr(s: &[C64]) -> f64 {
        let f = as_f64(s);
        let n8 = f.len() & !7;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= f.len().
            unsafe {
                let v0 = _mm256_loadu_pd(f.as_ptr().add(i));
                let v1 = _mm256_loadu_pd(f.as_ptr().add(i + 4));
                acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(v0, v0));
                acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(v1, v1));
            }
            i += 8;
        }
        let mut acc = [0.0f64; 8];
        // SAFETY: 4-lane stores into an 8-element array.
        unsafe {
            _mm256_storeu_pd(acc.as_mut_ptr(), acc_lo);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), acc_hi);
        }
        scalar::finish_norm(acc, &f[n8..])
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn scale(s: &mut [C64], k: f64) {
        let f = as_f64_mut(s);
        let kv = _mm256_set1_pd(k);
        let n4 = f.len() & !3;
        let mut i = 0;
        while i < n4 {
            // SAFETY: i + 4 <= f.len().
            unsafe {
                let v = _mm256_loadu_pd(f.as_ptr().add(i));
                _mm256_storeu_pd(f.as_mut_ptr().add(i), _mm256_mul_pd(v, kv));
            }
            i += 4;
        }
        for x in &mut f[n4..] {
            *x *= k;
        }
    }

    /// Blocks of 16 lanes: 4 vectors each of signs, real and imaginary
    /// sums stay in the 16 `ymm` registers.
    #[target_feature(enable = "avx2")]
    pub(super) fn pauli_lanes(walk: &LaneWalk, terms: usize, out: &mut LaneSums) {
        walk.run::<16>(terms, out)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{as_f64, as_f64_mut, avx2, scalar, LaneSums, LaneWalk, C64};
    use std::arch::x86_64::*;

    /// 512-bit coefficient pair — four packed complexes per vector.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn coeff(w: C64) -> (__m512d, __m512d) {
        (
            _mm512_set1_pd(w.re),
            _mm512_set_pd(w.im, -w.im, w.im, -w.im, w.im, -w.im, w.im, -w.im),
        )
    }

    /// Canonical complex product on four packed complexes; `swap` is the
    /// in-pair re/im exchange.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn cmul4(a: __m512d, w: (__m512d, __m512d)) -> __m512d {
        _mm512_add_pd(
            _mm512_mul_pd(a, w.0),
            _mm512_mul_pd(_mm512_permute_pd(a, 0b01010101), w.1),
        )
    }

    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], u: &[C64; 4]) {
        let (w00, w01, w10, w11) = (coeff(u[0]), coeff(u[1]), coeff(u[2]), coeff(u[3]));
        let n = lo.len();
        let vec_n = n & !3; // four complexes per vector
        let (lof, hif) = (as_f64_mut(lo), as_f64_mut(hi));
        let mut i = 0;
        while i < vec_n * 2 {
            // SAFETY: i + 8 <= 2 * n.
            unsafe {
                let a0 = _mm512_loadu_pd(lof.as_ptr().add(i));
                let a1 = _mm512_loadu_pd(hif.as_ptr().add(i));
                let r0 = _mm512_add_pd(cmul4(a0, w00), cmul4(a1, w01));
                let r1 = _mm512_add_pd(cmul4(a0, w10), cmul4(a1, w11));
                _mm512_storeu_pd(lof.as_mut_ptr().add(i), r0);
                _mm512_storeu_pd(hif.as_mut_ptr().add(i), r1);
            }
            i += 8;
        }
        if vec_n < n {
            avx2::apply_1q_pair(&mut lo[vec_n..], &mut hi[vec_n..], u);
        }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_1q_slice(s: &mut [C64], q: usize, u: &[C64; 4]) {
        if q < 2 {
            // Stride below one 512-bit vector — the AVX2 forms handle the
            // interleaved and two-wide cases.
            avx2::apply_1q_slice(s, q, u);
            return;
        }
        let m = 1usize << q;
        for chunk in s.chunks_exact_mut(m << 1) {
            let (lo, hi) = chunk.split_at_mut(m);
            apply_1q_pair(lo, hi, u);
        }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_2q_quad(
        a00: &mut [C64],
        a01: &mut [C64],
        a10: &mut [C64],
        a11: &mut [C64],
        u: &[C64; 16],
    ) {
        let mut w = [(_mm512_setzero_pd(), _mm512_setzero_pd()); 16];
        for (wi, &c) in w.iter_mut().zip(u.iter()) {
            *wi = coeff(c);
        }
        let n = a00.len();
        let vec_n = n & !3;
        let mut i = 0;
        while i < vec_n * 2 {
            // SAFETY: i + 8 <= 2 * n on all four equal-length streams.
            unsafe {
                let p00 = as_f64_mut(a00).as_mut_ptr().add(i);
                let p01 = as_f64_mut(a01).as_mut_ptr().add(i);
                let p10 = as_f64_mut(a10).as_mut_ptr().add(i);
                let p11 = as_f64_mut(a11).as_mut_ptr().add(i);
                let x00 = _mm512_loadu_pd(p00);
                let x01 = _mm512_loadu_pd(p01);
                let x10 = _mm512_loadu_pd(p10);
                let x11 = _mm512_loadu_pd(p11);
                let mut r0 = cmul4(x00, w[0]);
                r0 = _mm512_add_pd(r0, cmul4(x01, w[1]));
                r0 = _mm512_add_pd(r0, cmul4(x10, w[2]));
                r0 = _mm512_add_pd(r0, cmul4(x11, w[3]));
                let mut r1 = cmul4(x00, w[4]);
                r1 = _mm512_add_pd(r1, cmul4(x01, w[5]));
                r1 = _mm512_add_pd(r1, cmul4(x10, w[6]));
                r1 = _mm512_add_pd(r1, cmul4(x11, w[7]));
                let mut r2 = cmul4(x00, w[8]);
                r2 = _mm512_add_pd(r2, cmul4(x01, w[9]));
                r2 = _mm512_add_pd(r2, cmul4(x10, w[10]));
                r2 = _mm512_add_pd(r2, cmul4(x11, w[11]));
                let mut r3 = cmul4(x00, w[12]);
                r3 = _mm512_add_pd(r3, cmul4(x01, w[13]));
                r3 = _mm512_add_pd(r3, cmul4(x10, w[14]));
                r3 = _mm512_add_pd(r3, cmul4(x11, w[15]));
                _mm512_storeu_pd(p00, r0);
                _mm512_storeu_pd(p01, r1);
                _mm512_storeu_pd(p10, r2);
                _mm512_storeu_pd(p11, r3);
            }
            i += 8;
        }
        if vec_n < n {
            avx2::apply_2q_quad(
                &mut a00[vec_n..],
                &mut a01[vec_n..],
                &mut a10[vec_n..],
                &mut a11[vec_n..],
                u,
            );
        }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_2q_pair(lo: &mut [C64], hi: &mut [C64], ql: usize, u: &[C64; 16]) {
        if ql == 0 {
            scalar::apply_2q_pair(lo, hi, ql, u);
            return;
        }
        let ml = 1usize << ql;
        for (clo, chi) in lo
            .chunks_exact_mut(ml << 1)
            .zip(hi.chunks_exact_mut(ml << 1))
        {
            let (a00, a01) = clo.split_at_mut(ml);
            let (a10, a11) = chi.split_at_mut(ml);
            apply_2q_quad(a00, a01, a10, a11, u);
        }
    }

    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_2q_slice(s: &mut [C64], qh: usize, ql: usize, u: &[C64; 16]) {
        let mh = 1usize << qh;
        for chunk in s.chunks_exact_mut(mh << 1) {
            let (lo, hi) = chunk.split_at_mut(mh);
            apply_2q_pair(lo, hi, ql, u);
        }
    }

    /// Two vectors (eight complexes) per step, so lane bits 0-2 may be mask
    /// bits and each step loads its coefficients once.
    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn apply_diag(s: &mut [C64], mh: usize, ml: usize, d: &[C64; 4]) {
        let run = super::diag_run(s.len(), mh, ml, 8);
        if !run.is_multiple_of(8) {
            avx2::apply_diag(s, mh, ml, d);
            return;
        }
        // Per run-level gate index: coefficients of the two vectors' lanes.
        let lane = |j: usize| super::diag_index(j, mh, ml);
        let mut w = [[(_mm512_setzero_pd(), _mm512_setzero_pd()); 2]; 4];
        for (g, wg) in w.iter_mut().enumerate() {
            for (k, wk) in wg.iter_mut().enumerate() {
                let c = |j: usize| d[g | lane(4 * k + j)];
                let (c0, c1, c2, c3) = (c(0), c(1), c(2), c(3));
                *wk = (
                    _mm512_set_pd(c3.re, c3.re, c2.re, c2.re, c1.re, c1.re, c0.re, c0.re),
                    _mm512_set_pd(c3.im, -c3.im, c2.im, -c2.im, c1.im, -c1.im, c0.im, -c0.im),
                );
            }
        }
        for (r, chunk) in s.chunks_exact_mut(run).enumerate() {
            let [w0, w1] = w[super::diag_index(r * run, mh, ml)];
            let f = as_f64_mut(chunk);
            let mut i = 0;
            while i < f.len() {
                // SAFETY: the run is a multiple of 8, so i + 16 <= f.len().
                unsafe {
                    let p = f.as_mut_ptr().add(i);
                    let a0 = _mm512_loadu_pd(p);
                    let a1 = _mm512_loadu_pd(p.add(8));
                    _mm512_storeu_pd(p, cmul4(a0, w0));
                    _mm512_storeu_pd(p.add(8), cmul4(a1, w1));
                }
                i += 16;
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn sum_norm_sqr(s: &[C64]) -> f64 {
        let f = as_f64(s);
        let n8 = f.len() & !7;
        let mut accv = _mm512_setzero_pd();
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= f.len().
            unsafe {
                let v = _mm512_loadu_pd(f.as_ptr().add(i));
                accv = _mm512_add_pd(accv, _mm512_mul_pd(v, v));
            }
            i += 8;
        }
        let mut acc = [0.0f64; 8];
        // SAFETY: 8-lane store into an 8-element array.
        unsafe {
            _mm512_storeu_pd(acc.as_mut_ptr(), accv);
        }
        scalar::finish_norm(acc, &f[n8..])
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn scale(s: &mut [C64], k: f64) {
        let f = as_f64_mut(s);
        let kv = _mm512_set1_pd(k);
        let n8 = f.len() & !7;
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= f.len().
            unsafe {
                let v = _mm512_loadu_pd(f.as_ptr().add(i));
                _mm512_storeu_pd(f.as_mut_ptr().add(i), _mm512_mul_pd(v, kv));
            }
            i += 8;
        }
        for x in &mut f[n8..] {
            *x *= k;
        }
    }

    /// Blocks of all 32 lanes: 4 vectors each of signs, real and
    /// imaginary sums use 12 of the 32 `zmm` registers.
    #[target_feature(enable = "avx512f,avx512vl,avx2")]
    pub(super) fn pauli_lanes(walk: &LaneWalk, terms: usize, out: &mut LaneSums) {
        walk.run::<32>(terms, out)
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{as_f64, as_f64_mut, scalar, LaneSums, LaneWalk, C64};
    use std::arch::aarch64::*;

    /// Coefficient pair: one complex per 128-bit vector.
    #[target_feature(enable = "neon")]
    #[inline]
    fn coeff(w: C64) -> (float64x2_t, float64x2_t) {
        let re = [w.re, w.re];
        let im = [-w.im, w.im];
        // SAFETY: loads from properly sized stack arrays.
        unsafe { (vld1q_f64(re.as_ptr()), vld1q_f64(im.as_ptr())) }
    }

    /// Canonical complex product on one packed complex.
    #[target_feature(enable = "neon")]
    #[inline]
    fn cmul1(a: float64x2_t, w: (float64x2_t, float64x2_t)) -> float64x2_t {
        vaddq_f64(vmulq_f64(a, w.0), vmulq_f64(vextq_f64(a, a, 1), w.1))
    }

    #[target_feature(enable = "neon")]
    pub(super) fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], u: &[C64; 4]) {
        let (w00, w01, w10, w11) = (coeff(u[0]), coeff(u[1]), coeff(u[2]), coeff(u[3]));
        let n2 = lo.len() * 2;
        let (lof, hif) = (as_f64_mut(lo), as_f64_mut(hi));
        let mut i = 0;
        while i < n2 {
            // SAFETY: i + 2 <= 2 * n; one complex per vector.
            unsafe {
                let a0 = vld1q_f64(lof.as_ptr().add(i));
                let a1 = vld1q_f64(hif.as_ptr().add(i));
                let r0 = vaddq_f64(cmul1(a0, w00), cmul1(a1, w01));
                let r1 = vaddq_f64(cmul1(a0, w10), cmul1(a1, w11));
                vst1q_f64(lof.as_mut_ptr().add(i), r0);
                vst1q_f64(hif.as_mut_ptr().add(i), r1);
            }
            i += 2;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn apply_1q_slice(s: &mut [C64], q: usize, u: &[C64; 4]) {
        let m = 1usize << q;
        for chunk in s.chunks_exact_mut(m << 1) {
            let (lo, hi) = chunk.split_at_mut(m);
            apply_1q_pair(lo, hi, u);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn apply_2q_quad(
        a00: &mut [C64],
        a01: &mut [C64],
        a10: &mut [C64],
        a11: &mut [C64],
        u: &[C64; 16],
    ) {
        let mut w = [(vdupq_n_f64(0.0), vdupq_n_f64(0.0)); 16];
        for (wi, &c) in w.iter_mut().zip(u.iter()) {
            *wi = coeff(c);
        }
        let n2 = a00.len() * 2;
        let mut i = 0;
        while i < n2 {
            // SAFETY: i + 2 <= 2 * n on all four equal-length streams.
            unsafe {
                let p00 = as_f64_mut(a00).as_mut_ptr().add(i);
                let p01 = as_f64_mut(a01).as_mut_ptr().add(i);
                let p10 = as_f64_mut(a10).as_mut_ptr().add(i);
                let p11 = as_f64_mut(a11).as_mut_ptr().add(i);
                let x00 = vld1q_f64(p00);
                let x01 = vld1q_f64(p01);
                let x10 = vld1q_f64(p10);
                let x11 = vld1q_f64(p11);
                let mut r0 = cmul1(x00, w[0]);
                r0 = vaddq_f64(r0, cmul1(x01, w[1]));
                r0 = vaddq_f64(r0, cmul1(x10, w[2]));
                r0 = vaddq_f64(r0, cmul1(x11, w[3]));
                let mut r1 = cmul1(x00, w[4]);
                r1 = vaddq_f64(r1, cmul1(x01, w[5]));
                r1 = vaddq_f64(r1, cmul1(x10, w[6]));
                r1 = vaddq_f64(r1, cmul1(x11, w[7]));
                let mut r2 = cmul1(x00, w[8]);
                r2 = vaddq_f64(r2, cmul1(x01, w[9]));
                r2 = vaddq_f64(r2, cmul1(x10, w[10]));
                r2 = vaddq_f64(r2, cmul1(x11, w[11]));
                let mut r3 = cmul1(x00, w[12]);
                r3 = vaddq_f64(r3, cmul1(x01, w[13]));
                r3 = vaddq_f64(r3, cmul1(x10, w[14]));
                r3 = vaddq_f64(r3, cmul1(x11, w[15]));
                vst1q_f64(p00, r0);
                vst1q_f64(p01, r1);
                vst1q_f64(p10, r2);
                vst1q_f64(p11, r3);
            }
            i += 2;
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn apply_2q_pair(lo: &mut [C64], hi: &mut [C64], ql: usize, u: &[C64; 16]) {
        if ql == 0 {
            scalar::apply_2q_pair(lo, hi, ql, u);
            return;
        }
        let ml = 1usize << ql;
        for (clo, chi) in lo
            .chunks_exact_mut(ml << 1)
            .zip(hi.chunks_exact_mut(ml << 1))
        {
            let (a00, a01) = clo.split_at_mut(ml);
            let (a10, a11) = chi.split_at_mut(ml);
            apply_2q_quad(a00, a01, a10, a11, u);
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) fn apply_2q_slice(s: &mut [C64], qh: usize, ql: usize, u: &[C64; 16]) {
        let mh = 1usize << qh;
        for chunk in s.chunks_exact_mut(mh << 1) {
            let (lo, hi) = chunk.split_at_mut(mh);
            apply_2q_pair(lo, hi, ql, u);
        }
    }

    /// One complex per vector gives no lanes to share a coefficient load,
    /// so the scalar loop (same `cmul`, same bits) serves.
    #[target_feature(enable = "neon")]
    pub(super) fn apply_diag(s: &mut [C64], mh: usize, ml: usize, d: &[C64; 4]) {
        scalar::apply_diag(s, mh, ml, d)
    }

    #[target_feature(enable = "neon")]
    pub(super) fn sum_norm_sqr(s: &[C64]) -> f64 {
        let f = as_f64(s);
        let n8 = f.len() & !7;
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut acc2 = vdupq_n_f64(0.0);
        let mut acc3 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= f.len().
            unsafe {
                let v0 = vld1q_f64(f.as_ptr().add(i));
                let v1 = vld1q_f64(f.as_ptr().add(i + 2));
                let v2 = vld1q_f64(f.as_ptr().add(i + 4));
                let v3 = vld1q_f64(f.as_ptr().add(i + 6));
                acc0 = vaddq_f64(acc0, vmulq_f64(v0, v0));
                acc1 = vaddq_f64(acc1, vmulq_f64(v1, v1));
                acc2 = vaddq_f64(acc2, vmulq_f64(v2, v2));
                acc3 = vaddq_f64(acc3, vmulq_f64(v3, v3));
            }
            i += 8;
        }
        let mut acc = [0.0f64; 8];
        // SAFETY: 2-lane stores covering an 8-element array.
        unsafe {
            vst1q_f64(acc.as_mut_ptr(), acc0);
            vst1q_f64(acc.as_mut_ptr().add(2), acc1);
            vst1q_f64(acc.as_mut_ptr().add(4), acc2);
            vst1q_f64(acc.as_mut_ptr().add(6), acc3);
        }
        scalar::finish_norm(acc, &f[n8..])
    }

    #[target_feature(enable = "neon")]
    pub(super) fn scale(s: &mut [C64], k: f64) {
        let f = as_f64_mut(s);
        let kv = vdupq_n_f64(k);
        let n2 = f.len() & !1;
        let mut i = 0;
        while i < n2 {
            // SAFETY: i + 2 <= f.len().
            unsafe {
                let v = vld1q_f64(f.as_ptr().add(i));
                vst1q_f64(f.as_mut_ptr().add(i), vmulq_f64(v, kv));
            }
            i += 2;
        }
        for x in &mut f[n2..] {
            *x *= k;
        }
    }

    /// Two lanes per vector share no work across terms that the scalar
    /// path's autovectorized blocks do not, so the scalar loop serves.
    #[target_feature(enable = "neon")]
    pub(super) fn pauli_lanes(walk: &LaneWalk, terms: usize, out: &mut LaneSums) {
        scalar::pauli_lanes(walk, terms, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the process-global active ISA.
    static ISA_LOCK: Mutex<()> = Mutex::new(());

    fn rng_amps(len: usize, seed: u64) -> Vec<C64> {
        // Small deterministic LCG — keeps the linalg crate free of the rand
        // dev-dependency plumbing used elsewhere.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..len).map(|_| C64::new(next(), next())).collect()
    }

    fn test_matrix_1q(seed: u64) -> [C64; 4] {
        let v = rng_amps(4, seed);
        [v[0], v[1], v[2], v[3]]
    }

    fn test_matrix_2q(seed: u64) -> [C64; 16] {
        let v = rng_amps(16, seed);
        let mut u = [C64::ZERO; 16];
        u.copy_from_slice(&v);
        u
    }

    fn bits(s: &[C64]) -> Vec<(u64, u64)> {
        s.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Runs `f` under every supported ISA and asserts all outputs match the
    /// scalar path bit-for-bit.
    fn assert_isa_bit_identical<F: Fn() -> Vec<(u64, u64)>>(f: F) {
        let _guard = ISA_LOCK.lock().unwrap();
        force_isa(Isa::Scalar).unwrap();
        let reference = f();
        for isa in [Isa::Avx2, Isa::Avx512, Isa::Neon] {
            if !isa_supported(isa) {
                continue;
            }
            force_isa(isa).unwrap();
            let got = f();
            assert_eq!(got, reference, "ISA {} diverged from scalar", isa.name());
        }
        force_isa(detected_isa()).unwrap();
    }

    #[test]
    fn one_qubit_kernels_bit_identical_across_isas() {
        for q in 0..6 {
            let base = rng_amps(1 << 7, 11 + q as u64);
            let u = test_matrix_1q(3 + q as u64);
            assert_isa_bit_identical(|| {
                let mut s = base.clone();
                apply_1q_slice(&mut s, q, &u);
                bits(&s)
            });
        }
        // Odd pair length exercises the SIMD tails.
        let lo0 = rng_amps(33, 21);
        let hi0 = rng_amps(33, 22);
        let u = test_matrix_1q(5);
        assert_isa_bit_identical(|| {
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            apply_1q_pair(&mut lo, &mut hi, &u);
            let mut out = bits(&lo);
            out.extend(bits(&hi));
            out
        });
    }

    #[test]
    fn two_qubit_kernels_bit_identical_across_isas() {
        let u = test_matrix_2q(7);
        for qh in 1..7 {
            for ql in 0..qh {
                let base = rng_amps(1 << 8, 40 + (qh * 8 + ql) as u64);
                assert_isa_bit_identical(|| {
                    let mut s = base.clone();
                    apply_2q_slice(&mut s, qh, ql, &u);
                    bits(&s)
                });
            }
        }
        let a = rng_amps(4 * 37, 61); // non-multiple-of-4 quad length
        assert_isa_bit_identical(|| {
            let mut v = a.clone();
            let (q0, rest) = v.split_at_mut(37);
            let (q1, rest) = rest.split_at_mut(37);
            let (q2, q3) = rest.split_at_mut(37);
            apply_2q_quad(q0, q1, q2, q3, &u);
            bits(&v)
        });
    }

    #[test]
    fn diagonal_kernel_bit_identical_across_isas() {
        let d = test_matrix_2q(8);
        let d = [d[0], d[5], d[10], d[15]];
        let mut masks = vec![(0, 0)];
        for b in 0..7 {
            masks.push((0, 1 << b));
            for a in b + 1..7 {
                masks.push((1 << a, 1 << b));
                masks.push((1 << b, 1 << a));
            }
        }
        for (mh, ml) in masks {
            let base = rng_amps(1 << 7, 70 + (mh | ml) as u64);
            assert_isa_bit_identical(|| {
                let mut s = base.clone();
                apply_diag(&mut s, mh, ml, &d);
                bits(&s)
            });
        }
        // Unmasked slices of every short length exercise the narrow paths.
        for len in [1usize, 2, 3, 5, 33] {
            let base = rng_amps(len, 90 + len as u64);
            assert_isa_bit_identical(|| {
                let mut s = base.clone();
                apply_diag(&mut s, 0, 0, &d);
                bits(&s)
            });
        }
    }

    #[test]
    fn diagonal_kernel_matches_direct_formula() {
        let _guard = ISA_LOCK.lock().unwrap();
        force_isa(Isa::Scalar).unwrap();
        let d = test_matrix_1q(12);
        let mut s = rng_amps(16, 13);
        let orig = s.clone();
        apply_diag(&mut s, 1 << 3, 1 << 1, &d);
        for (i, (got, a)) in s.iter().zip(&orig).enumerate() {
            let g = ((i >> 3) & 1) << 1 | ((i >> 1) & 1);
            assert_eq!(*got, d[g] * *a, "index {i}");
        }
        force_isa(detected_isa()).unwrap();
    }

    #[test]
    #[should_panic(expected = "single bits")]
    fn diagonal_kernel_rejects_multi_bit_masks() {
        apply_diag(&mut [C64::ONE; 8], 0b110, 0, &[C64::ONE; 4]);
    }

    #[test]
    fn reductions_bit_identical_across_isas() {
        for len in [0usize, 1, 5, 8, 64, 1000, 4096] {
            let s = rng_amps(len, 100 + len as u64);
            assert_isa_bit_identical(|| {
                let total = sum_norm_sqr(&s);
                vec![(total.to_bits(), 0)]
            });
            assert_isa_bit_identical(|| {
                let mut v = s.clone();
                scale(&mut v, 0.8125);
                bits(&v)
            });
        }
    }

    /// Sign-bit rows for [`pauli_lanes`]: bit 63 set where `seed`'s
    /// stream has its top bit set.
    fn sign_rows(rows: usize, seed: u64) -> Vec<LaneSigns> {
        let v = rng_amps(rows * TERM_LANES, seed);
        v.chunks(TERM_LANES)
            .map(|c| {
                let mut row = [0u64; TERM_LANES];
                for (r, z) in row.iter_mut().zip(c) {
                    *r = ((z.re < 0.0) as u64) << 63;
                }
                row
            })
            .collect()
    }

    #[test]
    fn term_lanes_equal_one_lane_per_term_on_every_isa() {
        for len in [1usize, 2, 8, 64, 1024] {
            let a = rng_amps(len, 7 + len as u64);
            let b = rng_amps(len, 9 + len as u64);
            let rows = len.trailing_zeros() as usize;
            let sign = sign_rows(1, len as u64)[0];
            let flips = sign_rows(rows, 3 + len as u64);
            for partner in [None, Some((&b[..], len / 2)), Some((&b[..], len - 1))] {
                for terms in [1usize, 3, 8, 9, 16, 17, 31, 32] {
                    let call = || {
                        let (re, im) = pauli_lanes(&a, partner, terms, &sign, &flips);
                        re.iter()
                            .zip(&im)
                            .map(|(r, i)| (r.to_bits(), i.to_bits()))
                            .collect()
                    };
                    assert_isa_bit_identical(call);
                    let got = call();
                    for (t, &lane) in got.iter().enumerate() {
                        if t >= terms {
                            assert_eq!(lane, (0, 0), "lane {t} past {terms} terms");
                            continue;
                        }
                        // the lone term's scalar loop
                        let (mut st, mut re, mut im) = (sign[t], 0.0f64, 0.0f64);
                        for i in 0..len {
                            if i > 0 {
                                st ^= flips[i.trailing_zeros() as usize][t];
                            }
                            let p = match partner {
                                None => C64::new(a[i].norm_sqr(), 0.0),
                                Some((b, xl)) => b[i ^ xl].conj() * a[i],
                            };
                            re += f64::from_bits(p.re.to_bits() ^ st);
                            im += f64::from_bits(p.im.to_bits() ^ st);
                        }
                        assert_eq!(lane, (re.to_bits(), im.to_bits()), "len {len} lane {t}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "flip table shorter")]
    fn term_lanes_reject_a_short_flip_table() {
        let a = rng_amps(8, 1);
        pauli_lanes(&a, None, 1, &[0; TERM_LANES], &sign_rows(2, 1));
    }

    #[test]
    fn norm_matches_plain_sum() {
        let s = rng_amps(999, 5);
        let plain: f64 = s.iter().map(|z| z.norm_sqr()).sum();
        let lanes = {
            let _guard = ISA_LOCK.lock().unwrap();
            force_isa(Isa::Scalar).unwrap();
            let v = sum_norm_sqr(&s);
            force_isa(detected_isa()).unwrap();
            v
        };
        assert!((plain - lanes).abs() <= 1e-12 * plain.max(1.0));
    }

    #[test]
    fn one_qubit_matches_direct_formula() {
        let _guard = ISA_LOCK.lock().unwrap();
        force_isa(Isa::Scalar).unwrap();
        let u = test_matrix_1q(9);
        let mut s = rng_amps(8, 10);
        let orig = s.clone();
        apply_1q_slice(&mut s, 1, &u);
        for chunk in 0..2 {
            for i in 0..2 {
                let a0 = orig[chunk * 4 + i];
                let a1 = orig[chunk * 4 + i + 2];
                let want0 = u[0] * a0 + u[1] * a1;
                let want1 = u[2] * a0 + u[3] * a1;
                assert_eq!(s[chunk * 4 + i], want0);
                assert_eq!(s[chunk * 4 + i + 2], want1);
            }
        }
        force_isa(detected_isa()).unwrap();
    }

    #[test]
    fn force_isa_rejects_unsupported() {
        let _guard = ISA_LOCK.lock().unwrap();
        #[cfg(target_arch = "x86_64")]
        assert!(force_isa(Isa::Neon).is_err());
        #[cfg(target_arch = "aarch64")]
        assert!(force_isa(Isa::Avx512).is_err());
        assert!(force_isa(Isa::Scalar).is_ok());
        assert_eq!(active_isa(), Isa::Scalar);
        force_isa(detected_isa()).unwrap();
    }
}
