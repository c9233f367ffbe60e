//! Locally-purified MPS: an exact-channel tensor-network mixed state.
//!
//! Each site tensor `A_i[l, p, k, r]` carries a physical leg (`p`, dim 2)
//! *and* a Kraus/purification leg (`k`, per-site dimension) between its
//! bond legs, representing `rho = Tr_K |psi><psi|` for the joint
//! (physical x purification) MPS `|psi>`. A Kraus channel `{K_j}` applies
//! *deterministically* as a local tensor contraction that multiplies the
//! site's Kraus-leg dimension by the number of Kraus operators — no
//! trajectory fork, no randomness — after which the leg is compressed
//! back down by an SVD over the Kraus index (exact up to the configured
//! cap: the leg only ever contracts against its own conjugate, so the
//! unitary factor on the Kraus side can always be dropped).
//!
//! This is the mixed-state analogue of [`crate::ChainMps`]: the same
//! swap-routed two-site SVD evolution and transfer-matrix sweeps, with
//! every environment contraction additionally tracing the Kraus legs.
//! Probabilities are diagonal transfer sweeps (`Tr(rho |b><b|)`) split
//! at the last-touched site, with both halves shared across a candidate
//! list; Pauli expectations weave the operator into the doubled sweep
//! (`Tr(rho P)`); and channels keep the sample-parallelized execution
//! path because [`PurifiedMps::channels_are_deterministic`] is true —
//! exactly like the density matrix, but at `O(n chi^3 kappa)` cost
//! instead of `O(4^n)` memory.

use bgls_circuit::{Channel, Gate, PauliString};
use bgls_core::{BglsState, BitString, SimError};
use bgls_linalg::{gemm, svd_slice, Matrix, C64};
use rand::RngCore;
use std::cell::RefCell;

use crate::trie::Trie;

/// Reusable buffers for the two-site split, Kraus-leg compression, and
/// the transfer-matrix sweeps. Thread-local so [`PurifiedMps`] values
/// stay plain data (`Clone + Send + Sync`) while per-op allocations are
/// amortized away, matching the [`crate::ChainMps`] scratch discipline.
#[derive(Default)]
struct PurifiedScratch {
    /// Merged two-site tensor `theta` (`(2 l k1) x (2 k2 r)`).
    theta: Vec<C64>,
    /// Gate- or channel-applied theta, fed straight to the SVD.
    gated: Vec<C64>,
    /// Kraus-leg compression matrix (`(2 l r) x k`).
    kmat: Vec<C64>,
    /// Transfer-matrix environment (`dim x dim`).
    rho: Vec<C64>,
    /// Next transfer-matrix environment.
    rho_next: Vec<C64>,
    /// `M^T rho` intermediate (`r x l`), and the split sweep's
    /// half-contracted rows.
    tmat: Vec<C64>,
    /// Conjugated (and operator-weighted) bra slice.
    conj_slice: Vec<C64>,
    /// One-qubit gate / channel-growth buffer.
    buf: Vec<C64>,
    /// Prefix trie of the left probability sweep (sites `[0, s)`).
    left: Trie,
    /// Suffix trie of the right probability sweep (sites `[s, n)`).
    right: Trie,
    /// Left environments (`rows x dim x dim`).
    env_l: Vec<C64>,
    /// Right environments (`rows x dim x dim`).
    env_r: Vec<C64>,
    /// Next environments of either sweep.
    env_next: Vec<C64>,
}

thread_local! {
    static SCRATCH: RefCell<PurifiedScratch> = RefCell::new(PurifiedScratch::default());
}

/// Truncation options for the purified chain: a bond cap (as in
/// [`crate::MpsOptions`]) plus an independent cap on the per-site
/// Kraus-leg dimension.
#[derive(Clone, Copy, Debug)]
pub struct PurifiedOptions {
    /// Maximum bond dimension chi (`None` = unbounded, exact evolution).
    pub max_bond: Option<usize>,
    /// Maximum per-site Kraus-leg dimension kappa (`None` = unbounded;
    /// the leg is still rank-compressed exactly after every channel, so
    /// it never exceeds `2 * l * r` for the site's bond dimensions).
    pub max_kraus: Option<usize>,
    /// Singular values at or below this threshold are dropped.
    pub cutoff: f64,
}

impl Default for PurifiedOptions {
    fn default() -> Self {
        PurifiedOptions {
            max_bond: None,
            max_kraus: None,
            cutoff: 1e-12,
        }
    }
}

impl PurifiedOptions {
    /// Unbounded exact options.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Caps the bond dimension at `chi` (Kraus leg unbounded).
    pub fn with_max_bond(chi: usize) -> Self {
        PurifiedOptions {
            max_bond: Some(chi),
            ..Self::default()
        }
    }

    /// Caps the per-site Kraus-leg dimension at `kappa`.
    pub fn with_max_kraus(mut self, kappa: usize) -> Self {
        self.max_kraus = Some(kappa);
        self
    }
}

/// One site tensor `A[l, p, k, r]`, row-major over `(l, p, k, r)`.
#[derive(Clone, Debug)]
struct PSite {
    l: usize,
    r: usize,
    /// Kraus/purification-leg dimension (1 until a channel touches the
    /// site).
    k: usize,
    data: Vec<C64>,
}

impl PSite {
    #[inline]
    fn idx(&self, l: usize, p: usize, k: usize, r: usize) -> usize {
        ((l * 2 + p) * self.k + k) * self.r + r
    }

    /// One split-sweep step through this site's `bit` slice: child
    /// environment `j` of `out` is
    /// `E'[b, b'] = sum_{a, a', k} A(a, k, b) E[a, a'] conj(A(a', k, b'))`
    /// with `E` the `parents[j]` environment of `env`, `a` the left bond
    /// and `b` the right bond when `rightward`, the reverse otherwise.
    /// Two gather-GEMMs over all rows, the Kraus index folded into their
    /// free and shared axes; `tmat` and `conj_slice` are scratch.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        bit: usize,
        rightward: bool,
        parents: &[usize],
        env: &[C64],
        out: &mut [C64],
        tmat: &mut Vec<C64>,
        conj_slice: &mut Vec<C64>,
    ) {
        let (l, k, r) = (self.l, self.k, self.r);
        // (dimension, stride in `data`) of the contracted and free bonds
        let ((din, s_in), (dout, s_out)) = if rightward {
            ((l, 2 * k * r), (r, 1))
        } else {
            ((r, 1), (l, 2 * k * r))
        };
        let at = |a: usize, ki: usize, b: usize| bit * k * r + a * s_in + ki * r + b * s_out;
        let (rows, kd) = (parents.len(), k * dout);
        // U[(row, a'), (k, b)] = sum_a E_parent[a, a'] A(a, k, b)
        tmat.clear();
        tmat.resize(rows * din * kd, C64::ZERO);
        gemm::with_scratch(|g| {
            g.moff.clear();
            g.moff.extend(
                parents
                    .iter()
                    .flat_map(|&p| (0..din).map(move |a| p * din * din + a)),
            );
            g.a_koff.clear();
            g.a_koff.extend((0..din).map(|a| a * din));
            g.b_koff.clear();
            g.b_koff.extend((0..din).map(|a| at(a, 0, 0)));
            g.noff.clear();
            g.noff
                .extend((0..k).flat_map(|ki| (0..dout).map(move |b| ki * r + b * s_out)));
            gemm::matmul_gather_into(tmat, rows * din, din, kd, env, &self.data, g);
        });
        // E'[(row, b), b'] = sum_{(a', k)} U[(row, a'), (k, b)] conj(A(a', k, b'))
        conj_slice.clear();
        for a in 0..din {
            for ki in 0..k {
                conj_slice.extend((0..dout).map(|b| self.data[at(a, ki, b)].conj()));
            }
        }
        gemm::with_scratch(|g| {
            g.moff.clear();
            g.moff
                .extend((0..rows).flat_map(|j| (0..dout).map(move |b| j * din * kd + b)));
            g.a_koff.clear();
            g.a_koff.extend((0..din * k).map(|t| t * dout));
            g.b_koff.clear();
            g.b_koff.extend((0..din * k).map(|t| t * dout));
            g.noff.clear();
            g.noff.extend(0..dout);
            gemm::matmul_gather_into(out, rows * dout, din * k, dout, tmat, conj_slice, g);
        });
    }
}

/// Locally-purified chain MPS over `n` qubits with a tracked
/// qubit-to-site permutation — the deterministic-channel mixed-state
/// backend (`BackendKind::PurifiedMps` in `bgls-backend`).
#[derive(Clone, Debug)]
pub struct PurifiedMps {
    sites: Vec<PSite>,
    site_of_qubit: Vec<usize>,
    qubit_of_site: Vec<usize>,
    options: PurifiedOptions,
    truncation_weight: f64,
    n: usize,
    /// Split site of the probability sweep: the site of the last 1q
    /// update or Kraus-leg growth, or the right site of the last
    /// two-site update.
    split: usize,
}

impl PurifiedMps {
    /// The all-zeros product state `|0..0><0..0|` with the given options.
    pub fn zero(n: usize, options: PurifiedOptions) -> Self {
        assert!(n > 0, "need at least one qubit");
        if let Some(chi) = options.max_bond {
            assert!(chi >= 1, "max_bond must be at least 1");
        }
        if let Some(kappa) = options.max_kraus {
            assert!(kappa >= 1, "max_kraus must be at least 1");
        }
        let sites = (0..n)
            .map(|_| PSite {
                l: 1,
                r: 1,
                k: 1,
                data: vec![C64::ONE, C64::ZERO],
            })
            .collect();
        PurifiedMps {
            sites,
            site_of_qubit: (0..n).collect(),
            qubit_of_site: (0..n).collect(),
            options,
            truncation_weight: 0.0,
            n,
            split: 0,
        }
    }

    /// Accumulated discarded squared singular weight across all bond and
    /// Kraus-leg truncations (0 for exact evolution).
    pub fn truncation_weight(&self) -> f64 {
        self.truncation_weight
    }

    /// Largest bond dimension currently in the chain.
    pub fn max_bond_dimension(&self) -> usize {
        self.sites.iter().map(|s| s.r).max().unwrap_or(1)
    }

    /// Largest per-site Kraus-leg dimension currently in the chain.
    pub fn max_kraus_dimension(&self) -> usize {
        self.sites.iter().map(|s| s.k).max().unwrap_or(1)
    }

    /// The options in force.
    pub fn options(&self) -> PurifiedOptions {
        self.options
    }

    /// `Tr(rho)` via the doubled transfer-matrix sweep (1 on a
    /// normalized state). Deterministic: a pure function of the state.
    pub fn trace(&self) -> f64 {
        let ops: Vec<Option<Matrix>> = vec![None; self.sites.len()];
        self.transfer_sweep(&ops).re
    }

    /// Rescales the whole purification by `c` (scales `rho` by `c^2`).
    fn scale_first_site(&mut self, c: f64) {
        for z in &mut self.sites[0].data {
            *z *= c;
        }
    }

    /// Renormalizes `Tr(rho)` back to 1 after a truncation shrank it.
    fn renormalize(&mut self) {
        let tr = self.trace();
        if tr > 0.0 {
            self.scale_first_site(1.0 / tr.sqrt());
        }
    }

    fn apply_1q_matrix(&mut self, u: &Matrix, q: usize) {
        let i = self.site_of_qubit[q];
        self.split = i;
        let site = &mut self.sites[i];
        let (l, k, r) = (site.l, site.k, site.r);
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.buf.clear();
            sc.buf.resize(site.data.len(), C64::ZERO);
            for li in 0..l {
                for ki in 0..k {
                    for ri in 0..r {
                        let a0 = site.data[((li * 2) * k + ki) * r + ri];
                        let a1 = site.data[((li * 2 + 1) * k + ki) * r + ri];
                        sc.buf[((li * 2) * k + ki) * r + ri] = u[(0, 0)] * a0 + u[(0, 1)] * a1;
                        sc.buf[((li * 2 + 1) * k + ki) * r + ri] = u[(1, 0)] * a0 + u[(1, 1)] * a1;
                    }
                }
            }
            std::mem::swap(&mut site.data, &mut sc.buf);
        });
    }

    /// Merges sites `(i, i+1)` into `theta[(l p1 k1), (p2 k2 r)]` — one
    /// GEMM, since the row-major site layouts are already the
    /// `((2 l k1) x m)` and `(m x (2 k2 r))` operands — then applies
    /// `apply` to produce the gated split matrix (rows `l * 2 * k1_new`)
    /// and splits it back by SVD under the bond cap. `k1_new` is the
    /// left site's Kraus dimension after the operation (unchanged for
    /// gates, multiplied by the Kraus count for two-site channels).
    fn merge_apply_split(
        &mut self,
        i: usize,
        k1_new: usize,
        apply: impl Fn(&[C64], &mut [C64], usize, usize, usize, usize, usize),
    ) {
        let (l, r) = (self.sites[i].l, self.sites[i + 1].r);
        let (k1, k2) = (self.sites[i].k, self.sites[i + 1].k);
        let chi_cap = self.options.max_bond.unwrap_or(usize::MAX);
        let (d, err) = SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let a = &self.sites[i];
            let b = &self.sites[i + 1];
            let m = a.r;
            debug_assert_eq!(b.l, m);
            let rows = l * 2 * k1;
            let cols = 2 * k2 * r;
            sc.theta.clear();
            sc.theta.resize(rows * cols, C64::ZERO);
            gemm::matmul_into(&mut sc.theta, rows, m, cols, &a.data, &b.data);
            sc.gated.clear();
            sc.gated.resize(l * 2 * k1_new * cols, C64::ZERO);
            apply(&sc.theta, &mut sc.gated, l, k1, k2, r, cols);
            let mut d = svd_slice(l * 2 * k1_new, cols, &sc.gated);
            let err = d.truncate(chi_cap, self.options.cutoff);
            (d, err)
        });
        self.truncation_weight += err;
        self.split = i + 1;
        let chi = d.s.len();
        let mut na_data = std::mem::take(&mut self.sites[i].data);
        na_data.clear();
        na_data.resize(l * 2 * k1_new * chi, C64::ZERO);
        for row in 0..l * 2 * k1_new {
            for c in 0..chi {
                na_data[row * chi + c] = d.u[(row, c)];
            }
        }
        let mut nb_data = std::mem::take(&mut self.sites[i + 1].data);
        nb_data.clear();
        nb_data.resize(chi * 2 * k2 * r, C64::ZERO);
        for c in 0..chi {
            for col in 0..2 * k2 * r {
                nb_data[c * 2 * k2 * r + col] = d.vt[(c, col)] * d.s[c];
            }
        }
        self.sites[i] = PSite {
            l,
            r: chi,
            k: k1_new,
            data: na_data,
        };
        self.sites[i + 1] = PSite {
            l: chi,
            r,
            k: k2,
            data: nb_data,
        };
        if err > 0.0 {
            self.renormalize();
        }
    }

    /// Applies a 4x4 matrix to adjacent sites `(i, i+1)`; gate index
    /// bit 1 (most significant) belongs to site `i`. The Kraus legs ride
    /// along untouched.
    fn apply_two_site(&mut self, i: usize, u: &Matrix) {
        let k1 = self.sites[i].k;
        self.merge_apply_split(i, k1, |theta, gated, l, k1, k2, r, cols| {
            for li in 0..l {
                for k1i in 0..k1 {
                    for k2i in 0..k2 {
                        for ri in 0..r {
                            let mut t = [C64::ZERO; 4];
                            for (p1, tp) in t.chunks_mut(2).enumerate() {
                                let row = (li * 2 + p1) * k1 + k1i;
                                for (p2, slot) in tp.iter_mut().enumerate() {
                                    let col = (p2 * k2 + k2i) * r + ri;
                                    *slot = theta[row * cols + col];
                                }
                            }
                            for po in 0..4 {
                                let mut acc = C64::ZERO;
                                for (pi, &tv) in t.iter().enumerate() {
                                    acc += u[(po, pi)] * tv;
                                }
                                let row = (li * 2 + po / 2) * k1 + k1i;
                                let col = ((po % 2) * k2 + k2i) * r + ri;
                                gated[row * cols + col] = acc;
                            }
                        }
                    }
                }
            }
        });
    }

    /// Swaps the qubits at sites `i` and `i+1` (full SWAP + mapping
    /// update). The purification legs stay attached to their *sites* —
    /// `rho` traces every Kraus leg regardless of position, so they need
    /// not follow the qubits.
    fn swap_adjacent(&mut self, i: usize) {
        let swap = Gate::Swap.unitary().expect("SWAP");
        self.apply_two_site(i, &swap);
        let (qa, qb) = (self.qubit_of_site[i], self.qubit_of_site[i + 1]);
        self.qubit_of_site.swap(i, i + 1);
        self.site_of_qubit[qa] = i + 1;
        self.site_of_qubit[qb] = i;
    }

    /// Routes `qa` adjacent to `qb` with swaps; returns the left site
    /// index and whether the gate's qubit roles must be flipped.
    fn route_adjacent(&mut self, qa: usize, qb: usize) -> (usize, bool) {
        let mut sa = self.site_of_qubit[qa];
        let sb = self.site_of_qubit[qb];
        debug_assert_ne!(sa, sb);
        while sa + 1 < sb {
            self.swap_adjacent(sa);
            sa += 1;
        }
        while sa > sb + 1 {
            self.swap_adjacent(sa - 1);
            sa -= 1;
        }
        if sa < sb {
            (sa, false)
        } else {
            (sb, true)
        }
    }

    /// Reverses the two qubit roles of a 4x4 operator matrix.
    fn flip_qubit_roles(u: &Matrix) -> Matrix {
        let mut flipped = Matrix::zeros(4, 4);
        for i1 in 0..2 {
            for i2 in 0..2 {
                for j1 in 0..2 {
                    for j2 in 0..2 {
                        flipped[(i2 * 2 + i1, j2 * 2 + j1)] = u[(i1 * 2 + i2, j1 * 2 + j2)];
                    }
                }
            }
        }
        flipped
    }

    fn apply_2q_matrix(&mut self, u: &Matrix, qa: usize, qb: usize) {
        let (left, flip) = self.route_adjacent(qa, qb);
        if flip {
            self.apply_two_site(left, &Self::flip_qubit_roles(u));
        } else {
            self.apply_two_site(left, u);
        }
    }

    /// Compresses site `i`'s Kraus leg by SVD over the Kraus index.
    ///
    /// The leg only ever contracts against its own conjugate (`rho`
    /// depends on the site matrix `Y[(l p r), k]` solely through
    /// `Y Y^dagger = U S^2 U^dagger`), so replacing `Y` with `U S` is
    /// *exact*; truncating below the rank (the `max_kraus` cap) discards
    /// the returned squared weight. Keeps every leg at
    /// `min(kappa_cap, rank) <= 2 l r`.
    fn compress_kraus_leg(&mut self, i: usize) -> f64 {
        let (l, k, r) = (self.sites[i].l, self.sites[i].k, self.sites[i].r);
        if k <= 1 {
            return 0.0;
        }
        let cap = self.options.max_kraus.unwrap_or(usize::MAX);
        let (d, err) = SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let site = &self.sites[i];
            let rows = l * 2 * r;
            sc.kmat.clear();
            sc.kmat.resize(rows * k, C64::ZERO);
            for li in 0..l {
                for p in 0..2 {
                    for ki in 0..k {
                        for ri in 0..r {
                            sc.kmat[((li * 2 + p) * r + ri) * k + ki] =
                                site.data[site.idx(li, p, ki, ri)];
                        }
                    }
                }
            }
            let mut d = svd_slice(rows, k, &sc.kmat);
            let err = d.truncate(cap, self.options.cutoff);
            (d, err)
        });
        let k_new = d.s.len();
        let site = &mut self.sites[i];
        site.data.clear();
        site.data.resize(l * 2 * k_new * r, C64::ZERO);
        site.k = k_new;
        for li in 0..l {
            for p in 0..2 {
                for ki in 0..k_new {
                    for ri in 0..r {
                        site.data[((li * 2 + p) * k_new + ki) * r + ri] =
                            d.u[((li * 2 + p) * r + ri, ki)] * d.s[ki];
                    }
                }
            }
        }
        self.truncation_weight += err;
        err
    }

    /// Grows site `i`'s Kraus leg by the channel's operator count:
    /// `A'[l, p', (k, j), r] = sum_p K_j[p', p] A[l, p, k, r]`.
    fn grow_kraus_1q(&mut self, kraus: &[Matrix], i: usize) {
        self.split = i;
        let site = &mut self.sites[i];
        let (l, k, r) = (site.l, site.k, site.r);
        let m = kraus.len();
        let k_new = k * m;
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.buf.clear();
            sc.buf.resize(l * 2 * k_new * r, C64::ZERO);
            for li in 0..l {
                for ki in 0..k {
                    for ri in 0..r {
                        let a0 = site.data[((li * 2) * k + ki) * r + ri];
                        let a1 = site.data[((li * 2 + 1) * k + ki) * r + ri];
                        for (j, kj) in kraus.iter().enumerate() {
                            sc.buf[((li * 2) * k_new + ki * m + j) * r + ri] =
                                kj[(0, 0)] * a0 + kj[(0, 1)] * a1;
                            sc.buf[((li * 2 + 1) * k_new + ki * m + j) * r + ri] =
                                kj[(1, 0)] * a0 + kj[(1, 1)] * a1;
                        }
                    }
                }
            }
            std::mem::swap(&mut site.data, &mut sc.buf);
        });
        self.sites[i].k = k_new;
    }

    /// Applies the whole channel exactly (deterministic — no trajectory
    /// branch is sampled): Kraus-leg growth, then compression back under
    /// the cap. Supports one- and two-qubit channels; two-qubit channels
    /// are swap-routed adjacent like gates, with the new branch index
    /// folded into the left site's Kraus leg before the SVD split.
    pub fn apply_channel_exact(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        match qubits.len() {
            1 => {
                let i = self.site_of_qubit[qubits[0]];
                self.grow_kraus_1q(channel.kraus(), i);
                if self.compress_kraus_leg(i) > 0.0 {
                    self.renormalize();
                }
                Ok(())
            }
            2 => {
                if qubits[0] == qubits[1] {
                    return Err(SimError::Invalid("duplicate qubit".into()));
                }
                let (left, flip) = self.route_adjacent(qubits[0], qubits[1]);
                let kraus: Vec<Matrix> = if flip {
                    channel.kraus().iter().map(Self::flip_qubit_roles).collect()
                } else {
                    channel.kraus().to_vec()
                };
                let m = kraus.len();
                let k1_new = self.sites[left].k * m;
                self.merge_apply_split(left, k1_new, |theta, gated, l, k1, k2, r, cols| {
                    for li in 0..l {
                        for k1i in 0..k1 {
                            for k2i in 0..k2 {
                                for ri in 0..r {
                                    let mut t = [C64::ZERO; 4];
                                    for (p1, tp) in t.chunks_mut(2).enumerate() {
                                        let row = (li * 2 + p1) * k1 + k1i;
                                        for (p2, slot) in tp.iter_mut().enumerate() {
                                            let col = (p2 * k2 + k2i) * r + ri;
                                            *slot = theta[row * cols + col];
                                        }
                                    }
                                    for (j, kj) in kraus.iter().enumerate() {
                                        for po in 0..4 {
                                            let mut acc = C64::ZERO;
                                            for (pi, &tv) in t.iter().enumerate() {
                                                acc += kj[(po, pi)] * tv;
                                            }
                                            let row = ((li * 2 + po / 2) * k1 + k1i) * m + j;
                                            let col = ((po % 2) * k2 + k2i) * r + ri;
                                            gated[row * cols + col] = acc;
                                        }
                                    }
                                }
                            }
                        }
                    }
                });
                let mut err = self.compress_kraus_leg(left);
                err += self.compress_kraus_leg(left + 1);
                if err > 0.0 {
                    self.renormalize();
                }
                Ok(())
            }
            k => Err(SimError::Unsupported(format!(
                "{k}-qubit channels on the purified MPS (decompose first)"
            ))),
        }
    }

    /// The doubled transfer-matrix sweep `Tr(rho prod_site O_site)`:
    /// at each site `rho' = sum_{p, p', k} O[p', p] M_{p,k}^T rho
    /// conj(M_{p',k})` — the Kraus leg is traced against its own
    /// conjugate, identity sites keep only the diagonal. All GEMM work
    /// on the blocked kernels, intermediates in the thread-local
    /// scratch. Deterministic: a pure function of the state.
    fn transfer_sweep(&self, site_ops: &[Option<Matrix>]) -> C64 {
        debug_assert_eq!(site_ops.len(), self.sites.len());
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.rho.clear();
            sc.rho.push(C64::ONE);
            let mut dim = 1usize;
            for (site, op) in self.sites.iter().zip(site_ops) {
                let (l, k, r) = (site.l, site.k, site.r);
                debug_assert_eq!(l, dim);
                sc.rho_next.clear();
                sc.rho_next.resize(r * r, C64::ZERO);
                for p in 0..2 {
                    for ki in 0..k {
                        // T = M_{p,ki}^T rho, gathered straight from the
                        // site tensor (no transposed copy).
                        sc.tmat.clear();
                        sc.tmat.resize(r * l, C64::ZERO);
                        gemm::with_scratch(|g| {
                            g.moff.clear();
                            g.moff.extend(0..r);
                            g.a_koff.clear();
                            g.a_koff
                                .extend((0..l).map(|li| ((li * 2 + p) * k + ki) * r));
                            g.b_koff.clear();
                            g.b_koff.extend((0..l).map(|li| li * l));
                            g.noff.clear();
                            g.noff.extend(0..l);
                            gemm::matmul_gather_into(&mut sc.tmat, r, l, l, &site.data, &sc.rho, g);
                        });
                        for p_out in 0..2 {
                            let w = match op {
                                None if p_out == p => C64::ONE,
                                None => continue,
                                Some(m) => m[(p_out, p)],
                            };
                            if w == C64::ZERO {
                                continue;
                            }
                            // rho' += T (w * conj(M_{p_out,ki})): the
                            // operator element rides the conjugated bra
                            // slice; the Kraus index matches the ket side.
                            sc.conj_slice.clear();
                            sc.conj_slice.extend((0..l * r).map(|t| {
                                site.data[((t / r * 2 + p_out) * k + ki) * r + t % r].conj() * w
                            }));
                            gemm::matmul_acc_into(
                                &mut sc.rho_next,
                                r,
                                l,
                                r,
                                &sc.tmat,
                                &sc.conj_slice,
                            );
                        }
                    }
                }
                std::mem::swap(&mut sc.rho, &mut sc.rho_next);
                dim = r;
            }
            debug_assert_eq!(dim, 1);
            sc.rho[0]
        })
    }

    /// `Tr(rho |x><x|)` of every candidate as `sum_{a,b} L(x)[a,b]
    /// E(x)[a,b]` split at site `s` (`self.split`), passed to
    /// `emit(candidate index, probability)`.
    ///
    /// `L` is the diagonal transfer sweep over sites `[0, s)` and `E`
    /// the same sweep over sites `[s, n)` from the right: each site's
    /// physical legs are pinned to the candidate's bit (routed through
    /// the qubit-to-site permutation) and its Kraus leg traced. Both
    /// sides share their `dim x dim` environments across the candidate
    /// list through a [`Trie`]; a level advances all rows of one bit
    /// value with two gather-GEMMs, the Kraus index folded into their
    /// free and shared axes. `O(n kappa chi^3)` per distinct trie row,
    /// `O(chi^2)` per candidate to close.
    ///
    /// Every row folds its terms in the same order whatever the batch
    /// holds and `s` belongs to the state, so a batch returns exactly
    /// the single-candidate values. The clamp to `+0.0` also maps a
    /// `-0.0` closing sum to `+0.0`, keeping batch == scalar by
    /// `to_bits()` even where the GEMM path flips an exact zero's sign.
    fn split_probabilities(&self, candidates: &[BitString], mut emit: impl FnMut(usize, f64)) {
        for c in candidates {
            assert_eq!(c.len(), self.n);
        }
        if candidates.is_empty() {
            return;
        }
        let s = self.split;
        debug_assert!(s < self.n);
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let PurifiedScratch {
                left,
                right,
                env_l,
                env_r,
                env_next,
                tmat,
                conj_slice,
                ..
            } = sc;
            let levels = (0..s).map(|i| (i, self.qubit_of_site[i], self.sites[i].r.pow(2)));
            left.sweep(
                candidates,
                levels,
                env_l,
                env_next,
                |i, bit, parents, env, out| {
                    self.sites[i].advance(bit, true, parents, env, out, tmat, conj_slice)
                },
            );
            let levels = (s..self.n)
                .rev()
                .map(|i| (i, self.qubit_of_site[i], self.sites[i].l.pow(2)));
            right.sweep(
                candidates,
                levels,
                env_r,
                env_next,
                |i, bit, parents, env, out| {
                    self.sites[i].advance(bit, false, parents, env, out, tmat, conj_slice)
                },
            );
            let dd = self.sites[s].l * self.sites[s].l;
            for c in 0..candidates.len() {
                let lm = &env_l[left.row(c) * dd..][..dd];
                let em = &env_r[right.row(c) * dd..][..dd];
                let p = lm
                    .iter()
                    .zip(em)
                    .fold(C64::ZERO, |acc, (&a, &b)| a.mul_add(b, acc))
                    .re;
                emit(c, if p > 0.0 { p } else { 0.0 });
            }
        });
    }

    /// Exact `Tr(rho P)` via the operator-woven doubled transfer sweep,
    /// with each Pauli factor routed to its current site through the
    /// tracked qubit-to-site permutation.
    pub fn pauli_expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        if let Some(q) = observable.max_qubit() {
            self.check_qubits(&[q])?;
        }
        let mut site_ops: Vec<Option<Matrix>> = vec![None; self.sites.len()];
        for (q, op) in observable.iter() {
            site_ops[self.site_of_qubit[q]] = Some(op.matrix());
        }
        Ok(self.transfer_sweep(&site_ops).re)
    }
}

impl BglsState for PurifiedMps {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        let u = gate.unitary()?;
        match qubits.len() {
            1 => {
                self.apply_1q_matrix(&u, qubits[0]);
                Ok(())
            }
            2 => {
                if qubits[0] == qubits[1] {
                    return Err(SimError::Invalid("duplicate qubit".into()));
                }
                self.apply_2q_matrix(&u, qubits[0], qubits[1]);
                Ok(())
            }
            k => Err(SimError::Unsupported(format!(
                "{k}-qubit gates on the purified MPS (decompose first)"
            ))),
        }
    }

    fn probability(&self, bits: BitString) -> f64 {
        let mut p = 0.0;
        self.split_probabilities(&[bits], |_, v| p = v);
        p
    }

    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        let mut out = vec![0.0; candidates.len()];
        self.split_probabilities(candidates, |c, p| out[c] = p);
        out
    }

    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        _rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        self.apply_channel_exact(channel, qubits).map(|_| 0)
    }

    /// The purified chain absorbs the whole channel exactly, so the
    /// "branching" is the single certain branch `[1.0]` — a forest node
    /// on this backend never forks at a channel (mirrors the density
    /// matrix).
    fn kraus_branch_probabilities(
        &self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        self.check_qubits(qubits)?;
        if qubits.len() > 2 {
            return Err(SimError::Unsupported(format!(
                "{}-qubit channels on the purified MPS (decompose first)",
                qubits.len()
            )));
        }
        let _ = channel;
        Ok(vec![1.0])
    }

    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        if branch != 0 {
            return Err(SimError::Invalid(format!(
                "deterministic channel has a single branch, got {branch}"
            )));
        }
        self.apply_channel_exact(channel, qubits)
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        self.check_qubits(&[qubit])?;
        let mut p = Matrix::zeros(2, 2);
        let idx = value as usize;
        p[(idx, idx)] = C64::ONE;
        self.apply_1q_matrix(&p, qubit);
        let tr = self.trace();
        if tr <= 1e-300 {
            return Err(SimError::ZeroProbabilityEvent);
        }
        self.scale_first_site(1.0 / tr.sqrt());
        Ok(())
    }

    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        self.pauli_expectation(observable)
    }

    fn channels_are_deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgls_statevector::DensityMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(n: usize, x: u64) -> BitString {
        BitString::from_u64(n, x)
    }

    #[test]
    fn zero_state_is_normalized() {
        let st = PurifiedMps::zero(3, PurifiedOptions::exact());
        assert!((st.probability(b(3, 0)) - 1.0).abs() < 1e-12);
        assert!((st.trace() - 1.0).abs() < 1e-12);
        assert_eq!(st.max_kraus_dimension(), 1);
    }

    #[test]
    fn ghz_probabilities_and_swap_routing() {
        let mut st = PurifiedMps::zero(4, PurifiedOptions::exact());
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 3]).unwrap(); // swap-routed
        st.apply_gate(&Gate::Cnot, &[3, 1]).unwrap();
        assert!((st.probability(b(4, 0b0000)) - 0.5).abs() < 1e-10);
        assert!((st.probability(b(4, 0b1011)) - 0.5).abs() < 1e-10);
        assert!(st.probability(b(4, 0b0001)) < 1e-12);
        assert!((st.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn single_qubit_channel_matches_density_matrix() {
        let mut st = PurifiedMps::zero(1, PurifiedOptions::exact());
        let mut dm = DensityMatrix::zero(1);
        let mut rng = StdRng::seed_from_u64(1);
        st.apply_gate(&Gate::H, &[0]).unwrap();
        dm.apply_gate(&Gate::H, &[0]).unwrap();
        let ch = Channel::amplitude_damping(0.3).unwrap();
        st.apply_kraus(&ch, &[0], &mut rng).unwrap();
        dm.apply_kraus(&ch, &[0], &mut rng).unwrap();
        for x in 0..2 {
            assert!((st.probability(b(1, x)) - dm.probability(b(1, x))).abs() < 1e-12);
        }
        // the channel decoheres: the X expectation shrinks identically
        let x: PauliString = "X0".parse().unwrap();
        assert!((st.pauli_expectation(&x).unwrap() - dm.expectation(&x).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn depolarized_ghz_matches_density() {
        let n = 4;
        let mut pm = PurifiedMps::zero(n, PurifiedOptions::exact());
        let mut dm = DensityMatrix::zero(n);
        let mut rng = StdRng::seed_from_u64(0);
        let both_g = |g: &Gate, qs: &[usize], pm: &mut PurifiedMps, dm: &mut DensityMatrix| {
            pm.apply_gate(g, qs).unwrap();
            dm.apply_gate(g, qs).unwrap();
        };
        both_g(&Gate::H, &[0], &mut pm, &mut dm);
        for i in 1..n {
            both_g(&Gate::Cnot, &[i - 1, i], &mut pm, &mut dm);
        }
        let ch = Channel::depolarizing(0.2).unwrap();
        for q in 0..n {
            pm.apply_kraus(&ch, &[q], &mut rng).unwrap();
            dm.apply_kraus(&ch, &[q], &mut rng).unwrap();
        }
        for x in 0..1u64 << n {
            let a = pm.probability(b(n, x));
            let e = dm.probability(b(n, x));
            assert!((a - e).abs() < 1e-10, "P({x:04b}): {a} vs {e}");
        }
        for s in ["Z0 Z1 Z2 Z3", "X0 X1 X2 X3", "Z1", "Y0 Y3"] {
            let p: PauliString = s.parse().unwrap();
            let a = pm.pauli_expectation(&p).unwrap();
            let e = dm.expectation(&p).unwrap();
            assert!((a - e).abs() < 1e-10, "{s}: {a} vs {e}");
        }
        // Kraus legs were grown by 4 per channel, then rank-compressed
        // back under 2 * l * r
        assert!(pm.max_kraus_dimension() <= 8);
    }

    #[test]
    fn two_qubit_channel_matches_density() {
        let n = 3;
        let mut pm = PurifiedMps::zero(n, PurifiedOptions::exact());
        let mut dm = DensityMatrix::zero(n);
        let mut rng = StdRng::seed_from_u64(0);
        for (g, qs) in [
            (Gate::H, vec![0]),
            (Gate::Cnot, vec![0, 1]),
            (Gate::T, vec![1]),
            (Gate::Ry(0.7.into()), vec![2]),
        ] {
            pm.apply_gate(&g, &qs).unwrap();
            dm.apply_gate(&g, &qs).unwrap();
        }
        let ch2 = Channel::depolarizing2(0.15).unwrap();
        // both orientations, including a swap-routed non-adjacent pair
        pm.apply_kraus(&ch2, &[0, 1], &mut rng).unwrap();
        dm.apply_kraus(&ch2, &[0, 1], &mut rng).unwrap();
        pm.apply_kraus(&ch2, &[2, 0], &mut rng).unwrap();
        dm.apply_kraus(&ch2, &[2, 0], &mut rng).unwrap();
        for x in 0..1u64 << n {
            let a = pm.probability(b(n, x));
            let e = dm.probability(b(n, x));
            assert!((a - e).abs() < 1e-10, "P({x:03b}): {a} vs {e}");
        }
        for s in ["Z0", "X1 Z2", "Y0 X1 Z2"] {
            let p: PauliString = s.parse().unwrap();
            let a = pm.pauli_expectation(&p).unwrap();
            let e = dm.expectation(&p).unwrap();
            assert!((a - e).abs() < 1e-10, "{s}: {a} vs {e}");
        }
    }

    #[test]
    fn project_conditions_the_mixed_state() {
        let mut st = PurifiedMps::zero(2, PurifiedOptions::exact());
        let mut rng = StdRng::seed_from_u64(0);
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        st.apply_kraus(&Channel::depolarizing(0.1).unwrap(), &[0], &mut rng)
            .unwrap();
        st.project(0, true).unwrap();
        assert!((st.trace() - 1.0).abs() < 1e-10);
        // conditioned on qubit 0 = 1, qubit 1 is overwhelmingly 1
        let p11 = st.probability(b(2, 0b11));
        let p01 = st.probability(b(2, 0b01));
        assert!((p11 + p01 - 1.0).abs() < 1e-10);
        assert!(p11 > 0.9, "{p11}");
        // zero-probability projection errors without poisoning the state
        let mut zero = PurifiedMps::zero(1, PurifiedOptions::exact());
        assert!(matches!(
            zero.project(0, true),
            Err(SimError::ZeroProbabilityEvent)
        ));
    }

    #[test]
    fn deterministic_branch_contract_mirrors_density() {
        let st = PurifiedMps::zero(2, PurifiedOptions::exact());
        let ch = Channel::bit_flip(0.25).unwrap();
        assert!(st.channels_are_deterministic());
        assert_eq!(st.kraus_branch_probabilities(&ch, &[0]).unwrap(), vec![1.0]);
        let mut st = st;
        assert!(matches!(
            st.apply_kraus_branch(&ch, 1, &[0]),
            Err(SimError::Invalid(_))
        ));
        st.apply_kraus_branch(&ch, 0, &[0]).unwrap();
        assert!((st.probability(b(2, 0b00)) - 0.75).abs() < 1e-12);
        assert!((st.probability(b(2, 0b01)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bond_cap_truncates_and_renormalizes() {
        let mut st = PurifiedMps::zero(4, PurifiedOptions::with_max_bond(1));
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        assert_eq!(st.max_bond_dimension(), 1);
        assert!(st.truncation_weight() > 0.1);
        assert!((st.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kraus_cap_truncates_the_purification_leg() {
        let opts = PurifiedOptions::exact().with_max_kraus(1);
        let mut st = PurifiedMps::zero(1, opts);
        let mut rng = StdRng::seed_from_u64(0);
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_kraus(&Channel::depolarizing(0.5).unwrap(), &[0], &mut rng)
            .unwrap();
        assert_eq!(st.max_kraus_dimension(), 1);
        assert!(st.truncation_weight() > 0.0);
        // truncation renormalizes so the state is still a unit-trace
        // (approximate) mixed state
        assert!((st.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_wide_operations_with_typed_errors() {
        let mut st = PurifiedMps::zero(3, PurifiedOptions::exact());
        assert!(matches!(
            st.apply_gate(&Gate::Ccx, &[0, 1, 2]),
            Err(SimError::Unsupported(_))
        ));
        assert!(st.pauli_expectation(&"Z7".parse().unwrap()).is_err());
    }

    #[test]
    fn batched_probabilities_are_bit_identical_to_scalar() {
        let mut st = PurifiedMps::zero(5, PurifiedOptions::exact());
        let mut rng = StdRng::seed_from_u64(3);
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 3]).unwrap();
        st.apply_gate(&Gate::T, &[3]).unwrap();
        st.apply_kraus(&Channel::depolarizing(0.2).unwrap(), &[1], &mut rng)
            .unwrap();
        st.apply_gate(&Gate::ISwap, &[1, 4]).unwrap();
        let base = BitString::from_u64(5, 0b10110);
        let cands = base.candidates(&[0, 2, 4]);
        let batched = st.probabilities_batch(&cands);
        for (c, p) in cands.iter().zip(&batched) {
            assert_eq!(p.to_bits(), st.probability(*c).to_bits(), "{c}");
        }
    }

    /// Checks `st` right after an op on `support`: sampler-shaped sets
    /// (one and several map entries) and a random set must give
    /// `probabilities_batch == probability` by `to_bits()`, never `-0.0`,
    /// and agree with `dm` to 1e-10 when given.
    fn check_split_sweep(
        st: &PurifiedMps,
        dm: Option<&DensityMatrix>,
        support: &[usize],
        rng: &mut StdRng,
    ) {
        use rand::Rng;
        let n = st.num_qubits();
        let mut random = || BitString::from_u64(n, rng.gen::<u64>());
        let sets: Vec<Vec<BitString>> = vec![
            random().candidates(support),
            (0..3).flat_map(|_| random().candidates(support)).collect(),
            (0..9).map(|_| random()).collect(),
        ];
        for cands in sets {
            let batched = st.probabilities_batch(&cands);
            for (c, p) in cands.iter().zip(&batched) {
                let scalar = st.probability(*c);
                assert_eq!(
                    p.to_bits(),
                    scalar.to_bits(),
                    "batch {p} vs scalar {scalar} at {c}"
                );
                assert_ne!(p.to_bits(), (-0.0f64).to_bits(), "{c}");
                if let Some(dm) = dm {
                    let e = dm.probability(*c);
                    assert!((p - e).abs() < 1e-10, "{c}: pmps {p} vs density {e}");
                }
            }
        }
    }

    #[test]
    fn split_sweep_is_bit_identical_and_exact_after_every_op() {
        use rand::Rng;
        // (seed, qubits, bond cap): two exact runs, one truncating both
        // the bonds and the Kraus legs
        for (seed, n, chi) in [(21u64, 5, None), (22, 4, None), (23, 6, Some(2))] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = PurifiedMps::zero(
                n,
                PurifiedOptions {
                    max_bond: chi,
                    max_kraus: chi.map(|c| 2 * c),
                    ..PurifiedOptions::exact()
                },
            );
            let mut dm = DensityMatrix::zero(n);
            let mut splits = vec![false; n];
            let mut zeros = 0;
            for step in 0..24 {
                let pair = |rng: &mut StdRng| {
                    let a = rng.gen_range(0..n);
                    vec![a, (a + rng.gen_range(1..n)) % n]
                };
                let support = match step % 6 {
                    // 1q channels and the 2q channel between gates
                    1 => {
                        let q = vec![rng.gen_range(0..n)];
                        let ch = if rng.gen::<bool>() {
                            Channel::depolarizing(0.1).unwrap()
                        } else {
                            Channel::amplitude_damping(0.2).unwrap()
                        };
                        st.apply_kraus(&ch, &q, &mut rng).unwrap();
                        dm.apply_kraus(&ch, &q, &mut rng).unwrap();
                        q
                    }
                    3 if step % 12 == 3 => {
                        let qs = pair(&mut rng);
                        let ch = Channel::depolarizing2(0.05).unwrap();
                        st.apply_kraus(&ch, &qs, &mut rng).unwrap();
                        dm.apply_kraus(&ch, &qs, &mut rng).unwrap();
                        qs
                    }
                    4 => {
                        // project onto the likelier outcome
                        let q = rng.gen_range(0..n);
                        let z = st
                            .pauli_expectation(&format!("Z{q}").parse().unwrap())
                            .unwrap();
                        let value = (1.0 - z) / 2.0 > 0.5;
                        st.project(q, value).unwrap();
                        dm.project(q, value).unwrap();
                        vec![q]
                    }
                    _ => {
                        let qs = match step % 7 {
                            // pin the split to both ends of the chain
                            0 => vec![st.qubit_of_site[0]],
                            2 => vec![st.qubit_of_site[n - 2], st.qubit_of_site[n - 1]],
                            _ if rng.gen::<bool>() => vec![rng.gen_range(0..n)],
                            _ => pair(&mut rng),
                        };
                        let theta = rng.gen::<f64>() * 3.0;
                        let gate = match (qs.len(), rng.gen_range(0..3)) {
                            (1, 0) => Gate::H,
                            (1, 1) => Gate::SqrtX,
                            (1, _) => Gate::Ry(theta.into()),
                            (_, 0) => Gate::Cnot,
                            (_, 1) => Gate::ISwap,
                            _ => Gate::Rzz(theta.into()),
                        };
                        st.apply_gate(&gate, &qs).unwrap();
                        dm.apply_gate(&gate, &qs).unwrap();
                        qs
                    }
                };
                splits[st.split] = true;
                zeros += st
                    .probabilities_batch(&[BitString::zeros(n), BitString::from_u64(n, u64::MAX)])
                    .iter()
                    .filter(|&&p| p == 0.0)
                    .count();
                let exact = chi.is_none().then_some(&dm);
                check_split_sweep(&st, exact, &support, &mut rng);
            }
            assert!(splits[0] && splits[n - 1], "splits seen: {splits:?}");
            // exact zeros (product-state start, projections) were covered
            assert!(zeros > 0);
            if chi.is_some() {
                assert!(st.truncation_weight() > 0.0);
            }
        }
    }

    #[test]
    fn identity_expectation_is_the_trace() {
        let mut st = PurifiedMps::zero(3, PurifiedOptions::exact());
        let mut rng = StdRng::seed_from_u64(0);
        st.apply_gate(&Gate::H, &[1]).unwrap();
        st.apply_kraus(&Channel::phase_flip(0.3).unwrap(), &[1], &mut rng)
            .unwrap();
        let id = PauliString::identity();
        assert!((st.pauli_expectation(&id).unwrap() - 1.0).abs() < 1e-10);
    }
}
