//! Canonical chain matrix-product state with bond truncation — the
//! chi-capped `MPSOptions` workflow used for the QAOA experiment
//! (paper Sec. 4.4).
//!
//! Site tensors `A_i[l, p, r]` hold one physical leg (`p`, dim 2) between
//! bond legs. Two-qubit gates on non-adjacent qubits are routed with
//! adjacent SWAPs under a tracked qubit-to-site permutation. After every
//! two-site gate the merged tensor is split by SVD, truncating to
//! `max_bond` and accumulating the discarded weight. Bitstring amplitudes
//! cost `O(n chi^2)` — the `f(n, d)` that makes wide, lowly-entangled
//! circuits cheap (Fig. 7).
//!
//! Candidate amplitudes are split at the last-touched site `s`:
//! `<x|psi> = L(x) . R(x)`, with `L` contracting sites `[0, s)` left to
//! right and `R` contracting sites `[s, n)` right to left, each shared
//! across the candidate list by a prefix [`Trie`]. Gate-by-gate sampling
//! only varies the bits on the op just applied, whose sites sit on either
//! side of `s`, so a candidate set contracts the rest of the chain once.

use bgls_circuit::{Channel, Gate, PauliString};
use bgls_core::{AmplitudeState, BglsState, BitString, SimError};
use bgls_linalg::{gemm, svd_slice, Matrix, C64};
use rand::{Rng, RngCore};
use std::cell::RefCell;

use crate::trie::Trie;

/// Reusable buffers for the two-site split, the transfer-matrix norm,
/// and the split amplitude sweep. Thread-local so `ChainMps` values
/// stay plain data (`Clone + Send + Sync`) while per-gate allocations
/// are amortized away — the same buffer-reuse discipline PR 3 applied
/// to replay states via `clone_from`.
#[derive(Default)]
struct ChainScratch {
    /// Merged two-site tensor `theta` (`2l x 2r`).
    theta: Vec<C64>,
    /// Gate-applied theta, fed straight to the SVD.
    gated: Vec<C64>,
    /// Transfer-matrix environment (`dim x dim`).
    rho: Vec<C64>,
    /// Next transfer-matrix environment.
    rho_next: Vec<C64>,
    /// `M_p^T rho` intermediate (`r x l`).
    tmat: Vec<C64>,
    /// Conjugated physical slice (`l x r`).
    conj_slice: Vec<C64>,
    /// One-qubit gate application buffer.
    buf_1q: Vec<C64>,
    /// Prefix trie of the left sweep (sites `[0, s)`).
    left: Trie,
    /// Suffix trie of the right sweep (sites `[s, n)`, descending).
    right: Trie,
    /// Left environment rows (`rows x bond`).
    env_l: Vec<C64>,
    /// Right environment rows (`rows x bond`).
    env_r: Vec<C64>,
    /// Next environment rows of either sweep.
    env_next: Vec<C64>,
}

thread_local! {
    static SCRATCH: RefCell<ChainScratch> = RefCell::new(ChainScratch::default());
}

/// Truncation options — the `cirq.contrib.quimb.MPSOptions` substitute.
#[derive(Clone, Copy, Debug)]
pub struct MpsOptions {
    /// Maximum bond dimension chi (`None` = unbounded, exact simulation).
    pub max_bond: Option<usize>,
    /// Singular values at or below this threshold are dropped.
    pub cutoff: f64,
}

impl Default for MpsOptions {
    fn default() -> Self {
        MpsOptions {
            max_bond: None,
            cutoff: 1e-12,
        }
    }
}

impl MpsOptions {
    /// Unbounded-chi exact options.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Caps the bond dimension at `chi`.
    pub fn with_max_bond(chi: usize) -> Self {
        MpsOptions {
            max_bond: Some(chi),
            cutoff: 1e-12,
        }
    }
}

/// One site tensor `A[l, p, r]`, row-major over `(l, p, r)`.
#[derive(Clone, Debug)]
struct Site {
    l: usize,
    r: usize,
    data: Vec<C64>,
}

impl Site {
    /// One split-sweep step through this site's `bit` slice: child row
    /// `j` of `out` is `sum_a env[parents[j], a] * A(a, b)`, with `a` the
    /// left bond and `b` the right bond when `rightward`, the reverse
    /// otherwise. One gather-GEMM over all rows.
    fn advance(
        &self,
        bit: usize,
        rightward: bool,
        parents: &[usize],
        env: &[C64],
        out: &mut [C64],
    ) {
        let (l, r) = (self.l, self.r);
        // (dimension, stride in `data`) of the contracted and free bonds
        let ((din, s_in), (dout, s_out)) = if rightward {
            ((l, 2 * r), (r, 1))
        } else {
            ((r, 1), (l, 2 * r))
        };
        gemm::with_scratch(|g| {
            g.moff.clear();
            g.moff.extend(parents.iter().map(|&p| p * din));
            g.a_koff.clear();
            g.a_koff.extend(0..din);
            g.b_koff.clear();
            g.b_koff.extend((0..din).map(|a| bit * r + a * s_in));
            g.noff.clear();
            g.noff.extend((0..dout).map(|b| b * s_out));
            gemm::matmul_gather_into(out, parents.len(), din, dout, env, &self.data, g);
        });
    }
}

/// Chain MPS over `n` qubits with a tracked qubit-to-site permutation.
#[derive(Clone, Debug)]
pub struct ChainMps {
    sites: Vec<Site>,
    site_of_qubit: Vec<usize>,
    qubit_of_site: Vec<usize>,
    options: MpsOptions,
    truncation_weight: f64,
    n: usize,
    /// Split site of the amplitude sweep: the site of the last 1q update,
    /// or the right site of the last two-site update.
    split: usize,
}

impl ChainMps {
    /// The all-zeros product state with the given truncation options.
    pub fn zero(n: usize, options: MpsOptions) -> Self {
        assert!(n > 0, "need at least one qubit");
        if let Some(chi) = options.max_bond {
            assert!(chi >= 1, "max_bond must be at least 1");
        }
        let sites = (0..n)
            .map(|_| Site {
                l: 1,
                r: 1,
                data: vec![C64::ONE, C64::ZERO],
            })
            .collect();
        ChainMps {
            sites,
            site_of_qubit: (0..n).collect(),
            qubit_of_site: (0..n).collect(),
            options,
            truncation_weight: 0.0,
            n,
            split: 0,
        }
    }

    /// Accumulated discarded squared Schmidt weight across all
    /// truncations (0 for exact evolution).
    pub fn truncation_weight(&self) -> f64 {
        self.truncation_weight
    }

    /// Largest bond dimension currently in the chain.
    pub fn max_bond_dimension(&self) -> usize {
        self.sites.iter().map(|s| s.r).max().unwrap_or(1)
    }

    /// The truncation options in force.
    pub fn options(&self) -> MpsOptions {
        self.options
    }

    fn apply_1q_matrix(&mut self, u: &Matrix, q: usize) {
        let i = self.site_of_qubit[q];
        self.split = i;
        let site = &mut self.sites[i];
        let (l, r) = (site.l, site.r);
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.buf_1q.clear();
            sc.buf_1q.resize(site.data.len(), C64::ZERO);
            let out = &mut sc.buf_1q;
            for li in 0..l {
                for ri in 0..r {
                    let a0 = site.data[(li * 2) * r + ri];
                    let a1 = site.data[(li * 2 + 1) * r + ri];
                    out[(li * 2) * r + ri] = u[(0, 0)] * a0 + u[(0, 1)] * a1;
                    out[(li * 2 + 1) * r + ri] = u[(1, 0)] * a0 + u[(1, 1)] * a1;
                }
            }
            std::mem::swap(&mut site.data, &mut sc.buf_1q);
        });
    }

    /// Applies a 4x4 matrix to adjacent sites `(i, i+1)`; gate index bit 1
    /// (most significant) belongs to site `i`.
    ///
    /// The merge is one GEMM — site tensors `A[l, p, m]` and
    /// `B[m, p, r]` are *already* the row-major `(2l x m)` and
    /// `(m x 2r)` operands of the theta product — the gate application
    /// is a `(4 x 4)(4 x r)` GEMM per left-bond block, and the gated
    /// buffer doubles as the `(2l x 2r)` SVD input with no reshape copy.
    /// All intermediates live in the thread-local [`ChainScratch`].
    fn apply_two_site(&mut self, i: usize, u: &Matrix) {
        let (l, r) = (self.sites[i].l, self.sites[i + 1].r);
        let chi_cap = self.options.max_bond.unwrap_or(usize::MAX);
        let (d, err) = SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let a = &self.sites[i];
            let b = &self.sites[i + 1];
            let m = a.r;
            debug_assert_eq!(b.l, m);
            // theta[(l p1), (p2 r)] = sum_m A[(l p1), m] B[m, (p2 r)]
            sc.theta.clear();
            sc.theta.resize(l * 4 * r, C64::ZERO);
            gemm::matmul_into(&mut sc.theta, 2 * l, m, 2 * r, &a.data, &b.data);
            // gate application over the two physical legs: block `li` of
            // theta is (4 x r) row-major over the joint physical index
            sc.gated.clear();
            sc.gated.resize(l * 4 * r, C64::ZERO);
            for li in 0..l {
                gemm::matmul_into(
                    &mut sc.gated[li * 4 * r..(li + 1) * 4 * r],
                    4,
                    4,
                    r,
                    u.data(),
                    &sc.theta[li * 4 * r..(li + 1) * 4 * r],
                );
            }
            // `gated` is already the (2l x 2r) split matrix.
            let mut d = svd_slice(l * 2, 2 * r, &sc.gated);
            let err = d.truncate(chi_cap, self.options.cutoff);
            (d, err)
        });
        self.truncation_weight += err;
        self.split = i + 1;
        let chi = d.s.len();
        let mut na_data = std::mem::take(&mut self.sites[i].data);
        na_data.clear();
        na_data.resize(l * 2 * chi, C64::ZERO);
        for li2 in 0..l * 2 {
            for k in 0..chi {
                na_data[li2 * chi + k] = d.u[(li2, k)];
            }
        }
        let mut nb_data = std::mem::take(&mut self.sites[i + 1].data);
        nb_data.clear();
        nb_data.resize(chi * 2 * r, C64::ZERO);
        for k in 0..chi {
            for p2 in 0..2 {
                for ri in 0..r {
                    nb_data[(k * 2 + p2) * r + ri] = d.vt[(k, p2 * r + ri)] * d.s[k];
                }
            }
        }
        self.sites[i] = Site {
            l,
            r: chi,
            data: na_data,
        };
        self.sites[i + 1] = Site {
            l: chi,
            r,
            data: nb_data,
        };
        // Truncation shrinks the state; renormalize exactly. (The chain is
        // not kept in canonical form, so the discarded singular weight
        // alone does not determine the norm change.)
        if err > 0.0 {
            let norm = self.norm_sqr();
            if norm > 0.0 {
                self.scale_first_site(1.0 / norm.sqrt());
            }
        }
    }

    /// Swaps the qubits at sites `i` and `i+1` (full SWAP gate + mapping
    /// update).
    fn swap_adjacent(&mut self, i: usize) {
        let swap = Gate::Swap.unitary().expect("SWAP");
        self.apply_two_site(i, &swap);
        let (qa, qb) = (self.qubit_of_site[i], self.qubit_of_site[i + 1]);
        self.qubit_of_site.swap(i, i + 1);
        self.site_of_qubit[qa] = i + 1;
        self.site_of_qubit[qb] = i;
    }

    fn apply_2q_matrix(&mut self, u: &Matrix, qa: usize, qb: usize) {
        // route qa's site next to qb's
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
        // now adjacent; left site index:
        if sa < sb {
            // site sa holds qa (gate's most significant bit): use u as-is
            self.apply_two_site(sa, u);
        } else {
            // left site holds qb: permute gate qubit roles
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
            self.apply_two_site(sb, &flipped);
        }
    }

    /// Amplitude `<bits|psi>` in `O(n chi^2)` by the split sweep.
    pub fn amplitude_of(&self, bits: BitString) -> C64 {
        let mut amp = C64::ZERO;
        self.split_amplitudes(&[bits], |_, a| amp = a);
        amp
    }

    /// Amplitudes of every candidate as `L(x) . R(x)` split at site `s`
    /// (`self.split`), passed to `emit(candidate index, amplitude)`.
    ///
    /// The left sweep descends sites `0..s`, the right sweep sites
    /// `n-1..=s`, each on its own [`Trie`]: a level advances every row
    /// with at most two gather-GEMMs (one per physical bit value), so a
    /// chain stretch the candidates agree on is contracted once for the
    /// whole list. Each candidate then closes with one length-`chi` dot
    /// product of its left and right rows.
    ///
    /// A row's entries fold their terms in the same ascending order
    /// whatever other rows share the GEMM (the blocked kernels'
    /// determinism contract), and `s` belongs to the state, so every
    /// candidate's amplitude is a pure function of `(state, x)`: a batch
    /// of any composition reproduces the single-candidate result bit for
    /// bit. (The GEMM may multiply structural zeros a one-row fold
    /// skips, which can flip the sign of an exact-zero component but
    /// never survives `norm_sqr`.)
    fn split_amplitudes(&self, candidates: &[BitString], mut emit: impl FnMut(usize, C64)) {
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
            let ChainScratch {
                left,
                right,
                env_l,
                env_r,
                env_next,
                ..
            } = sc;
            let levels = (0..s).map(|i| (i, self.qubit_of_site[i], self.sites[i].r));
            left.sweep(
                candidates,
                levels,
                env_l,
                env_next,
                |i, bit, parents, env, out| self.sites[i].advance(bit, true, parents, env, out),
            );
            let levels = (s..self.n)
                .rev()
                .map(|i| (i, self.qubit_of_site[i], self.sites[i].l));
            right.sweep(
                candidates,
                levels,
                env_r,
                env_next,
                |i, bit, parents, env, out| self.sites[i].advance(bit, false, parents, env, out),
            );
            let dim = self.sites[s].l;
            for c in 0..candidates.len() {
                let lv = &env_l[left.row(c) * dim..][..dim];
                let rv = &env_r[right.row(c) * dim..][..dim];
                let amp = lv
                    .iter()
                    .zip(rv)
                    .fold(C64::ZERO, |acc, (&a, &b)| a.mul_add(b, acc));
                emit(c, amp);
            }
        });
    }

    /// Squared norm via transfer-matrix contraction.
    ///
    /// Each site advances the environment as
    /// `rho' = sum_p M_p^T rho conj(M_p)` — two GEMMs per physical
    /// value on the blocked kernels (`O(n chi^3)` arithmetic at GEMM
    /// speed instead of the historical scalar `O(n chi^4)` loop), with
    /// every intermediate in the thread-local scratch. Deterministic: a
    /// pure function of the state, identical on every call and thread
    /// count.
    pub fn norm_sqr(&self) -> f64 {
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            // rho[l, l'] environment, starting 1x1
            sc.rho.clear();
            sc.rho.push(C64::ONE);
            let mut dim = 1usize;
            for site in &self.sites {
                let (l, r) = (site.l, site.r);
                debug_assert_eq!(l, dim);
                sc.rho_next.clear();
                sc.rho_next.resize(r * r, C64::ZERO);
                for p in 0..2 {
                    // T = M_p^T rho, gathering M_p[li, ri] = A[li, p, ri]
                    // straight from the site tensor (no transposed copy).
                    sc.tmat.clear();
                    sc.tmat.resize(r * l, C64::ZERO);
                    gemm::with_scratch(|g| {
                        g.moff.clear();
                        g.moff.extend(0..r);
                        g.a_koff.clear();
                        g.a_koff.extend((0..l).map(|li| (li * 2 + p) * r));
                        g.b_koff.clear();
                        g.b_koff.extend((0..l).map(|li| li * l));
                        g.noff.clear();
                        g.noff.extend(0..l);
                        gemm::matmul_gather_into(&mut sc.tmat, r, l, l, &site.data, &sc.rho, g);
                    });
                    // rho' += T conj(M_p)
                    sc.conj_slice.clear();
                    sc.conj_slice
                        .extend((0..l * r).map(|t| site.data[(t / r * 2 + p) * r + t % r].conj()));
                    gemm::matmul_acc_into(&mut sc.rho_next, r, l, r, &sc.tmat, &sc.conj_slice);
                }
                std::mem::swap(&mut sc.rho, &mut sc.rho_next);
                dim = r;
            }
            sc.rho[0].re
        })
    }

    /// Exact expectation `<psi| prod_q O_q |psi>` of a product of
    /// single-qubit operators, by the same GEMM transfer-matrix sweep as
    /// [`ChainMps::norm_sqr`] with the operator matrix elements woven
    /// into the bra-side slice: at each site,
    /// `rho' = sum_{p, p'} O[p', p] * M_p^T rho conj(M_{p'})`
    /// (identity sites keep the two-GEMM norm step). `O(n chi^3)`
    /// arithmetic on the blocked kernels, intermediates in the
    /// thread-local scratch. Deterministic: a pure function of the
    /// state.
    fn operator_product_expectation(&self, site_ops: &[Option<Matrix>]) -> C64 {
        debug_assert_eq!(site_ops.len(), self.sites.len());
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.rho.clear();
            sc.rho.push(C64::ONE);
            let mut dim = 1usize;
            for (site, op) in self.sites.iter().zip(site_ops) {
                let (l, r) = (site.l, site.r);
                debug_assert_eq!(l, dim);
                sc.rho_next.clear();
                sc.rho_next.resize(r * r, C64::ZERO);
                for p in 0..2 {
                    // T = M_p^T rho, gathered straight from the site
                    // tensor exactly as in norm_sqr.
                    sc.tmat.clear();
                    sc.tmat.resize(r * l, C64::ZERO);
                    gemm::with_scratch(|g| {
                        g.moff.clear();
                        g.moff.extend(0..r);
                        g.a_koff.clear();
                        g.a_koff.extend((0..l).map(|li| (li * 2 + p) * r));
                        g.b_koff.clear();
                        g.b_koff.extend((0..l).map(|li| li * l));
                        g.noff.clear();
                        g.noff.extend(0..l);
                        gemm::matmul_gather_into(&mut sc.tmat, r, l, l, &site.data, &sc.rho, g);
                    });
                    for p_out in 0..2 {
                        let w = match op {
                            // identity site: only the diagonal survives
                            None if p_out == p => C64::ONE,
                            None => continue,
                            Some(m) => m[(p_out, p)],
                        };
                        if w == C64::ZERO {
                            continue;
                        }
                        // rho' += T (w * conj(M_{p_out})): the operator
                        // element rides the conjugated bra slice.
                        sc.conj_slice.clear();
                        sc.conj_slice.extend(
                            (0..l * r)
                                .map(|t| site.data[(t / r * 2 + p_out) * r + t % r].conj() * w),
                        );
                        gemm::matmul_acc_into(&mut sc.rho_next, r, l, r, &sc.tmat, &sc.conj_slice);
                    }
                }
                std::mem::swap(&mut sc.rho, &mut sc.rho_next);
                dim = r;
            }
            debug_assert_eq!(dim, 1);
            sc.rho[0]
        })
    }

    /// Exact Pauli expectation `<psi|P|psi>` via the operator-woven
    /// transfer-matrix sweep above, with each Pauli factor routed to its
    /// current site through the tracked qubit-to-site permutation.
    pub fn pauli_expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        if let Some(q) = observable.max_qubit() {
            self.check_qubits(&[q])?;
        }
        let mut site_ops: Vec<Option<Matrix>> = vec![None; self.sites.len()];
        for (q, op) in observable.iter() {
            site_ops[self.site_of_qubit[q]] = Some(op.matrix());
        }
        Ok(self.operator_product_expectation(&site_ops).re)
    }

    /// Rescales the whole state by `k` (used after non-unitary Kraus
    /// application).
    fn scale_first_site(&mut self, k: f64) {
        for z in &mut self.sites[0].data {
            *z *= k;
        }
    }

    /// Dense ket for verification (exponential).
    pub fn ket(&self) -> Vec<C64> {
        assert!(self.n <= 16, "ket() limited to 16 qubits");
        let all: Vec<BitString> = (0..1u64 << self.n)
            .map(|x| BitString::from_u64(self.n, x))
            .collect();
        let mut ket = vec![C64::ZERO; all.len()];
        self.split_amplitudes(&all, |c, a| ket[c] = a);
        ket
    }
}

impl BglsState for ChainMps {
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
                "{k}-qubit gates on chain MPS (decompose first)"
            ))),
        }
    }

    fn probability(&self, bits: BitString) -> f64 {
        self.amplitude_of(bits).norm_sqr()
    }

    fn probabilities_batch(&self, candidates: &[BitString]) -> Vec<f64> {
        let mut out = vec![0.0; candidates.len()];
        self.split_amplitudes(candidates, |c, a| out[c] = a.norm_sqr());
        out
    }

    fn expectation(&self, observable: &PauliString) -> Result<f64, SimError> {
        self.pauli_expectation(observable)
    }

    fn project(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        self.check_qubits(&[qubit])?;
        // apply |v><v| on the physical leg, then renormalize globally
        let mut p = Matrix::zeros(2, 2);
        let idx = value as usize;
        p[(idx, idx)] = C64::ONE;
        self.apply_1q_matrix(&p, qubit);
        let norm = self.norm_sqr();
        if norm <= 1e-300 {
            return Err(SimError::ZeroProbabilityEvent);
        }
        self.scale_first_site(1.0 / norm.sqrt());
        Ok(())
    }

    fn kraus_branch_probabilities(
        &self,
        channel: &Channel,
        qubits: &[usize],
    ) -> Result<Vec<f64>, SimError> {
        self.check_qubits(qubits)?;
        if qubits.len() != 1 {
            return Err(SimError::Unsupported(
                "multi-qubit channels on chain MPS".into(),
            ));
        }
        Ok(channel
            .kraus()
            .iter()
            .map(|k| {
                let mut cand = self.clone();
                cand.apply_1q_matrix(k, qubits[0]);
                cand.norm_sqr()
            })
            .collect())
    }

    fn apply_kraus_branch(
        &mut self,
        channel: &Channel,
        branch: usize,
        qubits: &[usize],
    ) -> Result<(), SimError> {
        self.check_qubits(qubits)?;
        if qubits.len() != 1 {
            return Err(SimError::Unsupported(
                "multi-qubit channels on chain MPS".into(),
            ));
        }
        let k = channel
            .kraus()
            .get(branch)
            .ok_or_else(|| SimError::Invalid(format!("Kraus branch {branch} out of range")))?;
        // apply on a candidate so a zero-weight branch leaves the state
        // untouched instead of poisoned
        let mut cand = self.clone();
        cand.apply_1q_matrix(k, qubits[0]);
        let norm = cand.norm_sqr();
        if norm <= 0.0 {
            return Err(SimError::ZeroProbabilityEvent);
        }
        cand.scale_first_site(1.0 / norm.sqrt());
        *self = cand;
        Ok(())
    }

    fn apply_kraus(
        &mut self,
        channel: &Channel,
        qubits: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<usize, SimError> {
        self.check_qubits(qubits)?;
        if qubits.len() != 1 {
            return Err(SimError::Unsupported(
                "multi-qubit channels on chain MPS".into(),
            ));
        }
        let mut r: f64 = rng.gen::<f64>();
        let last = channel.kraus().len() - 1;
        for (i, k) in channel.kraus().iter().enumerate() {
            let mut cand = self.clone();
            cand.apply_1q_matrix(k, qubits[0]);
            let norm = cand.norm_sqr();
            if r < norm || i == last {
                if norm <= 0.0 {
                    return Err(SimError::ZeroProbabilityEvent);
                }
                cand.scale_first_site(1.0 / norm.sqrt());
                *self = cand;
                return Ok(i);
            }
            r -= norm;
        }
        unreachable!("last branch always taken")
    }
}

impl AmplitudeState for ChainMps {
    fn amplitude(&self, bits: BitString) -> C64 {
        self.amplitude_of(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: usize, x: u64) -> BitString {
        BitString::from_u64(n, x)
    }

    #[test]
    fn zero_state() {
        let st = ChainMps::zero(3, MpsOptions::exact());
        assert!((st.probability(b(3, 0)) - 1.0).abs() < 1e-12);
        assert!((st.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_adjacent() {
        let mut st = ChainMps::zero(3, MpsOptions::exact());
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 1]).unwrap();
        st.apply_gate(&Gate::Cnot, &[1, 2]).unwrap();
        assert!((st.probability(b(3, 0b000)) - 0.5).abs() < 1e-12);
        assert!((st.probability(b(3, 0b111)) - 0.5).abs() < 1e-12);
        assert!(st.probability(b(3, 0b010)) < 1e-15);
        assert_eq!(st.max_bond_dimension(), 2);
        assert_eq!(st.truncation_weight(), 0.0);
    }

    #[test]
    fn non_adjacent_gate_routes_with_swaps() {
        let mut st = ChainMps::zero(4, MpsOptions::exact());
        st.apply_gate(&Gate::X, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 3]).unwrap();
        assert!((st.probability(b(4, 0b1001)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_qubit_order_gate() {
        // control on the higher site
        let mut st = ChainMps::zero(2, MpsOptions::exact());
        st.apply_gate(&Gate::X, &[1]).unwrap();
        st.apply_gate(&Gate::Cnot, &[1, 0]).unwrap();
        assert!((st.probability(b(2, 0b11)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_cap_truncates_and_records_weight() {
        let mut st = ChainMps::zero(6, MpsOptions::with_max_bond(1));
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 1]).unwrap(); // needs chi 2
        assert_eq!(st.max_bond_dimension(), 1);
        assert!(st.truncation_weight() > 0.1);
        // norm stays ~1 thanks to rescaling
        assert!((st.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_chain_matches_known_ghz_after_many_swaps() {
        let mut st = ChainMps::zero(5, MpsOptions::exact());
        st.apply_gate(&Gate::H, &[0]).unwrap();
        // entangle in scrambled order
        for (a, c) in [(0usize, 4usize), (4, 2), (2, 1), (1, 3)] {
            st.apply_gate(&Gate::Cnot, &[a, c]).unwrap();
        }
        assert!((st.probability(b(5, 0)) - 0.5).abs() < 1e-10);
        assert!((st.probability(b(5, 0b11111)) - 0.5).abs() < 1e-10);
        assert!((st.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn kraus_trajectory_on_mps() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ch = Channel::bit_flip(1.0).unwrap();
        let mut st = ChainMps::zero(2, MpsOptions::exact());
        let mut rng = StdRng::seed_from_u64(0);
        st.apply_kraus(&ch, &[1], &mut rng).unwrap();
        assert!((st.probability(b(2, 0b10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_qubit_gate_unsupported() {
        let mut st = ChainMps::zero(3, MpsOptions::exact());
        assert!(matches!(
            st.apply_gate(&Gate::Ccx, &[0, 1, 2]),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn kraus_branch_probabilities_sum_to_one_on_entangled_chain() {
        let mut st = ChainMps::zero(3, MpsOptions::exact());
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 2]).unwrap();
        let ch = Channel::amplitude_damping(0.4).unwrap();
        let probs = st.kraus_branch_probabilities(&ch, &[2]).unwrap();
        assert_eq!(probs.len(), 2);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        // P(decay) = gamma * P(|1>) = 0.4 * 0.5
        assert!((probs[1] - 0.2).abs() < 1e-10);
        // multi-qubit channels stay unsupported
        let two = Channel::depolarizing2(0.1).unwrap();
        assert!(matches!(
            st.kraus_branch_probabilities(&two, &[0, 1]),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn apply_kraus_branch_renormalizes() {
        let mut st = ChainMps::zero(2, MpsOptions::exact());
        st.apply_gate(&Gate::H, &[1]).unwrap();
        let ch = Channel::bit_flip(0.5).unwrap();
        st.apply_kraus_branch(&ch, 1, &[0]).unwrap();
        assert!((st.norm_sqr() - 1.0).abs() < 1e-10);
        assert!((st.probability(b(2, 0b01)) - 0.5).abs() < 1e-10);
        // zero-weight branch errors and leaves the state untouched
        let zero = Channel::bit_flip(0.0).unwrap();
        let mut st = ChainMps::zero(1, MpsOptions::exact());
        assert!(matches!(
            st.apply_kraus_branch(&zero, 1, &[0]),
            Err(SimError::ZeroProbabilityEvent)
        ));
        assert!((st.probability(b(1, 0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_expectation_matches_statevector() {
        use bgls_statevector::StateVector;
        // scrambled chain whose swap routing permutes qubit -> site
        let gates: [(Gate, Vec<usize>); 7] = [
            (Gate::H, vec![0]),
            (Gate::Cnot, vec![0, 3]),
            (Gate::T, vec![3]),
            (Gate::ISwap, vec![1, 4]),
            (Gate::Ry(0.6.into()), vec![2]),
            (Gate::Cnot, vec![4, 1]),
            (Gate::Rzz(0.4.into()), vec![0, 2]),
        ];
        let mut st = ChainMps::zero(5, MpsOptions::exact());
        let mut sv = StateVector::zero(5);
        for (g, qs) in gates {
            st.apply_gate(&g, &qs).unwrap();
            sv.apply_gate(&g, &qs).unwrap();
        }
        for s in ["I", "Z0", "X3", "Y1 Z2", "X0 X3", "Z0 Y1 X2 Z3 Y4"] {
            let p: PauliString = s.parse().unwrap();
            let a = st.pauli_expectation(&p).unwrap();
            let b = sv.expectation(&p).unwrap();
            assert!((a - b).abs() < 1e-10, "{s}: mps {a} vs sv {b}");
        }
        // identity sweep reproduces the norm
        assert!((st.pauli_expectation(&PauliString::identity()).unwrap() - 1.0).abs() < 1e-10);
        assert!(st.pauli_expectation(&"Z7".parse().unwrap()).is_err());
    }

    #[test]
    fn batched_probabilities_are_bit_identical_to_scalar() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // scramble a 6-qubit chain, including swaps that permute sites
        let mut st = ChainMps::zero(6, MpsOptions::exact());
        st.apply_gate(&Gate::H, &[0]).unwrap();
        st.apply_gate(&Gate::Cnot, &[0, 3]).unwrap();
        st.apply_gate(&Gate::T, &[3]).unwrap();
        st.apply_gate(&Gate::ISwap, &[1, 4]).unwrap();
        st.apply_gate(&Gate::SqrtX, &[2]).unwrap();
        st.apply_gate(&Gate::Cnot, &[5, 2]).unwrap();
        st.apply_gate(&Gate::H, &[4]).unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        // candidate sets of the sampler's shape (shared base, varying
        // support) and fully random sets
        let base = BitString::from_u64(6, rng.gen::<u64>());
        let mut sets: Vec<Vec<BitString>> = vec![
            base.candidates(&[2, 4]),
            base.candidates(&[0]),
            base.candidates(&[1, 3, 5]),
        ];
        sets.push(
            (0..9)
                .map(|_| BitString::from_u64(6, rng.gen::<u64>()))
                .collect(),
        );
        for cands in sets {
            let batched = st.probabilities_batch(&cands);
            for (c, p) in cands.iter().zip(&batched) {
                let scalar = st.probability(*c);
                assert!(
                    p.to_bits() == scalar.to_bits(),
                    "batched {p} != scalar {scalar} for {c}"
                );
            }
        }
    }

    /// Checks `st` right after an op on `support`: sampler-shaped sets
    /// (one and several map entries) and a random set must agree as
    /// `probabilities_batch == probability == |amplitude_of|^2` by
    /// `to_bits()`, and with `sv` to 1e-10 when given.
    fn check_split_sweep(
        st: &ChainMps,
        sv: Option<&bgls_statevector::StateVector>,
        support: &[usize],
        rng: &mut rand::rngs::StdRng,
    ) {
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
                let amp = st.amplitude_of(*c).norm_sqr();
                assert_eq!(
                    p.to_bits(),
                    scalar.to_bits(),
                    "batch {p} vs scalar {scalar} at {c}"
                );
                assert_eq!(
                    p.to_bits(),
                    amp.to_bits(),
                    "batch {p} vs amplitude {amp} at {c}"
                );
                if let Some(sv) = sv {
                    let e = sv.probability(*c);
                    assert!((p - e).abs() < 1e-10, "{c}: mps {p} vs statevector {e}");
                }
            }
        }
    }

    #[test]
    fn split_sweep_is_bit_identical_and_exact_after_every_op() {
        use bgls_statevector::StateVector;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // (seed, qubits, bond cap): two exact runs, one truncating
        for (seed, n, chi) in [(11u64, 10, None), (12, 7, None), (13, 9, Some(2))] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = ChainMps::zero(
                n,
                MpsOptions {
                    max_bond: chi,
                    ..MpsOptions::exact()
                },
            );
            let mut sv = StateVector::zero(n);
            let mut splits = vec![false; n];
            for step in 0..60 {
                let support = if step % 13 == 12 {
                    // project onto the likelier outcome
                    let q = rng.gen_range(0..n);
                    let z = st
                        .pauli_expectation(&format!("Z{q}").parse().unwrap())
                        .unwrap();
                    let value = (1.0 - z) / 2.0 > 0.5;
                    st.project(q, value).unwrap();
                    sv.project(q, value).unwrap();
                    vec![q]
                } else {
                    let qs = match step % 7 {
                        // pin the split to both ends of the chain
                        0 => vec![st.qubit_of_site[0]],
                        3 => vec![st.qubit_of_site[n - 2], st.qubit_of_site[n - 1]],
                        _ if rng.gen::<bool>() => vec![rng.gen_range(0..n)],
                        _ => {
                            let a = rng.gen_range(0..n);
                            vec![a, (a + rng.gen_range(1..n)) % n]
                        }
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
                    sv.apply_gate(&gate, &qs).unwrap();
                    qs
                };
                splits[st.split] = true;
                let exact = chi.is_none().then_some(&sv);
                check_split_sweep(&st, exact, &support, &mut rng);
            }
            assert!(splits[0] && splits[n - 1], "splits seen: {splits:?}");
            if chi.is_some() {
                assert!(st.truncation_weight() > 0.0);
            }
        }
    }
}
