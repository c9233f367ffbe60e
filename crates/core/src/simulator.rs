//! The BGLS gate-by-gate sampling simulator (paper Secs. 2–3).
//!
//! The simulator walks the circuit one operation at a time keeping concrete
//! bitstrings that are resampled over each gate's support from bitstring
//! probabilities — never marginals. Three ingredients configure it, exactly
//! mirroring the Python package's constructor: an initial state, an
//! `apply_op` hook, and a `compute_probability` hook.
//!
//! Two execution engines:
//! * **multiplicity-map forest** (Secs. 3.2.1 and 3.2.3): all
//!   repetitions ride along in `bitstring -> multiplicity` maps, split
//!   multinomially at each gate, over a frontier of `(state, map)`
//!   nodes. A circuit that never forks — unitary with terminal
//!   measurements, or channels the state applies deterministically —
//!   stays at one node: the paper's sample parallelization, whose
//!   runtime saturates at large repetition counts (Fig. 2). At a
//!   stochastic channel every node splits its multiplicities across the
//!   branch outcomes and forks one child state per nonempty branch, and
//!   an interior measurement forks by measured outcome, so total state
//!   evolutions drop from `O(reps x gates)` to
//!   `O(distinct branch histories x gates)`.
//! * **trajectories** (Sec. 3.2.1): stochastic apply hooks
//!   (sum-over-Cliffords), custom hooks on circuits that fork,
//!   `parallelize_samples: false`, or a forest frontier that outgrew
//!   [`SimulatorOptions::max_forest_nodes`] re-run the circuit per
//!   repetition, across Rayon threads when there are several.

use crate::bitstring::BitString;
use crate::error::SimError;
use crate::results::{ExpectationEstimate, RunResult};
use crate::state::BglsState;
use bgls_circuit::{Channel, Circuit, Gate, OpKind, Operation, PauliString, PauliSum, Qubit};
use bgls_linalg::{FxHashMap, C64};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Binomial, Distribution};
use rayon::prelude::*;
use std::sync::Arc;

/// Hook applying an operation to a state (the paper's `apply_op`).
/// Receives an RNG so stochastic hooks (trajectories, sum-over-Cliffords)
/// can branch.
pub type ApplyFn<S> =
    Arc<dyn Fn(&mut S, &Operation, &mut dyn RngCore) -> Result<(), SimError> + Send + Sync>;

/// Hook computing a bitstring probability (the paper's
/// `compute_probability`).
pub type ProbFn<S> = Arc<dyn Fn(&S, BitString) -> f64 + Send + Sync>;

/// Fallible-op hook consulted before every operation application (see
/// [`Simulator::with_fallible_ops`]). Receives the 1-based application
/// ordinal and the operation about to run; returning `Err` aborts the
/// run with that error. The hook must be deterministic in its inputs —
/// the fault-injection harness relies on a re-armed simulator replaying
/// the same abort at the same ordinal.
pub type OpFaultFn = Arc<dyn Fn(u64, &Operation) -> Result<(), SimError> + Send + Sync>;

/// Hook computing a whole candidate set's probabilities at once — the
/// batched companion of [`ProbFn`], wired to
/// [`crate::BglsState::probabilities_batch`] by [`Simulator::new`].
/// Custom hooks must honor the same determinism contract: each returned
/// value bit-identical to the scalar hook's answer for that candidate.
pub type BatchProbFn<S> = Arc<dyn Fn(&S, &[BitString]) -> Vec<f64> + Send + Sync>;

/// The `apply_op` hook [`Simulator::new`] installs: gates go to
/// [`BglsState::apply_gate`], channels to [`BglsState::apply_kraus`], and
/// measurements are left to the sampler.
pub fn default_apply_op<S: BglsState>(
    state: &mut S,
    op: &Operation,
    rng: &mut dyn RngCore,
) -> Result<(), SimError> {
    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
    match &op.kind {
        OpKind::Gate(g) => state.apply_gate(g, &qs),
        OpKind::Channel(c) => state.apply_kraus(c, &qs, rng).map(|_| ()),
        OpKind::Measure { .. } => Ok(()),
    }
}

/// Tuning knobs for [`Simulator`].
#[derive(Clone, Debug)]
pub struct SimulatorOptions {
    /// RNG seed; `None` draws from entropy.
    pub seed: Option<u64>,
    /// Run circuits through the multiplicity-map forest (default
    /// `true`); `false` replays the circuit once per repetition. The two
    /// engines sample the same distribution but key their RNG streams
    /// differently, so seeded samples differ between them.
    pub parallelize_samples: bool,
    /// Skip the bitstring-update step for diagonal gates, whose candidate
    /// distribution is provably unchanged. Off by default to mirror the
    /// paper; exposed for the ablation bench.
    pub skip_diagonal_updates: bool,
    /// Frontier budget for the trajectory forest (default `256`). When a
    /// stochastic operation would grow the frontier beyond this many
    /// nodes, the run abandons the forest *before* materializing the
    /// oversized frontier and falls back to per-trajectory replay, which
    /// has flat memory use. The budget bounds forest memory to roughly
    /// `2 x max_forest_nodes` live states. A circuit that never forks
    /// stays at one node and never meets the budget.
    pub max_forest_nodes: usize,
    /// Run the resolvers of [`Simulator::run_sweep`] and
    /// [`Simulator::expectation_sweep`] across Rayon threads (default
    /// `false`). Every resolver's run derives its own seed stream from
    /// [`SimulatorOptions::seed`] exactly as the sequential loop does,
    /// so per-resolver results are bit-identical either way. Only the
    /// two sweeps read it; a single run fans out on its own.
    pub parallel_sweep: bool,
    /// Run the full multi-pass optimizer pipeline
    /// ([`bgls_circuit::optimize`]) on circuits before sampling them
    /// (default `None` = off): cancellation, commutation reordering,
    /// lightcone pruning, 1q/2q run fusion, and optional diagonal-run
    /// extraction, as configured. Plain single-qubit gate fusion (paper
    /// Sec. 3.2.2) is `OptimizeConfig { merge_single_qubit_runs: true,
    /// ..OptimizeConfig::off() }`, which runs [`bgls_circuit::fuse`].
    /// Preserves the sampling distribution and every expectation value
    /// exactly but changes the executed gate sequence, so seeded samples
    /// differ from raw runs. Matrix-producing configurations require a
    /// backend that accepts [`bgls_circuit::Gate::U1`]/`U2` matrices —
    /// use [`bgls_circuit::OptimizeConfig::stabilizer_safe`] for
    /// stabilizer backends.
    pub optimize: Option<bgls_circuit::OptimizeConfig>,
}

impl Default for SimulatorOptions {
    fn default() -> Self {
        SimulatorOptions {
            seed: None,
            parallelize_samples: true,
            skip_diagonal_updates: false,
            max_forest_nodes: 256,
            parallel_sweep: false,
            optimize: None,
        }
    }
}

/// The gate-by-gate sampling simulator.
pub struct Simulator<S: BglsState> {
    initial_state: S,
    apply_op: ApplyFn<S>,
    /// Candidate-probability hook: the state's batched evaluation for
    /// [`Simulator::new`], a per-candidate loop over the custom scalar
    /// hook for [`Simulator::with_hooks`].
    compute_probabilities: BatchProbFn<S>,
    /// Custom apply hooks may be stochastic (e.g. sum-over-Cliffords), in
    /// which case each sample must re-run the circuit.
    stochastic_apply: bool,
    /// True when the hooks are the [`Simulator::new`] defaults, i.e.
    /// channel application goes through [`BglsState::apply_kraus`]. The
    /// trajectory forest forks channels via the state's branch methods,
    /// which is only faithful to the default hook; custom-hook
    /// simulators replay circuits that fork.
    default_hooks: bool,
    options: SimulatorOptions,
}

impl<S: BglsState> Clone for Simulator<S> {
    fn clone(&self) -> Self {
        Simulator {
            initial_state: self.initial_state.clone(),
            apply_op: self.apply_op.clone(),
            compute_probabilities: self.compute_probabilities.clone(),
            stochastic_apply: self.stochastic_apply,
            default_hooks: self.default_hooks,
            options: self.options.clone(),
        }
    }
}

impl<S: BglsState + Send + Sync + 'static> Simulator<S> {
    /// Builds a simulator from explicit hooks — the paper's three-argument
    /// constructor. `stochastic_apply` must be `true` when the hook draws
    /// randomness (disables sample parallelization so each repetition
    /// explores its own branch).
    ///
    /// The scalar hook is wrapped in a per-candidate loop, so it stays
    /// authoritative for every candidate; replace the loop with
    /// [`Simulator::with_batch_hook`] when a batched evaluation exists.
    pub fn with_hooks(
        initial_state: S,
        apply_op: ApplyFn<S>,
        compute_probability: ProbFn<S>,
        stochastic_apply: bool,
    ) -> Self {
        Simulator {
            initial_state,
            apply_op,
            compute_probabilities: Arc::new(move |state, candidates| {
                candidates
                    .iter()
                    .map(|&c| compute_probability(state, c))
                    .collect()
            }),
            stochastic_apply,
            default_hooks: false,
            options: SimulatorOptions::default(),
        }
    }

    /// Decorates the apply hook with a fallible-op gate: before each
    /// operation application, `fault` is consulted with a 1-based
    /// application ordinal and may abort the run by returning `Err`
    /// (typically [`SimError::Faulted`]).
    ///
    /// The decoration is transparent when the hook returns `Ok`: engine
    /// selection, RNG streams, and the `default_hooks` classification
    /// are unchanged, so a hook that never fires leaves every sampled
    /// bit identical to the undecorated simulator. Ordinals count apply
    /// invocations across this simulator and its clones (the counter is
    /// shared — arm a fresh simulator per run for per-run ordinals).
    /// Forest channel forks and projective collapses go through state
    /// branch methods, not the apply hook, and are therefore not gated.
    pub fn with_fallible_ops(mut self, fault: OpFaultFn) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        let inner = Arc::clone(&self.apply_op);
        let counter = Arc::new(AtomicU64::new(0));
        self.apply_op = Arc::new(
            move |state: &mut S, op: &Operation, rng: &mut dyn RngCore| {
                let ordinal = counter.fetch_add(1, Ordering::Relaxed) + 1;
                fault(ordinal, op)?;
                inner(state, op, rng)
            },
        );
        self
    }
}

impl<S: BglsState + Send + Sync> Simulator<S> {
    /// Builds a simulator with the default hooks: `apply_op` is
    /// [`default_apply_op`], and candidate probabilities come from
    /// [`BglsState::probabilities_batch`].
    pub fn new(initial_state: S) -> Self {
        Simulator {
            initial_state,
            apply_op: Arc::new(|state, op, rng| default_apply_op(state, op, rng)),
            compute_probabilities: Arc::new(|state, candidates| {
                state.probabilities_batch(candidates)
            }),
            stochastic_apply: false,
            default_hooks: true,
            options: SimulatorOptions::default(),
        }
    }

    /// Replaces the candidate-probability hook. The hook must return,
    /// per candidate, exactly what the scalar probability would — see
    /// [`BatchProbFn`].
    pub fn with_batch_hook(mut self, hook: BatchProbFn<S>) -> Self {
        self.compute_probabilities = hook;
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: SimulatorOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.options.seed = Some(seed);
        self
    }

    /// The configured initial state.
    pub fn initial_state(&self) -> &S {
        &self.initial_state
    }

    fn make_rng(&self) -> StdRng {
        match self.options.seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        }
    }

    fn check_runnable(&self, circuit: &Circuit) -> Result<(), SimError> {
        if let Some(op) = circuit.all_operations().find(|op| op.is_parameterized()) {
            // Surface the symbol name for a actionable error.
            if let Some(g) = op.as_gate() {
                g.unitary()?;
            }
        }
        if circuit.num_qubits() > self.initial_state.num_qubits() {
            return Err(SimError::QubitOutOfRange {
                index: circuit.num_qubits() - 1,
                num_qubits: self.initial_state.num_qubits(),
            });
        }
        Ok(())
    }

    /// True when a run of this circuit forks the forest frontier: a
    /// channel the state applies stochastically, or a measurement whose
    /// qubits a later operation reuses.
    fn forks(&self, circuit: &Circuit) -> bool {
        (circuit.has_channels() && !self.initial_state.channels_are_deterministic())
            || !circuit.measurements_are_terminal()
    }

    /// True when the multiplicity-map forest may run this circuit.
    /// Forest channel forks call the state's Kraus branch methods
    /// directly, which is only faithful to the default hooks, so custom
    /// hooks take the forest only for circuits that never fork (and so
    /// never reach those methods); stochastic apply hooks always replay.
    fn can_forest(&self, circuit: &Circuit) -> bool {
        self.options.parallelize_samples
            && !self.stochastic_apply
            && (self.default_hooks || !self.forks(circuit))
    }

    /// Runs the circuit for `repetitions` and returns measurement
    /// histograms, Cirq-style. The circuit must contain at least one
    /// measurement.
    ///
    /// Determinism: with a fixed seed the returned histograms are
    /// bit-identical for every Rayon thread count — the redistribution,
    /// forest and replay fan-outs key every random draw by map entry,
    /// branch history or repetition, never by thread. Switching the
    /// *engine* — `parallelize_samples` on/off, or a forest run falling
    /// back on budget exhaustion — keys the RNG streams differently, so
    /// it preserves the distribution but not the individual seeded
    /// samples; `optimize` likewise changes the executed gate sequence.
    ///
    /// Errors with [`SimError::Unsupported`] when the state is wider
    /// than [`BitString::MAX_QUBITS`].
    pub fn run(&self, circuit: &Circuit, repetitions: u64) -> Result<RunResult, SimError> {
        if !circuit.has_measurements() {
            return Err(SimError::NoMeasurements);
        }
        self.check_runnable(circuit)?;
        self.check_bitstring_width()?;
        if repetitions == 0 {
            return Ok(RunResult::new(0));
        }
        let circuit = self.prepared(circuit);
        Ok(self.sample(&circuit, repetitions, false)?.0)
    }

    /// Samples `repetitions` runs of the circuit: the measurement
    /// histograms, plus — with `keep_finals` — every repetition's final
    /// bitstring (sorted on the forest, in repetition order on replay).
    /// Runs the forest when [`Simulator::can_forest`] allows and replays
    /// otherwise; a circuit that forks also replays when its frontier
    /// outgrows the budget or the backend cannot branch or project an
    /// operation, since replay is the arbiter of whether the circuit is
    /// runnable at all.
    fn sample(
        &self,
        circuit: &Circuit,
        repetitions: u64,
        keep_finals: bool,
    ) -> Result<(RunResult, Vec<BitString>), SimError> {
        if self.can_forest(circuit) {
            match self.run_forest(circuit, repetitions, keep_finals, multi_threaded()) {
                Ok(Some(samples)) => return Ok(samples),
                Ok(None) => {}
                Err(SimError::Unsupported(_)) if self.forks(circuit) => {}
                Err(e) => return Err(e),
            }
        }
        self.run_trajectories(circuit, repetitions, keep_finals)
    }

    /// Applies the optimizer pipeline when `optimize` is set.
    fn prepared<'a>(&self, circuit: &'a Circuit) -> std::borrow::Cow<'a, Circuit> {
        match &self.options.optimize {
            Some(config) => std::borrow::Cow::Owned(bgls_circuit::optimize(circuit, config).0),
            None => std::borrow::Cow::Borrowed(circuit),
        }
    }

    /// Evolves the initial state through the circuit once (measurements
    /// skipped) and returns the final state — handy for computing ideal
    /// distributions or inspecting backends. Fails for circuits whose
    /// non-unitary operations the backend cannot apply.
    pub fn final_state(&self, circuit: &Circuit) -> Result<S, SimError> {
        self.check_runnable(circuit)?;
        let mut rng = self.make_rng();
        let mut state = self.initial_state.clone();
        for op in circuit.all_operations() {
            if op.is_measurement() {
                continue;
            }
            (self.apply_op)(&mut state, op, &mut rng)?;
        }
        Ok(state)
    }

    /// Runs a parameterized circuit once per resolver (the Cirq
    /// `run_sweep` equivalent, used by the QAOA grid search of Sec. 4.4).
    /// Returns one [`RunResult`] per resolver, in order.
    ///
    /// Seeding: one base seed is fixed per sweep call —
    /// [`SimulatorOptions::seed`], or a single entropy draw when the seed
    /// is `None` — and resolver `i` runs with the derived seed
    /// [`stream_seed`]`(base, i)`. Entry `i` is therefore exactly the
    /// result of a standalone [`Simulator::run`] of the resolved circuit
    /// under that derived seed: resolvers never share RNG state, distinct
    /// grid points get statistically independent streams even when they
    /// resolve to the same circuit, and with
    /// [`SimulatorOptions::parallel_sweep`] the Rayon fan-out is
    /// bit-identical to the sequential loop. With `seed: None` the sweep
    /// is *internally* deterministic (serial vs parallel agree within the
    /// call) but two sweep calls draw different bases.
    pub fn run_sweep(
        &self,
        circuit: &Circuit,
        resolvers: &[bgls_circuit::ParamResolver],
        repetitions: u64,
    ) -> Result<Vec<RunResult>, SimError> {
        let base = self.sample_base_seed();
        let run_one = |(i, r): (usize, &bgls_circuit::ParamResolver)| {
            let mut sim = self.clone();
            sim.options.seed = Some(stream_seed(base, i as u64));
            sim.run(&circuit.resolve(r), repetitions)
        };
        if self.options.parallel_sweep && resolvers.len() > 1 {
            let indexed: Vec<(usize, &bgls_circuit::ParamResolver)> =
                resolvers.iter().enumerate().collect();
            indexed.par_iter().map(|&entry| run_one(entry)).collect()
        } else {
            resolvers.iter().enumerate().map(run_one).collect()
        }
    }

    /// Samples `repetitions` bitstrings from the circuit's *final* state
    /// (measurement operations are ignored). This is the raw gate-by-gate
    /// sampler used by the overlap experiments of Figs. 4–5; it picks its
    /// engine exactly as [`Simulator::run`] does. Errors with
    /// [`SimError::Unsupported`] when the state is wider than
    /// [`BitString::MAX_QUBITS`], and with [`SimError::Invalid`] when
    /// `repetitions` bitstrings would not fit in one allocation.
    pub fn sample_final_bitstrings(
        &self,
        circuit: &Circuit,
        repetitions: u64,
    ) -> Result<Vec<BitString>, SimError> {
        let bytes = repetitions.checked_mul(std::mem::size_of::<BitString>() as u64);
        if bytes.is_none_or(|b| b > isize::MAX as u64) {
            return Err(SimError::Invalid(format!(
                "{repetitions} sampled bitstrings exceed the largest allocation"
            )));
        }
        self.check_runnable(circuit)?;
        self.check_bitstring_width()?;
        let stripped = circuit.without_measurements();
        Ok(self.sample(&self.prepared(&stripped), repetitions, true)?.1)
    }

    /// Sampling carries one [`BitString`] per repetition, so the state
    /// must fit its width.
    fn check_bitstring_width(&self) -> Result<(), SimError> {
        let n = self.initial_state.num_qubits();
        if n > BitString::MAX_QUBITS {
            return Err(SimError::Unsupported(format!(
                "sampling a {n}-qubit state: bitstrings hold at most {} qubits",
                BitString::MAX_QUBITS
            )));
        }
        Ok(())
    }

    fn sample_base_seed(&self) -> u64 {
        self.options
            .seed
            .unwrap_or_else(|| StdRng::from_entropy().gen())
    }

    // ---- expectation engine -------------------------------------------

    /// Validates an observable's qubit support against the state width.
    fn check_observable(&self, observable: &PauliSum) -> Result<(), SimError> {
        if let Some(q) = observable.max_qubit() {
            let n = self.initial_state.num_qubits();
            if q >= n {
                return Err(SimError::QubitOutOfRange {
                    index: q,
                    num_qubits: n,
                });
            }
        }
        Ok(())
    }

    /// Exact expectation value of `observable` on the circuit's output
    /// state: `Re <psi| O |psi>` (or `Re Tr(rho O)` on mixed-state
    /// backends), with no sampling involved.
    ///
    /// The state is evolved **once** and the terms of the sum are
    /// evaluated on it by one [`BglsState::expectations`] call per
    /// frontier node — the per-backend exact implementations (amplitude
    /// inner products, one pass per distinct X-mask, on the state
    /// vector; density-matrix trace, stabilizer conjugation, MPS
    /// transfer matrix, doubled-network contraction per term elsewhere).
    /// For a Hermitian observable
    /// the imaginary part vanishes exactly, so the returned real part is
    /// the full answer.
    ///
    /// Like the trajectory forest, the walk is branch-aware: stochastic
    /// Kraus channels fork a weighted frontier over
    /// [`BglsState::kraus_branch_probabilities`] (exact branch weights,
    /// no multinomial sampling), interior measurements fork over the
    /// outcome distribution with projective collapse, and the final
    /// value is the weight-averaged expectation over the frontier —
    /// exact for the channel's mixed output state. A measurement whose
    /// qubits see no later non-measurement operation is a pure readout
    /// and is ignored (matching [`Simulator::final_state`]), judged
    /// per measurement — an unrelated mid-circuit measurement elsewhere
    /// does not change a readout's semantics. The frontier is bounded by
    /// [`SimulatorOptions::max_forest_nodes`]; exceeding it is an error
    /// (there is no sampling fallback on the exact path). Deterministic:
    /// no randomness is consumed, so the result is a pure function of
    /// circuit, observable, and backend.
    ///
    /// Custom stochastic apply hooks (e.g. sum-over-Cliffords) cannot be
    /// branch-enumerated and return [`SimError::Unsupported`]; so do
    /// stochastic channels under a custom (non-default) apply hook.
    pub fn expectation_value(
        &self,
        circuit: &Circuit,
        observable: &PauliSum,
    ) -> Result<f64, SimError> {
        self.check_observable(observable)?;
        self.check_runnable(circuit)?;
        let circuit = self.prepared(circuit);
        let nodes = self.expectation_frontier(&circuit)?;
        let strings: Vec<&PauliString> = observable.terms().iter().map(|(_, p)| p).collect();
        let mut acc = C64::ZERO;
        for (w, state) in &nodes {
            let values = state.expectations(&strings)?;
            for ((c, _), v) in observable.terms().iter().zip(values) {
                acc += *c * C64::real(*w * v);
            }
        }
        Ok(acc.re)
    }

    /// Exact expectation values of `observable` for a parameterized
    /// circuit under each resolver, in order — the expectation-engine
    /// analogue of [`Simulator::run_sweep`], and the scoring loop of
    /// variational workflows (QAOA energy landscapes).
    ///
    /// With [`SimulatorOptions::parallel_sweep`] the resolvers fan out
    /// across Rayon threads; the exact walk consumes no randomness, so
    /// each entry is a pure function of its resolved circuit and the
    /// sweep is bit-identical serial vs parallel regardless of the seed
    /// (including `seed: None` — unlike [`Simulator::run_sweep`], no
    /// entropy is ever drawn).
    pub fn expectation_sweep(
        &self,
        circuit: &Circuit,
        resolvers: &[bgls_circuit::ParamResolver],
        observable: &PauliSum,
    ) -> Result<Vec<f64>, SimError> {
        if self.options.parallel_sweep && resolvers.len() > 1 {
            resolvers
                .par_iter()
                .map(|r| self.expectation_value(&circuit.resolve(r), observable))
                .collect()
        } else {
            resolvers
                .iter()
                .map(|r| self.expectation_value(&circuit.resolve(r), observable))
                .collect()
        }
    }

    /// Walks the circuit maintaining a frontier of `(weight, state)`
    /// nodes whose weights are *exact* branch probabilities (no
    /// sampling): gates advance every node, stochastic channels fork
    /// nodes across their Kraus branches, and interior measurements fork
    /// nodes across outcome values with projective collapse. Weights sum
    /// to 1 within rounding.
    fn expectation_frontier(&self, circuit: &Circuit) -> Result<Vec<(f64, S)>, SimError> {
        if self.stochastic_apply {
            return Err(SimError::Unsupported(
                "exact expectation with a stochastic apply hook (use \
                 estimate_expectation)"
                    .into(),
            ));
        }
        let deterministic_channels = self.initial_state.channels_are_deterministic();
        if circuit.has_channels() && !deterministic_channels && !self.default_hooks {
            return Err(SimError::Unsupported(
                "exact expectation of stochastic channels under custom hooks".into(),
            ));
        }
        let budget = self.options.max_forest_nodes;
        let over_budget = || {
            SimError::BudgetExhausted(format!(
                "expectation frontier exceeded max_forest_nodes ({budget}); \
                 raise the budget or use estimate_expectation"
            ))
        };
        let ops: Vec<&Operation> = circuit.all_operations().collect();
        // A measurement is a pure readout — ignored, matching
        // `final_state` / `sample_final_bitstrings` — unless a later
        // non-measurement operation acts on one of its qubits, in which
        // case that qubit's collapse is physical and the node forks.
        // Per-measurement, per-qubit: an unrelated mid-circuit
        // measurement elsewhere must not change a readout's semantics.
        let is_readout = |t: usize, support: &[Qubit]| -> bool {
            !ops[t + 1..].iter().any(|later| {
                !later.is_measurement() && later.support().iter().any(|q| support.contains(q))
            })
        };
        // Hook-compatible RNG: gates and deterministic channels draw
        // nothing from it, and the stochastic cases never reach the hook.
        let mut rng = self.make_rng();
        let mut nodes: Vec<(f64, S)> = vec![(1.0, self.initial_state.clone())];
        for (t, op) in ops.iter().copied().enumerate() {
            match &op.kind {
                OpKind::Measure { .. } if is_readout(t, op.support()) => {}
                OpKind::Measure { .. } => {
                    // Interior measurement: the post-measurement ensemble
                    // is the proper mixture over outcomes, one collapsed
                    // node per outcome with its Born weight.
                    for q in op.support().iter().map(|q| q.index()) {
                        let z_q = PauliString::z(q);
                        let mut next = Vec::with_capacity(nodes.len() * 2);
                        for (w, state) in nodes {
                            let p_one = ((1.0 - state.expectation(&z_q)?) / 2.0).clamp(0.0, 1.0);
                            for (value, pv) in [(false, 1.0 - p_one), (true, p_one)] {
                                if pv <= 0.0 {
                                    continue;
                                }
                                let mut child = state.clone();
                                child.project(q, value)?;
                                next.push((w * pv, child));
                            }
                            if next.len() > budget {
                                return Err(over_budget());
                            }
                        }
                        nodes = next;
                    }
                }
                OpKind::Channel(ch) if !deterministic_channels => {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    let mut next = Vec::with_capacity(nodes.len());
                    for (w, state) in nodes {
                        let probs = state.kraus_branch_probabilities(ch, &qs)?;
                        for (branch, &pv) in probs.iter().enumerate() {
                            if pv <= 0.0 {
                                continue;
                            }
                            let mut child = state.clone();
                            child.apply_kraus_branch(ch, branch, &qs)?;
                            next.push((w * pv, child));
                        }
                        if next.len() > budget {
                            return Err(over_budget());
                        }
                    }
                    nodes = next;
                }
                _ => {
                    for (_, state) in &mut nodes {
                        (self.apply_op)(state, op, &mut rng)?;
                    }
                }
            }
        }
        Ok(nodes)
    }

    /// Shot-based estimate of a Hermitian observable on the circuit's
    /// output distribution: the observable's non-identity terms are
    /// partitioned into qubit-wise-commuting groups
    /// ([`PauliSum::qubit_wise_commuting_groups`]), each group's shared
    /// basis rotation ([`PauliSum::diagonalizing_rotations`]) is
    /// appended to the circuit, and **one** sampling run of
    /// `shots_per_group` repetitions scores every term in the group as a
    /// signed bitstring parity. Identity terms contribute exactly.
    ///
    /// Returns the estimate with its standard error
    /// ([`ExpectationEstimate`]); the error shrinks as
    /// `1/sqrt(shots_per_group)`. Sampling rides the full gate-by-gate
    /// hot path (multiplicity maps, batched probabilities), so the
    /// estimator works on every backend and terminally-measured circuit
    /// the sampler handles — including stochastic-hook simulators the
    /// exact path rejects; circuits with *mid-circuit* measurements are
    /// rejected (their collapse cannot be reproduced after measurement
    /// stripping — use [`Simulator::expectation_value`], which forks
    /// them exactly), and so are states wider than
    /// [`BitString::MAX_QUBITS`]. Each group derives its own seed stream
    /// from the configured seed, so estimates are reproducible and groups
    /// are statistically independent.
    pub fn estimate_expectation(
        &self,
        circuit: &Circuit,
        observable: &PauliSum,
        shots_per_group: u64,
    ) -> Result<ExpectationEstimate, SimError> {
        if shots_per_group < 2 {
            return Err(SimError::Invalid(
                "estimate_expectation needs at least 2 shots per group".into(),
            ));
        }
        if !observable.is_hermitian(1e-9) {
            return Err(SimError::Invalid(
                "estimate_expectation requires a Hermitian observable \
                 (real coefficients)"
                    .into(),
            ));
        }
        if !circuit.measurements_are_terminal() {
            // Stripping an interior measurement would silently drop its
            // dephasing/collapse effect on the final state; the exact
            // path (expectation_value) forks it instead.
            return Err(SimError::Unsupported(
                "shot estimation of circuits with mid-circuit measurements \
                 (use expectation_value)"
                    .into(),
            ));
        }
        self.check_observable(observable)?;
        self.check_bitstring_width()?;
        let mut value = 0.0;
        let mut measured = PauliSum::new();
        for (c, p) in observable.terms() {
            if p.is_identity() {
                value += c.re;
            } else {
                measured.add_term(*c, p.clone());
            }
        }
        let groups = measured.qubit_wise_commuting_groups();
        let base = circuit.without_measurements();
        let seed0 = self.sample_base_seed();
        let mut variance = 0.0;
        for (i, group) in groups.iter().enumerate() {
            let mut rotated = base.clone();
            for op in group.diagonalizing_rotations()? {
                rotated.push(op);
            }
            let mut sim = self.clone();
            sim.options.seed = Some(stream_seed(seed0, i as u64));
            let samples = sim.sample_final_bitstrings(&rotated, shots_per_group)?;
            // Per-sample group energy: every term's signed parity at
            // once, so within-group covariance is captured exactly.
            // Support masks are pure per-term data — hoisted out of the
            // per-sample loop.
            let term_masks = group.parity_terms();
            let mut mean = 0.0;
            let mut m2 = 0.0;
            for (k, b) in samples.iter().enumerate() {
                let y = bgls_circuit::score_parity_terms(&term_masks, b.as_u64());
                // Welford running mean/variance
                let delta = y - mean;
                mean += delta / (k + 1) as f64;
                m2 += delta * (y - mean);
            }
            let shots = samples.len() as f64;
            value += mean;
            // m2 is mathematically non-negative, but clamp against
            // floating-point cancellation so std_error can never be NaN.
            variance += m2.max(0.0) / (shots * (shots - 1.0));
        }
        Ok(ExpectationEstimate {
            value,
            std_error: variance.sqrt(),
            shots_per_group,
            num_groups: groups.len(),
        })
    }

    // ---- multiplicity-map forest ----------------------------------------

    /// Redistributes every map entry's multiplicity across its candidate
    /// set: gathers the candidate sets of a whole run of map entries into
    /// one buffer, evaluates them with a single probability-hook call,
    /// then splits each entry against its probability slice. One offset
    /// table per operation replaces per-entry candidate-index arithmetic.
    /// Candidate order per entry matches [`BitString::candidates`], the
    /// order [`Simulator::resample`] draws from.
    ///
    /// With `fan_out`, maps of at least 64 entries split across Rayon
    /// threads; the result is bit-identical either way.
    fn redistribute(
        &self,
        state: &S,
        support: &[usize],
        step_seed: u64,
        map: &FxHashMap<BitString, u64>,
        fan_out: bool,
    ) -> Result<FxHashMap<BitString, u64>, SimError> {
        const PARALLEL_ENTRY_THRESHOLD: usize = 64;
        let width = self.initial_state.num_qubits();
        let csize = 1usize << support.len();
        // offsets[v] scatters candidate index v onto the support qubits;
        // candidate v of entry b is (b & !mask) | offsets[v], in
        // BitString::candidates order.
        let mask: u64 = support.iter().fold(0u64, |acc, &q| acc | (1u64 << q));
        let offsets: Vec<u64> = (0..csize as u64)
            .map(|v| {
                support
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (j, &q)| acc | (((v >> j) & 1) << q))
            })
            .collect();

        // Gather + evaluate + split one run of entries; nonzero candidate
        // counts are emitted through `sink`.
        let split_chunk = |entries: &[(BitString, u64)],
                           sink: &mut dyn FnMut(BitString, u64)|
         -> Result<(), SimError> {
            let mut candidates = Vec::with_capacity(entries.len() * csize);
            for (b, _) in entries {
                let base = b.as_u64() & !mask;
                candidates.extend(
                    offsets
                        .iter()
                        .map(|&o| BitString::from_u64(width, base | o)),
                );
            }
            let probs = (self.compute_probabilities)(state, &candidates);
            debug_assert_eq!(probs.len(), candidates.len());
            let mut counts = vec![0u64; csize];
            for (i, (b, m)) in entries.iter().enumerate() {
                let mut entry_rng = rep_rng(step_seed, b.as_u64());
                multinomial_split_into(
                    *m,
                    &probs[i * csize..(i + 1) * csize],
                    &mut entry_rng,
                    &mut counts,
                )?;
                for (j, &cnt) in counts.iter().enumerate() {
                    if cnt > 0 {
                        sink(candidates[i * csize + j], cnt);
                    }
                }
            }
            Ok(())
        };

        let entries: Vec<(BitString, u64)> = map.iter().map(|(&b, &m)| (b, m)).collect();
        let go_parallel = fan_out && entries.len() >= PARALLEL_ENTRY_THRESHOLD;

        // Candidates of different entries frequently coincide; when the
        // candidate volume is a sizable fraction of the value space,
        // accumulate into a dense per-value array (one add per candidate)
        // and hash each surviving value once, instead of one hashmap
        // probe per candidate. Sparse maps (e.g. a GHZ-like evolution on
        // a wide state) stay on the hashmap path — zeroing and scanning
        // 2^width slots per operation would dwarf their handful of
        // entries.
        const DENSE_WIDTH_LIMIT: usize = 20;
        let use_dense = width <= DENSE_WIDTH_LIMIT
            && (1usize << width) <= entries.len().saturating_mul(csize).saturating_mul(4);
        if use_dense {
            let mut dense = vec![0u64; 1usize << width];
            run_split(&entries, &split_chunk, go_parallel, &mut |c, cnt| {
                dense[c.as_u64() as usize] += cnt;
            })?;
            let populated = dense.iter().filter(|&&cnt| cnt > 0).count();
            let mut next: FxHashMap<BitString, u64> = FxHashMap::default();
            next.reserve(populated);
            for (v, &cnt) in dense.iter().enumerate() {
                if cnt > 0 {
                    next.insert(BitString::from_u64(width, v as u64), cnt);
                }
            }
            return Ok(next);
        }

        let mut next: FxHashMap<BitString, u64> = FxHashMap::default();
        next.reserve(entries.len());
        run_split(&entries, &split_chunk, go_parallel, &mut |c, cnt| {
            *next.entry(c).or_insert(0) += cnt;
        })?;
        Ok(next)
    }

    fn skip_update(&self, op: &Operation) -> bool {
        self.options.skip_diagonal_updates && op.as_gate().map(Gate::is_diagonal).unwrap_or(false)
    }

    /// Runs the circuit through the multiplicity-map forest: a frontier
    /// of `(state, multiplicity-map)` nodes sharing every deterministic
    /// prefix of their branch histories, one node for a circuit that
    /// never forks. Returns the histograms and, with `keep_finals`, every
    /// repetition's final bitstring in ascending order (the final
    /// frontier's maps merged), or `Ok(None)` when the frontier outgrew
    /// [`SimulatorOptions::max_forest_nodes`] (the caller replays
    /// instead).
    ///
    /// Determinism: every node carries a SplitMix stream key derived from
    /// the base seed and its branch history ([`stream_seed`]); all
    /// randomness — redistribution step seeds, branch multinomials —
    /// is a pure function of `(stream, op index)`, so histograms are
    /// bit-identical whether `fan_out` spreads the frontier sweeps and
    /// redistributions across Rayon threads or not.
    fn run_forest(
        &self,
        circuit: &Circuit,
        repetitions: u64,
        keep_finals: bool,
        fan_out: bool,
    ) -> Result<Option<(RunResult, Vec<BitString>)>, SimError> {
        let n = self.initial_state.num_qubits();
        let terminal = circuit.measurements_are_terminal();
        let op_count = circuit.all_operations().count() as u64;
        let seed = self.sample_base_seed();
        let mut result = RunResult::new(repetitions);
        let mut root_map: FxHashMap<BitString, u64> = FxHashMap::default();
        root_map.insert(BitString::zeros(n), repetitions);
        let mut nodes = vec![ForestNode {
            state: self.initial_state.clone(),
            map: root_map,
            stream: seed,
        }];
        for (t, op) in circuit.all_operations().enumerate() {
            let t = t as u64;
            match &op.kind {
                OpKind::Measure { key } => {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    for node in &nodes {
                        for (b, m) in &node.map {
                            result.record(key, b.restrict(&qs), *m);
                        }
                    }
                    // No operation consumes the post-measurement state
                    // after the final op, so only interior measurements
                    // fork.
                    if !terminal && t + 1 < op_count {
                        match self.forest_collapse(nodes, &qs, t, fan_out)? {
                            Some(next) => nodes = next,
                            None => return Ok(None),
                        }
                    }
                }
                OpKind::Channel(ch) if !self.initial_state.channels_are_deterministic() => {
                    let qs: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                    match self.forest_branch(nodes, ch, &qs, t, fan_out)? {
                        Some(next) => nodes = next,
                        None => return Ok(None),
                    }
                }
                _ => {
                    nodes = self.forest_step(nodes, op, t, fan_out)?;
                }
            }
        }
        let mut finals = Vec::new();
        if keep_finals {
            let mut entries: Vec<(BitString, u64)> =
                nodes.into_iter().flat_map(|node| node.map).collect();
            entries.sort_unstable();
            finals.reserve_exact(repetitions as usize);
            for (b, m) in entries {
                finals.extend(std::iter::repeat_n(b, m as usize));
            }
        }
        Ok(Some((result, finals)))
    }

    /// Deterministic forest advance: apply the operation to every node
    /// once and redistribute its map, with the step seed derived from
    /// the node's stream.
    fn forest_step(
        &self,
        nodes: Vec<ForestNode<S>>,
        op: &Operation,
        t: u64,
        fan_out: bool,
    ) -> Result<Vec<ForestNode<S>>, SimError> {
        map_frontier(nodes, fan_out, |mut node| {
            // Hook-compatible RNG; the default hook draws nothing for
            // gates, and deterministic channels ignore it.
            let mut rng = rep_rng(node.stream, t);
            (self.apply_op)(&mut node.state, op, &mut rng)?;
            if !self.skip_update(op) {
                let support: Vec<usize> = op.support().iter().map(|q| q.index()).collect();
                let seed = stream_seed(node.stream, t);
                node.map = self.redistribute(&node.state, &support, seed, &node.map, fan_out)?;
            }
            Ok(node)
        })
    }

    /// Stochastic-channel branch point: every node splits each map
    /// entry's multiplicity multinomially across the channel's Kraus
    /// branch probabilities (per-entry RNG streams, mirroring the
    /// redistribution step) and forks one child state per nonempty
    /// branch. Zero-multiplicity branches are pruned, so low-noise
    /// circuits keep the frontier near one node.
    ///
    /// Two phases so the [`SimulatorOptions::max_forest_nodes`] budget is
    /// checked *before* any child state is materialized: first the branch
    /// weights and multiplicity splits (no state clones), then — only if
    /// the prospective frontier fits — the per-branch states. Returns
    /// `Ok(None)` on budget exhaustion.
    fn forest_branch(
        &self,
        nodes: Vec<ForestNode<S>>,
        channel: &Channel,
        support: &[usize],
        t: u64,
        fan_out: bool,
    ) -> Result<Option<Vec<ForestNode<S>>>, SimError> {
        struct Plan<S> {
            state: S,
            branch_seed: u64,
            branch_maps: Vec<FxHashMap<BitString, u64>>,
        }
        let plans: Vec<Plan<S>> = map_frontier(nodes, fan_out, |node| {
            let probs = node.state.kraus_branch_probabilities(channel, support)?;
            let branch_seed = stream_seed(node.stream, t);
            let mut branch_maps: Vec<FxHashMap<BitString, u64>> =
                vec![FxHashMap::default(); probs.len()];
            let mut counts = Vec::new();
            for (&b, &m) in &node.map {
                let mut entry_rng = rep_rng(branch_seed, b.as_u64());
                multinomial_split_into(m, &probs, &mut entry_rng, &mut counts)?;
                for (j, &cnt) in counts.iter().enumerate() {
                    if cnt > 0 {
                        branch_maps[j].insert(b, cnt);
                    }
                }
            }
            Ok(Plan {
                state: node.state,
                branch_seed,
                branch_maps,
            })
        })?;
        let children_total: usize = plans
            .iter()
            .map(|p| p.branch_maps.iter().filter(|m| !m.is_empty()).count())
            .sum();
        if children_total > self.options.max_forest_nodes {
            return Ok(None);
        }
        let parts = map_frontier(plans, fan_out, |plan| {
            let occupied = plan.branch_maps.iter().filter(|m| !m.is_empty()).count();
            let mut parent = Some(plan.state);
            let mut remaining = occupied;
            let mut children = Vec::with_capacity(occupied);
            for (j, map) in plan.branch_maps.into_iter().enumerate() {
                if map.is_empty() {
                    continue;
                }
                remaining -= 1;
                let mut state = if remaining == 0 {
                    // the last child takes the parent state without a copy
                    parent.take().expect("parent state")
                } else {
                    parent.as_ref().expect("parent state").clone()
                };
                state.apply_kraus_branch(channel, j, support)?;
                let stream = stream_seed(plan.branch_seed, 1 + j as u64);
                // the BGLS bitstring update after the channel application
                let seed = stream_seed(stream, t);
                let map = self.redistribute(&state, support, seed, &map, fan_out)?;
                children.push(ForestNode { state, map, stream });
            }
            Ok(children)
        })?;
        Ok(Some(parts.into_iter().flatten().collect()))
    }

    /// Mid-circuit-measurement fork: a node's entries are grouped by
    /// measured outcome and each group gets a child whose state is
    /// projected onto that outcome — keeping later operations exactly
    /// correlated with what this node's repetitions already recorded.
    /// Like [`Simulator::forest_branch`], the budget is checked against
    /// the grouped outcome counts before any state is cloned; returns
    /// `Ok(None)` on budget exhaustion.
    fn forest_collapse(
        &self,
        nodes: Vec<ForestNode<S>>,
        support: &[usize],
        t: u64,
        fan_out: bool,
    ) -> Result<Option<Vec<ForestNode<S>>>, SimError> {
        struct Plan<S> {
            state: S,
            fork_seed: u64,
            outcomes: Vec<(u64, FxHashMap<BitString, u64>)>,
        }
        let plans: Vec<Plan<S>> = map_frontier(nodes, fan_out, |node| {
            let mut groups: FxHashMap<u64, FxHashMap<BitString, u64>> = FxHashMap::default();
            for (&b, &m) in &node.map {
                groups
                    .entry(b.support_value(support))
                    .or_default()
                    .insert(b, m);
            }
            let mut outcomes: Vec<(u64, FxHashMap<BitString, u64>)> = groups.into_iter().collect();
            outcomes.sort_unstable_by_key(|&(v, _)| v);
            Ok(Plan {
                fork_seed: stream_seed(node.stream, t),
                state: node.state,
                outcomes,
            })
        })?;
        let children_total: usize = plans.iter().map(|p| p.outcomes.len()).sum();
        if children_total > self.options.max_forest_nodes {
            return Ok(None);
        }
        let parts = map_frontier(plans, fan_out, |plan| {
            let total = plan.outcomes.len();
            let mut parent = Some(plan.state);
            let mut children = Vec::with_capacity(total);
            for (i, (v, map)) in plan.outcomes.into_iter().enumerate() {
                let mut state = if i + 1 == total {
                    parent.take().expect("parent state")
                } else {
                    parent.as_ref().expect("parent state").clone()
                };
                for (j, &q) in support.iter().enumerate() {
                    state.project(q, (v >> j) & 1 == 1)?;
                }
                children.push(ForestNode {
                    state,
                    map,
                    stream: stream_seed(plan.fork_seed, 1 + v),
                });
            }
            Ok(children)
        })?;
        Ok(Some(parts.into_iter().flatten().collect()))
    }

    // ---- trajectory path ----------------------------------------------

    /// Replays the circuit once per repetition, in one contiguous chunk
    /// of repetitions per Rayon thread. Returns the histograms and, with
    /// `keep_finals`, every repetition's final bitstring in repetition
    /// order.
    fn run_trajectories(
        &self,
        circuit: &Circuit,
        repetitions: u64,
        keep_finals: bool,
    ) -> Result<(RunResult, Vec<BitString>), SimError> {
        let n = self.initial_state.num_qubits();
        let terminal = circuit.measurements_are_terminal();
        let seed = self.sample_base_seed();
        let supports = op_supports(circuit);

        // One scratch state per chunk: trajectories reuse its buffers via
        // `clone_from` instead of allocating a fresh state every rep.
        let run_chunk = |reps: std::ops::Range<u64>| {
            let mut result = RunResult::new(0);
            let mut finals = Vec::new();
            if keep_finals {
                finals.reserve_exact((reps.end - reps.start) as usize);
            }
            let mut scratch = self.initial_state.clone();
            for rep in reps {
                let mut rng = rep_rng(seed, rep);
                let mut recorder = |key: &str, outcome: BitString| {
                    result.record(key, outcome, 1);
                };
                let b = self.trajectory_once_with_measure(
                    circuit,
                    &supports,
                    &mut scratch,
                    n,
                    &mut rng,
                    terminal,
                    &mut recorder,
                )?;
                if keep_finals {
                    finals.push(b);
                }
            }
            Ok((result, finals))
        };

        let chunks = match rep_chunks(repetitions) {
            Some(ranges) => ranges
                .into_par_iter()
                .map(run_chunk)
                .collect::<Result<Vec<_>, SimError>>()?,
            None => vec![run_chunk(0..repetitions)?],
        };
        let mut result = RunResult::new(0);
        let mut finals = Vec::new();
        for (part, part_finals) in chunks {
            result.merge(part);
            finals.extend(part_finals);
        }
        // merge() sums the per-chunk counts; report the true total
        Ok((result.with_repetitions(repetitions), finals))
    }

    /// Walks the circuit once into `state`, recording measurements and
    /// (when `terminal` is false) collapsing the state at each one, and
    /// returns the final bitstring. `state` is overwritten via
    /// `clone_from`, so callers can reuse one scratch state across
    /// repetitions.
    #[allow(clippy::too_many_arguments)]
    fn trajectory_once_with_measure(
        &self,
        circuit: &Circuit,
        supports: &[Vec<usize>],
        state: &mut S,
        n: usize,
        rng: &mut StdRng,
        terminal: bool,
        record: &mut dyn FnMut(&str, BitString),
    ) -> Result<BitString, SimError> {
        state.clone_from(&self.initial_state);
        let mut b = BitString::zeros(n);
        for (op, support) in circuit.all_operations().zip(supports) {
            match &op.kind {
                OpKind::Measure { key } => {
                    record(key, b.restrict(support));
                    if !terminal {
                        // Collapse so later gates see the post-measurement
                        // state of this trajectory.
                        for &q in support {
                            state.project(q, b.get(q))?;
                        }
                    }
                }
                _ => {
                    (self.apply_op)(state, op, rng)?;
                    if !self.skip_update(op) {
                        b = self.resample(state, b, support, rng)?;
                    }
                }
            }
        }
        Ok(b)
    }

    /// The core gate-by-gate update: resample the bitstring over the
    /// operation's support from the current state's candidate
    /// probabilities.
    fn resample(
        &self,
        state: &S,
        b: BitString,
        support: &[usize],
        rng: &mut StdRng,
    ) -> Result<BitString, SimError> {
        let candidates = b.candidates(support);
        let probs = (self.compute_probabilities)(state, &candidates);
        let idx = categorical(&probs, rng)?;
        Ok(candidates[idx])
    }
}

/// One frontier node of the trajectory forest: a concrete state shared by
/// every repetition whose branch history matches `stream`, plus the
/// multiplicity map of those repetitions' bitstrings.
struct ForestNode<S> {
    state: S,
    map: FxHashMap<BitString, u64>,
    /// SplitMix stream key encoding this node's branch history; all of
    /// the node's randomness derives from `(stream, op index)`.
    stream: u64,
}

/// True when this process runs more than one Rayon thread — the one
/// condition under which the engine fans work out.
fn multi_threaded() -> bool {
    rayon::current_num_threads() > 1
}

/// Maps a fallible function over trajectory-forest frontier items, across
/// Rayon threads when `fan_out` and there are several. Everything mapped
/// here derives its randomness from per-item stream keys, and results
/// keep item order, so the mode never affects results.
fn map_frontier<T, U, F>(items: Vec<T>, fan_out: bool, f: F) -> Result<Vec<U>, SimError>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U, SimError> + Sync,
{
    if fan_out && items.len() > 1 {
        items.into_par_iter().map(&f).collect()
    } else {
        items.into_iter().map(&f).collect()
    }
}

/// Runs a redistribution splitter over `entries` and feeds every nonzero
/// `(candidate, count)` emission into `sink` — in parallel Rayon chunks
/// when `parallel`, in one sequential pass otherwise. The per-entry RNG
/// streams make the chunking invisible in the results, so the merge
/// order never matters and both modes accumulate identical totals.
fn run_split<F>(
    entries: &[(BitString, u64)],
    split_chunk: &F,
    parallel: bool,
    sink: &mut dyn FnMut(BitString, u64),
) -> Result<(), SimError>
where
    F: Fn(&[(BitString, u64)], &mut dyn FnMut(BitString, u64)) -> Result<(), SimError> + Sync,
{
    if !parallel {
        return split_chunk(entries, sink);
    }
    let chunk_len = entries.len().div_ceil(rayon::current_num_threads()).max(1);
    let pieces: Result<Vec<Vec<(BitString, u64)>>, SimError> = entries
        .par_chunks(chunk_len)
        .map(|chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            split_chunk(chunk, &mut |c, cnt| out.push((c, cnt)))?;
            Ok(out)
        })
        .collect();
    for piece in pieces? {
        for (c, cnt) in piece {
            sink(c, cnt);
        }
    }
    Ok(())
}

/// Derives a child stream key from a parent key and an index —
/// SplitMix-style separation. Distinct indices always yield distinct
/// streams (the multiplier is odd, hence invertible mod 2^64), and the
/// mix is a pure function, so keys can be chained into a *tree* of
/// streams: the trajectory forest keys every node by its branch history
/// this way, making results independent of scheduling and thread count.
///
/// Public because callers that fan work out themselves (sweep batchers,
/// the serving layer, shot-group estimators) use it to give each child
/// job an independent, reproducible stream: [`Simulator::run_sweep`]
/// seeds resolver `i` with `stream_seed(base, i)`, and
/// [`Simulator::estimate_expectation`] does the same per
/// qubit-wise-commuting group.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG over a [`stream_seed`] stream. Used per repetition on the
/// trajectory path, per map entry on the redistribution path, and per
/// `(node, operation)` on the forest path.
fn rep_rng(seed: u64, rep: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, rep))
}

/// Splits `0..repetitions` into one contiguous range per Rayon thread
/// (replay-path chunking: each chunk reuses one scratch state). Returns
/// `None` when the work should stay sequential. Per-repetition RNG
/// streams are keyed by the absolute repetition index, so the chunking
/// never changes results.
fn rep_chunks(repetitions: u64) -> Option<Vec<std::ops::Range<u64>>> {
    let threads = rayon::current_num_threads() as u64;
    if repetitions <= 1 || threads <= 1 {
        return None;
    }
    let chunk_len = repetitions.div_ceil(threads).max(1);
    let mut chunks = Vec::with_capacity(threads as usize);
    let mut start = 0;
    while start < repetitions {
        let end = (start + chunk_len).min(repetitions);
        chunks.push(start..end);
        start = end;
    }
    Some(chunks)
}

/// Each operation's support as state indices, in
/// [`Circuit::all_operations`] order — precomputed once per circuit so
/// the replay loops stop rebuilding a `Vec<usize>` per operation per
/// repetition.
fn op_supports(circuit: &Circuit) -> Vec<Vec<usize>> {
    circuit
        .all_operations()
        .map(|op| op.support().iter().map(|q| q.index()).collect())
        .collect()
}

/// Validates a weight slice for the samplers below: every entry must be
/// finite and non-negative (`NaN`/negative/`inf` weights are a caller
/// bug, reported as [`SimError::Invalid`]), and the total must be a
/// positive finite number (an all-zero distribution is the
/// impossible-event case, [`SimError::ZeroProbabilityEvent`]). Returns
/// the total.
#[inline]
fn checked_weight_total(weights: &[f64]) -> Result<f64, SimError> {
    let mut total = 0.0;
    for &w in weights {
        // `!is_finite` catches NaN and the infinities in one test.
        if !w.is_finite() || w < 0.0 {
            return Err(SimError::Invalid(format!(
                "invalid probability weight {w} (weights must be finite and non-negative)"
            )));
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(SimError::ZeroProbabilityEvent);
    }
    if total.is_infinite() {
        return Err(SimError::Invalid(
            "probability weights overflow to an infinite total".into(),
        ));
    }
    Ok(total)
}

/// Draws an index from unnormalized non-negative weights.
pub fn categorical(weights: &[f64], rng: &mut impl Rng) -> Result<usize, SimError> {
    let total = checked_weight_total(weights)?;
    let mut r = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return Ok(i);
        }
        r -= w;
    }
    // floating point slack: return the last positive-weight index
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .ok_or(SimError::ZeroProbabilityEvent)
}

/// Splits `m` trials across categories with the given unnormalized weights,
/// exactly equivalent in distribution to `m` independent categorical draws
/// (chained binomials). This is the multiplicity-map redistribution step.
pub fn multinomial_split(
    m: u64,
    weights: &[f64],
    rng: &mut impl Rng,
) -> Result<Vec<u64>, SimError> {
    let mut counts = Vec::new();
    multinomial_split_into(m, weights, rng, &mut counts)?;
    Ok(counts)
}

/// Allocation-free form of [`multinomial_split`]: writes the counts into
/// `counts` (cleared and resized to `weights.len()`). Identical RNG
/// consumption and results.
fn multinomial_split_into(
    m: u64,
    weights: &[f64],
    rng: &mut impl Rng,
    counts: &mut Vec<u64>,
) -> Result<(), SimError> {
    let total = checked_weight_total(weights)?;
    counts.clear();
    counts.resize(weights.len(), 0);
    if m <= 4 {
        // Small multiplicities — the bulk of a saturated map — split
        // faster as literal independent categorical draws (the exact
        // definition of the multinomial) than through the chained
        // binomial machinery.
        for _ in 0..m {
            counts[categorical(weights, rng)?] += 1;
        }
        return Ok(());
    }
    let mut remaining = m;
    let mut mass_left = total;
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if i == weights.len() - 1 {
            counts[i] = remaining;
            break;
        }
        let p = (w / mass_left).clamp(0.0, 1.0);
        let draw = if p >= 1.0 {
            remaining
        } else if p <= 0.0 {
            0
        } else {
            Binomial::new(remaining, p)
                .map_err(|_| SimError::ZeroProbabilityEvent)?
                .sample(rng)
        };
        counts[i] = draw;
        remaining -= draw;
        mass_left -= w;
        if mass_left <= 0.0 {
            // numerical underflow: dump the rest in this bin
            counts[i] += remaining;
            remaining = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::testing::{RefMixture, RefState};
    use bgls_circuit::{Channel, Gate, Operation, Qubit};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        for i in 1..n {
            c.push(
                Operation::gate(Gate::Cnot, vec![Qubit(i as u32 - 1), Qubit(i as u32)]).unwrap(),
            );
        }
        c.push(Operation::measure(Qubit::range(n), "z").unwrap());
        c
    }

    #[test]
    fn run_requires_measurement() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1));
        assert!(matches!(sim.run(&c, 10), Err(SimError::NoMeasurements)));
    }

    #[test]
    fn ghz_samples_only_all_zero_or_all_one() {
        let sim = Simulator::new(RefState::zero(3)).with_seed(7);
        let result = sim.run(&ghz(3), 1000).unwrap();
        let h = result.histogram("z").unwrap();
        assert_eq!(h.total(), 1000);
        let zeros = h.count_value(0b000);
        let ones = h.count_value(0b111);
        assert_eq!(zeros + ones, 1000, "only GHZ outcomes allowed");
        // both branches occur with ~50%: loose 5-sigma bound
        assert!(zeros > 380 && zeros < 620, "zeros = {zeros}");
    }

    #[test]
    fn trajectory_path_matches_parallel_path_distribution() {
        let c = ghz(2);
        let par = Simulator::new(RefState::zero(2)).with_seed(1);
        let opts = SimulatorOptions {
            parallelize_samples: false,
            seed: Some(2),
            ..Default::default()
        };
        let traj = Simulator::new(RefState::zero(2)).with_options(opts);
        let hp = par.run(&c, 2000).unwrap();
        let ht = traj.run(&c, 2000).unwrap();
        let fp = hp
            .histogram("z")
            .unwrap()
            .frequency(BitString::from_u64(2, 0));
        let ft = ht
            .histogram("z")
            .unwrap()
            .frequency(BitString::from_u64(2, 0));
        assert!((fp - 0.5).abs() < 0.05, "parallel freq {fp}");
        assert!((ft - 0.5).abs() < 0.05, "trajectory freq {ft}");
    }

    #[test]
    fn deterministic_with_seed() {
        let c = ghz(3);
        let r1 = Simulator::new(RefState::zero(3))
            .with_seed(99)
            .run(&c, 100)
            .unwrap();
        let r2 = Simulator::new(RefState::zero(3))
            .with_seed(99)
            .run(&c, 100)
            .unwrap();
        assert_eq!(
            r1.histogram("z").unwrap().count_value(0),
            r2.histogram("z").unwrap().count_value(0)
        );
    }

    #[test]
    fn x_gates_give_deterministic_bitstring() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::X, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::X, vec![Qubit(2)]).unwrap());
        c.push(Operation::measure(Qubit::range(3), "m").unwrap());
        let sim = Simulator::new(RefState::zero(3)).with_seed(3);
        let h = sim.run(&c, 50).unwrap();
        assert_eq!(h.histogram("m").unwrap().count_value(0b101), 50);
    }

    #[test]
    fn sample_final_bitstrings_without_measurement() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_seed(5);
        let samples = sim.sample_final_bitstrings(&c, 500).unwrap();
        assert_eq!(samples.len(), 500);
        let ones = samples.iter().filter(|b| b.get(0)).count();
        assert!(ones > 180 && ones < 320, "ones = {ones}");
    }

    #[test]
    fn measurement_key_restricts_to_listed_qubits() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::X, vec![Qubit(1)]).unwrap());
        // measure only qubit 1, key "one"
        c.push(Operation::measure(vec![Qubit(1)], "one").unwrap());
        let sim = Simulator::new(RefState::zero(2)).with_seed(1);
        let r = sim.run(&c, 10).unwrap();
        let h = r.histogram("one").unwrap();
        assert_eq!(h.width(), 1);
        assert_eq!(h.count_value(1), 10);
    }

    #[test]
    fn noisy_circuit_uses_trajectories_and_flips_sometimes() {
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.3).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_seed(11);
        let r = sim.run(&c, 2000).unwrap();
        let flips = r.histogram("m").unwrap().count_value(1);
        // expect ~600
        assert!(flips > 450 && flips < 750, "flips = {flips}");
    }

    #[test]
    fn noisy_fan_out_conserves_repetitions_and_statistics() {
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.5).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_seed(21);
        let r = sim.run(&c, 4000).unwrap();
        assert_eq!(r.repetitions(), 4000);
        let h = r.histogram("m").unwrap();
        assert_eq!(h.total(), 4000);
        let ones = h.count_value(1);
        assert!(ones > 1800 && ones < 2200, "ones = {ones}");
    }

    #[test]
    fn mid_circuit_measurement_collapses_state() {
        // H(0); measure(0); CNOT(0 -> 1); measure(1): outcomes must agree.
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(1)], "b").unwrap());
        let sim = Simulator::new(RefState::zero(2)).with_seed(8);
        let r = sim.run(&c, 400).unwrap();
        let a1 = r.histogram("a").unwrap().count_value(1);
        let b1 = r.histogram("b").unwrap().count_value(1);
        assert_eq!(a1, b1, "mid-circuit collapse must correlate a and b");
        assert!(a1 > 140 && a1 < 260);
    }

    #[test]
    fn skip_diagonal_updates_preserves_distribution() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::T, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let opts = SimulatorOptions {
            seed: Some(17),
            skip_diagonal_updates: true,
            ..Default::default()
        };
        let sim = Simulator::new(RefState::zero(1)).with_options(opts);
        let r = sim.run(&c, 4000).unwrap();
        // P(0) = cos^2(pi/8) ~= 0.8536
        let f0 = r.histogram("m").unwrap().frequency(BitString::zeros(1));
        assert!((f0 - 0.8536).abs() < 0.03, "f0 = {f0}");
    }

    #[test]
    fn final_state_evolves_without_sampling() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::X, vec![Qubit(1)]).unwrap());
        c.push(Operation::measure(Qubit::range(2), "z").unwrap());
        let sim = Simulator::new(RefState::zero(2)).with_seed(1);
        let st = sim.final_state(&c).unwrap();
        assert!((st.probability(BitString::from_u64(2, 0b10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_sweep_resolves_each_point() {
        use bgls_circuit::{Param, ParamResolver};
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::Rx(Param::symbol("t")), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let resolvers = [
            ParamResolver::from_pairs([("t", 0.0)]),
            ParamResolver::from_pairs([("t", std::f64::consts::PI)]),
        ];
        let sim = Simulator::new(RefState::zero(1)).with_seed(2);
        let results = sim.run_sweep(&c, &resolvers, 100).unwrap();
        assert_eq!(results.len(), 2);
        // t = 0: always 0; t = pi: always 1
        assert_eq!(results[0].histogram("m").unwrap().count_value(0), 100);
        assert_eq!(results[1].histogram("m").unwrap().count_value(1), 100);
    }

    #[test]
    fn run_sweep_is_bit_identical_serial_vs_parallel() {
        use bgls_circuit::{Param, ParamResolver};
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::Ry(Param::symbol("t")), vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(Qubit::range(2), "m").unwrap());
        let resolvers: Vec<ParamResolver> = (0..6)
            .map(|i| ParamResolver::from_pairs([("t", 0.3 + 0.2 * i as f64)]))
            .collect();
        let serial = Simulator::new(RefState::zero(2))
            .with_seed(11)
            .run_sweep(&c, &resolvers, 500)
            .unwrap();
        let mut opts = SimulatorOptions {
            seed: Some(11),
            parallel_sweep: true,
            ..Default::default()
        };
        let parallel = Simulator::new(RefState::zero(2))
            .with_options(opts.clone())
            .run_sweep(&c, &resolvers, 500)
            .unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.histogram("m"), p.histogram("m"));
        }
        // entry i must equal a standalone run under stream_seed(base, i)
        for (i, s) in serial.iter().enumerate() {
            opts.seed = Some(stream_seed(11, i as u64));
            let standalone = Simulator::new(RefState::zero(2))
                .with_options(opts.clone())
                .run(&c.resolve(&resolvers[i]), 500)
                .unwrap();
            assert_eq!(s.histogram("m"), standalone.histogram("m"), "entry {i}");
        }
    }

    #[test]
    fn run_sweep_gives_identical_resolvers_independent_streams() {
        use bgls_circuit::ParamResolver;
        // two identical grid points: same distribution, but they must not
        // replay the same RNG stream (that would correlate their samples)
        let resolvers = [ParamResolver::new(), ParamResolver::new()];
        let sim = Simulator::new(RefState::zero(3)).with_seed(5);
        let results = sim.run_sweep(&ghz(3), &resolvers, 400).unwrap();
        assert_ne!(stream_seed(5, 0), stream_seed(5, 1));
        for (i, r) in results.iter().enumerate() {
            let standalone = Simulator::new(RefState::zero(3))
                .with_seed(stream_seed(5, i as u64))
                .run(&ghz(3), 400)
                .unwrap();
            assert_eq!(
                r.histogram("z"),
                standalone.histogram("z"),
                "entry {i} must run under its own derived stream"
            );
        }
    }

    #[test]
    fn unseeded_run_sweep_is_internally_deterministic() {
        use bgls_circuit::ParamResolver;
        // seed: None draws one base per sweep call; within the call the
        // fan-out must still agree serial vs parallel -- which shows up
        // as both identical-resolver entries being *independent* yet the
        // whole sweep completing without shared-RNG interleaving. The
        // cross-call base differs, so only distributional properties can
        // be asserted here.
        let resolvers = [ParamResolver::new(), ParamResolver::new()];
        let sim = Simulator::new(RefState::zero(2));
        let results = sim.run_sweep(&ghz(2), &resolvers, 300).unwrap();
        for r in &results {
            let h = r.histogram("z").unwrap();
            assert_eq!(h.count_value(0b00) + h.count_value(0b11), 300);
        }
    }

    #[test]
    fn run_sweep_fails_on_unbound_symbol() {
        use bgls_circuit::{Param, ParamResolver};
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::Rz(Param::symbol("x")), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = Simulator::new(RefState::zero(1));
        let err = sim.run_sweep(&c, &[ParamResolver::new()], 5);
        assert!(matches!(err, Err(SimError::Circuit(_))));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0u32; 3];
        for _ in 0..30000 {
            counts[categorical(&[1.0, 2.0, 1.0], &mut rng).unwrap()] += 1;
        }
        assert!((counts[1] as f64 / 30000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn categorical_zero_total_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            categorical(&[0.0, 0.0], &mut rng),
            Err(SimError::ZeroProbabilityEvent)
        ));
    }

    #[test]
    fn multinomial_split_conserves_total() {
        let mut rng = StdRng::seed_from_u64(0);
        for m in [0u64, 1, 17, 1000, 123456] {
            let counts = multinomial_split(m, &[0.1, 0.4, 0.3, 0.2], &mut rng).unwrap();
            assert_eq!(counts.iter().sum::<u64>(), m);
        }
    }

    #[test]
    fn multinomial_split_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts = multinomial_split(1_000_000, &[1.0, 3.0], &mut rng).unwrap();
        let f = counts[0] as f64 / 1e6;
        assert!((f - 0.25).abs() < 0.005, "f = {f}");
    }

    #[test]
    fn multinomial_with_zero_weight_bins() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts = multinomial_split(1000, &[0.0, 1.0, 0.0], &mut rng).unwrap();
        assert_eq!(counts, vec![0, 1000, 0]);
    }

    #[test]
    fn run_zero_repetitions_is_empty() {
        let sim = Simulator::new(RefState::zero(2));
        let r = sim.run(&ghz(2), 0).unwrap();
        assert_eq!(r.repetitions(), 0);
    }

    #[test]
    fn circuit_wider_than_state_rejected() {
        let sim = Simulator::new(RefState::zero(1));
        assert!(matches!(
            sim.run(&ghz(3), 5),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }

    fn entangling_circuit(n: usize) -> Circuit {
        // H everywhere, a CNOT ladder, T's, then measure: spreads the
        // multiplicity map over many entries.
        let mut c = Circuit::new();
        for i in 0..n {
            c.push(Operation::gate(Gate::H, vec![Qubit(i as u32)]).unwrap());
        }
        for i in 1..n {
            c.push(
                Operation::gate(Gate::Cnot, vec![Qubit(i as u32 - 1), Qubit(i as u32)]).unwrap(),
            );
        }
        for i in 0..n {
            c.push(Operation::gate(Gate::T, vec![Qubit(i as u32)]).unwrap());
            c.push(Operation::gate(Gate::H, vec![Qubit(i as u32)]).unwrap());
        }
        c.push(Operation::measure(Qubit::range(n), "z").unwrap());
        c
    }

    /// A batch hook that evaluates one candidate at a time.
    fn per_candidate_hook() -> BatchProbFn<RefState> {
        Arc::new(|s, cands| cands.iter().map(|&c| s.probability(c)).collect())
    }

    #[test]
    fn redistribution_fan_out_is_bit_identical_to_serial() {
        // 7 qubits in uniform superposition, every basis state holding a
        // few repetitions: a 128-entry map, over the fan-out threshold
        let n = 7;
        let mut state = RefState::zero(n);
        for q in 0..n {
            state.apply_gate(&Gate::H, &[q]).unwrap();
        }
        state.apply_gate(&Gate::T, &[3]).unwrap();
        state.apply_gate(&Gate::Cnot, &[3, 5]).unwrap();
        let map: FxHashMap<BitString, u64> = (0..1u64 << n)
            .map(|v| (BitString::from_u64(n, v), 1 + v % 5))
            .collect();
        let sim = Simulator::new(RefState::zero(n));
        let split = |fan_out: bool| {
            sim.redistribute(&state, &[3, 5], 13, &map, fan_out)
                .unwrap()
        };
        let serial = split(false);
        assert_eq!(serial.values().sum::<u64>(), map.values().sum::<u64>());
        assert_eq!(split(true), serial);
    }

    /// [`entangling_circuit`] with depolarizing noise on every qubit
    /// before the readout: it forks on a pure state, not on a mixture.
    fn noisy_entangling_circuit(n: usize) -> Circuit {
        let mut noisy = entangling_circuit(n).without_measurements();
        for q in 0..n as u32 {
            noisy.push(
                Operation::channel(Channel::depolarizing(0.1).unwrap(), vec![Qubit(q)]).unwrap(),
            );
        }
        noisy.push(Operation::measure(Qubit::range(n), "z").unwrap());
        noisy
    }

    /// The paper's three-hook constructor over the default apply hook and
    /// the scalar probability hook.
    fn hooked<S: BglsState + Send + Sync + 'static>(state: S) -> Simulator<S> {
        Simulator::with_hooks(
            state,
            Arc::new(default_apply_op),
            Arc::new(|s: &S, b| s.probability(b)),
            false,
        )
    }

    #[test]
    fn with_hooks_samples_bit_identically_to_the_batched_hook() {
        fn check<S: BglsState + Send + Sync + 'static>(state: S, c: &Circuit) {
            let batched = Simulator::new(state.clone()).with_seed(29);
            let scalar = hooked(state).with_seed(29);
            assert_eq!(
                batched.run(c, 3000).unwrap().histogram("z"),
                scalar.run(c, 3000).unwrap().histogram("z")
            );
            assert_eq!(
                batched.sample_final_bitstrings(c, 500).unwrap(),
                scalar.sample_final_bitstrings(c, 500).unwrap()
            );
        }
        check(RefState::zero(4), &entangling_circuit(4));
        // channels a mixed state applies exactly do not fork, so custom
        // hooks keep the one-node forest on a noisy circuit too
        check(RefMixture::zero(4), &noisy_entangling_circuit(4));
    }

    #[test]
    fn sampling_rejects_unallocatable_repetition_counts() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_seed(1);
        assert!(matches!(
            sim.sample_final_bitstrings(&c, u64::MAX),
            Err(SimError::Invalid(_))
        ));
        assert!(matches!(
            sim.estimate_expectation(&c, &"Z0".parse().unwrap(), u64::MAX),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn custom_batch_hook_is_used() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BATCH_CALLS: AtomicUsize = AtomicUsize::new(0);
        let hook: BatchProbFn<RefState> = Arc::new(|s, cands| {
            BATCH_CALLS.fetch_add(1, Ordering::Relaxed);
            s.probabilities_batch(cands)
        });
        let sim = Simulator::new(RefState::zero(2))
            .with_batch_hook(hook)
            .with_seed(3);
        let _ = sim.run(&ghz(2), 20).unwrap();
        assert!(BATCH_CALLS.load(Ordering::Relaxed) > 0);
    }

    /// Plain single-qubit gate fusion through the optimizer.
    fn merge_1q(seed: u64) -> SimulatorOptions {
        SimulatorOptions {
            seed: Some(seed),
            optimize: Some(bgls_circuit::OptimizeConfig {
                merge_single_qubit_runs: true,
                ..bgls_circuit::OptimizeConfig::off()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn single_qubit_fusion_is_bit_identical_when_op_count_is_unchanged() {
        // GHZ has no multi-gate single-qubit runs: fusion just rewraps H
        // as the identical U1 matrix, so RNG consumption and probabilities
        // match the unfused run exactly.
        let c = ghz(3);
        let fused = Simulator::new(RefState::zero(3)).with_options(merge_1q(41));
        let raw = Simulator::new(RefState::zero(3)).with_seed(41);
        assert_eq!(
            fused.run(&c, 2000).unwrap().histogram("z"),
            raw.run(&c, 2000).unwrap().histogram("z")
        );
    }

    #[test]
    fn single_qubit_fusion_preserves_distribution() {
        // H T H on one qubit fuses to a single U1; P(0) = cos^2(pi/8).
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::T, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_options(merge_1q(5));
        let r = sim.run(&c, 4000).unwrap();
        let f0 = r.histogram("m").unwrap().frequency(BitString::zeros(1));
        assert!((f0 - 0.8536).abs() < 0.03, "f0 = {f0}");
        // determinism: the fused run reproduces under the same seed
        let again = Simulator::new(RefState::zero(1))
            .with_options(merge_1q(5))
            .run(&c, 4000)
            .unwrap();
        assert_eq!(r.histogram("m"), again.histogram("m"));
    }

    #[test]
    fn single_qubit_fusion_applies_on_the_trajectory_path_too() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap()); // cancels
        c.push(Operation::channel(Channel::bit_flip(0.3).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_options(merge_1q(11));
        let r = sim.run(&c, 2000).unwrap();
        let flips = r.histogram("m").unwrap().count_value(1);
        assert!(flips > 450 && flips < 750, "flips = {flips}");
    }

    /// GHZ with sparse bit-flip noise plus a mid-circuit measurement —
    /// exercises every forest transition: deterministic steps, channel
    /// branch points, and a measurement fork.
    fn noisy_mid_circuit_circuit(n: usize, p: f64) -> Circuit {
        let mut c = ghz(n);
        c.push(Operation::channel(Channel::bit_flip(p).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "mid").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::channel(Channel::depolarizing(p).unwrap(), vec![Qubit(1)]).unwrap());
        c.push(Operation::measure(Qubit::range(n), "fin").unwrap());
        c
    }

    fn forest_opts(seed: u64) -> SimulatorOptions {
        SimulatorOptions {
            seed: Some(seed),
            ..Default::default()
        }
    }

    #[test]
    fn forest_engages_and_budget_fallback_replays() {
        let c = noisy_mid_circuit_circuit(3, 0.2);
        let run = |opts: SimulatorOptions| {
            Simulator::new(RefState::zero(3))
                .with_options(opts)
                .run(&c, 2000)
                .unwrap()
        };
        let forest = run(forest_opts(31));
        let replay = run(SimulatorOptions {
            parallelize_samples: false,
            ..forest_opts(31)
        });
        let exhausted = run(SimulatorOptions {
            max_forest_nodes: 0,
            ..forest_opts(31)
        });
        // a zero budget falls back to replay: bit-identical to the
        // replay engine under the same seed
        assert_eq!(exhausted.histogram("fin"), replay.histogram("fin"));
        assert_eq!(exhausted.histogram("mid"), replay.histogram("mid"));
        // the forest keys its streams differently, so with the same seed
        // an identical histogram would mean it silently replayed
        assert_ne!(
            forest.histogram("fin"),
            replay.histogram("fin"),
            "forest run reproduced the replay stream exactly — did it engage?"
        );
        // a circuit that never forks stays at one node and never meets
        // the budget: a zero budget samples the default's bits
        fn one_node<S: BglsState + Send + Sync + 'static>(state: S, c: &Circuit) {
            let default = Simulator::new(state.clone()).with_options(forest_opts(30));
            let no_budget = Simulator::new(state).with_options(SimulatorOptions {
                max_forest_nodes: 0,
                ..forest_opts(30)
            });
            assert_eq!(
                default.run(c, 2000).unwrap().histogram("z"),
                no_budget.run(c, 2000).unwrap().histogram("z")
            );
            assert_eq!(
                default.sample_final_bitstrings(c, 500).unwrap(),
                no_budget.sample_final_bitstrings(c, 500).unwrap()
            );
        }
        one_node(RefState::zero(4), &entangling_circuit(4));
        one_node(RefMixture::zero(4), &noisy_entangling_circuit(4));
    }

    #[test]
    fn forest_fan_out_and_serial_are_bit_identical() {
        let c = noisy_mid_circuit_circuit(4, 0.15);
        let sim = Simulator::new(RefState::zero(4)).with_options(forest_opts(32));
        let run = |fan_out: bool| sim.run_forest(&c, 3000, false, fan_out).unwrap().unwrap().0;
        let a = run(true);
        let b = run(false);
        assert_eq!(a.histogram("fin"), b.histogram("fin"));
        assert_eq!(a.histogram("mid"), b.histogram("mid"));
    }

    #[test]
    fn forest_batched_and_scalar_are_bit_identical() {
        let c = noisy_mid_circuit_circuit(4, 0.15);
        let batched = Simulator::new(RefState::zero(4)).with_options(forest_opts(33));
        let scalar = batched.clone().with_batch_hook(per_candidate_hook());
        let a = batched.run(&c, 3000).unwrap();
        let b = scalar.run(&c, 3000).unwrap();
        assert_eq!(a.histogram("fin"), b.histogram("fin"));
        assert_eq!(a.histogram("mid"), b.histogram("mid"));
    }

    #[test]
    fn forest_mid_circuit_collapse_correlates_outcomes() {
        // H(0); measure(0); CNOT(0 -> 1); measure(1): outcomes must agree
        // exactly, repetition by repetition, through the forest's
        // measurement forks.
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "a").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(1)], "b").unwrap());
        let sim = Simulator::new(RefState::zero(2)).with_options(forest_opts(34));
        let r = sim.run(&c, 1000).unwrap();
        assert_eq!(
            r.histogram("a").unwrap().count_value(1),
            r.histogram("b").unwrap().count_value(1),
        );
    }

    #[test]
    fn forest_matches_replay_distribution_on_noisy_circuit() {
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.3).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let sim = |forest: bool| {
            Simulator::new(RefState::zero(1)).with_options(SimulatorOptions {
                parallelize_samples: forest,
                ..forest_opts(35)
            })
        };
        let run_rate = |forest: bool| {
            let r = sim(forest).run(&c, 4000).unwrap();
            r.histogram("m").unwrap().count_value(1) as f64 / 4000.0
        };
        // terminal measurements only: sample_final_bitstrings forks the
        // same channel on the forest
        let final_rate = |forest: bool| {
            let samples = sim(forest).sample_final_bitstrings(&c, 4000).unwrap();
            samples.iter().filter(|b| b.get(0)).count() as f64 / 4000.0
        };
        for (engine, rate) in [
            ("forest run", run_rate(true)),
            ("replay run", run_rate(false)),
            ("forest final", final_rate(true)),
            ("replay final", final_rate(false)),
        ] {
            assert!((rate - 0.3).abs() < 0.035, "{engine} flip rate {rate}");
        }
        // the two engines key their streams differently: identical
        // samples would mean the forest silently replayed
        assert_ne!(
            sim(true).sample_final_bitstrings(&c, 500).unwrap(),
            sim(false).sample_final_bitstrings(&c, 500).unwrap()
        );
    }

    #[test]
    fn forest_conserves_repetitions_under_heavy_branching() {
        // depolarizing noise on every qubit of an entangling circuit:
        // plenty of branch points, still exactly `reps` outcomes per key
        let c = entangling_circuit(4);
        let ops: Vec<Operation> = c.all_operations().cloned().collect();
        let mut noisy = Circuit::new();
        for op in ops {
            let is_measure = op.is_measurement();
            if is_measure {
                for q in 0..4u32 {
                    noisy.push(
                        Operation::channel(Channel::depolarizing(0.1).unwrap(), vec![Qubit(q)])
                            .unwrap(),
                    );
                }
            }
            noisy.push(op);
        }
        let sim = Simulator::new(RefState::zero(4)).with_options(forest_opts(36));
        let r = sim.run(&noisy, 5000).unwrap();
        assert_eq!(r.histogram("z").unwrap().total(), 5000);
    }

    #[test]
    fn custom_hooks_replay_circuits_that_fork() {
        // with_hooks simulators replay circuits whose channels fork: same
        // seed, same histogram as an explicit replay run
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.4).unwrap(), vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let hooked = hooked(RefState::zero(1)).with_options(forest_opts(37));
        let replay = Simulator::new(RefState::zero(1)).with_options(SimulatorOptions {
            parallelize_samples: false,
            ..forest_opts(37)
        });
        assert_eq!(
            hooked.run(&c, 500).unwrap().histogram("m"),
            replay.run(&c, 500).unwrap().histogram("m"),
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        use bgls_circuit::{Param, ParamResolver};
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::Rx(Param::symbol("t")), vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let resolvers: Vec<ParamResolver> = (0..6)
            .map(|i| ParamResolver::from_pairs([("t", 0.3 * i as f64)]))
            .collect();
        let run = |parallel: bool| {
            let opts = SimulatorOptions {
                parallel_sweep: parallel,
                ..forest_opts(38)
            };
            Simulator::new(RefState::zero(1))
                .with_options(opts)
                .run_sweep(&c, &resolvers, 600)
                .unwrap()
        };
        let par = run(true);
        let seq = run(false);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.histogram("m"), b.histogram("m"));
        }
    }

    #[test]
    fn custom_probability_hook_is_used() {
        // A hook that inverts probabilities would break GHZ correlations;
        // here we just count invocations to prove the hook wiring.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let prob: ProbFn<RefState> = Arc::new(|s, b| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            s.probability(b)
        });
        let sim = Simulator::with_hooks(RefState::zero(2), Arc::new(default_apply_op), prob, false)
            .with_seed(1);
        let _ = sim.run(&ghz(2), 10).unwrap();
        assert!(CALLS.load(Ordering::Relaxed) > 0);
    }

    // ---- expectation engine --------------------------------------------

    #[test]
    fn expectation_value_on_ghz_is_exact() {
        let sim = Simulator::new(RefState::zero(3));
        // terminal measurement in ghz() is ignored by the exact path
        let obs: PauliSum = "Z0 Z1 + X0 X1 X2 + 0.5 * Z0 + 2".parse().unwrap();
        let e = sim.expectation_value(&ghz(3), &obs).unwrap();
        assert!((e - 4.0).abs() < 1e-10, "GHZ energy {e}");
        // identity-only observable
        let c = sim
            .expectation_value(&ghz(3), &PauliSum::constant(C64::real(1.5)))
            .unwrap();
        assert!((c - 1.5).abs() < 1e-12);
        // out-of-range support is a typed error
        assert!(matches!(
            sim.expectation_value(&ghz(3), &"Z7".parse().unwrap()),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn expectation_value_forks_stochastic_channels_exactly() {
        let mut c = Circuit::new();
        c.push(Operation::channel(Channel::bit_flip(0.3).unwrap(), vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1));
        // <Z> = (1 - p) - p = 0.4, with exact branch weights (no sampling)
        let z = sim.expectation_value(&c, &"Z0".parse().unwrap()).unwrap();
        assert!((z - 0.4).abs() < 1e-12, "<Z> = {z}");
        // budget of 1 node cannot hold the two branches
        let tight = Simulator::new(RefState::zero(1)).with_options(SimulatorOptions {
            max_forest_nodes: 1,
            ..Default::default()
        });
        assert!(matches!(
            tight.expectation_value(&c, &"Z0".parse().unwrap()),
            Err(SimError::BudgetExhausted(_))
        ));
    }

    #[test]
    fn expectation_value_forks_interior_measurements() {
        // H, measure, H: the measured mixture dephases, so the final <Z>
        // is 0 (a pure H-H walk would give 1).
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1));
        let z = sim.expectation_value(&c, &"Z0".parse().unwrap()).unwrap();
        assert!(z.abs() < 1e-12, "dephased <Z> = {z}");
        let mut pure = Circuit::new();
        pure.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        pure.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let z = sim
            .expectation_value(&pure, &"Z0".parse().unwrap())
            .unwrap();
        assert!((z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_semantics_are_per_measurement() {
        // q0 carries a genuine mid-circuit measurement; q1's terminal
        // measurement is a readout and must stay ignored regardless —
        // <X1> is 1 with or without the unrelated q0 dephasing.
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m0").unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(1)], "m1").unwrap());
        let sim = Simulator::new(RefState::zero(2));
        let x1 = sim.expectation_value(&c, &"X1".parse().unwrap()).unwrap();
        assert!((x1 - 1.0).abs() < 1e-12, "readout dephased <X1> = {x1}");
        // while q0's interior measurement still dephases <X0>
        let z0 = sim.expectation_value(&c, &"Z0".parse().unwrap()).unwrap();
        assert!(z0.abs() < 1e-12, "interior measurement kept <Z0> = {z0}");
    }

    #[test]
    fn expectation_value_rejects_stochastic_hooks() {
        let apply: ApplyFn<RefState> = Arc::new(|_, _, _| Ok(()));
        let prob: ProbFn<RefState> = Arc::new(|s, b| s.probability(b));
        let sim = Simulator::with_hooks(RefState::zero(1), apply, prob, true);
        assert!(matches!(
            sim.expectation_value(&ghz(1), &"Z0".parse().unwrap()),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn expectation_sweep_matches_pointwise_values() {
        use bgls_circuit::{Param, ParamResolver};
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::Rx(Param::symbol("t")), vec![Qubit(0)]).unwrap());
        let obs: PauliSum = "Z0".parse().unwrap();
        let resolvers: Vec<ParamResolver> = [0.0, 0.5, 1.2, std::f64::consts::PI]
            .iter()
            .map(|&t| ParamResolver::from_pairs([("t", t)]))
            .collect();
        for parallel in [false, true] {
            let sim = Simulator::new(RefState::zero(1)).with_options(SimulatorOptions {
                parallel_sweep: parallel,
                ..Default::default()
            });
            let sweep = sim.expectation_sweep(&c, &resolvers, &obs).unwrap();
            // <Z> after Rx(t) is cos(t)
            for (r, (e, t)) in sweep
                .iter()
                .zip([0.0, 0.5, 1.2, std::f64::consts::PI])
                .enumerate()
            {
                let _ = r;
                assert!((e - t.cos()).abs() < 1e-10, "Rx({t}): {e}");
            }
        }
    }

    #[test]
    fn estimate_expectation_matches_exact_and_shrinks() {
        let obs: PauliSum = "Z0 Z1 + X0 X1 X2 + 0.5 * Z2 + 1".parse().unwrap();
        let sim = Simulator::new(RefState::zero(3)).with_seed(5);
        let exact = sim.expectation_value(&ghz(3), &obs).unwrap();
        let small = sim.estimate_expectation(&ghz(3), &obs, 200).unwrap();
        let big = sim.estimate_expectation(&ghz(3), &obs, 20_000).unwrap();
        // Z-terms and the X-string need different bases: 2 groups
        assert_eq!(small.num_groups, 2);
        assert_eq!(small.shots_per_group, 200);
        for est in [&small, &big] {
            assert!(
                (est.value - exact).abs() < 5.0 * est.std_error + 1e-9,
                "estimate {} vs exact {exact} (se {})",
                est.value,
                est.std_error
            );
        }
        // 100x the shots shrinks the standard error ~10x
        let ratio = small.std_error / big.std_error;
        assert!((ratio - 10.0).abs() < 3.0, "SE ratio {ratio}");
    }

    #[test]
    fn estimate_expectation_is_seed_deterministic() {
        let obs: PauliSum = "Z0 + X0 X1".parse().unwrap();
        let a = Simulator::new(RefState::zero(2))
            .with_seed(9)
            .estimate_expectation(&ghz(2), &obs, 500)
            .unwrap();
        let b = Simulator::new(RefState::zero(2))
            .with_seed(9)
            .estimate_expectation(&ghz(2), &obs, 500)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_expectation_rejects_mid_circuit_measurements() {
        // stripping the interior measurement would silently drop its
        // dephasing; the estimator must refuse rather than answer wrong
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        let sim = Simulator::new(RefState::zero(1)).with_seed(1);
        assert!(matches!(
            sim.estimate_expectation(&c, &"Z0".parse().unwrap(), 100),
            Err(SimError::Unsupported(_))
        ));
        // the exact path handles the same circuit
        assert!(
            sim.expectation_value(&c, &"Z0".parse().unwrap())
                .unwrap()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn estimate_expectation_rejects_bad_inputs() {
        let sim = Simulator::new(RefState::zero(1)).with_seed(1);
        let z: PauliSum = "Z0".parse().unwrap();
        assert!(matches!(
            sim.estimate_expectation(&ghz(1), &z, 1),
            Err(SimError::Invalid(_))
        ));
        // anti-Hermitian observable (imaginary coefficient) rejected
        let i_z = z.scaled(C64::I);
        assert!(matches!(
            sim.estimate_expectation(&ghz(1), &i_z, 100),
            Err(SimError::Invalid(_))
        ));
    }
}
