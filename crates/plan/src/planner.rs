//! The execution planner: profile a circuit, pick a backend and path.

use crate::cost::CostModel;
use crate::profile::CircuitProfile;
use bgls_backend::{AnyState, BackendKind, SimulatorExt};
use bgls_circuit::{
    lightcone_prune_for, optimize, Circuit, OptimizeConfig, PassStats, PauliSum, Qubit,
    RewriteStats,
};
use bgls_core::{BitString, RunResult, SimError, Simulator, SimulatorOptions};
use bgls_linalg::FxHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// What the caller wants out of the simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum Deliverable {
    /// Sampled measurement outcomes over `repetitions` shots.
    Histogram {
        /// Shot count.
        repetitions: u64,
    },
    /// The exact expectation value of a Pauli observable on the final
    /// state (the deterministic weighted-frontier walk — no sampling).
    Expectation {
        /// The observable.
        observable: PauliSum,
    },
}

/// Resource budgets the planner routes against.
///
/// The defaults describe a single workstation-class host: dense state
/// vectors up to ~16M amplitudes, dense density matrices up to ~16M
/// entries, and MPS bond dimensions that keep per-gate cost comfortably
/// below the dense crossover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Widest circuit routed to the dense state vector (`2^n` memory).
    pub max_statevector_qubits: usize,
    /// Widest circuit routed to the density matrix (`4^n` memory).
    pub max_density_qubits: usize,
    /// Largest Schmidt-rank bound for which the chain MPS is preferred;
    /// circuits whose bound exceeds this are not routed to MPS.
    pub mps_chi_cap: usize,
    /// Frontier budget handed to the trajectory forest
    /// ([`SimulatorOptions::max_forest_nodes`]); circuits whose
    /// fork count would overflow `2^log2(budget)` branch histories are
    /// planned for per-trajectory replay instead.
    pub max_forest_nodes: usize,
    /// Optimizer pipeline run on circuits before routing and execution
    /// (default: the standard pipeline, [`OptimizeConfig::default`]).
    /// `None` plans and executes circuits exactly as written. Clifford
    /// circuits automatically get the
    /// [`OptimizeConfig::stabilizer_safe`] subset so they stay on the
    /// stabilizer backends; expectation deliverables get only the
    /// observable-lightcone prune, which keeps the circuit's diagonal
    /// gates (`Rz`, `Rzz`, ...) as written for the exact walk's
    /// diagonal phase ops instead of fusing them into dense blocks.
    pub optimize: Option<OptimizeConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_statevector_qubits: 24,
            max_density_qubits: 12,
            mps_chi_cap: 64,
            max_forest_nodes: 256,
            optimize: Some(OptimizeConfig::default()),
        }
    }
}

/// Which execution engine inside [`Simulator`] the plan expects to run.
///
/// The path is realized through [`SimulatorOptions`], not a separate
/// code path: the simulator already picks its engine from the circuit
/// and options, so the plan's job is to configure the options such that
/// the intended engine is the one that fires. The simulator has two
/// sampling engines: the multiplicity-map forest
/// (`parallelize_samples: true`) and per-trajectory replay
/// (`parallelize_samples: false`). [`ExecPath::SampleParallel`],
/// [`ExecPath::Forest`] and [`ExecPath::TableauCollapse`] all name the
/// forest and differ only in the circuit: whether it forks, and on
/// which backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecPath {
    /// The paper's multiplicity-map sample parallelization: the forest
    /// on a circuit free of trajectory forks (unitary + terminal
    /// measurements, or channels the backend applies deterministically),
    /// so all repetitions advance through one state sweep at one node.
    SampleParallel,
    /// The forest on a circuit that forks: distinct branch histories
    /// evolve once, with a frontier bounded by
    /// [`PlannerConfig::max_forest_nodes`]. Best for *sparse* noise.
    Forest,
    /// Per-trajectory replay: flat memory, one full circuit pass per
    /// repetition. Chosen when the fork count would blow the forest
    /// budget anyway (dense noise), skipping the doomed forest attempt.
    Replay,
    /// Trajectory collapse on a stabilizer tableau: mid-circuit
    /// measurements execute as projective collapse
    /// (`CliffordTableau::project`), which the CH form cannot do. The
    /// engine is the forest over tableau nodes, replaying if the
    /// frontier outgrows its budget.
    TableauCollapse,
    /// The deterministic weighted-frontier expectation walk
    /// (`Simulator::expectation_value`) — exact, no randomness.
    ExpectationWalk,
    /// Grouped-shot sampling estimate of an expectation value
    /// (`Simulator::estimate_expectation`) — the degraded stand-in when
    /// the exact walk's frontier budget is exhausted. Seeded runs are
    /// deterministic, but the value is an estimate, not the exact
    /// expectation, so this path is only ever chosen by [`degrade`],
    /// never by [`plan`].
    ShotEstimate,
}

impl std::fmt::Display for ExecPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ExecPath::SampleParallel => "sample-parallel",
            ExecPath::Forest => "forest",
            ExecPath::Replay => "replay",
            ExecPath::TableauCollapse => "tableau-collapse",
            ExecPath::ExpectationWalk => "expectation-walk",
            ExecPath::ShotEstimate => "shot-estimate",
        };
        f.write_str(name)
    }
}

/// A routed execution: backend, path, the options that realize it, and
/// the (possibly optimizer-rewritten) circuit executions run.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// The state representation to simulate on.
    pub backend: BackendKind,
    /// The engine the options select.
    pub path: ExecPath,
    /// Simulator options realizing the path (seed left `None`; callers
    /// set it per run).
    pub options: SimulatorOptions,
    /// The circuit this plan executes: the optimizer-pipeline output
    /// when [`PlannerConfig::optimize`] is set, otherwise a verbatim
    /// copy of the planned circuit. [`ExecutionPlan::run`] and
    /// [`ExecutionPlan::expectation`] run *this* circuit.
    pub circuit: Circuit,
    /// What the optimizer did to the circuit (all-zero deltas when the
    /// pipeline was off).
    pub rewrite: RewriteStats,
    /// The effective optimizer pipeline configuration (`None` when the
    /// pipeline was off). Folded into [`ExecutionPlan::fingerprint`] so
    /// optimized and raw executions never collide in a result cache.
    pub optimize: Option<OptimizeConfig>,
    /// The profile the routing decision was made from — computed
    /// *post-optimization*, so rewrites that shrink a circuit can
    /// re-route it to a cheaper backend.
    pub profile: CircuitProfile,
    /// Human-readable one-line justification of the choice.
    pub rationale: String,
}

impl ExecutionPlan {
    /// A simulator realizing this plan for an `n`-qubit circuit, seeded
    /// with `seed`. `n` is clamped to at least 1: a zero-qubit circuit
    /// still simulates on a one-qubit state.
    pub fn simulator(&self, n: usize, seed: Option<u64>) -> Simulator<AnyState> {
        let mut options = self.options.clone();
        options.seed = seed;
        Simulator::for_backend(self.backend, n.max(1), options)
    }

    /// The width every execution of this plan simulates: the plan
    /// circuit's width (never the raw submission's, which may include
    /// lightcone-pruned qubits), widened to cover `observable`. It is 0
    /// for an empty circuit and observable; [`ExecutionPlan::simulator`]
    /// raises that to 1.
    pub(crate) fn width(&self, observable: Option<&PauliSum>) -> usize {
        let observed = observable
            .and_then(|o| observable_targets(o).last().map(|q| q.0 as usize + 1))
            .unwrap_or(0);
        self.circuit.num_qubits().max(observed)
    }

    /// Runs the plan's circuit. The result is bit-identical to any
    /// other execution of the same `(circuit, plan, seed, repetitions)`
    /// tuple — the invariant the serving cache relies on.
    pub fn run(&self, repetitions: u64, seed: Option<u64>) -> Result<RunResult, SimError> {
        self.simulator(self.width(None), seed)
            .run(&self.circuit, repetitions)
    }

    /// Exact expectation of `observable` on the final state under this
    /// plan (deterministic; consumes no randomness).
    pub fn expectation(&self, observable: &PauliSum) -> Result<f64, SimError> {
        self.simulator(self.width(Some(observable)), None)
            .expectation_value(&self.circuit, observable)
    }

    /// Fingerprint of everything about the plan that can change a seeded
    /// result: the backend, the execution path, the result-affecting
    /// options, and the optimizer pipeline configuration (an optimized
    /// circuit executes a different gate sequence than its raw form, so
    /// the two must never share a cache entry). `parallel_sweep` is
    /// excluded — the engine's determinism contract makes it
    /// bit-identical. The path matters because a degraded
    /// [`ExecPath::ShotEstimate`] produces different numbers than the
    /// exact walk on the same backend and options. This is the
    /// `backend` component of a serving-layer cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.backend.name().hash(&mut h);
        self.path.hash(&mut h);
        self.options.parallelize_samples.hash(&mut h);
        self.options.skip_diagonal_updates.hash(&mut h);
        self.options.max_forest_nodes.hash(&mut h);
        self.optimize.map(|c| c.fingerprint()).hash(&mut h);
        self.options.optimize.map(|c| c.fingerprint()).hash(&mut h);
        h.finish()
    }
}

/// The union of the observable's per-term supports — the seed set for
/// the expectation-path lightcone prune.
fn observable_targets(observable: &PauliSum) -> Vec<Qubit> {
    let mut targets: Vec<Qubit> = observable
        .terms()
        .iter()
        .flat_map(|(_, p)| p.support().into_iter().map(|q| Qubit(q as u32)))
        .collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// Routes `circuit` to the backend and execution path expected to
/// simulate it best for the requested `deliverable`.
///
/// The decision table (documented in `docs/ARCHITECTURE.md`):
///
/// 1. Pure Clifford, terminal measurements → CH form, sample-parallel.
/// 2. Pure Clifford, mid-circuit measurements → stabilizer tableau with
///    projective collapse.
/// 3. Noisy and narrow (`n <= max_density_qubits`) → density matrix,
///    sample-parallel (channels apply deterministically).
/// 4. Noisy and wider → a forest-capable pure-state backend
///    (statevector / MPS / lazy by width and rank bound); replay when
///    the fork count would overflow the forest budget.
/// 5. Unitary non-Clifford → cost model between dense statevector
///    (`ops * 2^n`) and chain MPS (`ops * n * chi^3`) when the rank
///    bound is small; lazy network as the wide fallback.
/// 6. Expectation deliverables → the exact weighted-frontier walk on
///    the cheapest exact backend for the circuit class.
///
/// Errors with [`SimError::Invalid`] on unresolved parameters and
/// [`SimError::Unsupported`] when no backend fits (e.g. a wide circuit
/// with Toffoli-class gates that MPS cannot take and dense memory
/// cannot hold) or a histogram is asked of a circuit wider than
/// [`BitString::MAX_QUBITS`], the widest sampled outcome.
pub fn plan(
    circuit: &Circuit,
    deliverable: &Deliverable,
    config: &PlannerConfig,
) -> Result<ExecutionPlan, SimError> {
    plan_prepared(&prepare(circuit, config), deliverable, config, None)
}

/// A circuit profiled once, reusable across every deliverable planned
/// for it. The service memoizes these behind the circuit's structural
/// hash so cache-hit traffic never re-profiles or re-optimizes.
///
/// The optimizer pipeline output (the histogram path's circuit, profile
/// and rewrite) is built lazily, on the first read: only a
/// [`Deliverable::Histogram`] plan needs it, because an expectation plan
/// executes the observable-lightcone prune of the raw circuit instead.
/// It is built at most once per prepared circuit, however many plans
/// and threads read it; the service fills it before taking its lock.
#[derive(Clone, Debug)]
pub struct PreparedCircuit {
    /// The circuit exactly as submitted.
    raw: Circuit,
    /// Profile of the raw circuit.
    pub raw_profile: CircuitProfile,
    /// The effective pipeline configuration (`stabilizer_safe` for
    /// Clifford circuits); `None` when the pipeline is off.
    pub config: Option<OptimizeConfig>,
    /// The pipeline output, built on first read.
    pipeline: OnceLock<Pipeline>,
}

/// What the optimizer pipeline made of a [`PreparedCircuit`].
#[derive(Clone, Debug)]
struct Pipeline {
    circuit: Circuit,
    profile: CircuitProfile,
    rewrite: RewriteStats,
}

impl PreparedCircuit {
    /// The circuit exactly as submitted.
    pub fn raw(&self) -> &Circuit {
        &self.raw
    }

    /// The histogram-path pipeline output (a verbatim copy of the raw
    /// circuit when the pipeline is off or the circuit is
    /// parameterized). Runs the pipeline on the first call.
    pub fn circuit(&self) -> &Circuit {
        &self.pipeline().circuit
    }

    /// Profile of [`PreparedCircuit::circuit`], the histogram routing
    /// basis. Runs the pipeline on the first call.
    pub fn profile(&self) -> &CircuitProfile {
        &self.pipeline().profile
    }

    /// What the pipeline did. Runs the pipeline on the first call.
    pub fn rewrite(&self) -> &RewriteStats {
        &self.pipeline().rewrite
    }

    fn pipeline(&self) -> &Pipeline {
        self.pipeline.get_or_init(|| {
            let (circuit, rewrite) = match &self.config {
                Some(cfg) => optimize(&self.raw, cfg),
                None => (
                    self.raw.clone(),
                    RewriteStats::unchanged(self.raw.num_operations()),
                ),
            };
            let profile = if circuit.structural_hash() == self.raw.structural_hash() {
                self.raw_profile.clone()
            } else {
                CircuitProfile::of(&circuit)
            };
            Pipeline {
                circuit,
                profile,
                rewrite,
            }
        })
    }
}

/// Profiles `circuit` and picks the pipeline [`PlannerConfig::optimize`]
/// selects for it, without running it: the first histogram plan does
/// (see [`PreparedCircuit`]). Clifford circuits get the
/// [`OptimizeConfig::stabilizer_safe`] subset (matrix-producing fusion
/// would push them off the stabilizer backends); parameterized circuits
/// get no pipeline — the planner rejects them before execution anyway.
pub fn prepare(circuit: &Circuit, config: &PlannerConfig) -> PreparedCircuit {
    let raw_profile = CircuitProfile::of(circuit);
    let effective = match config.optimize {
        Some(cfg) if !raw_profile.parameterized && cfg.enabled() => {
            if raw_profile.is_clifford() {
                Some(cfg.stabilizer_safe())
            } else {
                Some(cfg)
            }
        }
        _ => None,
    };
    PreparedCircuit {
        raw: circuit.clone(),
        raw_profile,
        config: effective,
        pipeline: OnceLock::new(),
    }
}

/// [`plan`] over a [`PreparedCircuit`], with an optional
/// timing-calibrated [`CostModel`] sharpening the dense-vs-MPS routing
/// choice once its buckets are warm (cold models route exactly like the
/// static formulas).
pub fn plan_prepared(
    prep: &PreparedCircuit,
    deliverable: &Deliverable,
    config: &PlannerConfig,
    model: Option<&CostModel>,
) -> Result<ExecutionPlan, SimError> {
    if prep.raw_profile.parameterized {
        return Err(SimError::Invalid(
            "cannot plan a parameterized circuit: resolve its symbols first \
             (or submit it with a resolver)"
                .into(),
        ));
    }
    if let Deliverable::Histogram { .. } = deliverable {
        let n = prep.profile().num_qubits;
        if n > BitString::MAX_QUBITS {
            return Err(SimError::Unsupported(format!(
                "histogram of a {n}-qubit circuit: sampled bitstrings hold at most {} qubits",
                BitString::MAX_QUBITS
            )));
        }
    }
    // Expectation deliverables execute the observable-lightcone-pruned
    // circuit: the full pipeline would fuse diagonal gates such as
    // `Rzz` into dense blocks, which the exact walk applies as cheap
    // diagonal phase ops when left alone. So only a histogram plan reads
    // (and, the first time, builds) the full pipeline output.
    let (circuit, rewrite, profile) = match deliverable {
        Deliverable::Histogram { .. } => (
            prep.circuit().clone(),
            prep.rewrite().clone(),
            prep.profile(),
        ),
        Deliverable::Expectation { observable } => {
            let lightcone = prep.config.map(|c| c.lightcone).unwrap_or(false);
            if lightcone {
                let pruned = lightcone_prune_for(&prep.raw, &observable_targets(observable));
                let ops_before = prep.raw.num_operations();
                let ops_after = pruned.num_operations();
                let changed = pruned.structural_hash() != prep.raw.structural_hash();
                let rewrite = RewriteStats {
                    ops_before,
                    ops_after,
                    rounds: 1,
                    passes: vec![PassStats {
                        name: "lightcone-observable",
                        ops_before,
                        ops_after,
                        changed,
                    }],
                };
                let profile = if changed {
                    CircuitProfile::of(&pruned)
                } else {
                    prep.raw_profile.clone()
                };
                return route(
                    pruned,
                    rewrite,
                    &profile,
                    prep.config,
                    deliverable,
                    config,
                    model,
                );
            }
            (
                prep.raw.clone(),
                RewriteStats::unchanged(prep.raw.num_operations()),
                &prep.raw_profile,
            )
        }
    };
    let profile = profile.clone();
    route(
        circuit,
        rewrite,
        &profile,
        prep.config,
        deliverable,
        config,
        model,
    )
}

/// The decision table: routes `profile` to a backend and path for
/// `deliverable`, packaging `circuit`/`rewrite` into the plan.
#[allow(clippy::too_many_arguments)]
fn route(
    circuit: Circuit,
    rewrite: RewriteStats,
    profile: &CircuitProfile,
    optimize_cfg: Option<OptimizeConfig>,
    deliverable: &Deliverable,
    config: &PlannerConfig,
    model: Option<&CostModel>,
) -> Result<ExecutionPlan, SimError> {
    let profile = profile.clone();
    let n = profile.num_qubits;
    let sv_ok = n <= config.max_statevector_qubits;
    let dm_ok = n <= config.max_density_qubits;
    let mps_ok = profile.max_arity <= 2;
    let low_chi = profile.chi_bound() <= config.mps_chi_cap as u64;
    // The forest frontier holds one node per distinct branch history;
    // `fork_ops` forks of >=2 branches each overflow a budget of B nodes
    // once 2^forks > B, at which point replay (flat memory) wins by
    // skipping the abandoned forest attempt.
    let forest_fits = profile.fork_ops <= (config.max_forest_nodes.max(2)).ilog2() as usize;
    let trajectory_path = if forest_fits {
        ExecPath::Forest
    } else {
        ExecPath::Replay
    };

    let mut options = SimulatorOptions {
        max_forest_nodes: config.max_forest_nodes,
        ..SimulatorOptions::default()
    };

    let (backend, path, rationale): (BackendKind, ExecPath, String) = match deliverable {
        Deliverable::Expectation { .. } => {
            let backend = if profile.is_clifford() && !profile.mid_circuit_measurements {
                BackendKind::ChForm
            } else if profile.is_clifford() {
                // The walk collapses interior measurements projectively;
                // only the tableau can do that among stabilizer states.
                BackendKind::Tableau
            } else if profile.has_channels && dm_ok {
                // Deterministic channels keep the walk fork-free: the
                // exact mixed state beats enumerating 2^forks branch
                // histories on a pure backend.
                BackendKind::DensityMatrix
            } else if profile.has_channels && mps_ok && low_chi {
                // Noisy and wide: the purified MPS is the only exact
                // mixed-state engine past the density wall — channels
                // grow a local Kraus leg instead of forking.
                BackendKind::PurifiedMps {
                    chi: Some(profile.chi_bound() as usize),
                    kraus_dim: None,
                }
            } else {
                pick_pure_state_backend(&profile, config, sv_ok, mps_ok, low_chi)?
            };
            (
                backend,
                ExecPath::ExpectationWalk,
                format!(
                    "exact expectation walk on {} (clifford fraction {:.2}, chi bound {})",
                    backend.name(),
                    profile.clifford_fraction(),
                    profile.chi_bound()
                ),
            )
        }
        Deliverable::Histogram { .. } => {
            if profile.is_clifford() && !profile.mid_circuit_measurements {
                (
                    BackendKind::ChForm,
                    ExecPath::SampleParallel,
                    format!(
                        "pure Clifford with terminal measurements: CH form samples all \
                         repetitions in one sweep at any width (n = {n})"
                    ),
                )
            } else if profile.is_clifford() {
                (
                    BackendKind::Tableau,
                    ExecPath::TableauCollapse,
                    format!(
                        "Clifford with mid-circuit measurements: tableau projective \
                         collapse ({} fork qubits)",
                        profile.fork_ops
                    ),
                )
            } else if profile.has_channels && dm_ok {
                (
                    BackendKind::DensityMatrix,
                    ExecPath::SampleParallel,
                    format!(
                        "noisy and narrow (n = {n} <= {}): density matrix applies channels \
                         deterministically, keeping sample parallelization",
                        config.max_density_qubits
                    ),
                )
            } else if profile.has_channels
                && !profile.mid_circuit_measurements
                && !forest_fits
                && mps_ok
                && low_chi
            {
                // Noise too dense for the forest and too wide for the
                // density matrix: the purified MPS absorbs every channel
                // deterministically, so the one-sweep sample
                // parallelization survives where replay would walk each
                // trajectory separately.
                (
                    BackendKind::PurifiedMps {
                        chi: Some(profile.chi_bound() as usize),
                        kraus_dim: None,
                    },
                    ExecPath::SampleParallel,
                    format!(
                        "noisy and wide (n = {n} > {}, {} forks > forest budget): \
                         purified MPS applies channels deterministically, keeping \
                         sample parallelization (chi bound {})",
                        config.max_density_qubits,
                        profile.fork_ops,
                        profile.chi_bound()
                    ),
                )
            } else if profile.has_channels || profile.mid_circuit_measurements {
                let backend = pick_pure_state_backend(&profile, config, sv_ok, mps_ok, low_chi)?;
                if matches!(trajectory_path, ExecPath::Replay) {
                    options.parallelize_samples = false;
                }
                (
                    backend,
                    trajectory_path,
                    format!(
                        "stochastic branches on {} ({} forks vs forest budget {}): {}",
                        backend.name(),
                        profile.fork_ops,
                        config.max_forest_nodes,
                        if forest_fits {
                            "forest shares branch histories"
                        } else {
                            "dense forks overflow the forest, replay has flat memory"
                        }
                    ),
                )
            } else {
                // Unitary non-Clifford, terminal measurements: cost model.
                let backend =
                    pick_unitary_backend(&profile, config, sv_ok, mps_ok, low_chi, model)?;
                (
                    backend,
                    ExecPath::SampleParallel,
                    format!(
                        "unitary non-Clifford: {} minimizes the cost model \
                         (n = {n}, chi bound {})",
                        backend.name(),
                        profile.chi_bound()
                    ),
                )
            }
        }
    };

    Ok(ExecutionPlan {
        backend,
        path,
        options,
        circuit,
        rewrite,
        optimize: optimize_cfg,
        profile,
        rationale,
    })
}

/// One step down the documented degradation ladder: the plan a
/// fault-tolerant service falls back to when `current` keeps failing.
///
/// The ladder trades speed (and, at the very bottom, exactness) for
/// robustness, never correctness of what it does return — every rung is
/// an engine the determinism contract covers, so a degraded seeded run
/// is still bit-identical to running the same fallback plan directly.
///
/// Histogram rungs:
///
/// 1. forest → per-trajectory replay on the same backend (flat memory,
///    no frontier budget to exhaust);
/// 2. backend ladder, with a conservative path on the target (replay
///    for circuits with stochastic branches, sample-parallel
///    otherwise): CH form → tableau → statevector;
///    density matrix → statevector (or purified MPS past the dense
///    wall); purified MPS → statevector → chi-capped chain MPS → lazy
///    network; statevector → chi-capped chain MPS → lazy network.
///
/// Expectation rungs: exact walk → grouped-shot estimate
/// ([`ExecPath::ShotEstimate`]) on the same backend. The estimate is
/// sampled, so it only stands in when the circuit has no mid-circuit
/// measurements (the estimator's precondition).
///
/// Returns `None` at the bottom of the ladder — the service turns that
/// into a terminal failure carrying the last error.
pub fn degrade(current: &ExecutionPlan, config: &PlannerConfig) -> Option<ExecutionPlan> {
    let profile = &current.profile;
    let n = profile.num_qubits;
    let sv_ok = n <= config.max_statevector_qubits;
    let mps_ok = profile.max_arity <= 2;
    let low_chi = profile.chi_bound() <= config.mps_chi_cap as u64;
    let chi = (profile.chi_bound() as usize).max(1);

    // Expectation deliverables: exact walk -> grouped-shot estimate.
    if current.path == ExecPath::ExpectationWalk {
        if profile.mid_circuit_measurements {
            return None;
        }
        return Some(ExecutionPlan {
            backend: current.backend,
            path: ExecPath::ShotEstimate,
            options: current.options.clone(),
            circuit: current.circuit.clone(),
            rewrite: current.rewrite.clone(),
            optimize: current.optimize,
            profile: profile.clone(),
            rationale: format!(
                "degraded: exact expectation walk -> grouped-shot estimate on {}",
                current.backend.name()
            ),
        });
    }
    if current.path == ExecPath::ShotEstimate {
        return None;
    }

    // Histogram rung 1: forest -> replay on the same backend.
    if current.path == ExecPath::Forest {
        let mut options = current.options.clone();
        options.parallelize_samples = false;
        return Some(ExecutionPlan {
            backend: current.backend,
            path: ExecPath::Replay,
            options,
            circuit: current.circuit.clone(),
            rewrite: current.rewrite.clone(),
            optimize: current.optimize,
            profile: profile.clone(),
            rationale: "degraded: trajectory forest -> per-trajectory replay (flat memory)".into(),
        });
    }

    // Histogram rung 2: the backend ladder.
    let (backend, why) = match current.backend {
        BackendKind::ChForm => (BackendKind::Tableau, "CH form -> stabilizer tableau"),
        BackendKind::Tableau if sv_ok => (
            BackendKind::StateVector,
            "stabilizer tableau -> dense statevector",
        ),
        BackendKind::DensityMatrix if sv_ok => (
            BackendKind::StateVector,
            "density matrix -> statevector trajectories",
        ),
        BackendKind::DensityMatrix if mps_ok && low_chi => (
            BackendKind::PurifiedMps {
                chi: Some(chi),
                kraus_dim: None,
            },
            "density matrix -> purified MPS (exact channels past the dense wall)",
        ),
        BackendKind::PurifiedMps { .. } if sv_ok => (
            BackendKind::StateVector,
            "purified MPS -> statevector trajectories",
        ),
        BackendKind::PurifiedMps { .. } if mps_ok && low_chi => (
            BackendKind::ChainMps { chi: Some(chi) },
            "purified MPS -> chi-capped chain MPS trajectories",
        ),
        BackendKind::PurifiedMps { .. } if mps_ok => (
            BackendKind::LazyNetwork,
            "purified MPS -> lazy network trajectories",
        ),
        BackendKind::StateVector if mps_ok && low_chi => (
            BackendKind::ChainMps { chi: Some(chi) },
            "statevector -> chi-capped chain MPS",
        ),
        BackendKind::StateVector if mps_ok => {
            (BackendKind::LazyNetwork, "statevector -> lazy network")
        }
        BackendKind::ChainMps { .. } if mps_ok => {
            (BackendKind::LazyNetwork, "chain MPS -> lazy network")
        }
        _ => return None,
    };
    // Conservative path on the fallback: circuits with stochastic
    // branches replay flat; unitary terminal circuits — and noisy
    // circuits landing on a deterministic-channel backend — keep the
    // one-sweep sample parallelization.
    let mut options = current.options.clone();
    let stochastic = profile.has_channels && !backend.channels_are_deterministic();
    let path = if stochastic || profile.mid_circuit_measurements {
        ExecPath::Replay
    } else {
        ExecPath::SampleParallel
    };
    options.parallelize_samples = path == ExecPath::SampleParallel;
    Some(ExecutionPlan {
        backend,
        path,
        options,
        circuit: current.circuit.clone(),
        rewrite: current.rewrite.clone(),
        optimize: current.optimize,
        profile: profile.clone(),
        rationale: format!("degraded: {why}"),
    })
}

/// The pure-state ladder used for trajectory and expectation work:
/// dense when it fits, chain MPS when the rank bound is small, lazy
/// network as the wide two-local fallback.
fn pick_pure_state_backend(
    profile: &CircuitProfile,
    config: &PlannerConfig,
    sv_ok: bool,
    mps_ok: bool,
    low_chi: bool,
) -> Result<BackendKind, SimError> {
    if sv_ok {
        Ok(BackendKind::StateVector)
    } else if mps_ok && low_chi {
        Ok(BackendKind::ChainMps {
            chi: Some(profile.chi_bound() as usize),
        })
    } else if mps_ok {
        Ok(BackendKind::LazyNetwork)
    } else {
        Err(too_wide(profile, config))
    }
}

/// Cost-model pick for unitary non-Clifford circuits with terminal
/// measurements: dense statevector `ops * 2^n` vs exact chain MPS
/// `ops * n * chi^3`, lazy network when neither fits. When a calibrated
/// [`CostModel`] has warm buckets for *both* candidates on the
/// sample-parallel path, the comparison uses its measured
/// milliseconds instead of the static units; a cold (or half-warm)
/// model falls through to the static comparison, so cold-start routing
/// is unchanged.
fn pick_unitary_backend(
    profile: &CircuitProfile,
    config: &PlannerConfig,
    sv_ok: bool,
    mps_ok: bool,
    low_chi: bool,
    model: Option<&CostModel>,
) -> Result<BackendKind, SimError> {
    if sv_ok && mps_ok && low_chi {
        let mps_backend = BackendKind::ChainMps {
            chi: Some(profile.chi_bound() as usize),
        };
        if let Some(m) = model {
            let path = ExecPath::SampleParallel;
            let sv_ms = m.predict_ms(
                &BackendKind::StateVector,
                path,
                CostModel::static_units(profile, &BackendKind::StateVector),
            );
            let mps_ms = m.predict_ms(
                &mps_backend,
                path,
                CostModel::static_units(profile, &mps_backend),
            );
            if let (Some(sv_ms), Some(mps_ms)) = (sv_ms, mps_ms) {
                return Ok(if mps_ms < sv_ms {
                    mps_backend
                } else {
                    BackendKind::StateVector
                });
            }
        }
    }
    let ops = profile.num_operations.max(1) as u128;
    let sv_cost = if sv_ok {
        Some(ops << profile.num_qubits.min(100))
    } else {
        None
    };
    let mps_cost = if mps_ok && low_chi {
        let chi = profile.chi_bound() as u128;
        Some(ops * profile.num_qubits.max(1) as u128 * chi * chi * chi)
    } else {
        None
    };
    match (sv_cost, mps_cost) {
        (Some(sv), Some(mps)) if mps < sv => Ok(BackendKind::ChainMps {
            chi: Some(profile.chi_bound() as usize),
        }),
        (Some(_), _) => Ok(BackendKind::StateVector),
        (None, Some(_)) => Ok(BackendKind::ChainMps {
            chi: Some(profile.chi_bound() as usize),
        }),
        (None, None) if mps_ok => Ok(BackendKind::LazyNetwork),
        (None, None) => Err(too_wide(profile, config)),
    }
}

fn too_wide(profile: &CircuitProfile, config: &PlannerConfig) -> SimError {
    SimError::Unsupported(format!(
        "no backend fits: {} qubits exceeds the dense budget ({} sv / {} dm) and \
         arity-{} operations rule out the chain MPS and lazy network",
        profile.num_qubits,
        config.max_statevector_qubits,
        config.max_density_qubits,
        profile.max_arity
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use bgls_circuit::{Channel, Gate, Operation, Qubit};

    fn q(i: u32) -> Qubit {
        Qubit(i)
    }

    fn hist() -> Deliverable {
        Deliverable::Histogram { repetitions: 100 }
    }

    fn measured_ghz(n: u32) -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        for i in 1..n {
            c.push(Operation::gate(Gate::Cnot, vec![q(i - 1), q(i)]).unwrap());
        }
        c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        c
    }

    #[test]
    fn pure_clifford_routes_to_chform_sample_parallel() {
        let plan = plan(&measured_ghz(30), &hist(), &PlannerConfig::default()).unwrap();
        assert_eq!(plan.backend, BackendKind::ChForm);
        assert_eq!(plan.path, ExecPath::SampleParallel);
    }

    #[test]
    fn mid_circuit_clifford_routes_to_tableau_collapse() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::measure(vec![q(0)], "early").unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![q(0), q(1)]).unwrap());
        c.push(Operation::measure(vec![q(0), q(1)], "late").unwrap());
        let plan = plan(&c, &hist(), &PlannerConfig::default()).unwrap();
        assert_eq!(plan.backend, BackendKind::Tableau);
        assert_eq!(plan.path, ExecPath::TableauCollapse);
    }

    #[test]
    fn noisy_narrow_routes_to_density_matrix() {
        let mut c = measured_ghz(4);
        let mut noisy = Circuit::new();
        noisy.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        noisy.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![q(0)]).unwrap());
        noisy.extend_circuit(&c);
        c = noisy;
        let plan = plan(&c, &hist(), &PlannerConfig::default()).unwrap();
        assert_eq!(plan.backend, BackendKind::DensityMatrix);
        assert_eq!(plan.path, ExecPath::SampleParallel);
    }

    #[test]
    fn noisy_wide_routes_to_forest_then_purified_mps_as_noise_densifies() {
        let cfg = PlannerConfig::default();
        // 16 qubits: too wide for the density matrix, fine for the
        // statevector. Channels go *before* the terminal measurement.
        let noisy = |channel_qubits: u32| {
            let mut c = measured_ghz(16).without_measurements();
            for i in 0..channel_qubits {
                c.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![q(i)]).unwrap());
            }
            c.push(Operation::measure((0..16).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
            c
        };
        let p1 = plan(&noisy(1), &hist(), &cfg).unwrap();
        assert_eq!(p1.backend, BackendKind::StateVector);
        assert_eq!(p1.path, ExecPath::Forest);
        assert!(p1.options.parallelize_samples);

        // Dense noise overflows the forest budget; the purified MPS
        // absorbs every channel exactly and keeps sample parallelism.
        let p2 = plan(&noisy(16), &hist(), &cfg).unwrap();
        assert!(
            matches!(p2.backend, BackendKind::PurifiedMps { .. }),
            "{:?}",
            p2.backend
        );
        assert_eq!(p2.path, ExecPath::SampleParallel);
    }

    #[test]
    fn noisy_wide_expectation_routes_to_purified_mps_walk() {
        let cfg = PlannerConfig::default();
        // 20 qubits of noisy GHZ: 4^20 density amplitudes cannot
        // allocate, but the chain's chi bound is 2 — purified MPS walks
        // it exactly.
        let mut c = measured_ghz(20).without_measurements();
        for i in 0..20 {
            c.push(Operation::channel(Channel::depolarizing(0.01).unwrap(), vec![q(i)]).unwrap());
        }
        let obs: PauliSum = "Z0 Z19".parse().unwrap();
        let p = plan(&c, &Deliverable::Expectation { observable: obs }, &cfg).unwrap();
        assert!(
            matches!(p.backend, BackendKind::PurifiedMps { chi: Some(_), .. }),
            "{:?}",
            p.backend
        );
        assert_eq!(p.path, ExecPath::ExpectationWalk);

        // Narrow noisy expectations stay on the exact density matrix.
        let mut narrow = measured_ghz(4).without_measurements();
        narrow.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![q(0)]).unwrap());
        let obs: PauliSum = "Z0 Z3".parse().unwrap();
        let p = plan(&narrow, &Deliverable::Expectation { observable: obs }, &cfg).unwrap();
        assert_eq!(p.backend, BackendKind::DensityMatrix);
        assert_eq!(p.path, ExecPath::ExpectationWalk);
    }

    #[test]
    fn purified_mps_degrades_to_statevector_then_chain_then_lazy() {
        let cfg = PlannerConfig::default();
        let mut c = measured_ghz(16).without_measurements();
        for i in 0..16 {
            c.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![q(i)]).unwrap());
        }
        c.push(Operation::measure((0..16).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        let top = plan(&c, &hist(), &cfg).unwrap();
        assert!(matches!(top.backend, BackendKind::PurifiedMps { .. }));
        assert_eq!(top.path, ExecPath::SampleParallel);

        // 16 qubits still fit the statevector: trajectories replay flat.
        let r1 = degrade(&top, &cfg).unwrap();
        assert_eq!(r1.backend, BackendKind::StateVector);
        assert_eq!(r1.path, ExecPath::Replay);
        assert_ne!(
            r1.fingerprint(),
            top.fingerprint(),
            "degraded purified-MPS jobs must re-key the cache"
        );

        // Past the dense wall the ladder goes chain MPS, then lazy.
        let narrow_cfg = PlannerConfig {
            max_statevector_qubits: 8,
            ..cfg
        };
        let r1 = degrade(&top, &narrow_cfg).unwrap();
        assert!(matches!(r1.backend, BackendKind::ChainMps { chi: Some(_) }));
        assert_eq!(r1.path, ExecPath::Replay);
        let r2 = degrade(&r1, &narrow_cfg).unwrap();
        assert_eq!(r2.backend, BackendKind::LazyNetwork);
        assert!(degrade(&r2, &narrow_cfg).is_none());
    }

    #[test]
    fn low_chi_wide_chain_routes_to_capped_mps() {
        // 30 qubits (> sv budget) of T-dusted nearest-neighbour ladder:
        // chi bound is 2, MPS is the only sane exact route.
        let mut c = Circuit::new();
        for i in 0..30u32 {
            c.push(Operation::gate(Gate::T, vec![q(i)]).unwrap());
        }
        for i in 1..30u32 {
            c.push(Operation::gate(Gate::Cnot, vec![q(i - 1), q(i)]).unwrap());
        }
        c.push(Operation::measure((0..30).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        // Pipeline off: the raw chain's rank-2 crossings bound chi at 2.
        let raw = PlannerConfig {
            optimize: None,
            ..PlannerConfig::default()
        };
        let raw_plan = plan(&c, &hist(), &raw).unwrap();
        assert_eq!(raw_plan.backend, BackendKind::ChainMps { chi: Some(2) });
        assert_eq!(raw_plan.path, ExecPath::SampleParallel);
        // Pipeline on: T gates fuse into the CNOTs as U4 matrices, which
        // are (soundly) weighted as rank-4 crossings — still a
        // chi-capped MPS, with a wider but exact cap.
        let opt_plan = plan(&c, &hist(), &PlannerConfig::default()).unwrap();
        assert!(
            matches!(opt_plan.backend, BackendKind::ChainMps { chi: Some(cap) } if cap >= 2),
            "{:?}",
            opt_plan.backend
        );
        assert_eq!(opt_plan.path, ExecPath::SampleParallel);
    }

    #[test]
    fn expectation_deliverable_routes_to_the_walk() {
        let c = measured_ghz(4).without_measurements();
        let obs: PauliSum = "Z0 Z1".parse().unwrap();
        let plan = plan(
            &c,
            &Deliverable::Expectation { observable: obs },
            &PlannerConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.path, ExecPath::ExpectationWalk);
        assert_eq!(plan.backend, BackendKind::ChForm);
    }

    #[test]
    fn only_a_histogram_plan_builds_the_pipeline_output() {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::gate(Gate::Rz(0.3.into()), vec![q(1)]).unwrap());
        c.push(Operation::gate(Gate::Rz(0.4.into()), vec![q(1)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![q(1), q(2)]).unwrap());
        c.push(Operation::gate(Gate::Rzz(0.5.into()), vec![q(0), q(2)]).unwrap());
        c.push(Operation::gate(Gate::Rx(0.7.into()), vec![q(2)]).unwrap());
        c.push(Operation::measure(vec![q(0), q(1), q(2)], "m").unwrap());
        let cfg = PlannerConfig::default();
        let prep = prepare(&c, &cfg);
        assert!(prep.pipeline.get().is_none(), "prepare only profiles");
        let expectation = Deliverable::Expectation {
            observable: "Z0 Z2".parse().unwrap(),
        };
        plan_prepared(&prep, &expectation, &cfg, None).unwrap();
        assert!(
            prep.pipeline.get().is_none(),
            "an expectation plan skips it"
        );

        let first = plan_prepared(&prep, &hist(), &cfg, None).unwrap();
        let built: *const Pipeline = prep.pipeline.get().expect("built by the histogram plan");
        let again = plan_prepared(&prep, &hist(), &cfg, None).unwrap();
        assert!(
            std::ptr::eq(built, prep.pipeline.get().unwrap()),
            "built once"
        );
        let cold = plan(&c, &hist(), &cfg).unwrap();
        assert!(
            cold.rewrite.ops_after < cold.rewrite.ops_before,
            "the pipeline rewrites"
        );
        for p in [&first, &again] {
            assert_eq!(p.circuit, cold.circuit);
            assert_eq!(p.rewrite, cold.rewrite);
            assert_eq!(p.fingerprint(), cold.fingerprint());
        }
    }

    #[test]
    fn wide_toffoli_circuits_are_rejected_with_a_typed_error() {
        let mut c = Circuit::new();
        for i in 0..30u32 {
            c.push(Operation::gate(Gate::H, vec![q(i)]).unwrap());
        }
        c.push(Operation::gate(Gate::Ccx, vec![q(0), q(1), q(2)]).unwrap());
        c.push(Operation::measure((0..30).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        match plan(&c, &hist(), &PlannerConfig::default()) {
            Err(SimError::Unsupported(msg)) => assert!(msg.contains("arity-3"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn parameterized_circuits_are_rejected_at_plan_time() {
        let mut c = Circuit::new();
        c.push(
            Operation::gate(Gate::Rz(bgls_circuit::Param::symbol("theta")), vec![q(0)]).unwrap(),
        );
        c.push(Operation::measure(vec![q(0)], "m").unwrap());
        assert!(matches!(
            plan(&c, &hist(), &PlannerConfig::default()),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn degradation_ladder_walks_forest_replay_then_backends() {
        let cfg = PlannerConfig::default();
        // 16-qubit sparse-noise circuit: sv/forest at the top
        let mut c = measured_ghz(16).without_measurements();
        c.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![q(0)]).unwrap());
        c.push(Operation::measure((0..16).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        let top = plan(&c, &hist(), &cfg).unwrap();
        assert_eq!(
            (top.backend, top.path),
            (BackendKind::StateVector, ExecPath::Forest)
        );

        let r1 = degrade(&top, &cfg).unwrap();
        assert_eq!(
            (r1.backend, r1.path),
            (BackendKind::StateVector, ExecPath::Replay)
        );
        assert!(!r1.options.parallelize_samples);

        let r2 = degrade(&r1, &cfg).unwrap();
        assert!(matches!(r2.backend, BackendKind::ChainMps { chi: Some(_) }));
        assert_eq!(r2.path, ExecPath::Replay, "noisy circuit replays on MPS");

        let r3 = degrade(&r2, &cfg).unwrap();
        assert_eq!(r3.backend, BackendKind::LazyNetwork);
        assert!(degrade(&r3, &cfg).is_none(), "lazy network is the bottom");
    }

    #[test]
    fn clifford_ladder_descends_chform_tableau_statevector() {
        let cfg = PlannerConfig::default();
        let top = plan(&measured_ghz(8), &hist(), &cfg).unwrap();
        assert_eq!(top.backend, BackendKind::ChForm);
        let r1 = degrade(&top, &cfg).unwrap();
        assert_eq!(r1.backend, BackendKind::Tableau);
        assert_eq!(r1.path, ExecPath::SampleParallel);
        let r2 = degrade(&r1, &cfg).unwrap();
        assert_eq!(r2.backend, BackendKind::StateVector);
    }

    #[test]
    fn expectation_walk_degrades_to_a_shot_estimate_once() {
        let cfg = PlannerConfig::default();
        let c = measured_ghz(4).without_measurements();
        let obs: PauliSum = "Z0 Z1".parse().unwrap();
        let top = plan(&c, &Deliverable::Expectation { observable: obs }, &cfg).unwrap();
        let est = degrade(&top, &cfg).unwrap();
        assert_eq!(est.path, ExecPath::ShotEstimate);
        assert_eq!(
            est.backend, top.backend,
            "estimate stays on the same backend"
        );
        assert_ne!(
            est.fingerprint(),
            top.fingerprint(),
            "estimate results must never alias walk results in a cache"
        );
        assert!(degrade(&est, &cfg).is_none());
    }

    #[test]
    fn fingerprint_distinguishes_result_affecting_options() {
        let p1 = plan(&measured_ghz(4), &hist(), &PlannerConfig::default()).unwrap();
        let mut p2 = p1.clone();
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        p2.options.skip_diagonal_updates = true;
        assert_ne!(p1.fingerprint(), p2.fingerprint());
        let mut p3 = p1.clone();
        p3.options.parallel_sweep = true; // bit-identical by contract
        assert_eq!(p1.fingerprint(), p3.fingerprint());
    }
}
