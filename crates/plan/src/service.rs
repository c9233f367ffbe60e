//! The batch simulation service: a queue, a planner, a batcher, a
//! deterministic result cache — and a fault-tolerance layer.
//!
//! [`SimulationService`] is the host loop the planner was built for.
//! Requests arrive via [`SimulationService::submit`] (which plans them
//! immediately — infeasible circuits are rejected at the door), sit in
//! a bounded FIFO queue, and are drained by
//! [`SimulationService::run_pending`] in batches:
//!
//! 1. Each drained job first consults the [`ResultCache`]. A seeded
//!    simulation is a pure function of
//!    `(circuit, backend, options, seed, repetitions)`, so a hit is
//!    *bit-identical* to re-running — not an approximation.
//! 2. Cache misses are deduplicated — a hot burst of identical requests
//!    simulates once, even across batches executing at the same time
//!    (a duplicate parks on the in-flight leader and settles from its
//!    outcome).
//! 3. Every remaining job runs standalone through its own plan: the
//!    plan's simulator under the job's seed, one job after another,
//!    each timed on its own. Jobs in a batch share no simulation, so a
//!    job's output is bit-identical to running its plan directly.
//!    Parallelism across jobs comes from the [`crate::ServiceHandle`]
//!    workers, and within a job from the engine's own fan-outs.
//! 4. Each drain takes a fair share of the queue: `ceil(eligible /
//!    drainers)` jobs, clamped to `[1, max_batch]` ([`BatchPolicy`]).
//!    `eligible` counts the queued jobs outside a retry backoff window;
//!    `drainers` is 1 for [`SimulationService::run_pending`] and the
//!    worker count under a [`crate::ServiceHandle`], so concurrent
//!    workers split a burst instead of one of them taking all of it.
//!
//! # Failure domains
//!
//! Every job is its own failure domain. A panicking kernel is
//! caught (`catch_unwind`) and surfaces as a typed
//! [`SimError::WorkerPanic`] on that job alone; the drain loop, the
//! other batch members, and the service itself keep running. Failed
//! jobs are retried with exponential backoff ([`RetryPolicy`]) and,
//! when the retry budget on a plan is exhausted — or immediately on
//! [`SimError::BudgetExhausted`] — re-planned one rung down the
//! [`crate::degrade`] ladder, with each hop recorded in the final
//! [`JobReport::degradations`]. Deadlines are checked at batch
//! boundaries against the service [`Clock`]; queued jobs can be
//! cancelled by [`JobId`]. A [`FaultPlan`] injects deterministic,
//! seed-keyed faults for chaos testing.

use crate::cost::CostModel;
use crate::fault::{FaultPlan, InjectedFault};
use crate::planner::{
    degrade, plan_prepared, prepare, Deliverable, ExecPath, ExecutionPlan, PreparedCircuit,
};
use crate::PlannerConfig;
use bgls_backend::BackendKind;
use bgls_circuit::{Circuit, ParamResolver, PauliSum, RewriteStats};
use bgls_core::{
    BatchPolicy, CacheKey, CacheStats, Clock, MonotonicClock, OpFaultFn, ResultCache, RetryPolicy,
    RunResult, SimError,
};
use bgls_linalg::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Locks a mutex, recovering from poisoning: a panicking worker must
/// never take the service down with it — the protected state is only
/// ever updated in consistent steps, so the post-panic value is valid.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders a caught panic payload as text for [`SimError::WorkerPanic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Configuration of a [`SimulationService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Budgets for the per-request planner.
    pub planner: PlannerConfig,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Maximum queued (submitted, unexecuted) jobs; further submissions
    /// are rejected with [`SimError::Invalid`]. Retry/degradation
    /// re-admissions bypass the bound — an accepted job is never lost
    /// to backpressure.
    pub max_queue: usize,
    /// Seed applied to histogram requests that do not carry their own.
    /// `None` leaves such requests unseeded — fresh entropy every run,
    /// and therefore uncacheable.
    pub default_seed: Option<u64>,
    /// Cap on the jobs one drain takes; below it a drain takes a fair
    /// share of the eligible queue.
    pub batch: BatchPolicy,
    /// Retry budget and backoff schedule per degradation rung.
    pub retry: RetryPolicy,
    /// Deadline budget applied to requests that do not carry their own
    /// (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Shots per Pauli group when an expectation job degrades from the
    /// exact walk to the grouped-shot estimate
    /// ([`ExecPath::ShotEstimate`]).
    pub degraded_shots: u64,
    /// Deterministic fault injection for chaos tests; `None` (the
    /// default) injects nothing.
    pub fault: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            planner: PlannerConfig::default(),
            cache_capacity: 1024,
            max_queue: 4096,
            default_seed: None,
            batch: BatchPolicy::default(),
            retry: RetryPolicy::default(),
            default_deadline_ms: None,
            degraded_shots: 2048,
            fault: None,
        }
    }
}

/// Handle to a submitted job; redeem with
/// [`SimulationService::take_result`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(pub u64);

/// Where a job currently is in its lifecycle — the typed answer to
/// "why did `take_result` return `None`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted and waiting in the queue (possibly in a retry backoff
    /// window).
    Pending,
    /// Drained into a batch that is executing (or parked on an
    /// identical job in one).
    Running,
    /// Finished — [`SimulationService::take_result`] will return it.
    Done,
    /// The service has no record of the id: never submitted here, or
    /// its result was already taken.
    Unknown,
}

/// A completed job's payload.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// Sampled histogram result (shared — cache hits hand out the same
    /// allocation).
    Histogram(Arc<RunResult>),
    /// Expectation value (exact from the walk, or a grouped-shot
    /// estimate when the job degraded to [`ExecPath::ShotEstimate`]).
    Expectation(f64),
}

impl JobOutput {
    /// The run result, when this is a histogram job.
    pub fn histogram(&self) -> Option<&RunResult> {
        match self {
            JobOutput::Histogram(r) => Some(r),
            JobOutput::Expectation(_) => None,
        }
    }

    /// The value, when this is an expectation job.
    pub fn expectation(&self) -> Option<f64> {
        match self {
            JobOutput::Histogram(_) => None,
            JobOutput::Expectation(v) => Some(*v),
        }
    }
}

/// A finished job: the output plus how it was produced.
///
/// The fault-tolerance contract lives here: `backend`/`path` name the
/// plan that finally served the job, and `degradations` records every
/// ladder hop that led to it. A degraded-but-successful seeded job is
/// bit-identical to running the recorded fallback plan directly with
/// the same seed.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The payload.
    pub output: JobOutput,
    /// Execution attempts this job consumed (0 when served from cache).
    pub attempts: u32,
    /// One entry per degradation hop, oldest first — empty for a job
    /// served by its original plan.
    pub degradations: Vec<String>,
    /// Backend of the plan that produced the output.
    pub backend: BackendKind,
    /// Execution path of the plan that produced the output.
    pub path: ExecPath,
    /// What the optimizer pipeline did to the circuit this job executed
    /// (all-zero deltas when the pipeline was off).
    pub rewrite: RewriteStats,
    /// The calibrated cost model's wall-clock prediction for the run
    /// that produced the output, in milliseconds. `None` while the
    /// model's `(backend, path)` bucket is still warming up, and for
    /// cache hits.
    pub predicted_ms: Option<f64>,
    /// Wall-clock time of the run that produced the output, in
    /// milliseconds: the job's last attempt, timed on its own (a
    /// duplicate reports the run of the job it parked on). Concurrent
    /// workers share the cores, so it includes their contention. `None`
    /// for cache hits (nothing executed).
    pub measured_ms: Option<f64>,
}

impl JobReport {
    /// The run result, when this is a histogram job.
    pub fn histogram(&self) -> Option<&RunResult> {
        self.output.histogram()
    }

    /// The value, when this is an expectation job.
    pub fn expectation(&self) -> Option<f64> {
        self.output.expectation()
    }

    /// True when the job was served by a fallback plan rather than its
    /// original one.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// One simulation request.
#[derive(Clone, Debug)]
pub struct SimRequest {
    /// The circuit to simulate (possibly parameterized when `resolver`
    /// is set).
    pub circuit: Circuit,
    /// Parameter bindings applied at submission.
    pub resolver: Option<ParamResolver>,
    /// What to compute.
    pub deliverable: Deliverable,
    /// Explicit seed; falls back to [`ServiceConfig::default_seed`].
    pub seed: Option<u64>,
    /// Deadline budget in milliseconds from submission; falls back to
    /// [`ServiceConfig::default_deadline_ms`]. Checked at batch
    /// boundaries — an expired job fails with
    /// [`SimError::DeadlineExceeded`] instead of executing.
    pub deadline_ms: Option<u64>,
}

impl SimRequest {
    /// A histogram request over `repetitions` shots.
    pub fn histogram(circuit: Circuit, repetitions: u64) -> Self {
        SimRequest {
            circuit,
            resolver: None,
            deliverable: Deliverable::Histogram { repetitions },
            seed: None,
            deadline_ms: None,
        }
    }

    /// An exact-expectation request.
    pub fn expectation(circuit: Circuit, observable: PauliSum) -> Self {
        SimRequest {
            circuit,
            resolver: None,
            deliverable: Deliverable::Expectation { observable },
            seed: None,
            deadline_ms: None,
        }
    }

    /// Attaches an explicit seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches parameter bindings, resolved at submission.
    pub fn with_resolver(mut self, resolver: ParamResolver) -> Self {
        self.resolver = Some(resolver);
        self
    }

    /// Attaches a deadline budget in milliseconds from submission.
    pub fn with_deadline_ms(mut self, budget_ms: u64) -> Self {
        self.deadline_ms = Some(budget_ms);
        self
    }
}

/// Service counters (cache counters live in
/// [`SimulationService::cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted by [`SimulationService::submit`].
    pub submitted: u64,
    /// Jobs finished successfully (including cache hits).
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Drain batches executed.
    pub batches: u64,
    /// Duplicate jobs served by the run of an identical job in flight
    /// (the dedup win) instead of simulating themselves.
    pub merged_jobs: u64,
    /// Distinct simulations actually executed (after cache hits and
    /// deduplication).
    pub simulated_jobs: u64,
    /// Failed attempts re-admitted for another try on the same plan.
    pub retries: u64,
    /// Hops taken down the degradation ladder.
    pub degradations: u64,
    /// Panics caught and converted to [`SimError::WorkerPanic`].
    pub panics_caught: u64,
    /// Jobs failed with [`SimError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Jobs cancelled by the caller before execution.
    pub cancellations: u64,
    /// Faults injected by the configured [`FaultPlan`].
    pub faults_injected: u64,
}

struct PendingJob {
    id: u64,
    /// The submitted circuit with its resolver applied — what the cache
    /// keys hash. Jobs execute `plan.circuit`.
    resolved: Circuit,
    plan: ExecutionPlan,
    seed: Option<u64>,
    /// Identity at submission — what dedup and cache lookups
    /// key on. Stable across retries and degradations.
    dedup_key: Option<CacheKey>,
    /// Key under the plan *currently serving* the job — what a
    /// successful result is cached under. Re-computed on degradation so
    /// a fallback backend's bits are never stored under the original
    /// plan's key.
    serve_key: Option<CacheKey>,
    kind: JobKind,
    /// Execution attempts started so far (also the fault-roll index).
    attempt: u32,
    /// Retries consumed on the current degradation rung.
    rung_retries: u32,
    /// Degradation-ladder hops taken, oldest first.
    degradations: Vec<String>,
    /// `(absolute deadline in clock ms, original budget)`.
    deadline: Option<(u64, u64)>,
    /// Earliest clock time the job may execute (retry backoff).
    not_before_ms: u64,
    /// Calibrated wall-clock prediction captured when the job was taken.
    predicted_ms: Option<f64>,
    /// Wall-clock time of the job's last successful run.
    measured_ms: Option<f64>,
}

impl PendingJob {
    /// Static cost units of one run under the current plan: the plan
    /// circuit's units, times the shot count for histograms.
    fn units(&self) -> f64 {
        let scale = match self.kind {
            JobKind::Histogram { repetitions } => repetitions as f64,
            JobKind::Expectation { .. } => 1.0,
        };
        CostModel::static_units(&self.plan.profile, &self.plan.backend) * scale
    }
}

enum JobKind {
    Histogram { repetitions: u64 },
    Expectation { observable: PauliSum, obs_fp: u64 },
}

/// Cache key for a job under a given plan. The submission-time call
/// produces the dedup identity; after a degradation the same function
/// re-keys the job under the fallback plan (for
/// [`ExecPath::ShotEstimate`] the estimate is seeded sampling, so it is
/// cacheable only when seeded, keyed by shots in the `repetitions`
/// slot).
fn key_for(
    kind: &JobKind,
    plan: &ExecutionPlan,
    resolved: &Circuit,
    seed: Option<u64>,
    degraded_shots: u64,
) -> Option<CacheKey> {
    let circuit = resolved.structural_hash();
    let backend = plan.fingerprint();
    match kind {
        // Only seeded histograms are reproducible, hence cacheable.
        JobKind::Histogram { repetitions } => seed.map(|s| CacheKey {
            circuit,
            backend,
            seed: s,
            repetitions: *repetitions,
            deliverable: 0,
        }),
        JobKind::Expectation { obs_fp, .. } => {
            if plan.path == ExecPath::ShotEstimate {
                seed.map(|s| CacheKey {
                    circuit,
                    backend,
                    seed: s,
                    repetitions: degraded_shots,
                    deliverable: *obs_fp,
                })
            } else {
                // The expectation walk is deterministic: cacheable
                // regardless of seeding.
                Some(CacheKey {
                    circuit,
                    backend,
                    seed: 0,
                    repetitions: 0,
                    deliverable: *obs_fp,
                })
            }
        }
    }
}

/// Job lifecycle table shared between the service and its async front
/// door: every job the service knows of maps to its [`JobStatus`], so
/// status queries never need the service itself.
pub(crate) type Phases = Arc<Mutex<FxHashMap<u64, JobStatus>>>;

/// A request with its parameter bindings applied — what
/// [`SimulationService::enqueue`] admits. Building one needs no service,
/// so the async front door resolves (and prepares) outside the service
/// lock.
pub(crate) struct Resolved {
    request: SimRequest,
    circuit: Circuit,
    /// Structural hash of `circuit` — the prepared-circuit memo key.
    hash: u64,
}

impl Resolved {
    pub(crate) fn new(mut request: SimRequest) -> Self {
        let resolver = request.resolver.take().unwrap_or_default();
        let circuit = request.circuit.resolve(&resolver);
        let hash = circuit.structural_hash();
        Resolved {
            request,
            circuit,
            hash,
        }
    }

    /// The preparation to enqueue this request with: `memo` (the
    /// service's memoized one) if there is one, else a fresh profile. A
    /// histogram request's optimizer pipeline output is built here, so
    /// [`SimulationService::enqueue`], which runs under the service lock
    /// in the async front door, never runs the optimizer. An expectation
    /// request leaves it unbuilt; a later histogram of the same circuit
    /// builds it from the memo entry.
    pub(crate) fn prepare(
        &self,
        memo: Option<Arc<PreparedCircuit>>,
        planner: &PlannerConfig,
    ) -> Arc<PreparedCircuit> {
        let prep = memo.unwrap_or_else(|| Arc::new(prepare(&self.circuit, planner)));
        if let Deliverable::Histogram { .. } = self.request.deliverable {
            prep.circuit();
        }
        prep
    }
}

/// A batch drained by [`SimulationService::take_batch`]: owned jobs,
/// each with the fault the sieve picked for this attempt, plus what
/// executing them needs from the configuration. [`Batch::execute`] runs
/// it without the service.
pub(crate) struct Batch {
    jobs: Vec<(PendingJob, InjectedFault)>,
    fault: Option<FaultPlan>,
    clock: Arc<dyn Clock>,
    degraded_shots: u64,
}

/// What [`Batch::execute`] hands back to [`SimulationService::settle`]:
/// plain per-job outcomes and the measurements to book.
pub(crate) struct Executed {
    outcomes: Vec<(PendingJob, Result<JobOutput, SimError>)>,
    /// `(backend, path, static units, wall ms)` of each run that
    /// succeeded with no fault injected — the cost model's observations.
    observed: Vec<(BackendKind, ExecPath, f64, f64)>,
    /// Counter increments: `simulated_jobs`, `panics_caught` and
    /// `faults_injected`.
    tally: ServiceStats,
}

/// The planner-driven batch simulation host. Each drain is three steps:
/// `take_batch` (queue, cache and dedup decisions, the fault sieve),
/// `execute` (the simulation, which needs no `&mut self`) and `settle`
/// (cache inserts, retry and degrade, counters).
/// [`SimulationService::run_pending`] runs the three back to back, so
/// it simulates a batch's jobs one at a time. The async front door
/// ([`crate::ServiceHandle`]) holds its service lock only around take
/// and settle, so its workers execute batches concurrently. Seeded
/// results stay deterministic: every job runs standalone, so its output
/// is a pure function of its plan and seed, whatever batch it rode in.
pub struct SimulationService {
    config: ServiceConfig,
    queue: VecDeque<PendingJob>,
    done: FxHashMap<u64, Result<JobReport, SimError>>,
    cache: ResultCache<JobOutput>,
    /// Drain loops sharing the queue: 1 for direct
    /// [`SimulationService::run_pending`], the worker count under a
    /// [`crate::ServiceHandle`]. Each take is a `1/drainers` share.
    drainers: usize,
    next_id: u64,
    stats: ServiceStats,
    clock: Arc<dyn Clock>,
    /// Lifecycle of every job from submission until its result is
    /// taken — shared so the front door answers status queries without
    /// the service lock.
    phases: Phases,
    /// Dedup keys of leaders in batches taken but not yet settled, each
    /// with the duplicates parked on it. A duplicate follows its
    /// leader's fate, so no key simulates twice at once.
    in_flight: FxHashMap<CacheKey, Vec<PendingJob>>,
    /// Timing-calibrated cost model, fed by batch wall-clock
    /// observations; consulted at plan time once its buckets are warm.
    cost: CostModel,
    /// Memoized [`PreparedCircuit`]s behind the resolved circuit's
    /// structural hash — cache-hit traffic never re-profiles or
    /// re-optimizes. Bounded: cleared wholesale at capacity.
    preps: FxHashMap<u64, Arc<PreparedCircuit>>,
}

/// Entry bound for the prepared-circuit memo; beyond this the map is
/// cleared (the entries are cheap to rebuild, and real traffic cycles
/// through far fewer distinct circuits).
const PREP_MEMO_CAPACITY: usize = 512;

impl SimulationService {
    /// A service over `config`, timed by a wall [`MonotonicClock`].
    pub fn new(config: ServiceConfig) -> Self {
        SimulationService::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// A service over `config` scheduling against `clock` — hand in a
    /// [`bgls_core::ManualClock`] to make deadlines and retry backoff
    /// deterministic in tests.
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let cache = ResultCache::new(config.cache_capacity);
        SimulationService {
            config,
            queue: VecDeque::new(),
            done: FxHashMap::default(),
            cache,
            drainers: 1,
            next_id: 0,
            stats: ServiceStats::default(),
            clock,
            phases: Arc::new(Mutex::new(FxHashMap::default())),
            in_flight: FxHashMap::default(),
            cost: CostModel::new(),
            preps: FxHashMap::default(),
        }
    }

    /// A service with default configuration.
    pub fn with_defaults() -> Self {
        SimulationService::new(ServiceConfig::default())
    }

    /// Plans and enqueues a request. Infeasible or malformed requests
    /// are rejected here, synchronously, rather than failing later in a
    /// batch; a full queue rejects with [`SimError::Invalid`]
    /// (admission control — the queue bound is the service's memory
    /// ceiling).
    pub fn submit(&mut self, request: SimRequest) -> Result<JobId, SimError> {
        let resolved = Resolved::new(request);
        let prep = resolved.prepare(self.memo(&resolved), &self.config.planner);
        let id = JobId(self.next_id);
        self.enqueue(id, resolved, prep)?;
        self.next_id += 1;
        Ok(id)
    }

    /// The memoized preparation of `resolved`, if any. The memo key is a
    /// 64-bit structural hash; the hit is verified against the actual
    /// circuit so a collision re-prepares instead of silently executing
    /// another circuit's plan.
    pub(crate) fn memo(&self, resolved: &Resolved) -> Option<Arc<PreparedCircuit>> {
        self.preps
            .get(&resolved.hash)
            .filter(|p| p.raw() == &resolved.circuit)
            .cloned()
    }

    /// Plans a resolved request over its preparation, memoizes the
    /// preparation, and enqueues the job as `id` — the back half of
    /// [`SimulationService::submit`]. The caller keeps ids unique:
    /// `submit` counts them, and the async front door uses its ticket
    /// numbers, so a job's id (which keys the [`FaultPlan`] rolls) does
    /// not depend on which worker admits first.
    pub(crate) fn enqueue(
        &mut self,
        JobId(id): JobId,
        resolved: Resolved,
        prep: Arc<PreparedCircuit>,
    ) -> Result<(), SimError> {
        if self.queue.len() >= self.config.max_queue {
            return Err(SimError::Invalid(format!(
                "service queue is full ({} jobs); drain with run_pending before submitting more",
                self.queue.len()
            )));
        }
        let Resolved {
            request,
            circuit: resolved,
            hash,
        } = resolved;
        if self.preps.len() >= PREP_MEMO_CAPACITY && !self.preps.contains_key(&hash) {
            self.preps.clear();
        }
        self.preps.insert(hash, Arc::clone(&prep));
        let plan = plan_prepared(
            &prep,
            &request.deliverable,
            &self.config.planner,
            Some(&self.cost),
        )?;
        let seed = request.seed.or(self.config.default_seed);
        let kind = match request.deliverable {
            Deliverable::Histogram { repetitions } => JobKind::Histogram { repetitions },
            Deliverable::Expectation { observable } => {
                let obs_fp = hash_str(&observable.to_string());
                JobKind::Expectation { observable, obs_fp }
            }
        };
        let key = key_for(&kind, &plan, &resolved, seed, self.config.degraded_shots);
        let deadline = request
            .deadline_ms
            .or(self.config.default_deadline_ms)
            .map(|budget| (self.clock.now_ms().saturating_add(budget), budget));
        lock(&self.phases).insert(id, JobStatus::Pending);
        self.queue.push_back(PendingJob {
            id,
            resolved,
            plan,
            seed,
            dedup_key: key,
            serve_key: key,
            kind,
            attempt: 0,
            rung_retries: 0,
            degradations: Vec::new(),
            deadline,
            not_before_ms: 0,
            predicted_ms: None,
            measured_ms: None,
        });
        self.stats.submitted += 1;
        Ok(())
    }

    /// Drains and executes one batch of
    /// [`SimulationService::batch_size`] jobs from the queue; returns the
    /// number of jobs settled (ok or err — retried jobs do not count
    /// until they settle). Jobs inside a retry backoff window are passed
    /// over; jobs past their deadline settle with
    /// [`SimError::DeadlineExceeded`] without executing. Call in a
    /// loop — or use [`SimulationService::run_all`] — to drain fully.
    pub fn run_pending(&mut self) -> usize {
        let settled_before = self.stats.completed + self.stats.failed;
        if let Some(batch) = self.take_batch() {
            let executed = batch.execute();
            self.settle(executed);
        }
        (self.stats.completed + self.stats.failed - settled_before) as usize
    }

    /// Drains the whole queue — including waiting out retry backoff
    /// windows via the service clock — and returns total jobs settled.
    pub fn run_all(&mut self) -> usize {
        let mut total = 0;
        while !self.queue.is_empty() {
            let settled = self.run_pending();
            total += settled;
            if settled == 0 {
                if let Some(delay) = self.next_eligible_delay_ms() {
                    self.clock.sleep_ms(delay.max(1));
                }
            }
        }
        total
    }

    /// Milliseconds until the earliest queued job becomes eligible to
    /// execute (0 when one already is; `None` when the queue is empty).
    /// The async front door uses this to pace its drain loop instead of
    /// spinning on backoff windows.
    pub fn next_eligible_delay_ms(&self) -> Option<u64> {
        let now = self.clock.now_ms();
        self.queue
            .iter()
            .map(|j| j.not_before_ms.saturating_sub(now))
            .min()
    }

    /// Removes and returns a finished job's result; `None` while the
    /// job is still queued or running (disambiguate with
    /// [`SimulationService::status`]).
    pub fn take_result(&mut self, id: JobId) -> Option<Result<JobReport, SimError>> {
        let result = self.done.remove(&id.0)?;
        lock(&self.phases).remove(&id.0);
        Some(result)
    }

    /// Removes and returns every finished job, ordered by id — the bulk
    /// form the async front door publishes from.
    pub fn take_finished(&mut self) -> Vec<(JobId, Result<JobReport, SimError>)> {
        let mut out: Vec<(JobId, Result<JobReport, SimError>)> = self
            .done
            .drain()
            .map(|(id, result)| (JobId(id), result))
            .collect();
        out.sort_by_key(|(id, _)| id.0);
        let mut phases = lock(&self.phases);
        for (id, _) in &out {
            phases.remove(&id.0);
        }
        out
    }

    /// Where `id` currently is in its lifecycle. Note that a taken
    /// result reverts to [`JobStatus::Unknown`] — the service keeps no
    /// tombstones.
    pub fn status(&self, id: JobId) -> JobStatus {
        lock(&self.phases)
            .get(&id.0)
            .copied()
            .unwrap_or(JobStatus::Unknown)
    }

    /// The shared lifecycle table behind [`SimulationService::status`].
    pub(crate) fn phases(&self) -> Phases {
        Arc::clone(&self.phases)
    }

    /// Cancels a queued job: it settles immediately with
    /// [`SimError::Cancelled`] and will never execute. Returns `false`
    /// when the job is not in the queue (already running, done, or
    /// unknown) — cancellation is best-effort and never yanks a job out
    /// of a batch mid-flight.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.queue.iter().position(|j| j.id == id.0) {
            if let Some(job) = self.queue.remove(pos) {
                self.stats.cancellations += 1;
                self.finish(job.id, Err(SimError::Cancelled));
                return true;
            }
        }
        false
    }

    /// Jobs waiting to execute.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The number of jobs the next take would drain: `ceil(eligible /
    /// drainers)` clamped to `[1, max_batch]`, where `eligible` counts
    /// the queued jobs outside a retry backoff window.
    pub fn batch_size(&self) -> usize {
        self.share(self.clock.now_ms())
    }

    /// [`SimulationService::batch_size`] at clock time `now`.
    fn share(&self, now: u64) -> usize {
        let eligible = self.queue.iter().filter(|j| j.not_before_ms <= now).count();
        eligible
            .div_ceil(self.drainers)
            .min(self.config.batch.max_batch)
            .max(1)
    }

    /// Sets the number of drain loops sharing the queue (the
    /// [`crate::ServePolicy::workers`] of a [`crate::ServiceHandle`]).
    pub(crate) fn set_drainers(&mut self, drainers: usize) {
        self.drainers = drainers.max(1);
    }

    /// The clock the service schedules against.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    fn finish(&mut self, id: u64, result: Result<JobReport, SimError>) {
        match &result {
            Ok(_) => self.stats.completed += 1,
            Err(_) => self.stats.failed += 1,
        }
        lock(&self.phases).insert(id, JobStatus::Done);
        self.done.insert(id, result);
    }

    fn report_for(job: &PendingJob, output: JobOutput) -> JobReport {
        JobReport {
            output,
            attempts: job.attempt,
            degradations: job.degradations.clone(),
            backend: job.plan.backend,
            path: job.plan.path,
            rewrite: job.plan.rewrite.clone(),
            predicted_ms: job.predicted_ms,
            measured_ms: job.measured_ms,
        }
    }

    /// Drains one batch of [`SimulationService::batch_size`] jobs and
    /// makes every decision that needs the service: deadlines and backoff
    /// windows, cache hits (settled here), dedup against the leaders of
    /// every batch in flight, the fault sieve, and each job's cost
    /// prediction. `None` when no queued job is eligible.
    pub(crate) fn take_batch(&mut self) -> Option<Batch> {
        let now = self.clock.now_ms();
        let want = self.share(now);
        let mut batch: Vec<PendingJob> = Vec::new();
        let rounds = self.queue.len();
        for _ in 0..rounds {
            if batch.len() >= want {
                break;
            }
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            if let Some((deadline_abs, budget_ms)) = job.deadline {
                if now > deadline_abs {
                    self.stats.deadline_misses += 1;
                    self.finish(job.id, Err(SimError::DeadlineExceeded { budget_ms }));
                    continue;
                }
            }
            if job.not_before_ms > now {
                // still backing off: rotate to the back, keep draining
                self.queue.push_back(job);
                continue;
            }
            batch.push(job);
        }
        if batch.is_empty() {
            return None;
        }
        {
            let mut phases = lock(&self.phases);
            for job in &batch {
                phases.insert(job.id, JobStatus::Running);
            }
        }
        // Cache lookups, then dedup: a dedup key maps to the first job
        // carrying it (the leader) until the leader's batch settles;
        // duplicates — from this batch or a later one — park on it and
        // follow its fate (copy of its output, its error, or
        // re-admission alongside it). Memoization (cache lookups AND
        // dedup) is one switch: capacity 0 means every request
        // simulates, the uncached baseline the throughput bench
        // contrasts against.
        let memoize = self.config.cache_capacity > 0;
        let mut misses: Vec<PendingJob> = Vec::new();
        for job in batch {
            if memoize {
                if let Some(key) = job.dedup_key {
                    if let Some(hit) = self.cache.get(&key) {
                        // nothing runs: no prediction, no measurement
                        let report = JobReport {
                            predicted_ms: None,
                            measured_ms: None,
                            ..Self::report_for(&job, (*hit).clone())
                        };
                        self.finish(job.id, Ok(report));
                        continue;
                    }
                    if let Some(dups) = self.in_flight.get_mut(&key) {
                        dups.push(job);
                        continue;
                    }
                    self.in_flight.insert(key, Vec::new());
                }
            }
            misses.push(job);
        }

        // The fault sieve picks each job's injected fault for this
        // attempt; the cost model predicts each job's run.
        let jobs = misses
            .into_iter()
            .map(|mut job| {
                job.predicted_ms =
                    self.cost
                        .predict_ms(&job.plan.backend, job.plan.path, job.units());
                let injected = self
                    .config
                    .fault
                    .as_ref()
                    .map_or(InjectedFault::None, |fp| {
                        fp.decide(job.id, job.attempt, job.plan.backend)
                    });
                (job, injected)
            })
            .collect();
        Some(Batch {
            jobs,
            fault: self.config.fault.clone(),
            clock: Arc::clone(&self.clock),
            degraded_shots: self.config.degraded_shots,
        })
    }

    /// Books an executed batch: counters, cost observations, and every
    /// job's outcome — cache insert and parked duplicates on success, the
    /// retry → degrade → fail ladder on failure.
    pub(crate) fn settle(&mut self, executed: Executed) {
        let Executed {
            outcomes,
            observed,
            tally,
        } = executed;
        self.stats.simulated_jobs += tally.simulated_jobs;
        self.stats.panics_caught += tally.panics_caught;
        self.stats.faults_injected += tally.faults_injected;
        for (backend, path, units, ms) in observed {
            self.cost.observe(&backend, path, units, ms);
        }
        for (job, outcome) in outcomes {
            self.dispose(job, outcome);
        }
        self.stats.batches += 1;
    }

    /// Routes one executed attempt's outcome: settle on success, and on
    /// failure walk the retry → degrade → terminal-failure ladder.
    /// Duplicates parked on the job follow it everywhere.
    fn dispose(&mut self, mut job: PendingJob, outcome: Result<JobOutput, SimError>) {
        job.attempt += 1;
        match outcome {
            Ok(output) => {
                if self.config.cache_capacity > 0 {
                    if let Some(key) = job.serve_key {
                        self.cache.insert(key, Arc::new(output.clone()));
                    }
                }
                for dup in self.release(&job) {
                    self.stats.merged_jobs += 1;
                    let report = Self::report_for(&job, output.clone());
                    self.finish(dup.id, Ok(report));
                }
                let report = Self::report_for(&job, output);
                self.finish(job.id, Ok(report));
            }
            Err(SimError::Cancelled) => self.fail(job, SimError::Cancelled),
            Err(err @ SimError::DeadlineExceeded { .. }) => self.fail(job, err),
            Err(err @ SimError::BudgetExhausted(_)) => {
                // retrying the same plan exhausts the same budget —
                // degrade immediately
                self.degrade_or_fail(job, err)
            }
            Err(err) => {
                if self.config.retry.should_retry(job.rung_retries) {
                    let backoff = self.config.retry.backoff_ms(job.rung_retries);
                    job.rung_retries += 1;
                    self.stats.retries += 1;
                    job.not_before_ms = self.clock.now_ms().saturating_add(backoff);
                    self.requeue(job);
                } else {
                    self.degrade_or_fail(job, err);
                }
            }
        }
    }

    /// Ends `job`'s leadership of its dedup key and returns the
    /// duplicates parked on it.
    fn release(&mut self, job: &PendingJob) -> Vec<PendingJob> {
        job.dedup_key
            .and_then(|key| self.in_flight.remove(&key))
            .unwrap_or_default()
    }

    /// Steps the job one rung down the degradation ladder, or settles
    /// it with `cause` at the bottom.
    fn degrade_or_fail(&mut self, mut job: PendingJob, cause: SimError) {
        match degrade(&job.plan, &self.config.planner) {
            Some(next) => {
                self.stats.degradations += 1;
                job.degradations.push(format!(
                    "{}/{} -> {}/{}: {}",
                    job.plan.backend.name(),
                    job.plan.path,
                    next.backend.name(),
                    next.path,
                    cause
                ));
                job.plan = next;
                job.rung_retries = 0;
                // Re-key: results from the fallback plan must never be
                // cached under the original plan's fingerprint.
                job.serve_key = key_for(
                    &job.kind,
                    &job.plan,
                    &job.resolved,
                    job.seed,
                    self.config.degraded_shots,
                );
                job.not_before_ms = self.clock.now_ms();
                self.requeue(job);
            }
            None => self.fail(job, cause),
        }
    }

    /// Re-admits a job (and its parked duplicates) to the queue,
    /// bypassing the submission bound — an accepted job is never
    /// dropped by backpressure.
    fn requeue(&mut self, job: PendingJob) {
        let dups = self.release(&job);
        let mut phases = lock(&self.phases);
        for job in std::iter::once(job).chain(dups) {
            phases.insert(job.id, JobStatus::Pending);
            self.queue.push_back(job);
        }
    }

    /// Settles a job and its parked duplicates with a terminal error.
    fn fail(&mut self, job: PendingJob, err: SimError) {
        for dup in self.release(&job) {
            self.finish(dup.id, Err(err.clone()));
        }
        self.finish(job.id, Err(err));
    }
}

impl Batch {
    /// Executes the batch's jobs one after another after the injected
    /// fault latency: each runs standalone through its own plan, inside
    /// its own `catch_unwind` failure domain. Touches no service state.
    pub(crate) fn execute(self) -> Executed {
        let mut out = Executed {
            outcomes: Vec::with_capacity(self.jobs.len()),
            observed: Vec::new(),
            tally: ServiceStats::default(),
        };
        if let Some(fp) = &self.fault {
            if fp.latency_ms > 0 && !self.jobs.is_empty() {
                // artificial service latency, once per executed batch
                self.clock.sleep_ms(fp.latency_ms);
            }
        }
        for (job, injected) in self.jobs {
            out.run(job, injected, self.fault.as_ref(), self.degraded_shots);
        }
        out
    }
}

impl Executed {
    /// One attempt at `job`, timed on its own, with the fault the sieve
    /// picked for it (if any) injected. A successful run records its
    /// wall time on the job; a clean one is also a cost observation.
    fn run(
        &mut self,
        mut job: PendingJob,
        injected: InjectedFault,
        fault: Option<&FaultPlan>,
        degraded_shots: u64,
    ) {
        if injected != InjectedFault::None {
            self.tally.faults_injected += 1;
        }
        let started = Instant::now();
        let outcome = match injected {
            InjectedFault::None => self.run_single_guarded(&job, None, degraded_shots),
            InjectedFault::Panic => {
                let seed = fault.map(|fp| fp.seed).unwrap_or_default();
                let msg = format!(
                    "injected panic (fault seed {seed}, job {}, attempt {})",
                    job.id, job.attempt
                );
                self.guarded(|| panic!("{msg}"))
            }
            InjectedFault::BudgetExhaustion => Err(SimError::BudgetExhausted(format!(
                "injected budget exhaustion (job {}, attempt {})",
                job.id, job.attempt
            ))),
            InjectedFault::BackendFailure => {
                let armed = fault.and_then(|fp| fp.op_fault_spec().arm(job.plan.backend));
                self.run_single_guarded(&job, armed, degraded_shots)
            }
        };
        if outcome.is_ok() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            job.measured_ms = Some(ms);
            if injected == InjectedFault::None {
                self.observed
                    .push((job.plan.backend, job.plan.path, job.units(), ms));
            }
        }
        self.outcomes.push((job, outcome));
    }

    /// Runs one job standalone inside its own `catch_unwind` failure
    /// domain; a panic becomes [`SimError::WorkerPanic`].
    fn run_single_guarded(
        &mut self,
        job: &PendingJob,
        armed: Option<OpFaultFn>,
        degraded_shots: u64,
    ) -> Result<JobOutput, SimError> {
        self.tally.simulated_jobs += 1;
        self.guarded(|| run_single(job, armed, degraded_shots))
    }

    /// Runs `f` under `catch_unwind`, counting a panic and turning it
    /// into [`SimError::WorkerPanic`].
    fn guarded(
        &mut self,
        f: impl FnOnce() -> Result<JobOutput, SimError>,
    ) -> Result<JobOutput, SimError> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            self.tally.panics_caught += 1;
            Err(SimError::WorkerPanic(panic_message(payload)))
        })
    }
}

/// Standalone execution of one job under its current plan, on the
/// plan's simulator at [`ExecutionPlan::width`] under the job's seed —
/// bit-identical to running the plan directly.
fn run_single(
    job: &PendingJob,
    armed: Option<OpFaultFn>,
    degraded_shots: u64,
) -> Result<JobOutput, SimError> {
    let observable = match &job.kind {
        JobKind::Expectation { observable, .. } => Some(observable),
        JobKind::Histogram { .. } => None,
    };
    let mut sim = job.plan.simulator(job.plan.width(observable), job.seed);
    if let Some(hook) = armed {
        sim = sim.with_fallible_ops(hook);
    }
    match &job.kind {
        JobKind::Histogram { repetitions } => sim
            .run(&job.plan.circuit, *repetitions)
            .map(|r| JobOutput::Histogram(Arc::new(r))),
        JobKind::Expectation { observable, .. } if job.plan.path == ExecPath::ShotEstimate => sim
            .estimate_expectation(&job.plan.circuit, observable, degraded_shots)
            .map(|estimate| JobOutput::Expectation(estimate.value)),
        JobKind::Expectation { observable, .. } => sim
            .expectation_value(&job.plan.circuit, observable)
            .map(JobOutput::Expectation),
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use bgls_circuit::{Gate, Operation, Qubit};
    use bgls_core::ManualClock;

    fn q(i: u32) -> Qubit {
        Qubit(i)
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![q(0), q(1)]).unwrap());
        c.push(Operation::measure(vec![q(0), q(1)], "m").unwrap());
        c
    }

    fn histogram_of(report: JobReport) -> Arc<RunResult> {
        match report.output {
            JobOutput::Histogram(r) => r,
            JobOutput::Expectation(_) => panic!("expected histogram"),
        }
    }

    #[test]
    fn seeded_requests_hit_the_cache_bit_identically() {
        let mut svc = SimulationService::with_defaults();
        let a = svc
            .submit(SimRequest::histogram(bell(), 200).with_seed(9))
            .unwrap();
        svc.run_all();
        let first = histogram_of(svc.take_result(a).unwrap().unwrap());
        let b = svc
            .submit(SimRequest::histogram(bell(), 200).with_seed(9))
            .unwrap();
        svc.run_all();
        let second = histogram_of(svc.take_result(b).unwrap().unwrap());
        assert_eq!(svc.cache_stats().hits, 1);
        assert_eq!(first.histogram("m"), second.histogram("m"));
        // A cache hit hands out the same allocation, not a re-run.
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn unseeded_requests_bypass_the_cache() {
        let mut svc = SimulationService::with_defaults();
        svc.submit(SimRequest::histogram(bell(), 50)).unwrap();
        svc.submit(SimRequest::histogram(bell(), 50)).unwrap();
        svc.run_all();
        assert_eq!(svc.cache_stats().hits, 0);
        assert_eq!(svc.stats().completed, 2);
    }

    #[test]
    fn duplicate_requests_in_one_batch_simulate_once() {
        let mut svc = SimulationService::with_defaults();
        let ids: Vec<JobId> = (0..6)
            .map(|_| {
                svc.submit(SimRequest::histogram(bell(), 100).with_seed(3))
                    .unwrap()
            })
            .collect();
        svc.run_all();
        assert_eq!(svc.stats().simulated_jobs, 1);
        let outs: Vec<Arc<RunResult>> = ids
            .into_iter()
            .map(|id| histogram_of(svc.take_result(id).unwrap().unwrap()))
            .collect();
        for o in &outs[1..] {
            assert!(Arc::ptr_eq(&outs[0], o));
        }
    }

    #[test]
    fn merged_batches_match_standalone_runs() {
        // Distinct seeds drained in one batch: every entry must equal
        // its standalone execution.
        let mut svc = SimulationService::with_defaults();
        let ids: Vec<(JobId, u64)> = (0..5u64)
            .map(|s| {
                let id = svc
                    .submit(SimRequest::histogram(bell(), 150).with_seed(s))
                    .unwrap();
                (id, s)
            })
            .collect();
        svc.run_all();
        for (id, seed) in ids {
            let got = histogram_of(svc.take_result(id).unwrap().unwrap());
            let standalone = crate::plan_and_run(&bell(), 150, Some(seed))
                .unwrap()
                .result;
            assert_eq!(got.histogram("m"), standalone.histogram("m"), "seed {seed}");
        }
    }

    #[test]
    fn expectation_requests_match_the_walk_and_cache() {
        let mut base = Circuit::new();
        base.push(
            Operation::gate(Gate::Ry(bgls_circuit::Param::symbol("theta")), vec![q(0)]).unwrap(),
        );
        let obs: PauliSum = "Z0".parse().unwrap();
        let mut svc = SimulationService::with_defaults();
        let thetas = [0.0f64, 0.7, 1.4, 2.1];
        let ids: Vec<JobId> = thetas
            .iter()
            .map(|&t| {
                let mut r = ParamResolver::new();
                r.bind("theta", t);
                svc.submit(SimRequest::expectation(base.clone(), obs.clone()).with_resolver(r))
                    .unwrap()
            })
            .collect();
        svc.run_all();
        for (id, &t) in ids.iter().zip(&thetas) {
            let got = svc
                .take_result(*id)
                .unwrap()
                .unwrap()
                .expectation()
                .unwrap();
            assert!((got - t.cos()).abs() < 1e-10, "theta {t}: {got}");
        }
        // Same grid again: answered from cache without simulating.
        let before = svc.stats().simulated_jobs;
        let mut r = ParamResolver::new();
        r.bind("theta", 0.7);
        let id = svc
            .submit(SimRequest::expectation(base.clone(), obs.clone()).with_resolver(r))
            .unwrap();
        svc.run_all();
        assert_eq!(svc.stats().simulated_jobs, before);
        assert!(svc.cache_stats().hits >= 1);
        let got = svc.take_result(id).unwrap().unwrap().expectation().unwrap();
        assert!((got - 0.7f64.cos()).abs() < 1e-10);
    }

    #[test]
    fn a_histogram_after_an_expectation_runs_the_pipeline_from_the_memo() {
        // Non-Clifford, with gates the optimizer pipeline rewrites.
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![q(0)]).unwrap());
        c.push(Operation::gate(Gate::Rz(0.3.into()), vec![q(1)]).unwrap());
        c.push(Operation::gate(Gate::Rz(0.4.into()), vec![q(1)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![q(1), q(2)]).unwrap());
        c.push(Operation::gate(Gate::Rzz(0.5.into()), vec![q(0), q(2)]).unwrap());
        c.push(Operation::gate(Gate::Rx(0.7.into()), vec![q(2)]).unwrap());
        c.push(Operation::measure(vec![q(0), q(1), q(2)], "m").unwrap());
        let mut svc = SimulationService::with_defaults();
        let e = svc
            .submit(SimRequest::expectation(c.clone(), "Z0 Z2".parse().unwrap()))
            .unwrap();
        svc.run_all();
        assert!(svc.take_result(e).unwrap().unwrap().expectation().is_some());
        let h = svc
            .submit(SimRequest::histogram(c.clone(), 300).with_seed(5))
            .unwrap();
        assert_eq!(svc.preps.len(), 1, "the histogram reused the memo entry");
        svc.run_all();
        let report = svc.take_result(h).unwrap().unwrap();

        let cold = crate::plan(
            &c,
            &Deliverable::Histogram { repetitions: 300 },
            &PlannerConfig::default(),
        )
        .unwrap();
        assert!(cold.rewrite.ops_after < cold.rewrite.ops_before);
        assert_eq!(report.rewrite, cold.rewrite);
        let standalone = cold.run(300, Some(5)).unwrap();
        assert_eq!(
            histogram_of(report).histogram("m"),
            standalone.histogram("m")
        );
    }

    /// Submits one request to a fresh service under `fault` and serves
    /// it.
    fn serve_one(fault: FaultPlan, request: SimRequest) -> (JobReport, ServiceStats) {
        let mut svc = SimulationService::new(ServiceConfig {
            fault: Some(fault),
            ..ServiceConfig::default()
        });
        let id = svc.submit(request).unwrap();
        svc.run_all();
        (svc.take_result(id).unwrap().unwrap(), svc.stats())
    }

    #[test]
    fn executed_jobs_report_their_own_wall_time_and_cache_hits_none() {
        let request = || SimRequest::histogram(bell(), 200).with_seed(9);
        let mut svc = SimulationService::with_defaults();
        let ran = svc.submit(request()).unwrap();
        svc.run_all();
        let hit = svc.submit(request()).unwrap();
        svc.run_all();
        assert!(svc.take_result(ran).unwrap().unwrap().measured_ms.is_some());
        let hit = svc.take_result(hit).unwrap().unwrap();
        assert_eq!((hit.predicted_ms, hit.measured_ms), (None, None));

        // a job run with an armed backend fault that never fires
        let never_fires = FaultPlan {
            backend_failure_probability: 1.0,
            fail_at_op: u64::MAX,
            ..FaultPlan::seeded(1)
        };
        let (report, stats) = serve_one(never_fires, request());
        assert_eq!((stats.faults_injected, report.attempts), (1, 1));
        assert!(report.measured_ms.is_some());

        // an exact walk whose budget runs out degrades to a shot estimate
        let mut rot = Circuit::new();
        rot.push(Operation::gate(Gate::Ry(0.4.into()), vec![q(0)]).unwrap());
        let exhausted = FaultPlan {
            budget_exhaustion_probability: 1.0,
            ..FaultPlan::seeded(1)
        };
        let request = SimRequest::expectation(rot, "Z0".parse().unwrap()).with_seed(3);
        let (report, _) = serve_one(exhausted, request);
        assert_eq!(report.path, ExecPath::ShotEstimate);
        assert!(report.measured_ms.is_some());
    }

    #[test]
    fn the_queue_bound_rejects_overload() {
        let mut svc = SimulationService::new(ServiceConfig {
            max_queue: 2,
            ..ServiceConfig::default()
        });
        svc.submit(SimRequest::histogram(bell(), 10)).unwrap();
        svc.submit(SimRequest::histogram(bell(), 10)).unwrap();
        assert!(matches!(
            svc.submit(SimRequest::histogram(bell(), 10)),
            Err(SimError::Invalid(_))
        ));
        svc.run_all();
        svc.submit(SimRequest::histogram(bell(), 10)).unwrap();
    }

    #[test]
    fn infeasible_circuits_are_rejected_at_submission() {
        // 30 qubits of H dust around a Toffoli, but only one *live*
        // qubit cone: every measured qubit is entangled with at most
        // q0..q2.
        let mut wide = Circuit::new();
        for i in 0..30u32 {
            wide.push(Operation::gate(Gate::H, vec![q(i)]).unwrap());
        }
        wide.push(Operation::gate(Gate::Ccx, vec![q(0), q(1), q(2)]).unwrap());
        wide.push(Operation::measure(vec![q(0)], "m").unwrap());
        // Pipeline off: 30 qubits with an arity-3 gate fits nothing.
        let mut svc = SimulationService::new(ServiceConfig {
            planner: PlannerConfig {
                optimize: None,
                ..PlannerConfig::default()
            },
            ..ServiceConfig::default()
        });
        assert!(matches!(
            svc.submit(SimRequest::histogram(wide.clone(), 10)),
            Err(SimError::Unsupported(_))
        ));
        // Pipeline on: lightcone pruning drops the 27 dead H gates, and
        // the surviving 3-qubit cone routes dense. Genuinely infeasible
        // circuits — a *live* wide Toffoli cone — are still rejected.
        let mut svc = SimulationService::with_defaults();
        assert!(svc.submit(SimRequest::histogram(wide, 10)).is_ok());
        let mut live = Circuit::new();
        for i in 0..30u32 {
            live.push(Operation::gate(Gate::T, vec![q(i)]).unwrap());
        }
        for i in 2..30u32 {
            live.push(Operation::gate(Gate::Ccx, vec![q(i - 2), q(i - 1), q(i)]).unwrap());
        }
        live.push(Operation::measure((0..30).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        assert!(matches!(
            svc.submit(SimRequest::histogram(live, 10)),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn status_distinguishes_pending_done_and_unknown() {
        let mut svc = SimulationService::with_defaults();
        let id = svc
            .submit(SimRequest::histogram(bell(), 20).with_seed(1))
            .unwrap();
        assert_eq!(svc.status(id), JobStatus::Pending);
        assert_eq!(svc.status(JobId(999)), JobStatus::Unknown);
        svc.run_all();
        assert_eq!(svc.status(id), JobStatus::Done);
        svc.take_result(id).unwrap().unwrap();
        assert_eq!(svc.status(id), JobStatus::Unknown, "no tombstones");
    }

    #[test]
    fn cancellation_settles_queued_jobs_with_a_typed_error() {
        let mut svc = SimulationService::with_defaults();
        let keep = svc
            .submit(SimRequest::histogram(bell(), 20).with_seed(1))
            .unwrap();
        let drop_ = svc
            .submit(SimRequest::histogram(bell(), 20).with_seed(2))
            .unwrap();
        assert!(svc.cancel(drop_));
        assert!(!svc.cancel(drop_), "already cancelled");
        assert!(!svc.cancel(JobId(999)), "unknown id");
        svc.run_all();
        assert!(svc.take_result(keep).unwrap().is_ok());
        assert!(matches!(
            svc.take_result(drop_),
            Some(Err(SimError::Cancelled))
        ));
        assert_eq!(svc.stats().cancellations, 1);
    }

    /// Queues `n` distinct seeded Bell histograms.
    fn queue_bells(svc: &mut SimulationService, n: u64) {
        for seed in 0..n {
            svc.submit(SimRequest::histogram(bell(), 20).with_seed(seed))
                .unwrap();
        }
    }

    /// Drains the queue one take at a time, returning each take's size
    /// and checking that `batch_size()` announced it.
    fn take_sizes(svc: &mut SimulationService) -> Vec<usize> {
        let mut sizes = Vec::new();
        loop {
            let announced = svc.batch_size();
            let before = svc.queue_len();
            let Some(batch) = svc.take_batch() else {
                return sizes;
            };
            let taken = before - svc.queue_len();
            assert_eq!(announced, taken, "batch_size() is the next take");
            sizes.push(taken);
            svc.settle(batch.execute());
        }
    }

    #[test]
    fn a_sync_take_drains_everything_eligible_up_to_the_cap() {
        let mut svc = SimulationService::new(ServiceConfig {
            batch: BatchPolicy { max_batch: 4 },
            ..ServiceConfig::default()
        });
        queue_bells(&mut svc, 10);
        assert_eq!(take_sizes(&mut svc), vec![4, 4, 2]);
        assert_eq!(svc.stats().completed, 10);
        assert_eq!(svc.batch_size(), 1, "an empty queue still takes 1");
    }

    #[test]
    fn drainers_split_the_eligible_queue() {
        let mut svc = SimulationService::with_defaults();
        svc.set_drainers(2);
        queue_bells(&mut svc, 16);
        assert_eq!(svc.batch_size(), 8);
        // each take halves what is left: 16 -> 8 -> 4 -> 2 -> 1 -> 1
        assert_eq!(take_sizes(&mut svc), vec![8, 4, 2, 1, 1]);
    }

    #[test]
    fn jobs_in_backoff_do_not_count_toward_the_share() {
        let clock = ManualClock::shared();
        let mut svc = SimulationService::with_clock(ServiceConfig::default(), clock.clone());
        svc.set_drainers(2);
        queue_bells(&mut svc, 10);
        let later = clock.now_ms() + 100;
        for job in svc.queue.iter_mut().take(6) {
            job.not_before_ms = later;
        }
        // 4 eligible of 10 queued: a share of 2, taken past the 6 waiting
        assert_eq!(svc.batch_size(), 2);
        assert_eq!(take_sizes(&mut svc), vec![2, 1, 1]);
        assert_eq!(svc.queue_len(), 6);
        clock.advance_ms(100);
        assert_eq!(take_sizes(&mut svc), vec![3, 2, 1]);
        assert_eq!(svc.stats().completed, 10);
    }

    #[test]
    fn the_cap_bounds_a_drainer_share() {
        let mut svc = SimulationService::new(ServiceConfig {
            batch: BatchPolicy { max_batch: 8 },
            ..ServiceConfig::default()
        });
        svc.set_drainers(3);
        queue_bells(&mut svc, 40);
        // ceil(40 / 3) = 14 is cut to the cap until a third of the rest fits
        assert_eq!(take_sizes(&mut svc), vec![8, 8, 8, 6, 4, 2, 2, 1, 1]);
        assert_eq!(svc.stats().completed, 40);
    }

    #[test]
    fn zero_drainers_count_as_one() {
        let mut svc = SimulationService::with_defaults();
        svc.set_drainers(0);
        queue_bells(&mut svc, 5);
        assert_eq!(svc.batch_size(), 5);
        assert_eq!(take_sizes(&mut svc), vec![5]);
    }

    #[test]
    fn deadlines_are_enforced_at_batch_boundaries() {
        let clock = ManualClock::shared();
        let mut svc = SimulationService::with_clock(
            ServiceConfig {
                batch: BatchPolicy { max_batch: 1 },
                fault: Some(FaultPlan {
                    latency_ms: 10,
                    ..FaultPlan::default()
                }),
                ..ServiceConfig::default()
            },
            clock.clone(),
        );
        let first = svc
            .submit(
                SimRequest::histogram(bell(), 10)
                    .with_seed(1)
                    .with_deadline_ms(5),
            )
            .unwrap();
        let second = svc
            .submit(
                SimRequest::histogram(bell(), 10)
                    .with_seed(2)
                    .with_deadline_ms(5),
            )
            .unwrap();
        // batch 1 executes `first` on time, but the injected 10 ms of
        // latency pushes the manual clock past `second`'s deadline
        svc.run_all();
        assert!(svc.take_result(first).unwrap().is_ok());
        assert!(matches!(
            svc.take_result(second),
            Some(Err(SimError::DeadlineExceeded { budget_ms: 5 }))
        ));
        assert_eq!(svc.stats().deadline_misses, 1);
    }
}
