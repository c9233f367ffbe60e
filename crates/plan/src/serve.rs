//! The async front door: a worker pool over the batch service.
//!
//! [`ServiceHandle`] turns the [`SimulationService`] drain loop into a
//! concurrent server. Submissions travel over a *bounded* channel
//! (backpressure is a typed rejection, never an unbounded buffer) to a
//! pool of worker threads that plan, batch, execute, and publish
//! results; callers redeem a [`Ticket`] with [`ServiceHandle::wait`]
//! whenever they please.
//!
//! Workers hold the service lock only for bookkeeping: planning reads
//! the prepared-circuit memo under it but optimizes and profiles a miss
//! outside it, and each drain is `take_batch` (locked), `execute`
//! (unlocked) and `settle` (locked). Batches therefore simulate
//! concurrently, one per worker, and share the Rayon pool: a caller
//! whose helper threads are busy runs its own blocks, so results never
//! depend on how batches overlap. Dedup spans the batches in flight —
//! a duplicate of a job another worker is executing waits for that
//! job's result instead of simulating again.
//!
//! The liveness contract: **every accepted ticket resolves, exactly
//! once** — to a [`JobReport`] or a typed [`SimError`] — no matter
//! what faults, panics, deadlines, cancellations, or shutdowns occur
//! in between. Workers never die: all job execution happens inside the
//! service's per-job `catch_unwind` failure domains, so a panicking
//! kernel costs one job one attempt, not a worker thread.
//!
//! Shutdown is two-flavored: [`ServiceHandle::shutdown`] stops intake
//! and drains everything in flight (including retry/degradation
//! chains); [`ServiceHandle::abort`] stops intake and fails all
//! unfinished work with [`SimError::Cancelled`]. Dropping the handle
//! aborts.

use crate::service::{
    lock, JobId, JobReport, JobStatus, Phases, Resolved, ServiceConfig, ServiceStats, SimRequest,
    SimulationService,
};
use crate::PlannerConfig;
use bgls_core::{Clock, SimError};
use bgls_linalg::FxHashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle worker blocks waiting for a submission before
/// re-checking the abort flag.
const IDLE_RECV_MS: u64 = 25;

/// Cap on how long a worker sleeps waiting out retry-backoff windows in
/// one hop (it re-checks for new arrivals in between).
const BACKOFF_NAP_CAP_MS: u64 = 50;

/// Configuration of the serving front door.
#[derive(Clone, Copy, Debug)]
pub struct ServePolicy {
    /// Worker threads draining the service (default: the host's
    /// [`std::thread::available_parallelism`]). A worker runs its
    /// batch's jobs one after another, so the workers are the
    /// parallelism across jobs; each job's engine fans out on its own.
    /// Also the batch share: each take drains `ceil(eligible / workers)`
    /// queued jobs (up to [`bgls_core::BatchPolicy::max_batch`]), so the
    /// workers split a burst between them.
    pub workers: usize,
    /// Bounded submission-channel depth; a full channel rejects
    /// [`ServiceHandle::submit`] with [`SimError::Invalid`].
    pub queue_depth: usize,
    /// `true`: [`ServiceHandle::shutdown`] drains all in-flight work
    /// before returning. `false`: shutdown behaves like
    /// [`ServiceHandle::abort`].
    pub drain_on_shutdown: bool,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_depth: 256,
            drain_on_shutdown: true,
        }
    }
}

/// Claim check for a submitted request; redeem with
/// [`ServiceHandle::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(pub u64);

/// A ticket's lifecycle. Inside the service the ticket's job has the
/// ticket's number as its [`JobId`].
enum SlotState {
    /// In the submission channel, not yet planned.
    Queued,
    /// Planned and queued (or executing) inside the service.
    Submitted,
    /// Finished; result parked for the caller.
    Done(Result<JobReport, SimError>),
}

type Msg = (u64, SimRequest);

/// State the workers and the handle share. Lock order is always
/// service → slots; `phases` is a leaf (nothing else is locked while it
/// is held). The service lock covers admission, `take_batch`
/// and `settle` — never simulation or circuit preparation — so
/// `status`, `cancel` and `stats` answer promptly while batches run.
struct Shared {
    service: Mutex<SimulationService>,
    /// The service's job lifecycle table, read by `status` without the
    /// service lock.
    phases: Phases,
    /// Planner budgets, for preparing circuits outside the service lock.
    planner: PlannerConfig,
    /// Ticket id → lifecycle state. Guarded by its own mutex (paired
    /// with `done_cv`).
    slots: Mutex<FxHashMap<u64, SlotState>>,
    done_cv: Condvar,
    abort: AtomicBool,
    clock: Arc<dyn Clock>,
}

/// Concurrent, fault-tolerant front door over a [`SimulationService`].
pub struct ServiceHandle {
    shared: Arc<Shared>,
    sender: Option<SyncSender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    next_ticket: AtomicU64,
    drain_on_shutdown: bool,
}

impl ServiceHandle {
    /// Starts the worker pool over a fresh service built from `config`.
    pub fn start(config: ServiceConfig, policy: ServePolicy) -> Result<ServiceHandle, SimError> {
        if policy.workers == 0 {
            return Err(SimError::Invalid(
                "serving policy needs at least one worker".into(),
            ));
        }
        if policy.queue_depth == 0 {
            return Err(SimError::Invalid(
                "serving policy needs a submission queue depth of at least 1".into(),
            ));
        }
        let planner = config.planner;
        let mut service = SimulationService::new(config);
        service.set_drainers(policy.workers);
        let clock = service.clock();
        let shared = Arc::new(Shared {
            phases: service.phases(),
            planner,
            service: Mutex::new(service),
            slots: Mutex::new(FxHashMap::default()),
            done_cv: Condvar::new(),
            abort: AtomicBool::new(false),
            clock,
        });
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Msg>(policy.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let mut workers = Vec::with_capacity(policy.workers);
        for i in 0..policy.workers {
            let shared_i = Arc::clone(&shared);
            let receiver_i = Arc::clone(&receiver);
            let handle = std::thread::Builder::new()
                .name(format!("bgls-serve-{i}"))
                .spawn(move || worker_loop(&shared_i, &receiver_i))
                .map_err(|e| SimError::Invalid(format!("failed to spawn worker: {e}")))?;
            workers.push(handle);
        }
        Ok(ServiceHandle {
            shared,
            sender: Some(sender),
            workers,
            next_ticket: AtomicU64::new(0),
            drain_on_shutdown: policy.drain_on_shutdown,
        })
    }

    /// Starts with default service configuration and serving policy.
    pub fn with_defaults() -> Result<ServiceHandle, SimError> {
        ServiceHandle::start(ServiceConfig::default(), ServePolicy::default())
    }

    /// Submits a request. Non-blocking: a full submission channel or a
    /// shut-down pool rejects with [`SimError::Invalid`] instead of
    /// waiting. An accepted ticket is guaranteed to resolve.
    pub fn submit(&self, request: SimRequest) -> Result<Ticket, SimError> {
        let Some(sender) = &self.sender else {
            return Err(SimError::Invalid("the serving pool is shut down".into()));
        };
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.slots).insert(ticket, SlotState::Queued);
        match sender.try_send((ticket, request)) {
            Ok(()) => Ok(Ticket(ticket)),
            Err(err) => {
                lock(&self.shared.slots).remove(&ticket);
                match err {
                    TrySendError::Full(_) => Err(SimError::Invalid(
                        "the serving submission queue is full; wait out some tickets first".into(),
                    )),
                    TrySendError::Disconnected(_) => {
                        Err(SimError::Invalid("the serving pool is shut down".into()))
                    }
                }
            }
        }
    }

    /// Blocks until the ticket resolves and removes its result. A
    /// second wait on the same ticket reports it unknown.
    pub fn wait(&self, ticket: Ticket) -> Result<JobReport, SimError> {
        let mut slots = lock(&self.shared.slots);
        loop {
            match slots.get(&ticket.0) {
                Some(SlotState::Done(_)) => match slots.remove(&ticket.0) {
                    Some(SlotState::Done(result)) => return result,
                    _ => unreachable!("slot vanished while holding the lock"),
                },
                None => {
                    return Err(SimError::Invalid(format!(
                        "unknown ticket {} (never submitted, or already waited)",
                        ticket.0
                    )))
                }
                Some(_) => {
                    slots = self
                        .shared
                        .done_cv
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Like [`ServiceHandle::wait`], but gives up after `timeout_ms`,
    /// returning `None` with the ticket still live.
    pub fn wait_timeout(
        &self,
        ticket: Ticket,
        timeout_ms: u64,
    ) -> Option<Result<JobReport, SimError>> {
        let deadline = Duration::from_millis(timeout_ms);
        let mut waited = Duration::ZERO;
        let mut slots = lock(&self.shared.slots);
        loop {
            match slots.get(&ticket.0) {
                Some(SlotState::Done(_)) => match slots.remove(&ticket.0) {
                    Some(SlotState::Done(result)) => return Some(result),
                    _ => unreachable!("slot vanished while holding the lock"),
                },
                None => {
                    return Some(Err(SimError::Invalid(format!(
                        "unknown ticket {} (never submitted, or already waited)",
                        ticket.0
                    ))))
                }
                Some(_) => {
                    if waited >= deadline {
                        return None;
                    }
                    let step = (deadline - waited).min(Duration::from_millis(IDLE_RECV_MS));
                    let (guard, _) = self
                        .shared
                        .done_cv
                        .wait_timeout(slots, step)
                        .unwrap_or_else(PoisonError::into_inner);
                    slots = guard;
                    waited += step;
                }
            }
        }
    }

    /// Where the ticket currently is in its lifecycle.
    pub fn status(&self, ticket: Ticket) -> JobStatus {
        match lock(&self.shared.slots).get(&ticket.0) {
            None => return JobStatus::Unknown,
            Some(SlotState::Done(_)) => return JobStatus::Done,
            Some(SlotState::Queued) => return JobStatus::Pending,
            Some(SlotState::Submitted) => {}
        }
        match lock(&self.shared.phases).get(&ticket.0) {
            Some(status) => *status,
            // taken from the service but not yet published
            None => JobStatus::Done,
        }
    }

    /// Best-effort cancellation: a ticket still queued (in the channel
    /// or the service queue) resolves with [`SimError::Cancelled`];
    /// one already executing or finished is left alone. Returns whether
    /// the cancellation landed.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        {
            let mut slots = lock(&self.shared.slots);
            match slots.get(&ticket.0) {
                None | Some(SlotState::Done(_)) => return false,
                Some(SlotState::Queued) => {
                    // still in the channel: resolve here, the admitting
                    // worker will see the slot settled and skip it
                    slots.insert(ticket.0, SlotState::Done(Err(SimError::Cancelled)));
                    self.shared.done_cv.notify_all();
                    return true;
                }
                Some(SlotState::Submitted) => {}
            }
        }
        lock(&self.shared.service).cancel(JobId(ticket.0))
    }

    /// Snapshot of the underlying service counters.
    pub fn stats(&self) -> ServiceStats {
        lock(&self.shared.service).stats()
    }

    /// Stops intake and (per [`ServePolicy::drain_on_shutdown`]) drains
    /// every in-flight job — retries, degradations and all — before
    /// returning the final counters. Unredeemed tickets stay waitable
    /// until the handle is dropped.
    pub fn shutdown(mut self) -> ServiceStats {
        let drain = self.drain_on_shutdown;
        self.finish(drain)
    }

    /// Stops intake and fails all unfinished work with
    /// [`SimError::Cancelled`]; every outstanding ticket still
    /// resolves. Returns the final counters.
    pub fn abort(mut self) -> ServiceStats {
        self.finish(false)
    }

    fn finish(&mut self, drain: bool) -> ServiceStats {
        if !drain {
            self.shared.abort.store(true, Ordering::Release);
        }
        // Dropping the only sender disconnects the channel; draining
        // workers exit once the backlog is gone, aborting ones at the
        // next loop head.
        self.sender = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Settle everything the workers left behind (nothing in drain
        // mode; the whole backlog in abort mode).
        let finished = {
            let mut svc = lock(&self.shared.service);
            let ids: Vec<u64> = lock(&self.shared.slots)
                .iter()
                .filter(|(_, state)| matches!(state, SlotState::Submitted))
                .map(|(ticket, _)| *ticket)
                .collect();
            for id in ids {
                svc.cancel(JobId(id));
            }
            svc.take_finished()
        };
        publish(&self.shared, finished);
        {
            let mut slots = lock(&self.shared.slots);
            for state in slots.values_mut() {
                if !matches!(state, SlotState::Done(_)) {
                    *state = SlotState::Done(Err(SimError::Cancelled));
                }
            }
        }
        self.shared.done_cv.notify_all();
        lock(&self.shared.service).stats()
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.finish(false);
        }
    }
}

/// Pulls a submission into the service as the job numbered by its
/// ticket, and marks the ticket submitted (or resolves it with the
/// planning error).
fn admit(shared: &Shared, (ticket, request): Msg) {
    {
        let slots = lock(&shared.slots);
        // skip tickets cancelled while still in the channel
        if !matches!(slots.get(&ticket), Some(SlotState::Queued)) {
            return;
        }
    }
    // Resolve and prepare (profile, plus the optimizer pipeline for a
    // histogram) outside the service lock; only the memo lookup and the
    // enqueue need it.
    let resolved = Resolved::new(request);
    let memo = lock(&shared.service).memo(&resolved);
    let prep = resolved.prepare(memo, &shared.planner);
    // The service lock is held from the enqueue until the slot reads
    // `Submitted`: another worker's take_batch/take_finished can only
    // see the job once `publish` will accept its result, so a fast
    // result (a cache hit) is never dropped unpublished.
    let mut svc = lock(&shared.service);
    let submitted = svc.enqueue(JobId(ticket), resolved, prep);
    let mut slots = lock(&shared.slots);
    let live = matches!(slots.get(&ticket), Some(SlotState::Queued));
    match submitted {
        Ok(()) if live => {
            slots.insert(ticket, SlotState::Submitted);
        }
        // cancelled while it was being prepared
        Ok(()) => {
            svc.cancel(JobId(ticket));
        }
        Err(err) => {
            // rejected at the door (infeasible plan, full service
            // queue): the ticket resolves with the typed error
            if live {
                slots.insert(ticket, SlotState::Done(Err(err)));
            }
            drop(slots);
            drop(svc);
            shared.done_cv.notify_all();
        }
    }
}

/// Publishes finished service results to their tickets.
fn publish(shared: &Shared, finished: Vec<(JobId, Result<JobReport, SimError>)>) {
    if finished.is_empty() {
        return;
    }
    {
        let mut slots = lock(&shared.slots);
        for (job, result) in finished {
            // a ticket cancelled before its job was enqueued is already
            // resolved (and maybe redeemed): drop the job's result
            if let Some(state @ SlotState::Submitted) = slots.get_mut(&job.0) {
                *state = SlotState::Done(result);
            }
        }
    }
    shared.done_cv.notify_all();
}

fn worker_loop(shared: &Shared, receiver: &Arc<Mutex<Receiver<Msg>>>) {
    loop {
        if shared.abort.load(Ordering::Acquire) {
            return;
        }
        // Soak every submission already in the channel, without
        // blocking, so batches form from whole bursts. A held receiver
        // means another worker is admitting (or idling on it): go
        // straight to the queue rather than wait behind it.
        let mut disconnected = false;
        loop {
            let msg = match receiver.try_lock() {
                Ok(rx) => rx.try_recv(),
                Err(TryLockError::Poisoned(rx)) => rx.into_inner().try_recv(),
                Err(TryLockError::WouldBlock) => break,
            };
            match msg {
                Ok(m) => admit(shared, m),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // Take this worker's share of the queue, simulate it outside the
        // service lock, then settle it; publish what each locked step
        // finished (cache hits and deadline misses settle at take).
        let (batch, finished) = {
            let mut svc = lock(&shared.service);
            let batch = svc.take_batch();
            (batch, svc.take_finished())
        };
        let progressed = batch.is_some() || !finished.is_empty();
        publish(shared, finished);
        let executed = batch.map(|b| b.execute());
        let (backlog, delay) = {
            let mut svc = lock(&shared.service);
            if let Some(executed) = executed {
                svc.settle(executed);
            }
            let finished = svc.take_finished();
            let backlog = svc.queue_len();
            let delay = svc.next_eligible_delay_ms();
            drop(svc);
            publish(shared, finished);
            (backlog, delay)
        };
        if backlog == 0 {
            if disconnected {
                // graceful end: intake closed and everything drained
                return;
            }
            // idle: block for the next submission, waking periodically
            // to honor aborts
            let msg = lock(receiver).recv_timeout(Duration::from_millis(IDLE_RECV_MS));
            match msg {
                Ok(m) => admit(shared, m),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        } else if !progressed {
            // every queued job is waiting out a retry backoff window:
            // nap until the earliest becomes eligible (capped, so fresh
            // arrivals are picked up promptly)
            if let Some(delay_ms) = delay {
                if delay_ms > 0 {
                    shared.clock.sleep_ms(delay_ms.clamp(1, BACKOFF_NAP_CAP_MS));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::planner::Deliverable;
    use crate::service::JobOutput;
    use crate::FaultPlan;
    use bgls_circuit::{Circuit, Gate, Operation, Qubit};
    use std::time::Instant;

    fn bell() -> Circuit {
        let mut c = Circuit::new();
        c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
        c.push(Operation::measure(vec![Qubit(0), Qubit(1)], "m").unwrap());
        c
    }

    #[test]
    fn tickets_resolve_with_the_same_bits_as_the_sync_service() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<(Ticket, u64)> = (0..8u64)
            .map(|s| {
                let t = handle
                    .submit(SimRequest::histogram(bell(), 100).with_seed(s))
                    .unwrap();
                (t, s)
            })
            .collect();
        for (ticket, seed) in tickets {
            let report = handle.wait(ticket).unwrap();
            let standalone = crate::plan_and_run(&bell(), 100, Some(seed))
                .unwrap()
                .result;
            assert_eq!(
                report.histogram().unwrap().histogram("m"),
                standalone.histogram("m"),
                "seed {seed}"
            );
        }
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn graceful_shutdown_drains_the_backlog() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<Ticket> = (0..16u64)
            .map(|s| {
                handle
                    .submit(SimRequest::histogram(bell(), 60).with_seed(s))
                    .unwrap()
            })
            .collect();
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 16, "shutdown drains, never drops");
        // tickets submitted before shutdown stay redeemable after it
        drop(tickets);
    }

    #[test]
    fn abort_resolves_every_outstanding_ticket() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let tickets: Vec<Ticket> = (0..12u64)
            .map(|s| {
                handle
                    .submit(SimRequest::histogram(bell(), 50).with_seed(s))
                    .unwrap()
            })
            .collect();
        let mut resolved_ok = 0usize;
        let mut resolved_cancelled = 0usize;
        // Wait for the first ticket so at least one batch lands, then
        // pull the plug.
        let first = handle.wait(tickets[0]);
        assert!(first.is_ok());
        let handle2 = handle; // (move keeps the borrow checker honest)
        let stats = {
            // abort consumes the handle but tickets must still resolve
            // beforehand via the slots it settles; count afterwards via
            // wait on a fresh handle is impossible — so check the
            // stats' conservation law instead.
            handle2.abort()
        };
        resolved_ok += stats.completed as usize;
        resolved_cancelled += stats.cancellations as usize;
        assert_eq!(
            stats.completed + stats.failed,
            stats.submitted,
            "every admitted job settled: {stats:?}"
        );
        assert!(resolved_ok >= 1);
        let _ = resolved_cancelled;
    }

    #[test]
    fn infeasible_submissions_resolve_with_the_planner_error() {
        // A wide non-Clifford Toffoli ladder where every qubit feeds the
        // measurement: the lightcone keeps all 30 qubits live, arity-3
        // gates exclude the chain backends, and 30 dense qubits exceed
        // the width budget — infeasible even after optimization.
        let mut wide = Circuit::new();
        for i in 0..30u32 {
            wide.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
        }
        for i in 2..30u32 {
            wide.push(
                Operation::gate(Gate::Ccx, vec![Qubit(i - 2), Qubit(i - 1), Qubit(i)]).unwrap(),
            );
        }
        wide.push(Operation::measure((0..30).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
        let handle = ServiceHandle::with_defaults().unwrap();
        let ticket = handle
            .submit(SimRequest {
                circuit: wide,
                resolver: None,
                deliverable: Deliverable::Histogram { repetitions: 10 },
                seed: None,
                deadline_ms: None,
            })
            .unwrap();
        assert!(matches!(handle.wait(ticket), Err(SimError::Unsupported(_))));
        handle.shutdown();
    }

    #[test]
    fn lightcone_rescues_wide_circuits_with_dead_qubits() {
        // 30 raw qubits but only a 3-qubit observable cone: the optimizer
        // prunes the dead width, the planner accepts the residue, and the
        // service allocates state for the pruned circuit only.
        let mut wide = Circuit::new();
        for i in 0..30u32 {
            wide.push(Operation::gate(Gate::H, vec![Qubit(i)]).unwrap());
        }
        wide.push(Operation::gate(Gate::Ccx, vec![Qubit(0), Qubit(1), Qubit(2)]).unwrap());
        wide.push(Operation::measure(vec![Qubit(0)], "m").unwrap());
        let handle = ServiceHandle::with_defaults().unwrap();
        let ticket = handle
            .submit(SimRequest {
                circuit: wide,
                resolver: None,
                deliverable: Deliverable::Histogram { repetitions: 10 },
                seed: Some(5),
                deadline_ms: None,
            })
            .unwrap();
        let report = handle.wait(ticket).expect("pruned circuit is feasible");
        match &report.output {
            JobOutput::Histogram(result) => {
                assert_eq!(result.histogram("m").unwrap().total(), 10);
            }
            other => panic!("histogram expected, got {other:?}"),
        }
        assert!(
            report.rewrite.ops_after < report.rewrite.ops_before,
            "lightcone must have pruned dead gates: {:?}",
            report.rewrite
        );
        handle.shutdown();
    }

    #[test]
    fn cache_hits_under_many_workers_always_resolve() {
        // Repeated seeded requests are cache hits: a draining worker
        // settles them at once, racing the admitting worker's ticket
        // binding. Every ticket must still resolve.
        let policy = ServePolicy {
            workers: 4,
            ..ServePolicy::default()
        };
        let handle = ServiceHandle::start(ServiceConfig::default(), policy).unwrap();
        for round in 0..40u64 {
            let tickets: Vec<Ticket> = (0..64)
                .map(|i| {
                    let request = SimRequest::histogram(bell(), 16).with_seed((round + i) % 3);
                    handle.submit(request).unwrap()
                })
                .collect();
            for t in tickets {
                let result = handle
                    .wait_timeout(t, 10_000)
                    .unwrap_or_else(|| panic!("round {round}: ticket {} never resolved", t.0));
                assert!(result.is_ok(), "round {round}: {result:?}");
            }
        }
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 40 * 64);
    }

    #[test]
    fn waiting_twice_reports_the_ticket_unknown() {
        let handle = ServiceHandle::with_defaults().unwrap();
        let t = handle
            .submit(SimRequest::histogram(bell(), 10).with_seed(1))
            .unwrap();
        handle.wait(t).unwrap();
        assert!(matches!(handle.wait(t), Err(SimError::Invalid(_))));
        assert_eq!(handle.status(t), JobStatus::Unknown);
        handle.shutdown();
    }

    /// Wall time every executed batch sleeps before simulating, so a
    /// batch occupies its worker for a known time.
    const LATENCY_MS: u64 = 300;

    fn slow_handle() -> ServiceHandle {
        let config = ServiceConfig {
            fault: Some(FaultPlan {
                latency_ms: LATENCY_MS,
                ..FaultPlan::default()
            }),
            ..ServiceConfig::default()
        };
        let policy = ServePolicy {
            workers: 2,
            ..ServePolicy::default()
        };
        ServiceHandle::start(config, policy).unwrap()
    }

    /// Polls until a worker has taken the ticket's job into a batch.
    fn wait_until_taken(handle: &ServiceHandle, ticket: Ticket) {
        while handle.status(ticket) == JobStatus::Pending {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.status(ticket), JobStatus::Running);
    }

    #[test]
    fn a_second_worker_executes_while_the_first_is_busy() {
        let handle = slow_handle();
        let started = Instant::now();
        let a = handle
            .submit(SimRequest::histogram(bell(), 40).with_seed(1))
            .unwrap();
        wait_until_taken(&handle, a);
        // another shot count, so not a duplicate of A
        let b = handle
            .submit(SimRequest::histogram(bell(), 80).with_seed(2))
            .unwrap();
        handle.wait(b).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(LATENCY_MS * 3 / 2),
            "B resolved {elapsed:?} after A was submitted: it waited out A's batch"
        );
        handle.wait(a).unwrap();
        handle.shutdown();
    }

    #[test]
    fn status_and_cancel_answer_while_a_batch_executes() {
        let handle = slow_handle();
        let a = handle
            .submit(SimRequest::histogram(bell(), 40).with_seed(1))
            .unwrap();
        wait_until_taken(&handle, a);
        let t = Instant::now();
        assert_eq!(handle.status(a), JobStatus::Running);
        let status_took = t.elapsed();
        let t = Instant::now();
        assert!(!handle.cancel(a), "an executing job is not cancellable");
        let cancel_took = t.elapsed();
        let bound = Duration::from_millis(50);
        assert!(status_took < bound, "status took {status_took:?}");
        assert!(cancel_took < bound, "cancel took {cancel_took:?}");
        assert!(handle.wait(a).is_ok());
        handle.shutdown();
    }

    #[test]
    fn a_duplicate_of_an_executing_job_parks_on_it() {
        let handle = slow_handle();
        let request = || SimRequest::histogram(bell(), 64).with_seed(11);
        let first = handle.submit(request()).unwrap();
        wait_until_taken(&handle, first);
        let second = handle.submit(request()).unwrap();
        wait_until_taken(&handle, second);
        // taken while the first still executes: a cache miss, parked
        assert_eq!(handle.status(first), JobStatus::Running);
        let a = handle.wait(first).unwrap();
        let b = handle.wait(second).unwrap();
        assert_eq!(
            a.histogram().unwrap().histogram("m"),
            b.histogram().unwrap().histogram("m")
        );
        let stats = handle.shutdown();
        assert_eq!(stats.simulated_jobs, 1);
        assert_eq!(
            stats.merged_jobs, 1,
            "the duplicate shared the leader's run"
        );
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn faults_follow_the_ticket_whichever_worker_admits_it() {
        // Fault rolls are keyed by job id, and the handle numbers jobs
        // by ticket: per-ticket outcomes equal the synchronous service's
        // for the same requests in the same order, however the workers
        // interleave admission.
        let config = || ServiceConfig {
            fault: Some(FaultPlan {
                backend_failure_probability: 0.5,
                stop_after_attempts: 2,
                ..FaultPlan::seeded(7)
            }),
            ..ServiceConfig::default()
        };
        let requests =
            || (0..24u64).map(|s| SimRequest::histogram(bell(), 20 + s % 3).with_seed(s));
        let mut svc = SimulationService::new(config());
        let ids: Vec<JobId> = requests().map(|r| svc.submit(r).unwrap()).collect();
        svc.run_all();
        let policy = ServePolicy {
            workers: 4,
            ..ServePolicy::default()
        };
        let handle = ServiceHandle::start(config(), policy).unwrap();
        let tickets: Vec<Ticket> = requests().map(|r| handle.submit(r).unwrap()).collect();
        for (id, ticket) in ids.into_iter().zip(tickets) {
            let want = svc.take_result(id).unwrap().unwrap();
            let got = handle.wait(ticket).unwrap();
            assert_eq!(got.attempts, want.attempts, "ticket {}", ticket.0);
            assert_eq!(
                got.histogram().unwrap().histogram("m"),
                want.histogram().unwrap().histogram("m")
            );
        }
        assert!(svc.stats().retries > 0, "the plan must fault some jobs");
        handle.shutdown();
    }
}
