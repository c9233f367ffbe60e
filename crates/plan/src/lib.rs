//! Circuit-aware execution planning and a batch simulation service for
//! the BGLS gate-by-gate sampling stack.
//!
//! The engine crates expose six interchangeable state representations
//! and two sampling engines; picking the right pair per circuit is
//! mechanical once the circuit's structure is known. This crate closes
//! that loop:
//!
//! - [`CircuitProfile`] measures a circuit (Clifford fraction, noise,
//!   mid-circuit measurements, width, a Schmidt-rank bound from
//!   two-qubit-gate lightcones),
//! - [`plan`] turns the profile plus the requested [`Deliverable`] into
//!   an [`ExecutionPlan`] — backend, [`ExecPath`], and the
//!   [`bgls_core::SimulatorOptions`] that realize it,
//! - [`SimulationService`] hosts a submission queue over the planner:
//!   each drain takes a fair share of the queue (capped by
//!   [`bgls_core::BatchPolicy`]) and runs every job standalone through
//!   its own plan, identical requests in flight simulate once, and
//!   seeded results are memoized in a deterministic
//!   [`bgls_core::ResultCache`] — sound because every seeded run is a
//!   pure function of `(circuit, backend, options, seed, repetitions)`,
//! - [`ServiceHandle`] is the fault-tolerant async front door: a worker
//!   pool over the service whose workers simulate their batches
//!   concurrently, outside the service lock, with per-job
//!   `catch_unwind` isolation, deadlines, retry-with-backoff, a
//!   [`degrade`] fallback ladder, and cancellation — chaos-tested under
//!   the deterministic [`FaultPlan`] injection harness.
//!
//! One-shot use goes through [`plan_and_run`]:
//!
//! ```
//! use bgls_circuit::{Circuit, Gate, Operation, Qubit};
//! use bgls_plan::{plan_and_run, ExecPath};
//!
//! let mut bell = Circuit::new();
//! bell.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
//! bell.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
//! bell.push(Operation::measure(vec![Qubit(0), Qubit(1)], "m").unwrap());
//!
//! let planned = plan_and_run(&bell, 100, Some(7)).unwrap();
//! // A Clifford circuit with terminal measurements routes to the CH
//! // form and the sample-parallel path.
//! assert_eq!(planned.plan.backend.name(), "chform");
//! assert_eq!(planned.plan.path, ExecPath::SampleParallel);
//! let counts = planned.result.histogram("m").unwrap();
//! assert_eq!(counts.total(), 100);
//! ```

#![warn(missing_docs)]
// The public `plan` path may never panic, and a stray `unwrap` in the
// serving modules is a worker-killing panic waiting to happen, so the
// lint budget for the whole crate is zero (tests opt back in locally).
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cost;
mod fault;
mod planner;
mod profile;
mod serve;
mod service;

pub use cost::CostModel;
pub use fault::{FaultPlan, InjectedFault};
pub use planner::{
    degrade, plan, plan_prepared, prepare, Deliverable, ExecPath, ExecutionPlan, PlannerConfig,
    PreparedCircuit,
};
pub use profile::CircuitProfile;
pub use serve::{ServePolicy, ServiceHandle, Ticket};
pub use service::{
    JobId, JobOutput, JobReport, JobStatus, ServiceConfig, ServiceStats, SimRequest,
    SimulationService,
};

use bgls_backend::AnyState;
use bgls_circuit::{Circuit, PauliSum};
use bgls_core::{RunResult, SimError, Simulator};

/// A plan together with the run it produced.
#[derive(Clone, Debug)]
pub struct PlannedRun {
    /// The routing decision.
    pub plan: ExecutionPlan,
    /// The sampled result.
    pub result: RunResult,
}

/// A plan together with the expectation value it produced.
#[derive(Clone, Debug)]
pub struct PlannedExpectation {
    /// The routing decision.
    pub plan: ExecutionPlan,
    /// The exact expectation value.
    pub value: f64,
}

/// Plans `circuit` for a histogram deliverable under the default
/// [`PlannerConfig`] and runs it. See [`plan`] for the routing table;
/// the result is bit-identical to [`ExecutionPlan::run`] on the
/// returned plan.
pub fn plan_and_run(
    circuit: &Circuit,
    repetitions: u64,
    seed: Option<u64>,
) -> Result<PlannedRun, SimError> {
    let plan = plan(
        circuit,
        &Deliverable::Histogram { repetitions },
        &PlannerConfig::default(),
    )?;
    let result = plan.run(repetitions, seed)?;
    Ok(PlannedRun { plan, result })
}

/// Plans `circuit` for an exact-expectation deliverable under the
/// default [`PlannerConfig`] and evaluates it with the weighted-frontier
/// walk (deterministic — no seed).
pub fn plan_and_expect(
    circuit: &Circuit,
    observable: &PauliSum,
) -> Result<PlannedExpectation, SimError> {
    let plan = plan(
        circuit,
        &Deliverable::Expectation {
            observable: observable.clone(),
        },
        &PlannerConfig::default(),
    )?;
    let value = plan.expectation(observable)?;
    Ok(PlannedExpectation { plan, value })
}

/// Planner-driven entry points on [`Simulator`], for callers that
/// already speak the simulator API:
/// `Simulator::<AnyState>::plan_and_run(...)`.
pub trait SimulatorPlanExt {
    /// [`plan_and_run`] as an associated function.
    fn plan_and_run(
        circuit: &Circuit,
        repetitions: u64,
        seed: Option<u64>,
    ) -> Result<PlannedRun, SimError>;

    /// [`plan_and_expect`] as an associated function.
    fn plan_and_expect(
        circuit: &Circuit,
        observable: &PauliSum,
    ) -> Result<PlannedExpectation, SimError>;
}

impl SimulatorPlanExt for Simulator<AnyState> {
    fn plan_and_run(
        circuit: &Circuit,
        repetitions: u64,
        seed: Option<u64>,
    ) -> Result<PlannedRun, SimError> {
        plan_and_run(circuit, repetitions, seed)
    }

    fn plan_and_expect(
        circuit: &Circuit,
        observable: &PauliSum,
    ) -> Result<PlannedExpectation, SimError> {
        plan_and_expect(circuit, observable)
    }
}
