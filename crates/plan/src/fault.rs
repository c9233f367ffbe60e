//! Deterministic fault injection for chaos-testing the serving layer.
//!
//! A [`FaultPlan`] is a pure function from `(plan seed, job id, attempt
//! index)` to an [`InjectedFault`]: the "random" fault rolls are drawn
//! from counter-composed [`stream_seed`] streams, so a given plan
//! injects *exactly* the same faults at the same points on every run —
//! across thread counts, retry orderings, and batch compositions. That
//! determinism is what makes the chaos suite assert exact outcomes
//! (which jobs degrade, how many panics are caught, which histograms
//! are bit-identical) instead of statistical ones.
//!
//! The plan is wired in via [`crate::ServiceConfig::fault`] and costs
//! nothing when absent: the service consults it only when configured,
//! and a default (inert) plan injects nothing.
//!
//! Fault kinds:
//! * **Panic** — the job's execution slot panics before the simulator
//!   runs; exercises the `catch_unwind` isolation and the retry chain.
//! * **Budget exhaustion** — the job fails with
//!   [`bgls_core::SimError::BudgetExhausted`]; exercises the immediate
//!   degradation path (retrying an exhausted budget is pointless).
//! * **Backend failure** — the job executes for real but its simulator
//!   is armed with an [`OpFaultSpec`] that errors at the `fail_at_op`-th
//!   operation; exercises mid-circuit failure and state teardown.

use bgls_backend::{BackendKind, OpFaultSpec};
use bgls_core::stream_seed;

/// What the plan injects for one `(job, attempt)` slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Execute normally.
    None,
    /// Panic in the job's execution slot.
    Panic,
    /// Fail with a budget-exhaustion error (degrades immediately).
    BudgetExhaustion,
    /// Execute with an op-level fault armed at
    /// [`FaultPlan::fail_at_op`].
    BackendFailure,
}

/// A deterministic, seed-keyed fault-injection plan.
///
/// Probabilities are evaluated in the order panic → backend failure →
/// budget exhaustion from *independent* roll streams, so enabling one
/// fault kind never perturbs which jobs another kind selects.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed of every fault roll.
    pub seed: u64,
    /// Probability that a `(job, attempt)` slot panics.
    pub panic_probability: f64,
    /// Probability that a slot runs with an armed op fault.
    pub backend_failure_probability: f64,
    /// Probability that a slot fails with budget exhaustion.
    pub budget_exhaustion_probability: f64,
    /// Operation ordinal (1-based) where an armed backend failure
    /// fires.
    pub fail_at_op: u64,
    /// Artificial service latency added per executed batch, in clock
    /// milliseconds — exercises deadline enforcement.
    pub latency_ms: u64,
    /// Faults are injected only while a job's attempt index is below
    /// this bound. The default of 1 faults only first attempts, so
    /// every faulted job can recover by retrying; raise it to force
    /// jobs down the degradation ladder, or to `u32::MAX` to make
    /// selected slots fail terminally.
    pub stop_after_attempts: u32,
    /// Restricts injection to jobs planned onto this backend family
    /// (`None` faults every backend).
    pub only_backend: Option<BackendKind>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_probability: 0.0,
            backend_failure_probability: 0.0,
            budget_exhaustion_probability: 0.0,
            fail_at_op: 1,
            latency_ms: 0,
            stop_after_attempts: 1,
            only_backend: None,
        }
    }
}

impl FaultPlan {
    /// An inert plan with the given root seed — switch individual
    /// faults on from here.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A uniform roll in `[0, 1)` for one `(job, attempt, kind)` slot.
    /// Composed `stream_seed` hops keep the streams independent.
    fn roll(&self, job: u64, attempt: u32, kind_tag: u64) -> f64 {
        let stream = stream_seed(
            stream_seed(self.seed, job),
            ((attempt as u64) << 3) | kind_tag,
        );
        // take the top 53 bits, the double-precision mantissa width
        ((stream >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// The fault (if any) to inject for this `(job, attempt)` slot on
    /// `backend`. Pure and deterministic: same plan, same arguments,
    /// same answer.
    pub fn decide(&self, job: u64, attempt: u32, backend: BackendKind) -> InjectedFault {
        if attempt >= self.stop_after_attempts {
            return InjectedFault::None;
        }
        if let Some(only) = self.only_backend {
            if !only.same_family(backend) {
                return InjectedFault::None;
            }
        }
        if self.roll(job, attempt, 1) < self.panic_probability {
            return InjectedFault::Panic;
        }
        if self.roll(job, attempt, 2) < self.backend_failure_probability {
            return InjectedFault::BackendFailure;
        }
        if self.roll(job, attempt, 3) < self.budget_exhaustion_probability {
            return InjectedFault::BudgetExhaustion;
        }
        InjectedFault::None
    }

    /// The op-fault hook specification for a
    /// [`InjectedFault::BackendFailure`] slot.
    pub fn op_fault_spec(&self) -> OpFaultSpec {
        OpFaultSpec::new(
            self.fail_at_op.max(1),
            format!("injected backend fault at op {}", self.fail_at_op.max(1)),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_the_slot() {
        let plan = FaultPlan {
            panic_probability: 0.3,
            backend_failure_probability: 0.3,
            budget_exhaustion_probability: 0.3,
            stop_after_attempts: u32::MAX,
            ..FaultPlan::seeded(42)
        };
        for job in 0..64u64 {
            for attempt in 0..4u32 {
                let a = plan.decide(job, attempt, BackendKind::StateVector);
                let b = plan.decide(job, attempt, BackendKind::StateVector);
                assert_eq!(a, b, "job {job} attempt {attempt}");
            }
        }
    }

    #[test]
    fn certain_probabilities_always_fire_in_precedence_order() {
        let everything = FaultPlan {
            panic_probability: 1.0,
            backend_failure_probability: 1.0,
            budget_exhaustion_probability: 1.0,
            ..FaultPlan::seeded(7)
        };
        assert_eq!(
            everything.decide(0, 0, BackendKind::StateVector),
            InjectedFault::Panic
        );
        let no_panic = FaultPlan {
            panic_probability: 0.0,
            ..everything.clone()
        };
        assert_eq!(
            no_panic.decide(0, 0, BackendKind::StateVector),
            InjectedFault::BackendFailure
        );
        let only_budget = FaultPlan {
            panic_probability: 0.0,
            backend_failure_probability: 0.0,
            ..everything
        };
        assert_eq!(
            only_budget.decide(0, 0, BackendKind::StateVector),
            InjectedFault::BudgetExhaustion
        );
    }

    #[test]
    fn faults_stop_after_the_configured_attempt() {
        let plan = FaultPlan {
            panic_probability: 1.0,
            stop_after_attempts: 2,
            ..FaultPlan::seeded(3)
        };
        assert_eq!(
            plan.decide(5, 0, BackendKind::StateVector),
            InjectedFault::Panic
        );
        assert_eq!(
            plan.decide(5, 1, BackendKind::StateVector),
            InjectedFault::Panic
        );
        assert_eq!(
            plan.decide(5, 2, BackendKind::StateVector),
            InjectedFault::None
        );
    }

    #[test]
    fn backend_scoping_spares_other_families() {
        let plan = FaultPlan {
            panic_probability: 1.0,
            only_backend: Some(BackendKind::ChainMps { chi: None }),
            ..FaultPlan::seeded(11)
        };
        assert_eq!(
            plan.decide(0, 0, BackendKind::StateVector),
            InjectedFault::None
        );
        assert_eq!(
            plan.decide(0, 0, BackendKind::ChainMps { chi: Some(8) }),
            InjectedFault::Panic,
            "chi does not affect family identity"
        );
    }

    #[test]
    fn partial_probabilities_select_a_strict_subset_of_jobs() {
        let plan = FaultPlan {
            panic_probability: 0.5,
            ..FaultPlan::seeded(99)
        };
        let faulted = (0..200u64)
            .filter(|&job| plan.decide(job, 0, BackendKind::StateVector) != InjectedFault::None)
            .count();
        assert!(faulted > 50 && faulted < 150, "got {faulted} of 200");
    }
}
