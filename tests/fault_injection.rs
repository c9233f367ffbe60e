//! Chaos suite: the serving layer under deterministic fault injection.
//!
//! The liveness contract under test: **no submitted job is ever lost**
//! — under injected panics, backend faults, budget exhaustion, forced
//! latency, deadlines, and cancellations, every job resolves exactly
//! once, to a result or a typed error, and the workers survive to serve
//! the next request. Because the [`FaultPlan`] is a pure function of
//! `(seed, job, attempt)`, the suite asserts *exact* outcomes — which
//! jobs degrade, how many panics are caught, bit-identical histograms —
//! not statistical ones, and the whole file must pass unchanged at
//! `RAYON_NUM_THREADS=1` and `=4` (the CI fault-injection job runs
//! both).

use bgls_suite::circuit::{Channel, Circuit, Gate, Operation, PauliSum, Qubit};
use bgls_suite::core::{BatchPolicy, ManualClock, RetryPolicy, SimError, Simulator};
use bgls_suite::plan::{
    degrade, plan, Deliverable, ExecPath, FaultPlan, PlannerConfig, ServePolicy, ServiceConfig,
    ServiceHandle, SimRequest, SimulationService,
};
use bgls_suite::SimulatorExt;

fn measured(mut c: Circuit, n: u32) -> Circuit {
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
    c
}

/// Pure-Clifford GHZ ladder (plans to chform / sample-parallel).
fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..n {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    measured(c, n)
}

/// Sparse-noise wide GHZ (plans to a pure-state backend on the
/// trajectory-forest path).
fn noisy_wide(n: u32) -> Circuit {
    let mut c = ghz(n).without_measurements();
    c.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![Qubit(0)]).unwrap());
    measured(c, n)
}

/// T-dusted ladder (plans dense, sample-parallel).
fn t_ladder(n: u32) -> Circuit {
    let mut c = Circuit::new();
    for i in 0..n {
        c.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
        c.push(Operation::gate(Gate::H, vec![Qubit(i)]).unwrap());
    }
    for i in 1..n {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    measured(c, n)
}

/// Dense-noise wide GHZ: a channel on every qubit overflows the
/// trajectory-forest budget past the density wall, so the planner
/// routes to the purified MPS (see
/// `noisy_wide_routes_to_forest_then_purified_mps_as_noise_densifies`
/// in `bgls-plan`).
fn purified_dense(n: u32) -> Circuit {
    let mut c = ghz(n).without_measurements();
    for i in 0..n {
        c.push(Operation::channel(Channel::bit_flip(0.05).unwrap(), vec![Qubit(i)]).unwrap());
    }
    measured(c, n)
}

fn mixed_traffic() -> Vec<(Circuit, u64)> {
    let mut jobs = Vec::new();
    for seed in 0..8u64 {
        jobs.push((ghz(8), seed));
        jobs.push((noisy_wide(13), seed + 100));
        jobs.push((t_ladder(8), seed + 200));
        jobs.push((purified_dense(13), seed + 300));
    }
    jobs
}

fn chaos_config(fault: FaultPlan) -> ServiceConfig {
    ServiceConfig {
        fault: Some(fault),
        ..ServiceConfig::default()
    }
}

/// Under a storm of every fault kind, every ticket resolves — to a
/// result or a typed error — and the conservation law
/// `completed + failed == submitted` holds exactly.
#[test]
fn chaos_no_submitted_job_is_ever_lost() {
    let fault = FaultPlan {
        panic_probability: 0.25,
        backend_failure_probability: 0.25,
        budget_exhaustion_probability: 0.15,
        stop_after_attempts: 2,
        ..FaultPlan::seeded(13)
    };
    let handle = ServiceHandle::start(chaos_config(fault), ServePolicy::default()).unwrap();
    let tickets: Vec<_> = mixed_traffic()
        .into_iter()
        .map(|(c, s)| {
            handle
                .submit(SimRequest::histogram(c, 40).with_seed(s))
                .unwrap()
        })
        .collect();
    let total = tickets.len() as u64;
    for ticket in tickets {
        // resolves exactly once, to Ok or a *typed* error
        match handle.wait(ticket) {
            Ok(report) => assert!(report.histogram().is_some()),
            Err(
                SimError::WorkerPanic(_)
                | SimError::BudgetExhausted(_)
                | SimError::Faulted(_)
                | SimError::DeadlineExceeded { .. }
                | SimError::Cancelled,
            ) => {}
            Err(other) => panic!("untyped failure leaked out: {other}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed + stats.failed, total, "{stats:?}");
    assert!(stats.faults_injected > 0, "the storm must actually storm");
    // the workers survived every injected panic
    assert!(stats.panics_caught > 0);
}

/// The same chaos workload run twice produces identical counters and
/// bit-identical per-job outcomes: fault injection is deterministic.
#[test]
fn chaos_outcomes_are_reproducible_bit_for_bit() {
    let fault = FaultPlan {
        panic_probability: 0.3,
        backend_failure_probability: 0.3,
        budget_exhaustion_probability: 0.2,
        stop_after_attempts: 3,
        ..FaultPlan::seeded(99)
    };
    let run = || {
        // Pin the batch cap and the clock: under a manual clock the
        // retry backoff windows, and so the share of the queue each take
        // drains, are the same in both runs.
        let config = ServiceConfig {
            batch: BatchPolicy { max_batch: 8 },
            ..chaos_config(fault.clone())
        };
        let mut svc = SimulationService::with_clock(config, ManualClock::shared());
        let ids: Vec<_> = mixed_traffic()
            .into_iter()
            .map(|(c, s)| {
                svc.submit(SimRequest::histogram(c, 40).with_seed(s))
                    .unwrap()
            })
            .collect();
        svc.run_all();
        let outcomes: Vec<_> = ids
            .into_iter()
            .map(|id| {
                svc.take_result(id)
                    .unwrap()
                    .map(|r| {
                        (
                            r.attempts,
                            r.degradations.clone(),
                            r.histogram().unwrap().histogram("m").cloned(),
                        )
                    })
                    .map_err(|e| e.to_string())
            })
            .collect();
        (outcomes, svc.stats())
    };
    let (outcomes_a, stats_a) = run();
    let (outcomes_b, stats_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(outcomes_a.len(), outcomes_b.len());
    for (a, b) in outcomes_a.iter().zip(&outcomes_b) {
        assert_eq!(a, b);
    }
}

/// A transient panic on every first attempt: the retry chain recovers
/// every job, and the recovered histograms are bit-identical to a
/// fault-free service — retries never perturb results.
#[test]
fn retries_recover_transient_panics_bit_identically() {
    let fault = FaultPlan {
        panic_probability: 1.0,
        stop_after_attempts: 1, // only first attempts fault
        ..FaultPlan::seeded(7)
    };
    let mut faulted = SimulationService::new(chaos_config(fault));
    let mut clean = SimulationService::with_defaults();
    let traffic = mixed_traffic();
    let n = traffic.len() as u64;
    let ids: Vec<_> = traffic
        .iter()
        .map(|(c, s)| {
            let a = faulted
                .submit(SimRequest::histogram(c.clone(), 40).with_seed(*s))
                .unwrap();
            let b = clean
                .submit(SimRequest::histogram(c.clone(), 40).with_seed(*s))
                .unwrap();
            (a, b)
        })
        .collect();
    faulted.run_all();
    clean.run_all();
    for (fa, cl) in ids {
        let fr = faulted.take_result(fa).unwrap().unwrap();
        let cr = clean.take_result(cl).unwrap().unwrap();
        assert_eq!(fr.attempts, 2, "panic then recovery");
        assert!(fr.degradations.is_empty(), "retried on the same plan");
        assert_eq!(
            fr.histogram().unwrap().histogram("m"),
            cr.histogram().unwrap().histogram("m")
        );
    }
    let stats = faulted.stats();
    assert_eq!(stats.panics_caught, n);
    assert_eq!(stats.retries, n);
    assert_eq!(stats.failed, 0);
}

/// Budget exhaustion skips the (pointless) retries and degrades
/// immediately; the degraded histogram is bit-identical to running the
/// fallback plan directly with the same seed.
#[test]
fn degraded_jobs_match_the_fallback_plan_run_directly() {
    let fault = FaultPlan {
        budget_exhaustion_probability: 1.0,
        stop_after_attempts: 1,
        ..FaultPlan::seeded(21)
    };
    let planner = PlannerConfig::default();
    let mut svc = SimulationService::new(chaos_config(fault));
    let cases = [(ghz(8), 5u64), (noisy_wide(13), 6u64), (t_ladder(8), 7u64)];
    let ids: Vec<_> = cases
        .iter()
        .map(|(c, s)| {
            svc.submit(SimRequest::histogram(c.clone(), 40).with_seed(*s))
                .unwrap()
        })
        .collect();
    svc.run_all();
    for (id, (circuit, seed)) in ids.into_iter().zip(&cases) {
        let report = svc.take_result(id).unwrap().unwrap();
        assert!(report.degraded(), "budget exhaustion must degrade");
        assert_eq!(report.degradations.len(), 1, "{:?}", report.degradations);

        // reconstruct the expected fallback plan from the ladder
        let original = plan(
            circuit,
            &Deliverable::Histogram { repetitions: 40 },
            &planner,
        )
        .unwrap();
        let fallback = degrade(&original, &planner).expect("one rung must exist");
        assert_eq!(report.backend, fallback.backend);
        assert_eq!(report.path, fallback.path);

        // the degradation contract: same bits as the fallback plan
        // executed standalone with the same seed
        let direct = fallback.run(40, Some(*seed)).unwrap();
        assert_eq!(
            report.histogram().unwrap().histogram("m"),
            direct.histogram("m")
        );
    }
    assert_eq!(svc.stats().degradations, 3);
    assert_eq!(svc.stats().retries, 0, "exhausted budgets are not retried");
}

/// The purified-MPS rung of the ladder: a dense-noise wide job plans to
/// purified MPS, degrades to statevector trajectories on budget
/// exhaustion, matches the fallback plan bit-for-bit — and the degraded
/// result is re-keyed, i.e. cached under the *fallback* plan's
/// fingerprint, never the original purified-MPS plan's.
#[test]
fn degraded_purified_mps_jobs_rekey_the_cache_and_match_the_fallback() {
    use bgls_suite::BackendKind;

    let fault = FaultPlan {
        budget_exhaustion_probability: 1.0,
        stop_after_attempts: 1,
        ..FaultPlan::seeded(33)
    };
    let planner = PlannerConfig::default();
    let (circuit, seed) = (purified_dense(13), 9u64);

    // The workload really does route to the new backend.
    let original = plan(
        &circuit,
        &Deliverable::Histogram { repetitions: 40 },
        &planner,
    )
    .unwrap();
    assert!(
        matches!(original.backend, BackendKind::PurifiedMps { .. }),
        "traffic must plan to purified MPS, got {:?}",
        original.backend
    );

    let mut svc = SimulationService::new(chaos_config(fault));
    let id = svc
        .submit(SimRequest::histogram(circuit.clone(), 40).with_seed(seed))
        .unwrap();
    svc.run_all();
    let report = svc.take_result(id).unwrap().unwrap();
    assert!(report.degraded(), "budget exhaustion must degrade");

    let fallback = degrade(&original, &planner).expect("purified MPS has a rung below");
    assert_eq!(report.backend, fallback.backend);
    assert_eq!(report.path, fallback.path);
    let direct = fallback.run(40, Some(seed)).unwrap();
    assert_eq!(
        report.histogram().unwrap().histogram("m"),
        direct.histogram("m")
    );

    // Re-keying: the degraded bits were inserted under the fallback
    // plan's fingerprint, so an identical resubmission — whose lookup
    // key is the *original* purified-MPS plan — must miss the cache and
    // walk the ladder itself instead of being served stale fallback
    // bits under the original plan's identity.
    let hits_before = svc.cache_stats().hits;
    let again = svc
        .submit(SimRequest::histogram(circuit, 40).with_seed(seed))
        .unwrap();
    svc.run_all();
    let second = svc.take_result(again).unwrap().unwrap();
    assert_eq!(
        svc.cache_stats().hits,
        hits_before,
        "no hit under the original key"
    );
    assert!(second.degraded(), "the resubmission degrades on its own");
    assert_eq!(
        second.histogram().unwrap().histogram("m"),
        direct.histogram("m"),
        "both degraded runs land on the same fallback bits"
    );
}

/// The exact expectation walk degrades to the grouped-shot estimator,
/// whose value is reproducible and close to the exact answer.
#[test]
fn expectation_jobs_degrade_to_the_shot_estimator() {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    let obs: PauliSum = "Z0 Z1".parse().unwrap();
    let fault = FaultPlan {
        budget_exhaustion_probability: 1.0,
        stop_after_attempts: 1,
        ..FaultPlan::seeded(3)
    };
    let config = ServiceConfig {
        fault: Some(fault),
        degraded_shots: 4096,
        ..ServiceConfig::default()
    };
    let planner = config.planner;
    let degraded_shots = config.degraded_shots;
    let mut svc = SimulationService::new(config);
    let id = svc
        .submit(SimRequest::expectation(c.clone(), obs.clone()).with_seed(11))
        .unwrap();
    svc.run_all();
    let report = svc.take_result(id).unwrap().unwrap();
    assert_eq!(report.path, ExecPath::ShotEstimate);
    assert!(report.degraded());
    let value = report.expectation().unwrap();
    // H|0> CNOT gives <Z0 Z1> = 1 exactly; the estimator must be close
    assert!((value - 1.0).abs() < 0.1, "estimate {value}");

    // and bit-reproducible: the same estimator run directly agrees
    let original = plan(
        &c,
        &Deliverable::Expectation {
            observable: obs.clone(),
        },
        &planner,
    )
    .unwrap();
    let fallback = degrade(&original, &planner).unwrap();
    let mut options = fallback.options.clone();
    options.seed = Some(11);
    let sim = Simulator::for_backend(fallback.backend, 2, options);
    let direct = sim.estimate_expectation(&c, &obs, degraded_shots).unwrap();
    assert_eq!(
        value, direct.value,
        "degraded estimate must be exact-reproducible"
    );
}

/// When every attempt on every rung faults, the job fails *terminally
/// and typed* — and the service remains healthy for the next request.
#[test]
fn exhausted_ladders_fail_typed_and_leave_the_service_healthy() {
    let fault = FaultPlan {
        panic_probability: 1.0,
        stop_after_attempts: u32::MAX,
        ..FaultPlan::seeded(5)
    };
    // tight retry budget to keep the walk down the ladder quick
    let config = ServiceConfig {
        fault: Some(fault),
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff_ms: 0,
            ..RetryPolicy::default()
        },
        ..ServiceConfig::default()
    };
    let mut svc = SimulationService::new(config);
    let id = svc
        .submit(SimRequest::histogram(ghz(6), 40).with_seed(1))
        .unwrap();
    svc.run_all();
    match svc.take_result(id).unwrap() {
        Err(SimError::WorkerPanic(msg)) => {
            assert!(msg.contains("injected panic"), "{msg}")
        }
        other => panic!("expected a terminal WorkerPanic, got {other:?}"),
    }
    let after_failure = svc.stats();
    assert!(after_failure.degradations > 0, "walked the ladder first");
    assert_eq!(after_failure.failed, 1);

    // The service (and its worker) survived: a clean job still serves.
    // The fault plan rolls per (job, attempt); job id 1 under seed 5
    // also panics on early attempts, so prove health via conservation:
    // the job settles (ok or typed), nothing hangs, nothing is lost.
    let next = svc
        .submit(SimRequest::histogram(ghz(6), 40).with_seed(2))
        .unwrap();
    svc.run_all();
    assert!(svc.take_result(next).is_some(), "second job must settle");
    let stats = svc.stats();
    assert_eq!(stats.completed + stats.failed, stats.submitted);
}

/// Injected latency plus tight deadlines: late jobs fail with the typed
/// deadline error at a batch boundary instead of executing, and every
/// ticket still resolves.
#[test]
fn deadline_misses_surface_typed_errors_under_latency() {
    let fault = FaultPlan {
        latency_ms: 40,
        ..FaultPlan::seeded(0)
    };
    let config = ServiceConfig {
        fault: Some(fault),
        batch: BatchPolicy { max_batch: 1 },
        default_deadline_ms: Some(10),
        ..ServiceConfig::default()
    };
    let handle = ServiceHandle::start(
        config,
        ServePolicy {
            workers: 1,
            ..ServePolicy::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = (0..6u64)
        .map(|s| {
            handle
                .submit(SimRequest::histogram(ghz(6), 30).with_seed(s))
                .unwrap()
        })
        .collect();
    let mut ok = 0u32;
    let mut missed = 0u32;
    for t in tickets {
        match handle.wait(t) {
            Ok(_) => ok += 1,
            Err(SimError::DeadlineExceeded { budget_ms }) => {
                assert_eq!(budget_ms, 10);
                missed += 1;
            }
            Err(other) => panic!("unexpected: {other}"),
        }
    }
    assert_eq!(ok + missed, 6, "every ticket resolves");
    assert!(missed >= 1, "40ms batches must blow a 10ms deadline");
    let stats = handle.shutdown();
    assert_eq!(stats.deadline_misses as u32, missed);
}

/// Front-door cancellation: cancelled tickets resolve with the typed
/// error; the rest finish normally.
#[test]
fn cancellation_resolves_tickets_with_the_typed_error() {
    let fault = FaultPlan {
        latency_ms: 30, // slow the drain so cancels land while queued
        ..FaultPlan::seeded(0)
    };
    let config = ServiceConfig {
        fault: Some(fault),
        batch: BatchPolicy { max_batch: 1 },
        ..ServiceConfig::default()
    };
    let handle = ServiceHandle::start(
        config,
        ServePolicy {
            workers: 1,
            ..ServePolicy::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = (0..8u64)
        .map(|s| {
            handle
                .submit(SimRequest::histogram(ghz(6), 30).with_seed(s))
                .unwrap()
        })
        .collect();
    // cancel the back half; some may already be executing — cancel()
    // tells us which ones landed
    let landed: Vec<bool> = tickets[4..].iter().map(|t| handle.cancel(*t)).collect();
    for (i, t) in tickets.iter().enumerate() {
        let outcome = handle.wait(*t);
        if i >= 4 && landed[i - 4] {
            assert!(
                matches!(outcome, Err(SimError::Cancelled)),
                "cancelled ticket must resolve Cancelled, got {outcome:?}"
            );
        } else {
            assert!(outcome.is_ok(), "uncancelled ticket failed: {outcome:?}");
        }
    }
    handle.shutdown();
}

/// Backend faults injected mid-circuit surface as typed `Faulted`
/// errors when retries are exhausted — or recover when transient.
#[test]
fn mid_circuit_backend_faults_are_contained() {
    let fault = FaultPlan {
        backend_failure_probability: 1.0,
        fail_at_op: 3,
        stop_after_attempts: 1, // transient: retry succeeds
        ..FaultPlan::seeded(17)
    };
    let mut svc = SimulationService::new(chaos_config(fault));
    let ids: Vec<_> = (0..4u64)
        .map(|s| {
            svc.submit(SimRequest::histogram(t_ladder(8), 50).with_seed(s))
                .unwrap()
        })
        .collect();
    svc.run_all();
    for id in ids {
        let report = svc.take_result(id).unwrap().unwrap();
        assert_eq!(report.attempts, 2, "fault then recovery");
    }
    let stats = svc.stats();
    assert_eq!(stats.faults_injected, 4);
    assert_eq!(stats.retries, 4);
    assert_eq!(stats.failed, 0);
}
