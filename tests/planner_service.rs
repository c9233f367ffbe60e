//! End-to-end tests of the execution planner and the batch simulation
//! service: routing properties over random circuits, distinct-class
//! coverage, and bit-identical cache hits.

use bgls_suite::circuit::{
    generate_random_circuit, Channel, Circuit, Gate, Operation, ParamResolver, PauliSum, Qubit,
    RandomCircuitParams,
};
use bgls_suite::core::SimError;
use bgls_suite::plan::{
    plan, plan_and_run, Deliverable, ExecPath, JobOutput, PlannerConfig, ServiceConfig,
    ServiceHandle, SimRequest, SimulationService,
};
use bgls_suite::BackendKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn measured(mut c: Circuit, n: u32) -> Circuit {
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
    c
}

fn hist(repetitions: u64) -> Deliverable {
    Deliverable::Histogram { repetitions }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random pure-Clifford circuit with terminal measurements
    /// routes to a stabilizer backend on the sample-parallel path.
    #[test]
    fn random_clifford_routes_to_a_stabilizer_backend(seed in 0u64..1_000_000, n in 2usize..12, d in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = generate_random_circuit(&RandomCircuitParams::clifford(n, d), &mut rng);
        let c = measured(c, n as u32);
        let p = plan(&c, &hist(50), &PlannerConfig::default()).unwrap();
        prop_assert_eq!(p.backend, BackendKind::ChForm);
        prop_assert_eq!(p.path, ExecPath::SampleParallel);
        prop_assert!(p.profile.is_clifford());
    }

    /// Noisy circuits too wide for the density matrix always land on a
    /// trajectory-capable pure-state backend (never density, never a
    /// stabilizer state, which cannot apply channels).
    #[test]
    fn noisy_wide_routes_to_a_forest_capable_backend(seed in 0u64..1_000_000, extra in 0usize..8) {
        let cfg = PlannerConfig::default();
        let n = (cfg.max_density_qubits + 1 + extra) as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = generate_random_circuit(
            &RandomCircuitParams::clifford_t(n as usize, 4), &mut rng);
        c.push(Operation::channel(Channel::depolarizing(0.01).unwrap(), vec![Qubit(0)]).unwrap());
        let c = measured(c, n);
        let p = plan(&c, &hist(50), &cfg).unwrap();
        prop_assert!(
            matches!(p.backend, BackendKind::StateVector
                | BackendKind::ChainMps { .. }
                | BackendKind::LazyNetwork),
            "routed to {:?}", p.backend
        );
        prop_assert!(
            matches!(p.path, ExecPath::Forest | ExecPath::Replay),
            "path {:?}", p.path
        );
    }

    /// Wide nearest-neighbour chains with sparse entanglement always
    /// route to a bond-capped MPS, never to (infeasible) dense memory.
    #[test]
    fn low_chi_chain_routes_to_mps(seed in 0u64..1_000_000, n in 26u32..40) {
        let mut c = Circuit::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            c.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
        }
        // One entangling pass; random direction per link.
        for i in 1..n {
            let (a, b) = if seed.wrapping_add(i as u64) % 2 == 0 { (i - 1, i) } else { (i, i - 1) };
            c.push(Operation::gate(Gate::Cnot, vec![Qubit(a), Qubit(b)]).unwrap());
        }
        let _ = &mut rng;
        let c = measured(c, n);
        let p = plan(&c, &hist(50), &PlannerConfig::default()).unwrap();
        match p.backend {
            BackendKind::ChainMps { chi: Some(chi) } => prop_assert!(chi <= 4, "chi {chi}"),
            other => return Err(TestCaseError::fail(format!("routed to {other:?}"))),
        }
    }
}

/// The acceptance bar: at least five distinct circuit classes route to
/// five distinct `(backend, path)` pairs.
#[test]
fn planner_separates_five_circuit_classes() {
    let cfg = PlannerConfig::default();

    // 1. Pure Clifford, terminal measurement.
    let mut ghz = Circuit::new();
    ghz.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..10u32 {
        ghz.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    let ghz = measured(ghz, 10);

    // 2. Clifford with mid-circuit measurement.
    let mut mid = Circuit::new();
    mid.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    mid.push(Operation::measure(vec![Qubit(0)], "early").unwrap());
    mid.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    let mid = measured(mid, 2);

    // 3. Noisy and narrow.
    let mut noisy = Circuit::new();
    noisy.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    noisy.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![Qubit(0)]).unwrap());
    let noisy = measured(noisy, 1);

    // 4. Noisy and wide (sparse noise).
    let mut wide = Circuit::new();
    for i in 0..16u32 {
        wide.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
    }
    wide.push(Operation::channel(Channel::bit_flip(0.1).unwrap(), vec![Qubit(0)]).unwrap());
    let wide = measured(wide, 16);

    // 5. Low-chi wide chain, unitary non-Clifford.
    let mut chain = Circuit::new();
    for i in 0..30u32 {
        chain.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
    }
    for i in 1..30u32 {
        chain.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    let chain = measured(chain, 30);

    let classes = [
        ("clifford-terminal", ghz),
        ("clifford-mid-circuit", mid),
        ("noisy-narrow", noisy),
        ("noisy-wide", wide),
        ("low-chi-chain", chain),
    ];
    let mut pairs = std::collections::BTreeSet::new();
    for (label, c) in &classes {
        let p = plan(c, &hist(100), &cfg).unwrap();
        // Every routed plan must actually execute.
        let result = p.run(40, Some(7)).unwrap();
        assert!(result.repetitions() == 40, "{label}");
        pairs.insert(format!("{}/{}", p.backend.name(), p.path));
    }
    assert_eq!(
        pairs.len(),
        classes.len(),
        "expected {} distinct (backend, path) pairs, got {pairs:?}",
        classes.len()
    );
}

/// The service's cache contract, end to end: a repeated seeded request
/// is answered from memory with the *same allocation*, and that answer
/// is bit-identical to a cold standalone run of the routed plan.
#[test]
fn service_cache_hits_are_bit_identical_to_cold_runs() {
    let mut ghz = Circuit::new();
    ghz.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..8u32 {
        ghz.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    let ghz = measured(ghz, 8);

    let mut svc = SimulationService::with_defaults();
    let a = svc
        .submit(SimRequest::histogram(ghz.clone(), 300).with_seed(42))
        .unwrap();
    svc.run_all();
    let cold = match svc.take_result(a).unwrap().unwrap().output {
        JobOutput::Histogram(r) => r,
        other => panic!("expected histogram, got {other:?}"),
    };

    let b = svc
        .submit(SimRequest::histogram(ghz.clone(), 300).with_seed(42))
        .unwrap();
    svc.run_all();
    let hot = match svc.take_result(b).unwrap().unwrap().output {
        JobOutput::Histogram(r) => r,
        other => panic!("expected histogram, got {other:?}"),
    };

    assert_eq!(svc.cache_stats().hits, 1);
    assert!(
        std::sync::Arc::ptr_eq(&cold, &hot),
        "hit must reuse the allocation"
    );

    // And the cached payload equals a from-scratch plan execution.
    let p = plan(&ghz, &hist(300), &PlannerConfig::default()).unwrap();
    let standalone = p.run(300, Some(42)).unwrap();
    assert_eq!(cold.histogram("m"), standalone.histogram("m"));
}

/// Disabling the cache (capacity 0) still serves correct results — it
/// just re-simulates.
#[test]
fn zero_capacity_cache_reexecutes_every_request() {
    let mut bell = Circuit::new();
    bell.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    bell.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    let bell = measured(bell, 2);

    let mut svc = SimulationService::new(ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let a = svc
        .submit(SimRequest::histogram(bell.clone(), 100).with_seed(5))
        .unwrap();
    svc.run_all();
    let b = svc
        .submit(SimRequest::histogram(bell.clone(), 100).with_seed(5))
        .unwrap();
    svc.run_all();
    assert_eq!(svc.cache_stats().hits, 0);
    assert_eq!(svc.stats().simulated_jobs, 2);
    let ra = match svc.take_result(a).unwrap().unwrap().output {
        JobOutput::Histogram(r) => r,
        other => panic!("{other:?}"),
    };
    let rb = match svc.take_result(b).unwrap().unwrap().output {
        JobOutput::Histogram(r) => r,
        other => panic!("{other:?}"),
    };
    // Identical seeds still agree bit-for-bit — purity, not caching.
    assert_eq!(ra.histogram("m"), rb.histogram("m"));
}

/// Mixed traffic: histograms across classes plus an expectation grid,
/// every output matching its standalone equivalent.
#[test]
fn mixed_service_traffic_matches_standalone_execution() {
    let mut svc = SimulationService::with_defaults();

    let mut bell = Circuit::new();
    bell.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    bell.push(Operation::gate(Gate::Cnot, vec![Qubit(0), Qubit(1)]).unwrap());
    let bell = measured(bell, 2);

    let mut rot = Circuit::new();
    rot.push(
        Operation::gate(
            Gate::Ry(bgls_suite::circuit::Param::symbol("theta")),
            vec![Qubit(0)],
        )
        .unwrap(),
    );
    let obs: PauliSum = "Z0".parse().unwrap();

    let hist_ids: Vec<_> = (0..4u64)
        .map(|s| {
            svc.submit(SimRequest::histogram(bell.clone(), 120).with_seed(s))
                .unwrap()
        })
        .collect();
    let thetas = [0.3f64, 0.9, 1.5];
    let exp_ids: Vec<_> = thetas
        .iter()
        .map(|&t| {
            let mut r = ParamResolver::new();
            r.bind("theta", t);
            svc.submit(SimRequest::expectation(rot.clone(), obs.clone()).with_resolver(r))
                .unwrap()
        })
        .collect();

    svc.run_all();

    for (id, seed) in hist_ids.into_iter().zip(0..4u64) {
        let got = match svc.take_result(id).unwrap().unwrap().output {
            JobOutput::Histogram(r) => r,
            other => panic!("{other:?}"),
        };
        let p = plan(&bell, &hist(120), &PlannerConfig::default()).unwrap();
        let standalone = p.run(120, Some(seed)).unwrap();
        assert_eq!(got.histogram("m"), standalone.histogram("m"), "seed {seed}");
    }
    for (id, &t) in exp_ids.iter().zip(&thetas) {
        let got = svc
            .take_result(*id)
            .unwrap()
            .unwrap()
            .expectation()
            .unwrap();
        assert!((got - t.cos()).abs() < 1e-10, "theta {t}: {got}");
    }
}

/// Submission-time rejection: infeasible circuits never enter the queue.
#[test]
fn service_rejects_infeasible_work_at_the_door() {
    let mut wide = Circuit::new();
    for i in 0..40u32 {
        wide.push(Operation::gate(Gate::H, vec![Qubit(i)]).unwrap());
    }
    wide.push(Operation::gate(Gate::Ccx, vec![Qubit(0), Qubit(1), Qubit(2)]).unwrap());
    let wide = measured(wide, 40);
    let mut svc = SimulationService::with_defaults();
    assert!(matches!(
        svc.submit(SimRequest::histogram(wide, 10)),
        Err(SimError::Unsupported(_))
    ));
    assert_eq!(svc.queue_len(), 0);
}

/// A 70-qubit GHZ histogram cannot be sampled (outcomes hold at most 64
/// qubits): the planner says so before routing, so `plan_and_run` and
/// the async front door both answer with a typed error — no panic, no
/// worker retry.
#[test]
fn histograms_wider_than_a_bitstring_are_rejected_before_routing() {
    let n = 70u32;
    let mut ghz = Circuit::new();
    ghz.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for q in 1..n {
        ghz.push(Operation::gate(Gate::Cnot, vec![Qubit(q - 1), Qubit(q)]).unwrap());
    }
    let ghz = measured(ghz, n);
    assert!(matches!(
        plan_and_run(&ghz, 10, Some(1)),
        Err(SimError::Unsupported(_))
    ));
    let handle = ServiceHandle::with_defaults().unwrap();
    let ticket = handle.submit(SimRequest::histogram(ghz, 10)).unwrap();
    assert!(matches!(handle.wait(ticket), Err(SimError::Unsupported(_))));
    let stats = handle.shutdown();
    assert_eq!(stats.submitted, 0, "rejected at the door: {stats:?}");
    assert_eq!(stats.retries + stats.panics_caught, 0, "{stats:?}");
}
