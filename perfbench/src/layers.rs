//! The traced run's layer phases: a replay through the synchronous
//! `SimulationService`, standalone calls into the planner, optimizer,
//! engine and backends, and the one-thread scaling baseline. Every call
//! into a layer sits inside a span named after it.

use crate::sys::{mean, median};
use crate::trace::Tracer;
use crate::traffic::{binding, fresh_binding, Job, Stream, Traffic, Workload, GRID};
use bgls_backend::{BackendKind, SimulatorExt};
use bgls_circuit::{optimize, Circuit};
use bgls_core::{BatchPolicy, BglsState, BitString, Simulator, SimulatorOptions};
use bgls_plan::{
    plan, plan_prepared, prepare, CircuitProfile, Deliverable, PlannerConfig, ServiceConfig,
    SimulationService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Candidate bitstrings per `probabilities_batch` probe.
const CANDIDATES: usize = 256;
/// Requests replayed through the synchronous service, per workload.
fn replay_jobs(workload: Workload) -> usize {
    match workload {
        Workload::SampleMix => 48,
        Workload::HotReplay => 400,
        Workload::QaoaSweep => 8 * GRID,
    }
}

/// The shot seed of the `k`-th standalone probe run of a class.
fn probe_seed(k: usize) -> u64 {
    0x7072_6f62_6500 + k as u64
}

/// Standalone figures of one sampling class, medians over its pool.
struct ClassProbe {
    run_ms: f64,
    evolve_ms: f64,
    apply_us_per_op: f64,
    prob_us_per_candidate: f64,
}

/// Runs every pool instance of every class standalone on its cold plan:
/// `ExecutionPlan::run`, `Simulator::final_state`, and
/// `probabilities_batch` on the final state over a fixed candidate set.
fn probe_classes(traffic: &Traffic, tr: &mut Tracer) -> Vec<ClassProbe> {
    let cfg = PlannerConfig::default();
    let mut out = Vec::new();
    for (ci, class) in traffic.classes.iter().enumerate() {
        let job = ci as u64;
        let (mut run, mut evolve, mut apply, mut prob) = (vec![], vec![], vec![], vec![]);
        for (k, circuit) in class.pool.iter().enumerate() {
            let deliverable = Deliverable::Histogram {
                repetitions: class.reps,
            };
            let p = tr
                .span("plan", "plan.cold", job, |_| {
                    plan(circuit, &deliverable, &cfg)
                })
                .expect("every benchmark class is plannable");
            let seed = probe_seed(k);
            let id = tr.begin("core", "core.run", job);
            let result = p.run(class.reps, Some(seed));
            tr.end(id);
            black_box(result.expect("standalone run"));
            run.push(tr.ms(id));

            let n = p.circuit.num_qubits();
            let id = tr.begin("core", "core.evolve", job);
            let state = p.simulator(n, Some(seed)).final_state(&p.circuit);
            tr.end(id);
            let state = state.expect("final state");
            evolve.push(tr.ms(id));
            apply.push(tr.ms(id) * 1e3 / p.circuit.num_operations().max(1) as f64);

            let mut rng = StdRng::seed_from_u64(seed);
            let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
            let candidates: Vec<BitString> = (0..CANDIDATES)
                .map(|_| BitString::from_u64(n, rng.gen::<u64>() & mask))
                .collect();
            let id = tr.begin("backend", "backend.prob", job);
            black_box(state.probabilities_batch(&candidates));
            tr.end(id);
            prob.push(tr.ms(id) * 1e3 / CANDIDATES as f64);
        }
        out.push(ClassProbe {
            run_ms: median(&run),
            evolve_ms: median(&evolve),
            apply_us_per_op: median(&apply),
            prob_us_per_candidate: median(&prob),
        });
    }
    out
}

/// The QAOA expectation probes: `(walk_ms, sweep_ms_per_binding,
/// expectation_us_per_term)`.
fn probe_qaoa(traffic: &Traffic, seed: u64, tr: &mut Tracer) -> (f64, f64, f64) {
    let q = &traffic.qaoa[0];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7161_6f61);
    let resolvers: Vec<_> = (0..GRID)
        .map(|_| {
            let (g, b) = fresh_binding(&mut rng);
            binding(g, b)
        })
        .collect();
    let cfg = PlannerConfig::default();
    let deliverable = Deliverable::Expectation {
        observable: q.observable.clone(),
    };
    let mut walk = Vec::new();
    let mut first_plan = None;
    for (i, r) in resolvers.iter().take(4).enumerate() {
        let resolved = q.base.resolve(r);
        let p = tr
            .span("plan", "plan.cold", i as u64, |_| {
                plan(&resolved, &deliverable, &cfg)
            })
            .expect("QAOA ansatz is plannable");
        let id = tr.begin("core", "core.qaoa.walk", i as u64);
        black_box(p.expectation(&q.observable).expect("exact walk"));
        tr.end(id);
        walk.push(tr.ms(id));
        first_plan.get_or_insert(p);
    }
    let p = first_plan.expect("at least one binding");
    let mut options = p.options.clone();
    options.parallel_sweep = true; // as the service fans out merged sweeps
    let n = q.base.num_qubits();
    let sim = Simulator::for_backend(p.backend, n, options);
    let mut sweep = Vec::new();
    for i in 0..2 {
        let id = tr.begin("core", "core.qaoa.sweep", i);
        black_box(sim.expectation_sweep(&q.base, &resolvers, &q.observable))
            .expect("expectation sweep");
        tr.end(id);
        sweep.push(tr.ms(id) / GRID as f64);
    }
    let resolved = q.base.resolve(&resolvers[0]);
    let state = Simulator::for_backend(BackendKind::StateVector, n, SimulatorOptions::default())
        .final_state(&resolved)
        .expect("statevector final state");
    const ROUNDS: usize = 20;
    let id = tr.begin("backend", "backend.expectation", 0);
    for _ in 0..ROUNDS {
        for (_, pauli) in q.observable.terms() {
            black_box(state.expectation(pauli).expect("Pauli expectation"));
        }
    }
    tr.end(id);
    let per_term = tr.ms(id) * 1e3 / (ROUNDS * q.observable.num_terms().max(1)) as f64;
    (median(&walk), median(&sweep), per_term)
}

/// Planner and optimizer figures over the workload's distinct circuits:
/// `CircuitProfile::of`, `optimize`, `prepare` and `plan_prepared`.
fn probe_plan(workload: Workload, traffic: &Traffic, seed: u64, tr: &mut Tracer) {
    let cfg = PlannerConfig::default();
    let mut circuits: Vec<(Circuit, Deliverable)> = Vec::new();
    match workload {
        Workload::SampleMix | Workload::HotReplay => {
            for class in &traffic.classes {
                for c in &class.pool {
                    let repetitions = class.reps;
                    circuits.push((c.clone(), Deliverable::Histogram { repetitions }));
                }
            }
        }
        Workload::QaoaSweep => {
            // every binding is a new circuit: probe fresh ones
            let mut rng = StdRng::seed_from_u64(seed ^ 0x706c_616e);
            for i in 0..24 {
                let q = &traffic.qaoa[i % traffic.qaoa.len()];
                let (g, b) = fresh_binding(&mut rng);
                let resolved = tr.span("circuit", "circuit.resolve", i as u64, |_| {
                    q.base.resolve(&binding(g, b))
                });
                let observable = q.observable.clone();
                circuits.push((resolved, Deliverable::Expectation { observable }));
            }
        }
    }
    let pipeline = cfg.optimize.expect("the default planner optimizes");
    for (i, (c, d)) in circuits.iter().enumerate() {
        let job = i as u64;
        let profile = tr.span("plan", "plan.profile", job, |_| CircuitProfile::of(c));
        // the pipeline `prepare` picks: Clifford circuits get the
        // stabilizer-safe subset
        let effective = if profile.is_clifford() {
            pipeline.stabilizer_safe()
        } else {
            pipeline
        };
        tr.span("circuit", "circuit.optimize", job, |_| {
            black_box(optimize(c, &effective))
        });
        let prep = tr.span("plan", "plan.prepare", job, |_| prepare(c, &cfg));
        let routed = tr.span("plan", "plan.route", job, |_| {
            plan_prepared(&prep, d, &cfg, None)
        });
        black_box(routed.expect("every benchmark circuit is plannable"));
    }
}

/// Figures of the synchronous replay.
struct Replay {
    batches: f64,
    batch_size_mean: f64,
    batch_at_max_frac: f64,
    cache_hit_frac: f64,
    dedup_frac: f64,
    merged_frac: f64,
    simulated_jobs: f64,
}

/// Replays the workload's request stream through a fresh synchronous
/// `SimulationService` (after the same warm-up), keeping the workload's
/// window of requests queued and draining one batch at a time; records
/// the controller's `batch_size()` after every drain.
fn replay(workload: Workload, seed: u64, traffic: &Traffic, tr: &mut Tracer) -> Replay {
    let mut svc = SimulationService::new(ServiceConfig::default());
    tr.span("service", "service.warmup", 0, |_| {
        for unit in crate::traffic::warmup(workload, traffic) {
            for job in &unit {
                // a rejected warm-up request only leaves the replay colder
                let _ = svc.submit(traffic.request(job));
            }
            svc.run_all();
            svc.take_finished();
        }
    });
    let stats0 = svc.stats();
    let cache0 = svc.cache_stats();
    let root = tr.begin("run", "run.replay", 0);
    let mut stream = Stream::new(workload, seed, traffic);
    let window = workload.window();
    let total = replay_jobs(workload);
    let mut sizes = Vec::new();
    let mut queued = 0usize;
    let mut submitted = 0usize;
    let mut drain = |svc: &mut SimulationService, tr: &mut Tracer, queued: &mut usize| {
        tr.span("service", "service.drain", 0, |_| svc.run_pending());
        *queued -= svc.take_finished().len().min(*queued);
        sizes.push(svc.batch_size() as f64);
    };
    while submitted < total {
        let jobs: Vec<Job> = stream.next_batch();
        for job in &jobs {
            let request = traffic.request(job);
            let id = submitted as u64;
            if tr
                .span("service", "service.submit", id, |_| svc.submit(request))
                .is_ok()
            {
                queued += 1;
            }
            submitted += 1;
        }
        while queued >= window || (workload == Workload::QaoaSweep && queued > 0) {
            if svc.queue_len() == 0 {
                break;
            }
            drain(&mut svc, tr, &mut queued);
        }
    }
    while svc.queue_len() > 0 {
        drain(&mut svc, tr, &mut queued);
    }
    tr.end(root);
    let s = svc.stats();
    let c = svc.cache_stats();
    let completed = (s.completed - stats0.completed) as f64;
    let hits = (c.hits - cache0.hits) as f64;
    let lookups = hits + (c.misses - cache0.misses) as f64;
    let simulated = (s.simulated_jobs - stats0.simulated_jobs) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let max_batch = BatchPolicy::default().max_batch as f64;
    Replay {
        batches: (s.batches - stats0.batches) as f64,
        batch_size_mean: mean(&sizes),
        batch_at_max_frac: ratio(
            sizes.iter().filter(|&&b| b >= max_batch).count() as f64,
            sizes.len() as f64,
        ),
        cache_hit_frac: ratio(hits, lookups),
        dedup_frac: ratio((completed - hits - simulated).max(0.0), completed),
        merged_frac: ratio((s.merged_jobs - stats0.merged_jobs) as f64, simulated),
        simulated_jobs: simulated,
    }
}

/// Per-class `ExecutionPlan::run` medians from a child process running
/// the same probes with `RAYON_NUM_THREADS=1`.
fn one_thread_run_ms(seed: u64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(exe)
        .args(["--probe-threads", "--seed", &seed.to_string()])
        .env("RAYON_NUM_THREADS", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("one-thread probe child");
    assert!(out.status.success(), "one-thread probe child failed");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("run_ms "))
        .map(|v| v.trim().parse().expect("child prints numbers"))
        .collect()
}

/// Child-process entry: prints each class's standalone run median.
pub fn thread_child(seed: u64) {
    let traffic = Traffic::generate(seed);
    for p in probe_classes(&traffic, &mut Tracer::new()) {
        println!("run_ms {}", p.run_ms);
    }
}

/// Runs the layer phases, adding their metrics to `m`.
pub fn run(
    workload: Workload,
    seed: u64,
    traffic: &Traffic,
    tr: &mut Tracer,
    m: &mut crate::Metrics,
) {
    let r = replay(workload, seed, traffic, tr);
    m.set(
        "service.submit_ms_p50",
        median(&tr.durations_ms("service.submit")),
    );
    m.set(
        "service.drain_ms_p50",
        median(&tr.durations_ms("service.drain")),
    );
    m.set("service.batches", r.batches);
    m.set("service.batch_size_mean", r.batch_size_mean);
    m.set("service.batch_at_max_frac", r.batch_at_max_frac);
    m.set("service.cache_hit_frac", r.cache_hit_frac);
    m.set("service.dedup_frac", r.dedup_frac);
    m.set("service.merged_frac", r.merged_frac);
    m.set("service.simulated_jobs", r.simulated_jobs);

    let root = tr.begin("run", "run.probe", 0);
    probe_plan(workload, traffic, seed, tr);
    let classes = probe_classes(traffic, tr);
    let (walk, sweep, per_term) = probe_qaoa(traffic, seed, tr);
    let id = tr.begin("core", "core.one_thread_child", 0);
    let single = one_thread_run_ms(seed);
    tr.end(id);
    tr.end(root);

    let us = |v: Vec<f64>| median(&v) * 1e3;
    m.set(
        "plan.prepare_ms_p50",
        median(&tr.durations_ms("plan.prepare")),
    );
    m.set("plan.route_us_p50", us(tr.durations_ms("plan.route")));
    m.set("plan.profile_us_p50", us(tr.durations_ms("plan.profile")));
    m.set(
        "circuit.optimize_ms_p50",
        median(&tr.durations_ms("circuit.optimize")),
    );
    println!("thread scaling: class, ExecutionPlan::run ms at the default thread count / at 1");
    for (i, (class, p)) in traffic.classes.iter().zip(&classes).enumerate() {
        let name = class.name;
        let single_ms = single.get(i).copied().unwrap_or(0.0);
        println!("  {name:<13} {:>9.3} / {:>9.3}", p.run_ms, single_ms);
        m.set(&format!("core.{name}.run_ms"), p.run_ms);
        m.set(&format!("core.{name}.evolve_ms"), p.evolve_ms);
        m.set(&format!("core.{name}.sample_ms"), p.run_ms - p.evolve_ms);
        m.set(&format!("core.{name}.speedup_2t"), single_ms / p.run_ms);
        m.set(
            &format!("backend.{name}.apply_us_per_op"),
            p.apply_us_per_op,
        );
        m.set(
            &format!("backend.{name}.prob_us_per_candidate"),
            p.prob_us_per_candidate,
        );
    }
    m.set("core.qaoa.walk_ms", walk);
    m.set("core.qaoa.sweep_ms_per_binding", sweep);
    m.set("backend.statevector.expectation_us_per_term", per_term);
}
