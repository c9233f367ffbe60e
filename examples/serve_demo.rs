//! The batch simulation service on a mixed traffic stream: planner
//! routing, dedup of identical requests, fair-share batching, and the
//! deterministic result cache.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! The traffic mix covers four circuit classes (Clifford GHZ, noisy,
//! mid-circuit-measured Clifford, and a T-dusted chain) plus an
//! expectation grid, with a hot-circuit skew: most requests repeat a
//! handful of seeds, which in-batch dedup and the cache answer
//! bit-identically without re-simulating.

use bgls_circuit::{Channel, Circuit, Gate, Operation, Param, ParamResolver, PauliSum, Qubit};
use bgls_plan::{plan, Deliverable, PlannerConfig, SimRequest, SimulationService};

fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    for i in 1..n {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
    c
}

fn noisy(n: u32) -> Circuit {
    let mut c = ghz(n).without_measurements();
    for i in 0..n {
        c.push(Operation::channel(Channel::bit_flip(0.02).unwrap(), vec![Qubit(i)]).unwrap());
    }
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
    c
}

fn mid_circuit(n: u32) -> Circuit {
    let mut c = Circuit::new();
    c.push(Operation::gate(Gate::H, vec![Qubit(0)]).unwrap());
    c.push(Operation::measure(vec![Qubit(0)], "early").unwrap());
    for i in 1..n {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "late").unwrap());
    c
}

fn t_chain(n: u32) -> Circuit {
    let mut c = Circuit::new();
    for i in 0..n {
        c.push(Operation::gate(Gate::T, vec![Qubit(i)]).unwrap());
    }
    for i in 1..n {
        c.push(Operation::gate(Gate::Cnot, vec![Qubit(i - 1), Qubit(i)]).unwrap());
    }
    c.push(Operation::measure((0..n).map(Qubit).collect::<Vec<_>>(), "m").unwrap());
    c
}

fn main() {
    let circuits: Vec<(&str, Circuit)> = vec![
        ("clifford ghz(10)", ghz(10)),
        ("noisy ghz(6)", noisy(6)),
        ("mid-circuit clifford(8)", mid_circuit(8)),
        ("t-dusted chain(30)", t_chain(30)),
    ];

    println!("routing table (post-optimization):");
    for (label, c) in &circuits {
        let p = plan(
            c,
            &Deliverable::Histogram { repetitions: 100 },
            &PlannerConfig::default(),
        )
        .unwrap();
        let passes = p.rewrite.passes_applied();
        println!(
            "  {label:24} -> {:12} / {:16} {} -> {} ops ({})",
            p.backend.name(),
            p.path.to_string(),
            p.rewrite.ops_before,
            p.rewrite.ops_after,
            if passes.is_empty() {
                "no rewrites".to_string()
            } else {
                passes.join(", ")
            }
        );
    }

    let mut svc = SimulationService::with_defaults();
    let mut ids = Vec::new();

    // Hot-circuit skew: 10 rounds over 3 hot seeds per circuit class.
    for round in 0..10u64 {
        for (_, c) in &circuits {
            ids.push(
                svc.submit(SimRequest::histogram(c.clone(), 200).with_seed(round % 3))
                    .unwrap(),
            );
        }
    }

    // An expectation grid on a parameterized rotation, submitted twice
    // and drained after each pass: one drain takes everything queued, so
    // the first pass rides in the histograms' batch and the second is
    // pure cache.
    let mut completed = 0;
    let mut rot = Circuit::new();
    rot.push(Operation::gate(Gate::Ry(Param::symbol("theta")), vec![Qubit(0)]).unwrap());
    let obs: PauliSum = "Z0".parse().unwrap();
    for _ in 0..2 {
        for k in 0..8 {
            let mut r = ParamResolver::new();
            r.bind("theta", 0.25 * k as f64);
            ids.push(
                svc.submit(SimRequest::expectation(rot.clone(), obs.clone()).with_resolver(r))
                    .unwrap(),
            );
        }
        completed += svc.run_all();
    }

    let stats = svc.stats();
    let cache = svc.cache_stats();
    println!("\nserved {completed} jobs in {} batches", stats.batches);
    println!(
        "  simulated {} distinct jobs; {} duplicates served by an identical job's run",
        stats.simulated_jobs, stats.merged_jobs
    );
    println!(
        "  cache: {} hits / {} misses (hit rate {:.0}%)",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate()
    );
    println!(
        "  one drainer: each batch took every eligible job, up to the cap of {}",
        bgls_core::BatchPolicy::default().max_batch
    );
    println!(
        "  failures: {} retries, {} degradations, {} panics caught, {} deadline misses, {} cancellations",
        stats.retries,
        stats.degradations,
        stats.panics_caught,
        stats.deadline_misses,
        stats.cancellations
    );

    // Spot-check one result per class, with the optimizer's rewrite
    // deltas and the calibrated cost model's prediction error.
    println!("\nper-class reports (rewrites + cost calibration):");
    for (i, (label, _)) in circuits.iter().enumerate() {
        if let Some(Ok(out)) = svc.take_result(ids[i]) {
            let hist = out.histogram().unwrap();
            let key = hist.keys()[0].to_string();
            let timing = match (out.predicted_ms, out.measured_ms) {
                (Some(p), Some(m)) => format!("predicted {p:.3} ms / measured {m:.3} ms"),
                (None, Some(m)) => format!("measured {m:.3} ms (model warming up)"),
                _ => "served from cache".to_string(),
            };
            println!(
                "  {label:24} histogram[{key}] total {:5}  rewrite {} -> {} ops  {timing}",
                hist.histogram(&key).unwrap().total(),
                out.rewrite.ops_before,
                out.rewrite.ops_after,
            );
        }
    }
}
