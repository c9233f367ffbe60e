//! Service-level benchmark of the BGLS stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sample_mix|hot_replay|qaoa_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives seeded closed-loop traffic through
//! `bgls_plan::ServiceHandle` (default `ServiceConfig` and `ServePolicy`)
//! and checks every output. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it repeats the workload with spans around
//! every call into a layer and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod client;
mod layers;
mod routing;
mod sys;
mod trace;
mod traffic;
mod verify;

use client::{Outcome, Phase};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use sys::{median, peak_rss_mb, quantile, HostTicks};
use trace::Tracer;
use traffic::{Job, Stream, Traffic, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median, so one
/// slow set-up does not move it.
const SETUPS: usize = 3;

/// End-to-end figures over a share of a timed phase.
struct Figures {
    /// Wall time covered.
    span_s: f64,
    /// Jobs served `Ok` (and verified) with their reply inside it.
    replies: usize,
    /// Latencies of the jobs that lived inside it from submit to reply.
    latencies_ms: Vec<f64>,
    /// Process CPU over it.
    cpu_ms: f64,
}

impl Figures {
    /// The whole phase, drain included.
    fn whole(phase: &Phase) -> Figures {
        Figures {
            span_s: phase.wall_s,
            replies: phase.completed(),
            latencies_ms: phase.latencies_ms(),
            cpu_ms: phase.cpu_s * 1e3,
        }
    }

    /// The phase's calm seconds (host steal at most
    /// [`client::CALM_STEAL`]).
    fn calm(phase: &Phase) -> Figures {
        let secs = &phase.seconds;
        // disturbed[k]: disturbed seconds among secs[..k]
        let mut disturbed = vec![0usize];
        for s in secs {
            disturbed.push(disturbed[disturbed.len() - 1] + usize::from(!s.calm()));
        }
        // the second holding phase time `t` (secs.len() past the last)
        let at = |t: f64| secs.partition_point(|s| s.to_s <= t);
        let mut f = Figures {
            span_s: 0.0,
            replies: 0,
            latencies_ms: Vec::new(),
            cpu_ms: 0.0,
        };
        for s in secs.iter().filter(|s| s.calm()) {
            f.span_s += s.to_s - s.from_s;
            f.cpu_ms += s.cpu_s * 1e3;
        }
        for r in phase.records.iter().filter(|r| r.report().is_some()) {
            let (sent, reply) = (at(r.sent_s), at(r.sent_s + r.latency_ms / 1e3));
            if reply < secs.len() && secs[reply].calm() {
                f.replies += 1;
                if disturbed[reply + 1] == disturbed[sent] {
                    f.latencies_ms.push(r.latency_ms);
                }
            }
        }
        f
    }

    fn print(&self, label: &str) {
        let lat = &self.latencies_ms;
        println!(
            "{label}: {:.3} jobs/s over {:.3} s, {:.3} cpu ms/job; latency \
             p10/p25/p50/p75/p90/max {:.3}/{:.3}/{:.3}/{:.3}/{:.3}/{:.3} ms over {} jobs",
            self.replies as f64 / self.span_s,
            self.span_s,
            self.cpu_ms / self.replies.max(1) as f64,
            quantile(lat, 0.1),
            quantile(lat, 0.25),
            quantile(lat, 0.5),
            quantile(lat, 0.75),
            quantile(lat, 0.9),
            quantile(lat, 1.0),
            lat.len(),
        );
    }
}

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_jobs_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("completed_frac", "ratio"),
    ("setup_s", "s"),
];

/// Sampling classes, in the order the traffic generator builds them.
const CLASS_NAMES: [&str; 8] = [
    "clifford",
    "midcircuit",
    "dense",
    "noisy_narrow",
    "noisy_wide",
    "forest",
    "mps_wide",
    "shallow",
];

/// Per-layer metrics (`--trace 1`), with units.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut out = fixed(&[
        ("serve.submit_us_p50", "us"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.lost_tickets", "count"),
        ("serve.rejected", "count"),
        ("service.submit_ms_p50", "ms"),
        ("service.drain_ms_p50", "ms"),
        ("service.batches", "count"),
        ("service.batch_size_mean", "jobs"),
        ("service.batch_at_max_frac", "ratio"),
        ("service.cache_hit_frac", "ratio"),
        ("service.dedup_frac", "ratio"),
        ("service.merged_frac", "ratio"),
        ("service.simulated_jobs", "count"),
        ("plan.prepare_ms_p50", "ms"),
        ("plan.route_us_p50", "us"),
        ("plan.profile_us_p50", "us"),
        ("plan.distinct_circuit_frac", "ratio"),
        ("plan.reroute_frac", "ratio"),
        ("plan.cost_err_p50", "ratio"),
        ("circuit.optimize_ms_p50", "ms"),
        ("circuit.ops_removed_frac", "ratio"),
    ]);
    for c in CLASS_NAMES {
        out.push((format!("core.{c}.run_ms"), "ms"));
        out.push((format!("core.{c}.evolve_ms"), "ms"));
        out.push((format!("core.{c}.sample_ms"), "ms"));
        out.push((format!("core.{c}.speedup_2t"), "ratio"));
    }
    out.extend(fixed(&[
        ("core.qaoa.walk_ms", "ms"),
        ("core.qaoa.sweep_ms_per_binding", "ms"),
    ]));
    for c in CLASS_NAMES {
        out.push((format!("backend.{c}.apply_us_per_op"), "us"));
        out.push((format!("backend.{c}.prob_us_per_candidate"), "us"));
    }
    out.extend(fixed(&[
        ("backend.statevector.expectation_us_per_term", "us"),
        ("host.steal_frac", "ratio"),
        ("mem.peak_rss_mb", "MiB"),
        ("trace.overhead_frac", "ratio"),
        ("attrib.unattributed_frac", "ratio"),
    ]));
    out
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The JSON `metrics` object over `spec`, in its order.
    fn json(&self, spec: &[(String, &str)]) -> String {
        let fields: Vec<String> = spec
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "metric {name} was not measured ({v})");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sample_mix|hot_replay|qaoa_sweep> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --list-metrics"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let seed = get("--seed").and_then(|s| s.parse().ok());
    if argv.iter().any(|a| a == "--probe-threads") {
        layers::thread_child(seed.unwrap_or_else(|| usage()));
        std::process::exit(0);
    }
    if argv.iter().any(|a| a == "--list-metrics") {
        for (n, u) in END_TO_END {
            println!("end_to_end {n} {u}");
        }
        for (n, u) in per_layer() {
            println!("per_layer {n} {u}");
        }
        std::process::exit(0);
    }
    let workload = get("--workload").and_then(|w| Workload::parse(&w));
    let seconds = get("--seconds").and_then(|s| s.parse().ok());
    let trace = match get("--trace").as_deref() {
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => None,
    };
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// One set-up: seeded traffic generation, `ServiceHandle::start`, and
/// the untimed warm-up pass. Returns the pieces and the warm-up requests
/// that did not come back `Ok`.
fn setup(args: &Args) -> (Traffic, bgls_plan::ServiceHandle, usize) {
    let traffic = Traffic::generate(args.seed);
    let handle = bgls_plan::ServiceHandle::start(
        bgls_plan::ServiceConfig::default(),
        bgls_plan::ServePolicy::default(),
    )
    .expect("default serving policy starts");
    let failed = traffic::warmup(args.workload, &traffic)
        .iter()
        .map(|unit| client::run_unit(&handle, &traffic, unit, args.workload.wait_limit_ms()))
        .sum();
    (traffic, handle, failed)
}

/// Distinct circuits among a phase's jobs, as a share of its jobs (every
/// QAOA binding is a circuit of its own).
fn distinct_circuit_frac(records: &[client::Record]) -> f64 {
    let mut seen = BTreeSet::new();
    for (i, r) in records.iter().enumerate() {
        seen.insert(match r.job {
            Job::Sample { class, inst, .. } => (class, inst),
            Job::Expect { .. } => (usize::MAX, i),
        });
    }
    seen.len() as f64 / records.len().max(1) as f64
}

fn ops_removed_frac(records: &[client::Record]) -> f64 {
    let (mut before, mut after) = (0usize, 0usize);
    for report in records.iter().filter_map(|r| r.report()) {
        before += report.rewrite.ops_before;
        after += report.rewrite.ops_after;
    }
    1.0 - after as f64 / before.max(1) as f64
}

/// Prints what a reader needs to judge one phase: counts, host noise,
/// failures by kind, and the output digest.
fn describe(label: &str, phase: &Phase, verdict: &verify::Verdict, limit_ms: u64) {
    let errs = phase.count(|o| matches!(o, Outcome::Err(_)));
    println!(
        "{label}: {} attempted, {} ok, {} errors, {} lost, {} rejected, {} mismatched \
         ({} re-run standalone); wall {:.3} s, cpu {:.3} s, host.steal_frac {:.4}; \
         digest {:016x}",
        phase.records.len(),
        phase.completed(),
        errs,
        phase.lost(),
        phase.rejected(),
        verdict.mismatches,
        verdict.rerun,
        phase.wall_s,
        phase.cpu_s,
        phase.steal_frac,
        verify::digest(&phase.records),
    );
    let mut lost_by_status: BTreeMap<String, usize> = BTreeMap::new();
    for r in phase.records.iter() {
        match &r.outcome {
            Outcome::Err(e) | Outcome::Mismatch(e) => println!("  failed job {:?}: {e}", r.job),
            Outcome::Lost => {
                *lost_by_status
                    .entry(format!("{:?}", r.status_at_limit))
                    .or_default() += 1
            }
            _ => {}
        }
    }
    let mut slowest: Vec<&client::Record> = phase
        .records
        .iter()
        .filter(|r| r.report().is_some())
        .collect();
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    for r in slowest.iter().take(3) {
        println!(
            "  slow reply: {:.1} ms (sent at {:.3} s) for {:?}",
            r.latency_ms, r.sent_s, r.job
        );
    }
    if !lost_by_status.is_empty() {
        println!(
            "  lost tickets (unresolved after {} ms) by ServiceHandle::status at the limit: \
             {lost_by_status:?}",
            limit_ms
        );
    }
}

fn end_to_end(args: &Args) -> (Metrics, usize, usize, bool) {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = setup(args);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(built); // the previous set-up is dropped (and stopped)
    }
    let (traffic, handle, warm_failed) = kept.expect("at least one set-up");
    let mut stream = Stream::new(args.workload, args.seed, &traffic);
    // The phase runs until it holds `--seconds` of calm seconds, for at
    // most twice as long: the shared host's bursts of steal last up to a
    // minute or two and, through every parallel fan-out, slow wall-clock
    // figures two to three times more than the stolen share.
    let calm = Duration::from_secs(args.seconds);
    let mut phase = client::run(
        &handle,
        &traffic,
        args.workload,
        &mut stream,
        calm,
        2 * calm,
        None,
    );
    handle.shutdown();
    let verdict = verify::verify(&traffic, &mut phase.records, args.seed);
    let routes = routing::record(&traffic, &phase.records);
    for line in &routes.lines {
        println!("{line}");
    }
    let attempted = phase.records.len();
    let completed = phase.completed();
    println!(
        "setup: {SETUPS} set-ups {:?} s (median reported); warm-up failures {warm_failed}",
        setup_s
    );
    let limit_ms = args.workload.wait_limit_ms();
    describe(args.workload.name(), &phase, &verdict, limit_ms);
    let whole = Figures::whole(&phase);
    let calm = Figures::calm(&phase);
    let calm_count = phase.seconds.iter().filter(|s| s.calm()).count();
    // Too few calm seconds (a host disturbed throughout): the whole phase.
    let use_calm = calm.span_s >= args.seconds as f64 / 2.0 && calm.latencies_ms.len() >= 100;
    let reported = if use_calm { &calm } else { &whole };
    println!(
        "calm seconds (host steal <= {}): {calm_count} of {}; figures reported from the {}; \
         trace.overhead_frac and attrib.unattributed_frac n/a (tracing off)",
        client::CALM_STEAL,
        phase.seconds.len(),
        if use_calm {
            "calm seconds"
        } else {
            "whole phase"
        },
    );
    whole.print("whole phase");
    calm.print("calm seconds");
    let mut m = Metrics::default();
    m.set(
        "throughput_jobs_s",
        reported.replies as f64 / reported.span_s,
    );
    m.set("latency_p50_ms", quantile(&reported.latencies_ms, 0.5));
    m.set("latency_p90_ms", quantile(&reported.latencies_ms, 0.9));
    m.set(
        "cpu_ms_per_job",
        reported.cpu_ms / reported.replies.max(1) as f64,
    );
    m.set("completed_frac", completed as f64 / attempted.max(1) as f64);
    m.set("setup_s", median(&setup_s));
    (m, attempted, attempted - completed, verdict.mismatches == 0)
}

fn traced(args: &Args) -> (Metrics, usize, usize, bool) {
    let ticks = HostTicks::now();
    let (traffic, handle, _) = setup(args);
    let mut stream = Stream::new(args.workload, args.seed, &traffic);
    // Same traffic, half the time untraced and half traced: the
    // difference in wall time per job is the tracing overhead.
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let mut plain = client::run(
        &handle,
        &traffic,
        args.workload,
        &mut stream,
        half,
        half,
        None,
    );
    let mut tr = Tracer::new();
    let mut phase = client::run(
        &handle,
        &traffic,
        args.workload,
        &mut stream,
        half,
        half,
        Some(&mut tr),
    );
    tr.span("serve", "serve.shutdown", 0, |_| handle.shutdown());
    let mut m = Metrics::default();
    layers::run(args.workload, args.seed, &traffic, &mut tr, &mut m);

    let per_job = |p: &Phase| p.wall_s / p.records.len().max(1) as f64;
    m.set(
        "trace.overhead_frac",
        per_job(&phase) / per_job(&plain) - 1.0,
    );
    let wall = tr.wall_ns() as f64;
    let self_ns = tr.self_ns_by_layer();
    let attributed: u64 = self_ns
        .iter()
        .filter(|(layer, _)| **layer != "run")
        .map(|(_, ns)| *ns)
        .sum();
    m.set("attrib.unattributed_frac", 1.0 - attributed as f64 / wall);

    let verdict_plain = verify::verify(&traffic, &mut plain.records, args.seed);
    let verdict = verify::verify(&traffic, &mut phase.records, args.seed);
    let routes = routing::record(&traffic, &phase.records);
    for line in &routes.lines {
        println!("{line}");
    }
    let limit_ms = args.workload.wait_limit_ms();
    describe("untraced half", &plain, &verdict_plain, limit_ms);
    describe("traced half", &phase, &verdict, limit_ms);
    let submit_us: Vec<f64> = phase.records.iter().map(|r| r.submit_us).collect();
    m.set("serve.submit_us_p50", median(&submit_us));
    m.set("serve.overhead_ms_p50", median(&verdict.overhead_ms));
    m.set("serve.lost_tickets", (plain.lost() + phase.lost()) as f64);
    m.set(
        "serve.rejected",
        (plain.rejected() + phase.rejected()) as f64,
    );
    m.set(
        "plan.distinct_circuit_frac",
        distinct_circuit_frac(&phase.records),
    );
    m.set("plan.reroute_frac", routes.reroute_frac);
    m.set("plan.cost_err_p50", routes.cost_err_p50);
    m.set("circuit.ops_removed_frac", ops_removed_frac(&phase.records));
    m.set("host.steal_frac", HostTicks::now().steal_frac_since(&ticks));
    m.set("mem.peak_rss_mb", peak_rss_mb());

    println!(
        "self time by layer over {:.3} s of traced wall ({} spans):",
        wall / 1e9,
        tr.len()
    );
    for (layer, ns) in &self_ns {
        println!(
            "  {layer:<8} {:>10.3} ms  {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall
        );
    }
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{}.csv",
        args.workload.name(),
        args.seed
    ));
    match tr.write_csv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({e})"),
    }
    // Both halves served real requests: a job failed in either counts.
    let attempted = plain.records.len() + phase.records.len();
    let failed = attempted - plain.completed() - phase.completed();
    (
        m,
        attempted,
        failed,
        verdict.mismatches + verdict_plain.mismatches == 0,
    )
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (metrics, attempted, failed, correct) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let spec: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let json = metrics.json(&spec);
    for (name, unit) in &spec {
        println!("  {name:<48} {:>14.6} {unit}", metrics.0[name]);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {json}}}"
    );
}
