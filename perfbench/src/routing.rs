//! The routing and cost-model record: each class's served
//! `(backend, path)` from its `JobReport`s next to a cold `plan()`.

use crate::client::Record;
use crate::sys::median;
use crate::traffic::{Job, Traffic};
use bgls_plan::{plan, PlannerConfig};
use std::collections::BTreeMap;

pub struct Routing {
    /// Served jobs whose backend or path differs from the cold plan.
    pub reroute_frac: f64,
    /// Median of `|predicted_ms - measured_ms| / measured_ms`.
    pub cost_err_p50: f64,
    pub lines: Vec<String>,
}

/// The cold plan's route for `job` as `backend/path` text.
fn cold_route(traffic: &Traffic, job: &Job) -> String {
    let (circuit, deliverable) = traffic.resolved(job);
    match plan(&circuit, &deliverable, &PlannerConfig::default()) {
        Ok(p) => format!("{}/{}", p.backend.name(), p.path),
        Err(e) => format!("unplannable ({e})"),
    }
}

/// Cold-plan memo key: one entry per distinct circuit (a QAOA graph's
/// bindings all route alike).
fn circuit_key(job: &Job) -> (usize, usize) {
    match *job {
        Job::Sample { class, inst, .. } => (class, inst),
        Job::Expect { graph, .. } => (usize::MAX, graph),
    }
}

pub fn record(traffic: &Traffic, records: &[Record]) -> Routing {
    let mut cold: BTreeMap<(usize, usize), String> = BTreeMap::new();
    // class -> served route -> jobs, plus the class's cold routes
    let mut served: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    let mut colds: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    let mut rerouted = 0usize;
    let mut total = 0usize;
    let mut errs = Vec::new();
    for r in records {
        let Some(report) = r.report() else { continue };
        let key = circuit_key(&r.job);
        let cold_route = cold
            .entry(key)
            .or_insert_with(|| cold_route(traffic, &r.job))
            .clone();
        let route = format!("{}/{}", report.backend.name(), report.path);
        let label = traffic.label(&r.job);
        total += 1;
        rerouted += (route != cold_route) as usize;
        *served.entry(label).or_default().entry(route).or_default() += 1;
        *colds
            .entry(label)
            .or_default()
            .entry(cold_route)
            .or_default() += 1;
        if let (Some(p), Some(m)) = (report.predicted_ms, report.measured_ms) {
            if m > 0.0 {
                errs.push((p - m).abs() / m);
            }
        }
    }
    let mut lines = vec![
        "routing: class, served backend/path (jobs), cold plan() backend/path (jobs)".to_string(),
    ];
    for (label, routes) in &served {
        let fmt = |m: &BTreeMap<String, usize>| {
            m.iter()
                .map(|(r, n)| format!("{r} x{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        lines.push(format!(
            "  {label:<13} served {:<40} cold {}",
            fmt(routes),
            fmt(&colds[label])
        ));
    }
    lines.push(
        "  (measured_ms is apportioned from a batch's wall time by static cost units, \
         not measured per job)"
            .to_string(),
    );
    Routing {
        reroute_frac: if total == 0 {
            0.0
        } else {
            rerouted as f64 / total as f64
        },
        cost_err_p50: median(&errs),
        lines,
    }
}
