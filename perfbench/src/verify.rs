//! Output verification and the per-run output digest.
//!
//! Every histogram must total its shot count. A fixed seeded sample of
//! served histogram jobs is re-run standalone through
//! `ExecutionPlan::run(reps, seed)` on the served plan and must be
//! bit-identical; every served expectation must equal a standalone
//! `ExecutionPlan::expectation` exactly. A mismatch turns the job into a
//! failure.

use crate::client::{Outcome, Record};
use crate::traffic::{Job, Traffic};
use bgls_core::RunResult;
use bgls_plan::{plan, Deliverable, ExecutionPlan, JobReport, PlannerConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Histogram jobs re-run standalone per phase, at most.
const RERUN_SAMPLE: usize = 12;
/// Jobs folded into the output digest (the first ones by submission).
const DIGEST_JOBS: usize = 64;

#[derive(Default)]
pub struct Verdict {
    /// Outputs compared against a standalone execution.
    pub rerun: usize,
    /// Outputs that failed a check.
    pub mismatches: usize,
    /// Served latency minus standalone execution time (none for a
    /// cache hit), per re-run job.
    pub overhead_ms: Vec<f64>,
}

/// Whether job `index` belongs to the seeded re-run sample.
fn in_sample(seed: u64, index: usize) -> bool {
    let mut h = DefaultHasher::new();
    (seed, index as u64).hash(&mut h);
    h.finish().is_multiple_of(8)
}

/// The standalone plan the service served `report` from: the cold plan
/// with the served backend (a warm cost model may pick another backend
/// for the same path; nothing else in the plan depends on it).
fn served_plan(
    traffic: &Traffic,
    job: &Job,
    report: &JobReport,
) -> Result<(ExecutionPlan, Deliverable), String> {
    let (circuit, deliverable) = traffic.resolved(job);
    let mut p =
        plan(&circuit, &deliverable, &PlannerConfig::default()).map_err(|e| e.to_string())?;
    if p.path != report.path {
        return Err(format!(
            "served path {} but the cold plan takes {}",
            report.path, p.path
        ));
    }
    p.backend = report.backend;
    Ok((p, deliverable))
}

fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.keys() == b.keys()
        && a.keys().iter().all(|k| {
            a.histogram(k).map(|h| h.iter_sorted()) == b.histogram(k).map(|h| h.iter_sorted())
        })
}

/// Checks one served output against a standalone run; returns the
/// standalone execution time.
fn check(traffic: &Traffic, job: &Job, report: &JobReport) -> Result<f64, String> {
    let (p, deliverable) = served_plan(traffic, job, report)?;
    let started = Instant::now();
    match (job, deliverable) {
        (Job::Sample { seed, .. }, Deliverable::Histogram { repetitions }) => {
            let standalone = p.run(repetitions, Some(*seed)).map_err(|e| e.to_string())?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let served = report
                .histogram()
                .ok_or("histogram job served no histogram")?;
            if same_result(served, &standalone) {
                Ok(ms)
            } else {
                Err("served histogram differs from the standalone run".into())
            }
        }
        (Job::Expect { .. }, Deliverable::Expectation { observable }) => {
            let standalone = p.expectation(&observable).map_err(|e| e.to_string())?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let served = report
                .expectation()
                .ok_or("expectation job served no value")?;
            if served.to_bits() == standalone.to_bits() {
                Ok(ms)
            } else {
                Err(format!("served {served:e}, standalone {standalone:e}"))
            }
        }
        _ => Err("deliverable does not match the job".into()),
    }
}

fn shot_totals_ok(traffic: &Traffic, job: &Job, report: &JobReport) -> bool {
    match (*job, report.histogram()) {
        (Job::Sample { class, .. }, Some(result)) => {
            let reps = traffic.classes[class].reps;
            !result.keys().is_empty()
                && result
                    .keys()
                    .iter()
                    .all(|k| result.histogram(k).map(|h| h.total()) == Some(reps))
        }
        (Job::Expect { .. }, None) => report.expectation().is_some(),
        _ => false,
    }
}

/// Verifies a phase's records in place (failed checks become
/// [`Outcome::Mismatch`]). `seed` picks the re-run sample.
pub fn verify(traffic: &Traffic, records: &mut [Record], seed: u64) -> Verdict {
    let mut verdict = Verdict::default();
    // records to re-run standalone
    let mut todo: Vec<usize> = Vec::new();
    let mut sampled = 0;
    for (i, r) in records.iter_mut().enumerate() {
        let Outcome::Ok(report) = &r.outcome else {
            continue;
        };
        if !shot_totals_ok(traffic, &r.job, report) {
            r.outcome = Outcome::Mismatch("output does not total its shots".into());
            verdict.mismatches += 1;
            continue;
        }
        let rerun = match r.job {
            Job::Expect { .. } => true,
            Job::Sample { .. } => sampled < RERUN_SAMPLE && in_sample(seed, i),
        };
        if rerun {
            sampled += matches!(r.job, Job::Sample { .. }) as usize;
            todo.push(i);
        }
    }
    // Standalone re-execution, one job at a time, so the standalone time
    // that `overhead_ms` subtracts is not inflated by contention.
    let checked: Vec<(usize, Result<f64, String>)> = todo
        .into_iter()
        .map(|i| {
            let r = &records[i];
            let report = r.report().expect("only served records are re-run");
            (i, check(traffic, &r.job, report))
        })
        .collect();
    for (i, result) in checked {
        verdict.rerun += 1;
        match result {
            Ok(ms) => {
                // a hot-set job is a cache hit: it executes nothing
                let executed_ms = if traffic.hot.contains(&records[i].job) {
                    0.0
                } else {
                    ms
                };
                verdict
                    .overhead_ms
                    .push(records[i].latency_ms - executed_ms);
            }
            Err(why) => {
                records[i].outcome = Outcome::Mismatch(why);
                verdict.mismatches += 1;
            }
        }
    }
    verdict
}

/// Hash of the first [`DIGEST_JOBS`] served outputs, in submission
/// order: runs of one commit with one seed can be compared by it (a
/// class the warm cost model may route either way can change it).
pub fn digest(records: &[Record]) -> u64 {
    let mut h = DefaultHasher::new();
    for (i, r) in records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.report().is_some())
        .take(DIGEST_JOBS)
    {
        i.hash(&mut h);
        let report = r.report().expect("filtered to served records");
        if let Some(result) = report.histogram() {
            for k in result.keys() {
                k.hash(&mut h);
                if let Some(hist) = result.histogram(k) {
                    for (bits, count) in hist.iter_sorted() {
                        bits.as_u64().hash(&mut h);
                        count.hash(&mut h);
                    }
                }
            }
        }
        if let Some(v) = report.expectation() {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}
