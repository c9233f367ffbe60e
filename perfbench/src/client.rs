//! The closed-loop client: one thread driving a [`ServiceHandle`].
//!
//! Every wait is bounded. A ticket still unresolved at its workload's
//! [`Workload::wait_limit_ms`] after submission is given up and counted as
//! lost (a failed job);
//! it never costs the client more than that limit, because the client
//! keeps serving its other tickets meanwhile.

use crate::sys::{cpu_seconds, HostTicks};
use crate::trace::Tracer;
use crate::traffic::{Job, Stream, Traffic, Workload};
use bgls_plan::{JobReport, JobStatus, ServiceHandle, Ticket};
use std::time::{Duration, Instant};

pub enum Outcome {
    Ok(JobReport),
    /// The service resolved the ticket with an error.
    Err(String),
    /// Unresolved at the wait limit.
    Lost,
    /// `submit` refused the request.
    Rejected,
    /// Served, but the output failed verification.
    Mismatch(String),
}

pub struct Record {
    pub job: Job,
    /// Submission time, seconds after the phase started.
    pub sent_s: f64,
    pub latency_ms: f64,
    pub submit_us: f64,
    pub outcome: Outcome,
    /// What `ServiceHandle::status` reported when the ticket was given up.
    pub status_at_limit: Option<JobStatus>,
}

impl Record {
    pub fn report(&self) -> Option<&JobReport> {
        match &self.outcome {
            Outcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Host steal (a share of all the host's CPU ticks) above which a second
/// of a timed phase counts as disturbed. On a shared 2-vCPU VM about four
/// seconds in five read at most 0.02; the host's bursts of steal, which
/// last from seconds to a minute or two, read 0.05-0.4.
pub const CALM_STEAL: f64 = 0.03;

/// One second of a timed phase while the client was submitting.
pub struct Second {
    /// Start and end, seconds after the phase started.
    pub from_s: f64,
    pub to_s: f64,
    /// Process CPU over the second.
    pub cpu_s: f64,
    pub steal: f64,
}

impl Second {
    pub fn calm(&self) -> bool {
        self.steal <= CALM_STEAL
    }
}

/// One timed phase of the closed loop.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_frac: f64,
    /// The phase's seconds up to the end of submission, in order.
    pub seconds: Vec<Second>,
}

impl Phase {
    pub fn count(&self, pred: impl Fn(&Outcome) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.outcome)).count()
    }

    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Ok(_)))
    }

    pub fn lost(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Lost))
    }

    pub fn rejected(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Rejected))
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Ok(_)))
            .map(|r| r.latency_ms)
            .collect()
    }
}

struct Flight {
    record: usize,
    ticket: Ticket,
    sent: Instant,
}

fn settle(records: &mut [Record], flight: &Flight, result: Result<JobReport, bgls_core::SimError>) {
    let r = &mut records[flight.record];
    r.latency_ms = flight.sent.elapsed().as_secs_f64() * 1e3;
    r.outcome = match result {
        Ok(report) => Outcome::Ok(report),
        Err(e) => Outcome::Err(e.to_string()),
    };
}

/// Submits `job`; on acceptance the ticket joins `inflight`.
fn send(
    handle: &ServiceHandle,
    traffic: &Traffic,
    job: Job,
    records: &mut Vec<Record>,
    inflight: &mut Vec<Flight>,
    tracer: &mut Option<&mut Tracer>,
    start: Instant,
) {
    let request = traffic.request(&job);
    let index = records.len();
    let span = tracer
        .as_mut()
        .map(|t| t.begin("serve", "serve.submit", index as u64));
    let sent = Instant::now();
    let submitted = handle.submit(request);
    let submit_us = sent.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
    let outcome = match &submitted {
        Ok(_) => Outcome::Lost, // placeholder until the ticket resolves
        Err(_) => Outcome::Rejected,
    };
    records.push(Record {
        job,
        sent_s: sent.duration_since(start).as_secs_f64(),
        latency_ms: 0.0,
        submit_us,
        outcome,
        status_at_limit: None,
    });
    if let Ok(ticket) = submitted {
        inflight.push(Flight {
            record: index,
            ticket,
            sent,
        });
    }
}

/// Collects every resolved ticket (and gives up on expired ones); when
/// none has resolved, blocks up to a millisecond on the oldest.
fn reap(
    handle: &ServiceHandle,
    records: &mut [Record],
    inflight: &mut Vec<Flight>,
    limit: Duration,
) {
    let mut progressed = false;
    let mut i = 0;
    while i < inflight.len() {
        match handle.wait_timeout(inflight[i].ticket, 0) {
            Some(result) => {
                let f = inflight.remove(i);
                settle(records, &f, result);
                progressed = true;
            }
            None if inflight[i].sent.elapsed() >= limit => {
                // stays `Outcome::Lost`
                let f = inflight.remove(i);
                records[f.record].status_at_limit = Some(handle.status(f.ticket));
                progressed = true;
            }
            None => i += 1,
        }
    }
    if !progressed {
        if let Some(first) = inflight.first() {
            if let Some(result) = handle.wait_timeout(first.ticket, 1) {
                let f = inflight.remove(0);
                settle(records, &f, result);
            }
        }
    }
}

/// Drives `stream` through `handle`, keeping the workload's window of
/// tickets in flight (`qaoa_sweep`: whole grid steps, the next one only
/// after the last ticket of the previous step is back), until the phase
/// holds `calm` worth of calm seconds (see [`CALM_STEAL`]) or has lasted
/// `cap`, then drains what is still in flight. The phase ends when the
/// last ticket resolves or is given up.
pub fn run(
    handle: &ServiceHandle,
    traffic: &Traffic,
    workload: Workload,
    stream: &mut Stream,
    calm: Duration,
    cap: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let root = tracer.as_mut().map(|t| t.begin("run", "run.serve_loop", 0));
    let ticks = HostTicks::now();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let end = start + cap;
    let mut seconds: Vec<Second> = Vec::new();
    let mut mark = (0.0, cpu0, ticks);
    let mut calm_s = 0.0;
    let window = workload.window();
    let limit = Duration::from_millis(workload.wait_limit_ms());
    let mut records: Vec<Record> = Vec::new();
    let mut inflight: Vec<Flight> = Vec::new();
    loop {
        let now_s = start.elapsed().as_secs_f64();
        let submitting = Instant::now() < end && calm_s < calm.as_secs_f64();
        if submitting && now_s - mark.0 >= 1.0 {
            let (cpu, host) = (cpu_seconds(), HostTicks::now());
            let second = Second {
                from_s: mark.0,
                to_s: now_s,
                cpu_s: cpu - mark.1,
                steal: host.steal_frac_since(&mark.2),
            };
            if second.calm() {
                calm_s += second.to_s - second.from_s;
            }
            seconds.push(second);
            mark = (now_s, cpu, host);
            continue;
        }
        if submitting {
            let room = match workload {
                Workload::QaoaSweep => inflight.is_empty(),
                _ => inflight.len() < window,
            };
            if room {
                for job in stream.next_batch() {
                    let t = &mut tracer;
                    send(handle, traffic, job, &mut records, &mut inflight, t, start);
                }
                continue;
            }
        }
        if inflight.is_empty() {
            break;
        }
        // The client's waits belong to the client (`run`), not to `serve`:
        // the work it waits for happens on the service's worker threads.
        let poll = tracer.as_mut().map(|t| t.begin("run", "run.wait", 0));
        reap(handle, &mut records, &mut inflight, limit);
        if let (Some(t), Some(id)) = (tracer.as_mut(), poll) {
            t.end(id);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let steal_frac = HostTicks::now().steal_frac_since(&ticks);
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.end(id);
    }
    Phase {
        records,
        wall_s,
        cpu_s,
        steal_frac,
        seconds,
    }
}

/// Submits `jobs` together and waits for all of them (bounded); returns
/// how many did not come back `Ok`.
pub fn run_unit(handle: &ServiceHandle, traffic: &Traffic, jobs: &[Job], limit_ms: u64) -> usize {
    let tickets: Vec<Option<Ticket>> = jobs
        .iter()
        .map(|j| handle.submit(traffic.request(j)).ok())
        .collect();
    tickets
        .into_iter()
        .filter(|t| match t {
            Some(t) => !matches!(handle.wait_timeout(*t, limit_ms), Some(Ok(_))),
            None => true,
        })
        .count()
}
