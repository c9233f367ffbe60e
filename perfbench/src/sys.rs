//! Host readings from `/proc` and small statistics helpers.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const CLOCK_TICKS: f64 = 100.0;

/// Process CPU time (user + system, all threads, including exited ones)
/// in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name may contain spaces: fields restart after ')'
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    // fields 14 (utime) and 15 (stime), counted from field 3 (state)
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / CLOCK_TICKS,
        _ => 0.0,
    }
}

/// Aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal, total)` in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let line = text.lines().next().unwrap_or("");
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user)
        let total = v.iter().take(8).sum();
        HostTicks {
            steal: v.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The `q`-quantile (`0..=1`) of `values`, interpolating linearly
/// between order statistics; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
