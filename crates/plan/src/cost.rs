//! Timing-calibrated planner cost model.
//!
//! The planner's static formulas (`ops * 2^n` for dense statevector,
//! `ops * n * chi^3` for the chain MPS, ...) predict *relative* cost
//! well enough for cold routing, but their constants are fictions: a
//! cache-friendly dense sweep and a pointer-chasing MPS contraction do
//! not cost the same per abstract "unit". [`CostModel`] keeps the
//! static formulas as priors and calibrates a per-`(backend, path)`
//! milliseconds-per-unit constant online from the wall-clock batch
//! timings the service already measures, using an exponentially
//! weighted moving average.
//!
//! Cold behaviour is *identical* to the static model: until a bucket
//! has seen [`CostModel::warmup`] observations, [`CostModel::predict_ms`]
//! returns `None` and routing falls back to the static cost comparison,
//! so fresh services plan exactly like before calibration existed.

use crate::planner::ExecPath;
use crate::profile::CircuitProfile;
use bgls_backend::BackendKind;
use bgls_linalg::FxHashMap;

/// Default EWMA smoothing factor: each new observation contributes 30%.
const DEFAULT_ALPHA: f64 = 0.3;

/// Default observations before a bucket's calibration is trusted.
const DEFAULT_WARMUP: u32 = 3;

/// One calibrated `(backend, path)` bucket.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// EWMA of measured milliseconds per static cost unit.
    ms_per_unit: f64,
    /// Observations folded in so far.
    samples: u32,
}

/// Online-calibrated execution-cost model: static per-backend formulas
/// as priors, EWMA-calibrated `ms/unit` constants per `(backend, path)`
/// bucket once real timings arrive.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// EWMA smoothing factor in `(0, 1]`; higher adapts faster.
    pub alpha: f64,
    /// Observations a bucket needs before predictions are trusted.
    pub warmup: u32,
    buckets: FxHashMap<(&'static str, ExecPath), Bucket>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: DEFAULT_ALPHA,
            warmup: DEFAULT_WARMUP,
            buckets: FxHashMap::default(),
        }
    }
}

/// Calibration bucket name for a backend: the MPS cap and other
/// parameters are folded into the unit formula, not the bucket key, so
/// observations aggregate across capped and uncapped runs.
fn bucket_name(backend: &BackendKind) -> &'static str {
    match backend {
        BackendKind::StateVector => "statevector",
        BackendKind::DensityMatrix => "density",
        BackendKind::ChForm => "chform",
        BackendKind::ChainMps { .. } => "mps",
        BackendKind::LazyNetwork => "lazy",
        BackendKind::Tableau => "tableau",
        BackendKind::PurifiedMps { .. } => "pmps",
    }
}

impl CostModel {
    /// A cold model with the default smoothing and warm-up.
    pub fn new() -> Self {
        CostModel::default()
    }

    /// The static prior: abstract cost units for running `profile` once
    /// on `backend`. These are the planner's original formulas — only
    /// their *ratios* matter for routing; [`CostModel::observe`] learns
    /// the real milliseconds-per-unit scale.
    pub fn static_units(profile: &CircuitProfile, backend: &BackendKind) -> f64 {
        let ops = profile.num_operations.max(1) as f64;
        let n = profile.num_qubits.max(1) as f64;
        let chi = (profile.chi_bound() as f64).max(1.0);
        match backend {
            BackendKind::StateVector => ops * 2f64.powi(profile.num_qubits.min(60) as i32),
            BackendKind::DensityMatrix => ops * 4f64.powi(profile.num_qubits.min(30) as i32),
            BackendKind::ChainMps { chi: cap } => {
                let chi = cap.map(|c| (c as f64).min(chi)).unwrap_or(chi);
                ops * n * chi * chi * chi
            }
            BackendKind::LazyNetwork => ops * n * chi * chi,
            BackendKind::ChForm | BackendKind::Tableau => ops * n * n,
            BackendKind::PurifiedMps {
                chi: cap,
                kraus_dim,
            } => {
                let chi = cap.map(|c| (c as f64).min(chi)).unwrap_or(chi);
                // every contraction also sweeps the Kraus legs; without a
                // configured cap assume one single-qubit channel's growth
                // (4 Kraus operators) as the per-site prior
                let kappa = kraus_dim.map(|k| k as f64).unwrap_or(4.0);
                ops * n * chi * chi * chi * kappa
            }
        }
    }

    /// Folds one measured batch into the `(backend, path)` bucket:
    /// `units` is the static cost of the work actually executed
    /// (circuit units x repetitions), `elapsed_ms` its wall-clock time.
    /// Non-finite or non-positive observations are ignored.
    pub fn observe(&mut self, backend: &BackendKind, path: ExecPath, units: f64, elapsed_ms: f64) {
        if !units.is_finite() || units <= 0.0 || !elapsed_ms.is_finite() || elapsed_ms < 0.0 {
            return;
        }
        let rate = elapsed_ms / units;
        let entry = self
            .buckets
            .entry((bucket_name(backend), path))
            .or_insert(Bucket {
                ms_per_unit: rate,
                samples: 0,
            });
        entry.ms_per_unit += self.alpha * (rate - entry.ms_per_unit);
        entry.samples = entry.samples.saturating_add(1);
    }

    /// Calibrated wall-clock prediction in milliseconds for running
    /// `units` of work on `(backend, path)`, or `None` while the bucket
    /// is still inside its warm-up window (callers fall back to the
    /// static comparison — cold routing is unchanged by construction).
    pub fn predict_ms(&self, backend: &BackendKind, path: ExecPath, units: f64) -> Option<f64> {
        let b = self.buckets.get(&(bucket_name(backend), path))?;
        (b.samples >= self.warmup).then_some(b.ms_per_unit * units)
    }

    /// Observation count for a `(backend, path)` bucket.
    pub fn samples(&self, backend: &BackendKind, path: ExecPath) -> u32 {
        self.buckets
            .get(&(bucket_name(backend), path))
            .map(|b| b.samples)
            .unwrap_or(0)
    }

    /// True when both `a` and `b` have warmed-up buckets on `path`, i.e.
    /// a calibrated comparison between them is meaningful.
    pub fn can_compare(&self, a: &BackendKind, b: &BackendKind, path: ExecPath) -> bool {
        self.predict_ms(a, path, 1.0).is_some() && self.predict_ms(b, path, 1.0).is_some()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    use bgls_circuit::Circuit;

    fn profile(n: usize, ops: usize) -> CircuitProfile {
        let mut p = CircuitProfile::of(&Circuit::new());
        p.num_qubits = n;
        p.num_operations = ops;
        p
    }

    #[test]
    fn cold_model_predicts_nothing() {
        let m = CostModel::new();
        assert_eq!(
            m.predict_ms(&BackendKind::StateVector, ExecPath::SampleParallel, 1e6),
            None
        );
        assert!(!m.can_compare(
            &BackendKind::StateVector,
            &BackendKind::ChainMps { chi: None },
            ExecPath::SampleParallel
        ));
    }

    #[test]
    fn warmup_gates_predictions() {
        let mut m = CostModel::new();
        let sv = BackendKind::StateVector;
        for _ in 0..m.warmup - 1 {
            m.observe(&sv, ExecPath::SampleParallel, 1000.0, 5.0);
        }
        assert_eq!(m.predict_ms(&sv, ExecPath::SampleParallel, 1000.0), None);
        m.observe(&sv, ExecPath::SampleParallel, 1000.0, 5.0);
        let p = m
            .predict_ms(&sv, ExecPath::SampleParallel, 1000.0)
            .expect("warmed up");
        assert!((p - 5.0).abs() < 1e-9, "constant-rate stream: {p}");
    }

    #[test]
    fn ewma_tracks_drifting_rates() {
        let mut m = CostModel::new();
        let sv = BackendKind::StateVector;
        for _ in 0..10 {
            m.observe(&sv, ExecPath::SampleParallel, 1000.0, 2.0);
        }
        for _ in 0..30 {
            m.observe(&sv, ExecPath::SampleParallel, 1000.0, 8.0);
        }
        let p = m.predict_ms(&sv, ExecPath::SampleParallel, 1000.0).unwrap();
        assert!(p > 7.0 && p < 8.5, "EWMA should approach the new rate: {p}");
    }

    #[test]
    fn mps_cap_buckets_aggregate() {
        let mut m = CostModel::new();
        let capped = BackendKind::ChainMps { chi: Some(4) };
        let uncapped = BackendKind::ChainMps { chi: None };
        for _ in 0..3 {
            m.observe(&capped, ExecPath::Replay, 100.0, 1.0);
        }
        assert!(m.predict_ms(&uncapped, ExecPath::Replay, 100.0).is_some());
    }

    #[test]
    fn static_units_preserve_the_planner_ratios() {
        let p = profile(20, 50);
        let sv = CostModel::static_units(&p, &BackendKind::StateVector);
        let mut narrow = profile(8, 50);
        narrow.log2_chi_bound = 1;
        let mps = CostModel::static_units(&narrow, &BackendKind::ChainMps { chi: Some(2) });
        assert!(sv > mps, "wide dense must dominate a chi-2 chain");
        assert!(CostModel::static_units(&p, &BackendKind::Tableau) < sv);
    }

    #[test]
    fn bad_observations_are_ignored() {
        let mut m = CostModel::new();
        let sv = BackendKind::StateVector;
        m.observe(&sv, ExecPath::Replay, 0.0, 5.0);
        m.observe(&sv, ExecPath::Replay, 100.0, f64::NAN);
        m.observe(&sv, ExecPath::Replay, -5.0, 5.0);
        assert_eq!(m.samples(&sv, ExecPath::Replay), 0);
    }
}
