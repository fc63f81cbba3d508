//! Online rate calibration for the overlap scheduler.
//!
//! The work-stealing scheduler of [`crate::schedule`] models each engine
//! with a virtual clock; the CPU clock needs a throughput figure
//! (estimated device-words per second) to convert batch cost into model
//! seconds. The configured `StealConfig::cpu_words_per_s` is only the
//! seed: with calibration on, each engine's rate is an **EWMA over
//! observed per-batch rates**, updated after every batch:
//!
//! ```text
//! rate ← (1 − α)·rate + α·(batch_words / observed_batch_seconds),  α = ALPHA
//! ```
//!
//! The GPU side observes [`crate::gpu::GpuRunStats::wall_s`] (simulated
//! exec + modeled pack − double-buffer savings); the CPU side observes the
//! measured host wall seconds of each batch.
//!
//! After every accepted CPU observation the scheduler **rebases** the CPU
//! virtual clock to `words_done / rate`, so a badly seeded early estimate
//! cannot permanently poison the schedule: the clock always reflects the
//! *current* belief about elapsed CPU-engine time, not a sum of stale
//! per-batch guesses. (The GPU clock advances by direct observation and
//! needs no rebase.)

/// EWMA smoothing weight: the fraction of each new observation blended
/// into the estimate.
pub const ALPHA: f64 = 0.5;

/// EWMA throughput estimator in estimated device-words per second.
///
/// ```
/// use locassm::calibrate::RateEstimator;
///
/// let mut est = RateEstimator::seeded(1.0e6);
/// assert_eq!(est.rate_or(0.0), 1.0e6);
///
/// // One observed batch at 3e6 words/s moves the EWMA halfway (ALPHA 0.5).
/// est.observe(3_000_000, 1.0);
/// assert_eq!(est.rate_or(0.0), 2.0e6);
/// assert_eq!(est.updates(), 1);
///
/// // Degenerate observations are rejected, never poisoning the estimate.
/// est.observe(0, 1.0);
/// est.observe(1_000, f64::NAN);
/// assert_eq!(est.updates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RateEstimator {
    seed: Option<f64>,
    rate: Option<f64>,
    updates: u64,
}

impl RateEstimator {
    /// Estimator seeded at `rate` words/s (the CPU engine: its seed is the
    /// configured `cpu_words_per_s`).
    pub fn seeded(rate: f64) -> RateEstimator {
        RateEstimator { seed: Some(rate), rate: Some(rate), updates: 0 }
    }

    /// Estimator with no prior: the first accepted observation becomes the
    /// estimate (the GPU engine: its clock never needed a rate constant,
    /// so there is nothing to seed from).
    pub fn unseeded() -> RateEstimator {
        RateEstimator { seed: None, rate: None, updates: 0 }
    }

    /// Feed one observed batch: `words` of estimated cost retired in
    /// `seconds`. Degenerate observations (zero words, non-positive or
    /// non-finite seconds, non-finite rate) are rejected — a paused or
    /// faulted batch must not poison the estimate.
    pub fn observe(&mut self, words: u64, seconds: f64) {
        if words == 0 || !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        let obs = words as f64 / seconds;
        if !obs.is_finite() || obs <= 0.0 {
            return;
        }
        self.rate = Some(match self.rate {
            None => obs,
            Some(r) => (1.0 - ALPHA) * r + ALPHA * obs,
        });
        self.updates += 1;
    }

    /// Current estimate, or `fallback` when nothing has been seeded or
    /// observed yet.
    pub fn rate_or(&self, fallback: f64) -> f64 {
        self.rate.unwrap_or(fallback)
    }

    /// The seed rate, if any.
    pub fn seed(&self) -> Option<f64> {
        self.seed
    }

    /// Accepted observations so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

/// What the calibration loop did during one scheduled run — threaded
/// through [`crate::schedule::ScheduleReport`] to the `mhm` report/CLI and
/// the fig11 harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationReport {
    /// Whether the feedback loop was active (off = the run used the seed
    /// rate as a constant, and the fields below only record observations).
    pub enabled: bool,
    /// The CPU rate the run was seeded with (words/s).
    pub cpu_seed_words_per_s: f64,
    /// Converged CPU rate estimate at the end of the run.
    pub cpu_words_per_s: f64,
    /// Converged GPU rate estimate (words/s over `wall_s`); 0.0 when the
    /// GPU engine never completed a batch.
    pub gpu_words_per_s: f64,
    /// Accepted CPU observations.
    pub cpu_updates: u64,
    /// Accepted GPU observations.
    pub gpu_updates: u64,
    /// Realized CPU-engine seconds: the sum of measured batch wall times.
    pub cpu_realized_s: f64,
    /// Realized GPU-engine seconds (sum of observed `wall_s` per batch).
    pub gpu_realized_s: f64,
    /// Relative error of the virtual-clock makespan against the realized
    /// makespan: |model − realized| / realized. Small values mean the
    /// calibrated clocks track reality.
    pub rel_err_vs_realized: f64,
}

impl CalibrationReport {
    /// Realized overlap makespan: both engines run concurrently, so the
    /// run "really" ends when the slower engine's observed time does.
    ///
    /// ```
    /// use locassm::calibrate::CalibrationReport;
    ///
    /// let r = CalibrationReport {
    ///     cpu_realized_s: 2.0,
    ///     gpu_realized_s: 3.5,
    ///     ..CalibrationReport::default()
    /// };
    /// assert_eq!(r.realized_makespan_s(), 3.5);
    /// ```
    pub fn realized_makespan_s(&self) -> f64 {
        self.cpu_realized_s.max(self.gpu_realized_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_estimator_converges_monotonically_to_truth() {
        // Constant-truth observations: the EWMA error must shrink at every
        // update, from either side of the truth.
        for seed in [1e6, 1e9] {
            let truth = 1e8f64;
            let mut est = RateEstimator::seeded(seed);
            let mut prev_err = (seed - truth).abs();
            for _ in 0..20 {
                est.observe(1_000_000, 1_000_000.0 / truth);
                let err = (est.rate_or(0.0) - truth).abs();
                assert!(err < prev_err, "error must shrink: {err} !< {prev_err}");
                prev_err = err;
            }
            assert!(prev_err / truth < 1e-4, "20 updates must converge: {prev_err:e}");
            assert_eq!(est.updates(), 20);
        }
    }

    #[test]
    fn unseeded_estimator_adopts_first_observation() {
        let mut est = RateEstimator::unseeded();
        assert_eq!(est.rate_or(42.0), 42.0, "no prior: fallback");
        est.observe(500, 2.0);
        assert!((est.rate_or(0.0) - 250.0).abs() < 1e-12, "first obs adopted whole");
        est.observe(1000, 2.0);
        // (1-α)·250 + α·500 = 375
        assert!((est.rate_or(0.0) - 375.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_observations_rejected() {
        let mut est = RateEstimator::seeded(100.0);
        est.observe(0, 1.0); // zero words
        est.observe(10, 0.0); // zero time
        est.observe(10, -1.0); // negative time
        est.observe(10, f64::NAN); // NaN time
        est.observe(10, f64::INFINITY); // rate would be 0... inf seconds
        assert_eq!(est.updates(), 0, "no degenerate observation may count");
        assert_eq!(est.rate_or(0.0), 100.0, "estimate untouched");
    }

    #[test]
    fn report_realized_makespan_is_the_slower_engine() {
        let r =
            CalibrationReport { cpu_realized_s: 2.0, gpu_realized_s: 3.5, ..Default::default() };
        assert_eq!(r.realized_makespan_s(), 3.5);
    }
}
