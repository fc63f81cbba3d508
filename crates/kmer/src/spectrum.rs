//! K-mer frequency spectra: the count-of-counts histogram assemblers use
//! to separate sequencing errors from genuine genomic k-mers and to
//! estimate coverage.
//!
//! For shotgun data the spectrum is bimodal: a spike at multiplicity 1–2
//! (error k-mers, which are nearly all unique) and a Poisson-like hump
//! centred on the per-base k-mer coverage. [`Spectrum::error_cutoff`] finds
//! the valley between them — the data-driven version of the paper's
//! "filter k-mers that occur only once".

/// A k-mer multiplicity histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spectrum {
    /// `counts[m]` = number of distinct k-mers with multiplicity `m`
    /// (index 0 unused). Multiplicities beyond the vector saturate into the
    /// last bucket.
    counts: Vec<u64>,
}

impl Spectrum {
    /// Empty spectrum tracking multiplicities up to `max_multiplicity`.
    pub fn new(max_multiplicity: usize) -> Spectrum {
        Spectrum { counts: vec![0; max_multiplicity.max(2) + 1] }
    }

    /// Build from an iterator of per-k-mer multiplicities.
    pub fn from_multiplicities(iter: impl IntoIterator<Item = u32>, max_m: usize) -> Spectrum {
        let mut s = Spectrum::new(max_m);
        for m in iter {
            s.record(m);
        }
        s
    }

    /// Record one distinct k-mer with multiplicity `m`.
    pub fn record(&mut self, m: u32) {
        let idx = (m as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of distinct k-mers with multiplicity `m` (saturating bucket
    /// at the top).
    pub fn at(&self, m: usize) -> u64 {
        self.counts.get(m).copied().unwrap_or(0)
    }

    /// Total distinct k-mers recorded.
    pub fn distinct(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total k-mer instances represented (Σ m·count\[m\], saturated top
    /// bucket counted at its index).
    pub fn total_instances(&self) -> u64 {
        self.counts.iter().enumerate().map(|(m, &c)| m as u64 * c).sum()
    }

    /// The first local minimum after multiplicity 1 — the error/genuine
    /// valley. Returns `None` for spectra with no visible valley (e.g.
    /// error-free data, where 1 is already genuine).
    pub fn error_cutoff(&self) -> Option<u32> {
        // Find the first m where the histogram stops falling and starts
        // rising again; require an actual rise to call it a valley.
        let n = self.counts.len();
        for m in 2..n - 1 {
            if self.at(m) <= self.at(m - 1) && self.at(m) < self.at(m + 1) {
                return Some(m as u32);
            }
        }
        None
    }

    /// The multiplicity of the genuine-coverage peak: the mode after the
    /// error valley (or after 1 if no valley).
    pub fn coverage_peak(&self) -> Option<u32> {
        let start = self.error_cutoff().unwrap_or(1) as usize + 1;
        let n = self.counts.len();
        (start..n).max_by_key(|&m| self.at(m)).filter(|&m| self.at(m) > 0).map(|m| m as u32)
    }

    /// Histogram rows `(multiplicity, count)` for display, skipping empty
    /// tail buckets.
    pub fn rows(&self) -> Vec<(usize, u64)> {
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        (1..=last).map(|m| (m, self.counts[m])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic bimodal spectrum: error spike at 1, coverage hump at 20.
    fn bimodal() -> Spectrum {
        let mut s = Spectrum::new(64);
        // Error spike.
        for _ in 0..10_000 {
            s.record(1);
        }
        for _ in 0..800 {
            s.record(2);
        }
        for _ in 0..120 {
            s.record(3);
        }
        // Poisson-ish hump around 20.
        for m in 4..=40u32 {
            let d = (m as f64 - 20.0) / 6.0;
            let c = (3000.0 * (-0.5 * d * d).exp()) as u32;
            for _ in 0..c {
                s.record(m);
            }
        }
        s
    }

    #[test]
    fn records_and_totals() {
        let s = Spectrum::from_multiplicities([1, 1, 2, 5, 5, 5], 10);
        assert_eq!(s.at(1), 2);
        assert_eq!(s.at(2), 1);
        assert_eq!(s.at(5), 3);
        assert_eq!(s.distinct(), 6);
        assert_eq!(s.total_instances(), 2 + 2 + 15);
    }

    #[test]
    fn saturating_top_bucket() {
        let s = Spectrum::from_multiplicities([100, 200, 3], 10);
        assert_eq!(s.at(10), 2, "overflow multiplicities collapse into the top");
        assert_eq!(s.at(3), 1);
    }

    #[test]
    fn valley_found_in_bimodal() {
        let s = bimodal();
        let cutoff = s.error_cutoff().expect("bimodal must have a valley");
        assert!(
            (3..=6).contains(&cutoff),
            "valley should sit between spike and hump, got {cutoff}"
        );
        let peak = s.coverage_peak().expect("hump exists");
        assert!((18..=22).contains(&peak), "peak ≈ 20, got {peak}");
    }

    #[test]
    fn monotone_spectrum_has_no_valley() {
        let mut s = Spectrum::new(16);
        for m in 1..=16u32 {
            for _ in 0..(1000 / m) {
                s.record(m);
            }
        }
        assert_eq!(s.error_cutoff(), None);
    }

    #[test]
    fn rows_skip_empty_tail() {
        let s = Spectrum::from_multiplicities([1, 3], 32);
        let rows = s.rows();
        assert_eq!(rows.last().unwrap().0, 3);
        assert_eq!(rows.len(), 3);
    }
}
