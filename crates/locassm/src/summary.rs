//! Aggregate telemetry over a batch of extension results: how walks
//! terminated, how many k-shift iterations they took, and how much
//! sequence was gained — the numbers MetaHipMer2 prints per local-assembly
//! round and the inputs to the k-shift ablation.

use crate::params::WalkState;
use crate::task::ExtResult;

/// Distribution of outcomes across a result batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtSummary {
    /// Total tasks summarized.
    pub tasks: usize,
    /// Tasks that appended at least one base.
    pub extended: usize,
    /// Total bases appended.
    pub bases_appended: usize,
    /// Longest single extension.
    pub longest_extension: usize,
    /// Final-state counts: [DeadEnd, Fork, Loop, MaxLen].
    pub by_state: [usize; 4],
    /// Histogram of k-shift iteration counts (index = iterations, capped).
    pub iterations_hist: Vec<usize>,
}

/// Cap for the iterations histogram (k schedules are short).
const MAX_ITER_BUCKET: usize = 16;

/// Summarize a result batch.
pub fn summarize(results: &[ExtResult]) -> ExtSummary {
    let mut s = ExtSummary {
        tasks: results.len(),
        iterations_hist: vec![0; MAX_ITER_BUCKET + 1],
        ..Default::default()
    };
    for r in results {
        if !r.appended.is_empty() {
            s.extended += 1;
        }
        s.bases_appended += r.appended.len();
        s.longest_extension = s.longest_extension.max(r.appended.len());
        s.by_state[r.final_state.to_u64() as usize] += 1;
        let b = (r.iterations as usize).min(MAX_ITER_BUCKET);
        s.iterations_hist[b] += 1;
    }
    s
}

impl ExtSummary {
    /// Tasks that ended in the given state.
    pub fn state_count(&self, state: WalkState) -> usize {
        self.by_state[state.to_u64() as usize]
    }

    /// Mean k-shift iterations per task (0 for an empty batch).
    pub fn mean_iterations(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        let total: usize = self.iterations_hist.iter().enumerate().map(|(i, &c)| i * c).sum();
        total as f64 / self.tasks as f64
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{} tasks: {} extended (+{} bp, longest {}), states D/F/L/M = {}/{}/{}/{}, mean {:.1} k-iterations",
            self.tasks,
            self.extended,
            self.bases_appended,
            self.longest_extension,
            self.by_state[0],
            self.by_state[1],
            self.by_state[2],
            self.by_state[3],
            self.mean_iterations(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;

    fn res(appended: &str, state: WalkState, iterations: u32) -> ExtResult {
        ExtResult {
            appended: DnaSeq::from_str_strict(appended).unwrap(),
            final_state: state,
            iterations,
        }
    }

    #[test]
    fn summarizes_mixed_batch() {
        let results = vec![
            res("ACGT", WalkState::Fork, 2),
            res("", WalkState::DeadEnd, 1),
            res("AAAAAA", WalkState::DeadEnd, 3),
            res("", WalkState::Loop, 2),
        ];
        let s = summarize(&results);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.extended, 2);
        assert_eq!(s.bases_appended, 10);
        assert_eq!(s.longest_extension, 6);
        assert_eq!(s.state_count(WalkState::DeadEnd), 2);
        assert_eq!(s.state_count(WalkState::Fork), 1);
        assert_eq!(s.state_count(WalkState::Loop), 1);
        assert_eq!(s.state_count(WalkState::MaxLen), 0);
        assert!((s.mean_iterations() - 2.0).abs() < 1e-12);
        assert!(s.render().contains("2 extended"));
    }

    #[test]
    fn empty_batch() {
        let s = summarize(&[]);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.mean_iterations(), 0.0);
    }

    #[test]
    fn iteration_overflow_bucket() {
        let results = vec![res("", WalkState::DeadEnd, 999)];
        let s = summarize(&results);
        assert_eq!(s.iterations_hist[16], 1);
    }
}
