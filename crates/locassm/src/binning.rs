//! Contig binning by candidate-read count (paper §3.1).
//!
//! Bin 1: zero candidate reads — returned immediately, never offloaded.
//! Bin 2: fewer than [`BIN2_LIMIT`] reads — short, uniform work.
//! Bin 3: everything else — few contigs (<1% typically) but potentially most
//! of the compute; launched on the GPU first so the CPU can overlap bin 2.

use crate::task::ExtTask;
use std::borrow::Borrow;

/// Reads-per-task threshold separating bin 2 from bin 3 (paper: 10).
pub const BIN2_LIMIT: usize = 10;

/// The bin a task falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// Zero candidate reads.
    Zero,
    /// `1..BIN2_LIMIT` candidate reads.
    Small,
    /// `>= BIN2_LIMIT` candidate reads.
    Large,
}

/// Classify one task by its candidate-read count.
pub fn bin_of(task: &ExtTask) -> Bin {
    match task.reads.len() {
        0 => Bin::Zero,
        n if n < BIN2_LIMIT => Bin::Small,
        _ => Bin::Large,
    }
}

/// Task indices split by bin, plus summary statistics.
#[derive(Debug, Clone, Default)]
pub struct BinStats {
    /// Bin 1: tasks with no candidate reads (answered host-side).
    pub zero: Vec<usize>,
    /// Bin 2: tasks with fewer than `BIN2_LIMIT` candidate reads.
    pub small: Vec<usize>,
    /// Bin 3: the read-heavy rest.
    pub large: Vec<usize>,
}

impl BinStats {
    /// Total tasks across bins.
    pub fn total(&self) -> usize {
        self.zero.len() + self.small.len() + self.large.len()
    }

    /// Percentage of tasks in each bin `(zero, small, large)`.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let p = |n: usize| 100.0 * n as f64 / t as f64;
        (p(self.zero.len()), p(self.small.len()), p(self.large.len()))
    }

    /// Candidate reads carried by each bin `(zero, small, large)` — shows
    /// why bin 3, though <1% of contigs, can dominate compute.
    pub fn read_totals(&self, tasks: &[ExtTask]) -> (usize, usize, usize) {
        let sum = |v: &[usize]| v.iter().map(|&i| tasks[i].reads.len()).sum();
        (sum(&self.zero), sum(&self.small), sum(&self.large))
    }
}

/// Sort task indices into the three bins (stable order within a bin).
/// Takes owned or borrowed tasks (scheduler shares are index lists into a
/// task slice, never clones).
pub fn bin_tasks<T: Borrow<ExtTask>>(tasks: &[T]) -> BinStats {
    let mut stats = BinStats::default();
    for (i, task) in tasks.iter().enumerate() {
        match bin_of(task.borrow()) {
            Bin::Zero => stats.zero.push(i),
            Bin::Small => stats.small.push(i),
            Bin::Large => stats.large.push(i),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};

    fn task_with_reads(n: usize) -> ExtTask {
        let seq = DnaSeq::from_str_strict("ACGTACGTACGTACGTACGT").unwrap();
        ExtTask {
            contig: 0,
            end: ContigEnd::Right,
            tail: seq.clone(),
            reads: (0..n)
                .map(|i| Read::with_uniform_qual(format!("r{i}"), seq.clone(), 30))
                .collect(),
        }
    }

    #[test]
    fn bin_boundaries() {
        assert_eq!(bin_of(&task_with_reads(0)), Bin::Zero);
        assert_eq!(bin_of(&task_with_reads(1)), Bin::Small);
        assert_eq!(bin_of(&task_with_reads(9)), Bin::Small);
        assert_eq!(bin_of(&task_with_reads(10)), Bin::Large);
        assert_eq!(bin_of(&task_with_reads(3000)), Bin::Large);
    }

    #[test]
    fn bin_tasks_partitions_all() {
        let tasks: Vec<ExtTask> =
            [0, 5, 0, 12, 9, 100, 0].iter().map(|&n| task_with_reads(n)).collect();
        let stats = bin_tasks(&tasks);
        assert_eq!(stats.zero, vec![0, 2, 6]);
        assert_eq!(stats.small, vec![1, 4]);
        assert_eq!(stats.large, vec![3, 5]);
        assert_eq!(stats.total(), tasks.len());
    }

    #[test]
    fn percentages_sum_to_100() {
        let tasks: Vec<ExtTask> = (0..20).map(task_with_reads).collect();
        let stats = bin_tasks(&tasks);
        let (a, b, c) = stats.percentages();
        assert!((a + b + c - 100.0).abs() < 1e-9);
    }

    #[test]
    fn read_totals_weight_bins() {
        let tasks = vec![task_with_reads(0), task_with_reads(5), task_with_reads(50)];
        let stats = bin_tasks(&tasks);
        assert_eq!(stats.read_totals(&tasks), (0, 5, 50));
    }

    #[test]
    fn empty_input() {
        let stats = bin_tasks::<ExtTask>(&[]);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.percentages(), (0.0, 0.0, 0.0));
    }
}
