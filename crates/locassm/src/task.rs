//! Extension tasks: the unit of work of local assembly.
//!
//! Each contig produces up to two tasks — one per end. Left-end tasks are
//! normalized into right-end form by reverse-complementing the contig tail
//! and the candidate reads (the orientation trick MetaHipMer uses so a
//! single rightward mer-walk serves both ends).

use crate::params::LocalAssemblyParams;
use bioseq::{DnaSeq, Read};

use crate::params::WalkState;

/// Which contig end a task extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContigEnd {
    /// Extend leftward (the tail is the reverse complement of the prefix).
    Left,
    /// Extend rightward from the contig's suffix.
    Right,
}

/// One normalized extension task: walk rightward from the end of `tail`.
#[derive(Debug, Clone)]
pub struct ExtTask {
    /// Index of the source contig.
    pub contig: usize,
    /// Which end of the source contig this extends.
    pub end: ContigEnd,
    /// The contig's terminal window, oriented so the extension direction is
    /// rightward. Long enough for the largest k in the schedule.
    pub tail: DnaSeq,
    /// Candidate reads, oriented to match `tail`.
    pub reads: Vec<Read>,
}

/// The outcome of extending one task.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtResult {
    /// Bases appended (in normalized/rightward orientation).
    pub appended: DnaSeq,
    /// Terminal state of the final walk.
    pub final_state: WalkState,
    /// Number of k-shift iterations performed.
    pub iterations: u32,
}

impl ExtResult {
    /// A no-op result (zero-read tasks are returned unextended — bin 1).
    pub fn empty() -> ExtResult {
        ExtResult { appended: DnaSeq::new(), final_state: WalkState::DeadEnd, iterations: 0 }
    }
}

/// Per-task outcome, on the device or the CPU fallback. A failed task is
/// *skipped* — its contig keeps its current sequence — never aborted with
/// it the whole bin.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome {
    /// The task completed (on the device or via CPU fallback).
    Done(ExtResult),
    /// The task failed everywhere it was tried; it contributes no bases.
    Failed {
        /// Index of the contig whose extension failed.
        contig: usize,
        /// Human-readable failure cause (panic payload or engine error).
        reason: String,
    },
}

impl TaskOutcome {
    /// Collapse to an [`ExtResult`]: a failed task appends nothing.
    pub fn into_result(self) -> ExtResult {
        match self {
            TaskOutcome::Done(r) => r,
            TaskOutcome::Failed { .. } => ExtResult::empty(),
        }
    }

    /// Whether this outcome is the [`TaskOutcome::Failed`] arm.
    pub fn is_failed(&self) -> bool {
        matches!(self, TaskOutcome::Failed { .. })
    }
}

/// Render a panic payload for a [`TaskOutcome::Failed`] reason.
pub(crate) fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Build the normalized task list for a contig set.
///
/// `candidates[i]` holds the oriented candidate reads for `contigs[i]`
/// (see `align::collect_candidates`); reads arrive oriented contig-forward
/// and are re-oriented here for left-end tasks. Tasks are emitted right-end
/// first, in contig order — a deterministic layout both engines share.
pub fn make_tasks(
    contigs: &[DnaSeq],
    candidates: &[(Vec<Read>, Vec<Read>)],
    params: &LocalAssemblyParams,
) -> Vec<ExtTask> {
    assert_eq!(contigs.len(), candidates.len());
    let window = params.k_max() + params.max_total_extension;
    let mut tasks = Vec::with_capacity(contigs.len() * 2);
    for (ci, (contig, (right, left))) in contigs.iter().zip(candidates).enumerate() {
        // Right end: tail is the contig suffix as-is.
        let take = contig.len().min(window);
        let tail_r = contig.subseq(contig.len() - take, take);
        tasks.push(ExtTask {
            contig: ci,
            end: ContigEnd::Right,
            tail: tail_r,
            reads: right.clone(),
        });
        // Left end: reverse-complement the prefix and the reads.
        let tail_l = contig.subseq(0, take).revcomp();
        tasks.push(ExtTask {
            contig: ci,
            end: ContigEnd::Left,
            tail: tail_l,
            reads: left.iter().map(Read::revcomp).collect(),
        });
    }
    tasks
}

/// Apply task results back onto the contig set: right-end appends go on the
/// right; left-end appends are reverse-complemented and prepended.
///
/// `tasks[i]` must correspond to `results[i]`.
pub fn apply_extensions(
    contigs: &[DnaSeq],
    tasks: &[ExtTask],
    results: &[ExtResult],
) -> Vec<DnaSeq> {
    assert_eq!(tasks.len(), results.len());
    let mut out: Vec<DnaSeq> = contigs.to_vec();
    // Collect appends first so ordering of tasks cannot matter.
    let mut right_app: Vec<Option<&DnaSeq>> = vec![None; contigs.len()];
    let mut left_app: Vec<Option<&DnaSeq>> = vec![None; contigs.len()];
    for (t, r) in tasks.iter().zip(results) {
        match t.end {
            ContigEnd::Right => right_app[t.contig] = Some(&r.appended),
            ContigEnd::Left => left_app[t.contig] = Some(&r.appended),
        }
    }
    for (ci, contig) in out.iter_mut().enumerate() {
        let mut built = DnaSeq::with_capacity(
            contig.len()
                + left_app[ci].map_or(0, |s| s.len())
                + right_app[ci].map_or(0, |s| s.len()),
        );
        if let Some(l) = left_app[ci] {
            built.extend_from(&l.revcomp());
        }
        built.extend_from(contig);
        if let Some(r) = right_app[ci] {
            built.extend_from(r);
        }
        *contig = built;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    fn read(s: &str) -> Read {
        Read::with_uniform_qual("r", seq(s), 30)
    }

    #[test]
    fn tasks_normalize_left_end() {
        let contigs = vec![seq("AACCGGTTAC")];
        let cands = vec![(vec![read("GGTTACGT")], vec![read("TTAACCGG")])];
        let params = LocalAssemblyParams::default();
        let tasks = make_tasks(&contigs, &cands, &params);
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].end, ContigEnd::Right);
        assert_eq!(tasks[0].tail, contigs[0]);
        assert_eq!(tasks[1].end, ContigEnd::Left);
        assert_eq!(tasks[1].tail, contigs[0].revcomp());
        // Left reads are rc'd.
        assert_eq!(tasks[1].reads[0].seq, seq("TTAACCGG").revcomp());
    }

    #[test]
    fn tail_window_clips_long_contigs() {
        let params = LocalAssemblyParams::default();
        let window = params.k_max() + params.max_total_extension;
        let long: DnaSeq =
            (0..window + 500).map(|i| bioseq::Base::from_code((i % 4) as u8)).collect();
        let tasks = make_tasks(std::slice::from_ref(&long), &[(vec![], vec![])], &params);
        assert_eq!(tasks[0].tail.len(), window);
        assert_eq!(tasks[0].tail, long.subseq(long.len() - window, window));
    }

    #[test]
    fn apply_puts_extensions_on_correct_ends() {
        let contigs = vec![seq("CCCC")];
        let params = LocalAssemblyParams::default();
        let tasks = make_tasks(&contigs, &[(vec![], vec![])], &params);
        let results = vec![
            ExtResult { appended: seq("AA"), final_state: WalkState::DeadEnd, iterations: 1 },
            ExtResult { appended: seq("GG"), final_state: WalkState::DeadEnd, iterations: 1 },
        ];
        let out = apply_extensions(&contigs, &tasks, &results);
        // Right append AA; left append GG reverse-complemented = CC.
        assert_eq!(out[0].to_string(), "CCCCCCAA");
    }

    #[test]
    fn empty_results_leave_contigs_unchanged() {
        let contigs = vec![seq("ACGTACGT"), seq("TTTTCCCC")];
        let params = LocalAssemblyParams::default();
        let cands = vec![(vec![], vec![]), (vec![], vec![])];
        let tasks = make_tasks(&contigs, &cands, &params);
        let results: Vec<ExtResult> = tasks.iter().map(|_| ExtResult::empty()).collect();
        assert_eq!(apply_extensions(&contigs, &tasks, &results), contigs);
    }
}
