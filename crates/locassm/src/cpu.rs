//! CPU reference engine: Algorithms 1 and 2 of the paper, parallel over
//! tasks with rayon (MetaHipMer2 "makes use of all the available cores on a
//! node when using the CPU local-assembly module").

use crate::params::{KShift, LocalAssemblyParams, WalkState};
use crate::task::{ExtResult, ExtTask, TaskOutcome};
use bioseq::{DnaSeq, Read};
use kmer::{ExtCounts, ExtVerdict, Kmer, KmerIter};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Algorithm 1: build the k-mer → extension table from candidate reads.
///
/// Keys are read k-mers *as oriented* (no canonicalization — candidate reads
/// are already oriented to the contig); the vote is the base following the
/// k-mer, at that base's quality.
pub fn build_ext_table(reads: &[Read], k: usize) -> HashMap<Kmer, ExtCounts> {
    let mut table: HashMap<Kmer, ExtCounts> = HashMap::new();
    for read in reads {
        if read.len() < k + 1 {
            continue;
        }
        for (pos, km) in KmerIter::new(&read.seq, k) {
            if pos + k >= read.len() {
                break; // final k-mer has no following base
            }
            table.entry(km).or_default().add_vote(read.seq.base(pos + k), read.quals[pos + k]);
        }
    }
    table
}

/// Result of one mer-walk.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkResult {
    /// Bases appended by this walk.
    pub appended: DnaSeq,
    /// Why the walk stopped.
    pub state: WalkState,
}

/// Algorithm 2: walk rightward from the end of `seq`, appending credible
/// extensions until dead end / fork / loop / step cap.
pub fn mer_walk(
    seq: &DnaSeq,
    table: &HashMap<Kmer, ExtCounts>,
    k: usize,
    max_steps: usize,
    min_viable: u16,
) -> WalkResult {
    if seq.len() < k {
        return WalkResult { appended: DnaSeq::new(), state: WalkState::DeadEnd };
    }
    let mut cur = Kmer::from_seq(seq, seq.len() - k, k);
    let mut visited: HashSet<Kmer> = HashSet::new();
    let mut appended = DnaSeq::new();
    for _ in 0..max_steps {
        if !visited.insert(cur) {
            return WalkResult { appended, state: WalkState::Loop };
        }
        let Some(counts) = table.get(&cur) else {
            return WalkResult { appended, state: WalkState::DeadEnd };
        };
        match counts.classify(min_viable) {
            ExtVerdict::Extend(b) => {
                appended.push(b);
                cur = cur.shift_right(b);
            }
            ExtVerdict::DeadEnd => return WalkResult { appended, state: WalkState::DeadEnd },
            ExtVerdict::Fork => return WalkResult { appended, state: WalkState::Fork },
        }
    }
    WalkResult { appended, state: WalkState::MaxLen }
}

/// Extend one task to completion: iterate table build + walk under the
/// k-shift controller, growing the working tail so later (larger-k) walks
/// continue from the already-extended end.
pub fn extend_end_cpu(task: &ExtTask, params: &LocalAssemblyParams) -> ExtResult {
    if task.reads.is_empty() {
        return ExtResult::empty();
    }
    let mut work = task.tail.clone();
    let orig_len = work.len();
    let mut ks = KShift::new(params.k_list.len(), params.start_k_idx);
    #[allow(unused_assignments)]
    let mut final_state = WalkState::DeadEnd;
    let mut iterations = 0u32;
    loop {
        let k = params.k_list[ks.k_idx()];
        iterations += 1;
        let budget = params.max_total_extension.saturating_sub(work.len() - orig_len);
        let walk = if budget == 0 || work.len() < k {
            // Nothing can be appended at this k: a dead end for the
            // controller.
            WalkResult { appended: DnaSeq::new(), state: WalkState::DeadEnd }
        } else {
            let table = build_ext_table(&task.reads, k);
            mer_walk(&work, &table, k, params.max_walk_len.min(budget), params.min_viable)
        };
        work.extend_from(&walk.appended);
        final_state = walk.state;
        if !ks.on_walk(walk.state) {
            break;
        }
    }
    ExtResult { appended: work.subseq(orig_len, work.len() - orig_len), final_state, iterations }
}

/// Extend every task in parallel (the per-node CPU engine).
pub fn extend_all_cpu(tasks: &[ExtTask], params: &LocalAssemblyParams) -> Vec<ExtResult> {
    tasks.par_iter().map(|t| extend_end_cpu(t, params)).collect()
}

/// Extend every task in parallel with per-task panic isolation: a task
/// whose extension panics becomes [`TaskOutcome::Failed`] instead of
/// aborting the whole bin. Takes owned or borrowed tasks, so schedulers can
/// hand the CPU engine a share by index without deep-cloning task data.
pub fn extend_all_cpu_isolated<T: Borrow<ExtTask> + Sync>(
    tasks: &[T],
    params: &LocalAssemblyParams,
) -> Vec<TaskOutcome> {
    tasks.par_iter().map(|t| extend_one_isolated(t.borrow(), params)).collect()
}

fn extend_one_isolated(t: &ExtTask, params: &LocalAssemblyParams) -> TaskOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| extend_end_cpu(t, params))) {
        Ok(r) => TaskOutcome::Done(r),
        Err(payload) => {
            TaskOutcome::Failed { contig: t.contig, reason: crate::task::panic_reason(payload) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    /// Reads tiling `genome[from..]`, oriented forward, 2 copies each so
    /// votes pass the min_viable=2 gate.
    fn tiling_reads(genome: &DnaSeq, from: usize, read_len: usize, stride: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        let mut pos = from;
        while pos + read_len <= genome.len() {
            for copy in 0..2 {
                reads.push(Read::with_uniform_qual(
                    format!("r{pos}c{copy}"),
                    genome.subseq(pos, read_len),
                    35,
                ));
            }
            pos += stride;
        }
        reads
    }

    #[test]
    fn ext_table_votes() {
        let reads = vec![
            Read::with_uniform_qual("a", seq("ACGTAG"), 35),
            Read::with_uniform_qual("b", seq("ACGTAG"), 35),
        ];
        let table = build_ext_table(&reads, 4);
        let km = Kmer::from_seq(&seq("ACGT"), 0, 4);
        let counts = table.get(&km).expect("ACGT present");
        assert_eq!(counts.hi_count(bioseq::Base::A), 2);
        assert_eq!(counts.classify(2), ExtVerdict::Extend(bioseq::Base::A));
        // Final k-mer GTAG has no following base: not in table.
        assert!(!table.contains_key(&Kmer::from_seq(&seq("GTAG"), 0, 4)));
    }

    #[test]
    fn walk_follows_unambiguous_path() {
        // Genome region; contig ends at 60; reads cover 40..120.
        let genome = random_seq(120, 5);
        let contig = genome.subseq(0, 60);
        let reads = tiling_reads(&genome, 30, 40, 2);
        let table = build_ext_table(&reads, 15);
        let walk = mer_walk(&contig, &table, 15, 100, 2);
        assert!(walk.appended.len() >= 30, "only appended {}", walk.appended.len());
        // The appended bases must match the genome continuation.
        let expected = genome.subseq(60, walk.appended.len());
        assert_eq!(walk.appended, expected);
    }

    #[test]
    fn walk_stops_at_fork() {
        // Two read families agreeing on a prefix then diverging.
        let shared = random_seq(30, 77);
        let mut a = shared.clone();
        a.extend_from(&random_seq(20, 78));
        let mut b = shared.clone();
        b.extend_from(&random_seq(20, 79));
        let mut reads = Vec::new();
        for copy in 0..3 {
            reads.push(Read::with_uniform_qual(format!("a{copy}"), a.clone(), 35));
            reads.push(Read::with_uniform_qual(format!("b{copy}"), b.clone(), 35));
        }
        let contig = shared.subseq(0, 20);
        let table = build_ext_table(&reads, 15);
        let walk = mer_walk(&contig, &table, 15, 100, 2);
        assert_eq!(walk.state, WalkState::Fork);
        // Walked to the divergence point: appended ≈ shared remainder.
        assert_eq!(walk.appended.len(), shared.len() - 20);
    }

    #[test]
    fn walk_detects_loop() {
        // A read that cycles: repeat unit shorter than read, k smaller than
        // unit → the walk revisits a k-mer.
        let unit = seq("ACGGTCAT");
        let mut cyc = DnaSeq::new();
        for _ in 0..8 {
            cyc.extend_from(&unit);
        }
        let reads = vec![
            Read::with_uniform_qual("c1", cyc.clone(), 35),
            Read::with_uniform_qual("c2", cyc.clone(), 35),
        ];
        let table = build_ext_table(&reads, 6);
        let contig = cyc.subseq(0, 10);
        let walk = mer_walk(&contig, &table, 6, 1000, 2);
        assert_eq!(walk.state, WalkState::Loop);
    }

    #[test]
    fn walk_short_contig_dead_end() {
        let table = HashMap::new();
        let walk = mer_walk(&seq("ACG"), &table, 15, 10, 2);
        assert_eq!(walk.state, WalkState::DeadEnd);
        assert!(walk.appended.is_empty());
    }

    #[test]
    fn max_steps_reported() {
        // Self-extending homopolymer-ish path that never forks within the
        // cap: AAAA→A forever (same k-mer every step → loop actually).
        // Use a long non-repeating genome and a tiny step cap instead.
        let genome = random_seq(200, 9);
        let contig = genome.subseq(0, 50);
        let reads = tiling_reads(&genome, 20, 40, 2);
        let table = build_ext_table(&reads, 15);
        let walk = mer_walk(&contig, &table, 15, 5, 2);
        assert_eq!(walk.state, WalkState::MaxLen);
        assert_eq!(walk.appended.len(), 5);
    }

    #[test]
    fn extend_end_zero_reads_is_noop() {
        let task = ExtTask {
            contig: 0,
            end: crate::task::ContigEnd::Right,
            tail: random_seq(100, 3),
            reads: vec![],
        };
        let r = extend_end_cpu(&task, &LocalAssemblyParams::default());
        assert!(r.appended.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn extend_end_recovers_genome_continuation() {
        let genome = random_seq(400, 11);
        let contig = genome.subseq(0, 150);
        let reads = tiling_reads(&genome, 100, 60, 3);
        let task =
            ExtTask { contig: 0, end: crate::task::ContigEnd::Right, tail: contig.clone(), reads };
        let params = LocalAssemblyParams::default();
        let r = extend_end_cpu(&task, &params);
        assert!(r.appended.len() >= 50, "appended {}", r.appended.len());
        assert_eq!(r.appended, genome.subseq(150, r.appended.len()));
        assert!(r.iterations >= 1);
    }

    #[test]
    fn extension_capped_at_max_total() {
        let genome = random_seq(2000, 13);
        let contig = genome.subseq(0, 100);
        let reads = tiling_reads(&genome, 50, 80, 2);
        let params = LocalAssemblyParams {
            max_total_extension: 40,
            max_walk_len: 100,
            ..LocalAssemblyParams::default()
        };
        let task = ExtTask { contig: 0, end: crate::task::ContigEnd::Right, tail: contig, reads };
        let r = extend_end_cpu(&task, &params);
        assert!(r.appended.len() <= 40, "cap violated: {}", r.appended.len());
    }

    #[test]
    fn parallel_matches_serial() {
        let genome = random_seq(600, 17);
        let mut tasks = Vec::new();
        for i in 0..8 {
            let start = i * 40;
            tasks.push(ExtTask {
                contig: i,
                end: crate::task::ContigEnd::Right,
                tail: genome.subseq(start, 120),
                reads: tiling_reads(&genome, start + 60, 80, 4),
            });
        }
        let params = LocalAssemblyParams::default();
        let par = extend_all_cpu(&tasks, &params);
        let ser: Vec<ExtResult> = tasks.iter().map(|t| extend_end_cpu(t, &params)).collect();
        assert_eq!(par, ser);
    }
}
