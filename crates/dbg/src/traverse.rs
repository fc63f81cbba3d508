//! Unitig traversal: maximal unambiguous paths become contigs.

use crate::graph::{DbgGraph, Oriented};
use bioseq::DnaSeq;
use kmer::SlotBits;

/// A contiguous assembled sequence with its mean k-mer depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Contig {
    /// Stable id within the generating run.
    pub id: u64,
    /// The assembled sequence.
    pub seq: DnaSeq,
    /// Mean occurrence count of the member k-mers.
    pub depth: f64,
}

impl Contig {
    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for zero-length contigs (never produced by traversal).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Generate contigs as maximal UU (unique–unique) paths.
///
/// A step from vertex `u` to `v` is taken only when `u`'s walk-right
/// extension is unique *and* `v`'s walk-left extension is unique and points
/// back at `u` — the mutual-agreement rule that stops traversal at forks
/// from either side. Each canonical k-mer joins at most one contig; seeds
/// are visited in sorted order so output is deterministic.
pub fn generate_contigs(graph: &DbgGraph, min_votes: u16) -> Vec<Contig> {
    let mut visited = SlotBits::new(graph.slot_count());
    let mut contigs = Vec::new();
    let mut next_id = 0u64;

    for seed_slot in graph.sorted_slots() {
        if visited.get(seed_slot) {
            continue;
        }
        let seed = graph.kmer_at(seed_slot);
        let start = Oriented { canon: seed, fwd: true };
        visited.set(seed_slot);

        // Walk right from the seed, then right from the seed's rc view
        // (= left of the seed), and stitch.
        let (right_bases, mut member_counts) = walk(graph, start, min_votes, &mut visited);
        let rc_start = Oriented { canon: seed, fwd: false };
        let (left_bases_rc, more_counts) = walk(graph, rc_start, min_votes, &mut visited);
        member_counts.extend(more_counts);

        // Contig = rc(left walk) + seed + right walk.
        let mut seq = DnaSeq::with_capacity(left_bases_rc.len() + graph.k() + right_bases.len());
        let left_part: DnaSeq = left_bases_rc.iter().copied().collect();
        seq.extend_from(&left_part.revcomp());
        seq.extend_from(&seed.to_seq());
        for b in &right_bases {
            seq.push(*b);
        }

        member_counts.push(graph.vertex_at(seed_slot).count);
        let depth =
            member_counts.iter().map(|&c| f64::from(c)).sum::<f64>() / member_counts.len() as f64;

        contigs.push(Contig { id: next_id, seq, depth });
        next_id += 1;
    }
    contigs
}

/// Walk right from `start`, marking vertices visited; returns the appended
/// bases and the counts of the vertices consumed.
fn walk(
    graph: &DbgGraph,
    start: Oriented,
    min_votes: u16,
    visited: &mut SlotBits,
) -> (Vec<bioseq::Base>, Vec<u32>) {
    let mut bases = Vec::new();
    let mut counts = Vec::new();
    let mut cur = start;
    while let Some(ext) = graph.unique_right_ext(&cur, min_votes) {
        let Some((next, slot)) = graph.step_right(&cur, ext) else {
            break;
        };
        // Mutual agreement: next's walk-left unique extension must be the
        // base we just shifted out of `cur`.
        let dropped = cur.walk_kmer().base(0);
        if graph.unique_left_ext(&next, min_votes) != Some(dropped) {
            break;
        }
        if visited.get(slot) {
            break; // already consumed (loop or another contig)
        }
        visited.set(slot);
        counts.push(graph.vertex_at(slot).count);
        bases.push(ext);
        cur = next;
    }
    (bases, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::count_kmers;
    use bioseq::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_genome(len: usize, seed: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    /// Error-free reads tiling `genome` every `stride` bases.
    fn tile_reads(genome: &DnaSeq, read_len: usize, stride: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        let mut pos = 0;
        while pos + read_len <= genome.len() {
            reads.push(Read::with_uniform_qual(
                format!("r{pos}"),
                genome.subseq(pos, read_len),
                35,
            ));
            pos += stride;
        }
        reads
    }

    fn assemble(reads: &[Read], k: usize) -> Vec<Contig> {
        let map = count_kmers(reads, k, 2);
        generate_contigs(&DbgGraph::new(k, map), 2)
    }

    #[test]
    fn single_genome_reconstructs() {
        let genome = random_genome(2000, 42);
        let reads = tile_reads(&genome, 100, 4);
        let contigs = assemble(&reads, 31);
        // With error-free dense tiling and no 31-mer repeats we expect
        // essentially one contig covering nearly the whole genome
        // (end k-mers may drop below min_count).
        let longest = contigs.iter().map(Contig::len).max().unwrap();
        assert!(
            longest >= genome.len() - 2 * 100,
            "longest contig {longest} too short for genome {}",
            genome.len()
        );
        // And the longest contig must be a genuine substring of the genome
        // (in either orientation).
        let big = contigs.iter().max_by_key(|c| c.len()).unwrap();
        assert!(
            genome.contains(&big.seq) || genome.contains(&big.seq.revcomp()),
            "assembled contig not a substring of the source genome"
        );
    }

    #[test]
    fn depth_reflects_coverage() {
        let genome = random_genome(1000, 7);
        // stride 2 → ~50x k-mer coverage in the interior.
        let contigs = assemble(&tile_reads(&genome, 100, 2), 31);
        let big = contigs.iter().max_by_key(|c| c.len()).unwrap();
        assert!(big.depth > 10.0, "depth {}", big.depth);
    }

    #[test]
    fn fork_breaks_contig() {
        // Two "genomes" sharing an identical middle segment: the shared
        // region is a fork and must break traversal into >= 3 contigs.
        let shared = random_genome(300, 1);
        let a = {
            let mut s = random_genome(300, 2);
            s.extend_from(&shared);
            s.extend_from(&random_genome(300, 3));
            s
        };
        let b = {
            let mut s = random_genome(300, 4);
            s.extend_from(&shared);
            s.extend_from(&random_genome(300, 5));
            s
        };
        let mut reads = tile_reads(&a, 100, 3);
        reads.extend(tile_reads(&b, 100, 3));
        let contigs = assemble(&reads, 31);
        let substantial = contigs.iter().filter(|c| c.len() > 100).count();
        assert!(substantial >= 3, "expected >=3 contigs, got {substantial}");
    }

    #[test]
    fn singleton_errors_filtered() {
        let genome = random_genome(800, 9);
        let mut reads = tile_reads(&genome, 100, 4);
        // One read with a single-base error in the middle: its k-mers are
        // singletons and must not fragment the assembly.
        let mut bad = genome.subseq(300, 100);
        let flipped = bad.code(50) ^ 1;
        let mut codes = bad.codes().to_vec();
        codes[50] = flipped;
        bad = DnaSeq::from_codes(codes);
        reads.push(Read::with_uniform_qual("bad", bad, 35));
        let contigs = assemble(&reads, 31);
        let longest = contigs.iter().map(Contig::len).max().unwrap();
        assert!(longest >= genome.len() - 200);
    }

    #[test]
    fn deterministic_output() {
        let genome = random_genome(1500, 11);
        let reads = tile_reads(&genome, 100, 5);
        let a = assemble(&reads, 31);
        let b = assemble(&reads, 31);
        assert_eq!(a, b);
    }

    #[test]
    fn strand_invariance() {
        // Assembling the rc of every read gives the same contig set up to
        // orientation.
        let genome = random_genome(1200, 13);
        let reads = tile_reads(&genome, 100, 4);
        let rc_reads: Vec<Read> = reads.iter().map(Read::revcomp).collect();
        let a = assemble(&reads, 31);
        let b = assemble(&rc_reads, 31);
        assert_eq!(a.len(), b.len());
        let canon = |cs: &[Contig]| {
            let mut v: Vec<String> = cs
                .iter()
                .map(|c| {
                    let f = c.seq.to_string();
                    let r = c.seq.revcomp().to_string();
                    if f <= r {
                        f
                    } else {
                        r
                    }
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&a), canon(&b));
    }

    #[test]
    fn empty_input_empty_output() {
        let contigs = assemble(&[], 21);
        assert!(contigs.is_empty());
    }
}
