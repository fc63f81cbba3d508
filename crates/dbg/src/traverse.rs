//! Unitig traversal: maximal unambiguous paths become contigs.

use crate::counts::Side;
use crate::graph::DbgGraph;
use bioseq::DnaSeq;
use kmer::{Kmer, SlotBits};

/// A contiguous assembled sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Contig {
    /// The assembled sequence.
    pub seq: DnaSeq,
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

    for seed_slot in graph.sorted_slots() {
        if visited.get(seed_slot) {
            continue;
        }
        visited.set(seed_slot);
        let seed = graph.kmer_at(seed_slot);

        // Walk right from the seed, then right from its reverse complement
        // (= left of the seed), and stitch: rc(left walk) + seed + right
        // walk.
        let right = walk(graph, seed_slot, true, seed, min_votes, &mut visited);
        let left_rc = walk(graph, seed_slot, false, seed.revcomp(), min_votes, &mut visited);
        let mut seq = DnaSeq::with_capacity(left_rc.len() + graph.k() + right.len());
        seq.extend_from(&left_rc.revcomp());
        seq.extend_from(&seed.to_seq());
        seq.extend_from(&right);
        contigs.push(Contig { seq });
    }
    contigs
}

/// Walk right from the vertex in `slot`, which the walk sees forward
/// (`fwd`) or reverse-complemented as `km`, marking the vertices it takes
/// visited; returns the bases it appends. A step reads the current
/// vertex's votes by slot and probes the table once, for the next vertex.
fn walk(
    graph: &DbgGraph,
    mut slot: usize,
    mut fwd: bool,
    mut km: Kmer,
    min_votes: u16,
    visited: &mut SlotBits,
) -> DnaSeq {
    let mut bases = DnaSeq::new();
    while let Some(ext) = graph.walk_ext(slot, fwd, Side::Right, min_votes) {
        let next = km.shift_right(ext);
        // A palindrome equals its canonical form, so the walk sees it
        // forward.
        let canon = next.canonical();
        let next_fwd = canon == next;
        let Some(next_slot) = graph.slot(&canon) else {
            break;
        };
        // Mutual agreement: next's walk-left unique extension must be the
        // base we just shifted out of `km`.
        if graph.walk_ext(next_slot, next_fwd, Side::Left, min_votes) != Some(km.base(0)) {
            break;
        }
        if visited.get(next_slot) {
            break; // already consumed (loop or another contig)
        }
        visited.set(next_slot);
        bases.push(ext);
        (slot, fwd, km) = (next_slot, next_fwd, next);
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::count_kmers;
    use bioseq::{Base, Read};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

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

    /// A vertex as a walk sees it: the canonical k-mer and whether the walk
    /// reads it forward. With the three functions below it is the walk that
    /// `generate_contigs` replaced, kept as its oracle: it looks a vertex up
    /// by k-mer at every use, three times a step.
    #[derive(Debug, Clone, Copy)]
    struct Oriented {
        canon: Kmer,
        fwd: bool,
    }

    impl Oriented {
        fn from_walk_kmer(km: Kmer) -> Oriented {
            let canon = km.canonical();
            Oriented { canon, fwd: canon == km }
        }

        fn walk_kmer(&self) -> Kmer {
            if self.fwd {
                self.canon
            } else {
                self.canon.revcomp()
            }
        }
    }

    fn unique_right_ext(g: &DbgGraph, o: &Oriented, min_votes: u16) -> Option<Base> {
        let v = g.vertex_at(g.slot(&o.canon)?);
        if o.fwd {
            v.unique_ext(Side::Right, min_votes)
        } else {
            v.unique_ext(Side::Left, min_votes).map(Base::complement)
        }
    }

    fn unique_left_ext(g: &DbgGraph, o: &Oriented, min_votes: u16) -> Option<Base> {
        let v = g.vertex_at(g.slot(&o.canon)?);
        if o.fwd {
            v.unique_ext(Side::Left, min_votes)
        } else {
            v.unique_ext(Side::Right, min_votes).map(Base::complement)
        }
    }

    fn step_right(g: &DbgGraph, o: &Oriented, b: Base) -> Option<Oriented> {
        let next = Oriented::from_walk_kmer(o.walk_kmer().shift_right(b));
        g.slot(&next.canon).map(|_| next)
    }

    /// The oracle's contigs, seeded in `Kmer` order, visited k-mers held
    /// by value.
    fn oracle_contigs(g: &DbgGraph, min_votes: u16) -> Vec<DnaSeq> {
        let mut visited = HashSet::new();
        let mut contigs = Vec::new();
        for seed_slot in g.sorted_slots() {
            let seed = g.kmer_at(seed_slot);
            if !visited.insert(seed) {
                continue;
            }
            let right =
                oracle_walk(g, Oriented { canon: seed, fwd: true }, min_votes, &mut visited);
            let left =
                oracle_walk(g, Oriented { canon: seed, fwd: false }, min_votes, &mut visited);
            let mut seq = left.into_iter().collect::<DnaSeq>().revcomp();
            seq.extend_from(&seed.to_seq());
            right.into_iter().for_each(|b| seq.push(b));
            contigs.push(seq);
        }
        contigs
    }

    fn oracle_walk(
        g: &DbgGraph,
        start: Oriented,
        min_votes: u16,
        visited: &mut HashSet<Kmer>,
    ) -> Vec<Base> {
        let mut bases = Vec::new();
        let mut cur = start;
        while let Some(ext) = unique_right_ext(g, &cur, min_votes) {
            let Some(next) = step_right(g, &cur, ext) else {
                break;
            };
            if unique_left_ext(g, &next, min_votes) != Some(cur.walk_kmer().base(0)) {
                break;
            }
            if !visited.insert(next.canon) {
                break;
            }
            bases.push(ext);
            cur = next;
        }
        bases
    }

    /// A genome for `k` with every shape the walk must stop at or pass
    /// through: a hairpin (an arm then its reverse complement, whose middle
    /// k-mers revisit earlier vertices), a palindromic k-mer at even k
    /// flanked by random sequence, and a repeated segment (forks at both
    /// ends).
    fn planted_genome(
        body: &[u8],
        arm: &[u8],
        half: &[u8],
        repeat: (usize, usize),
        k: usize,
    ) -> DnaSeq {
        let piece = |codes: &[u8]| DnaSeq::from_codes(codes.to_vec());
        let mut g = piece(&body[..200]);
        g.extend_from(&piece(arm));
        g.extend_from(&piece(arm).revcomp());
        g.extend_from(&piece(&body[200..350]));
        if k.is_multiple_of(2) {
            let half = piece(&half[..k / 2]);
            g.extend_from(&half);
            g.extend_from(&half.revcomp());
        }
        g.extend_from(&piece(&body[350..450]));
        g.extend_from(&piece(&body[repeat.0..repeat.0 + repeat.1]));
        g.extend_from(&piece(&body[450..]));
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The slot walk yields the oracle's contigs, in its order, at k
        /// around the word boundaries, with and without votes of one, on
        /// one and two partitions. Reads carry single-base errors and come
        /// from one strand or both: from one strand, a palindromic k-mer's
        /// two sides vote differently, so the orientation it is seen in
        /// decides the walk.
        #[test]
        fn slot_walk_matches_the_oriented_walk(
            body in proptest::collection::vec(0u8..4, 600),
            arm in proptest::collection::vec(0u8..4, 40),
            half in proptest::collection::vec(0u8..4, 50),
            repeat in (0usize..300, 40usize..120),
            spans in proptest::collection::vec(
                ((0usize..1000, 100usize..150), any::<bool>(), (0usize..300, 1u8..4)),
                60..90,
            ),
            one_strand in any::<bool>(),
        ) {
            for k in [15, 16, 31, 32, 33, 63, 64, 99] {
                let genome = planted_genome(&body, &arm, &half, repeat, k);
                let reads: Vec<Read> = spans
                    .iter()
                    .map(|&((start, len), rc, (at, flip))| {
                        let start = start % (genome.len() - len);
                        let mut codes = genome.subseq(start, len).codes().to_vec();
                        if at < len {
                            codes[at] ^= flip;
                        }
                        let s = DnaSeq::from_codes(codes);
                        Read::with_uniform_qual("r", if rc && !one_strand { s.revcomp() } else { s }, 30)
                    })
                    .collect();
                for min_votes in [1u16, 2] {
                    let mut by_threads = Vec::new();
                    for threads in [1, 2] {
                        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                        let g = pool.install(|| DbgGraph::new(k, count_kmers(&reads, k, u32::from(min_votes))));
                        let got: Vec<DnaSeq> = generate_contigs(&g, min_votes).into_iter().map(|c| c.seq).collect();
                        prop_assert_eq!(&got, &oracle_contigs(&g, min_votes), "k={} min_votes={} threads={}", k, min_votes, threads);
                        by_threads.push(got);
                    }
                    prop_assert_eq!(&by_threads[0], &by_threads[1], "k={} min_votes={}", k, min_votes);
                }
            }
        }
    }
}
