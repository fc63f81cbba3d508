//! Graph-shape diagnostics: degree distributions and fork/tip censuses.
//!
//! These are the numbers that explain *why* contigs break — the upstream
//! cause of everything local assembly is asked to repair. A vertex with a
//! unique extension on both sides is interior to a unitig; forks (2+
//! viable extensions) terminate contigs and later become the walk's `F`
//! outcomes; tips (no viable extension) become `X` dead ends.

use crate::counts::Side;
use crate::graph::DbgGraph;

/// Census of vertex roles in the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total vertices (canonical k-mers).
    pub vertices: usize,
    /// Interior vertices: unique viable extension on both sides.
    pub interior: usize,
    /// Fork vertices: ≥2 viable extensions on at least one side.
    pub forks: usize,
    /// Tips: no viable extension on at least one side.
    pub tips: usize,
    /// Isolated vertices: no viable extension on either side.
    pub isolated: usize,
}

impl GraphStats {
    /// Forks per megabase-equivalent of vertices — a fragmentation index.
    pub fn fork_rate(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.forks as f64 / self.vertices as f64
        }
    }
}

/// Compute the census at the given vote threshold.
pub fn graph_stats(graph: &DbgGraph, min_votes: u16) -> GraphStats {
    let mut s = GraphStats { vertices: graph.len(), ..Default::default() };
    for v in graph.vertices() {
        let l = v.viable_bases(Side::Left, min_votes);
        let r = v.viable_bases(Side::Right, min_votes);
        match (l, r) {
            (1, 1) => s.interior += 1,
            (0, 0) => s.isolated += 1,
            _ => {
                if l >= 2 || r >= 2 {
                    s.forks += 1;
                } else {
                    s.tips += 1;
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::count_kmers;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn graph_of(genomes: &[DnaSeq], k: usize) -> DbgGraph {
        let mut reads = Vec::new();
        for g in genomes {
            let mut pos = 0;
            while pos + 60 <= g.len() {
                for c in 0..2 {
                    reads.push(Read::with_uniform_qual(
                        format!("r{pos}c{c}"),
                        g.subseq(pos, 60),
                        35,
                    ));
                }
                pos += 5;
            }
        }
        DbgGraph::new(k, count_kmers(&reads, k, 2))
    }

    #[test]
    fn clean_genome_is_mostly_interior() {
        let g = graph_of(&[random_seq(2000, 1)], 21);
        let s = graph_stats(&g, 2);
        assert!(s.vertices > 1000);
        assert!(
            s.interior as f64 > 0.95 * s.vertices as f64,
            "interior {} of {}",
            s.interior,
            s.vertices
        );
        assert_eq!(s.forks, 0, "random genome should have no 21-mer forks");
        assert!(s.tips >= 2, "linear genome has at least two tip ends");
    }

    #[test]
    fn shared_segment_creates_forks() {
        let shared = random_seq(400, 2);
        let mk = |seed| {
            let mut s = random_seq(400, seed);
            s.extend_from(&shared);
            s.extend_from(&random_seq(400, seed + 100));
            s
        };
        let g = graph_of(&[mk(3), mk(4)], 21);
        let s = graph_stats(&g, 2);
        assert!(s.forks >= 2, "repeat boundaries must fork, got {}", s.forks);
        assert!(s.fork_rate() > 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = DbgGraph::new(21, count_kmers(&[] as &[Read], 21, 2));
        let s = graph_stats(&g, 2);
        assert_eq!(s, GraphStats::default());
    }
}
