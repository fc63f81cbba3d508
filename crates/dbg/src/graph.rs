//! Oriented navigation over the implicit de Bruijn graph.

use crate::counts::{KmerCountMap, Side, VertexCounts};
use bioseq::Base;
use kmer::Kmer;

/// An implicit de Bruijn graph: canonical k-mer vertices with extension
/// votes, plus the `k` they were counted at.
#[derive(Debug)]
pub struct DbgGraph {
    k: usize,
    map: KmerCountMap,
}

/// A vertex seen in a particular orientation during traversal.
///
/// `fwd == true` means the walk-direction k-mer equals the stored canonical
/// k-mer; `fwd == false` means the walk sees its reverse complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oriented {
    /// Canonical (stored) form.
    pub canon: Kmer,
    /// Orientation of the walk relative to the canonical form.
    pub fwd: bool,
}

impl Oriented {
    /// Orient `km` (an as-walked k-mer) to its canonical vertex.
    pub fn from_walk_kmer(km: Kmer) -> Oriented {
        let canon = km.canonical();
        Oriented { canon, fwd: canon == km }
    }

    /// The k-mer as the walk sees it.
    pub fn walk_kmer(&self) -> Kmer {
        if self.fwd {
            self.canon
        } else {
            self.canon.revcomp()
        }
    }
}

impl DbgGraph {
    /// Wrap a counted k-mer map.
    ///
    /// Panics if the map was counted at another k.
    pub fn new(k: usize, map: KmerCountMap) -> DbgGraph {
        assert_eq!(map.k(), k, "k-mer map counted at another k");
        DbgGraph { k, map }
    }

    /// The k the graph was built at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Vertex counts for a canonical k-mer.
    pub fn vertex(&self, canon: &Kmer) -> Option<&VertexCounts> {
        self.map.get(canon)
    }

    /// The slot of a canonical k-mer's vertex: an index below
    /// [`DbgGraph::slot_count`], for per-vertex side tables.
    pub fn slot(&self, canon: &Kmer) -> Option<usize> {
        self.map.slot(canon)
    }

    /// Number of slots; every vertex's slot is below it.
    pub fn slot_count(&self) -> usize {
        self.map.slot_count()
    }

    /// Vertex counts in a slot returned by [`DbgGraph::slot`].
    pub fn vertex_at(&self, slot: usize) -> &VertexCounts {
        self.map.at(slot)
    }

    /// The canonical k-mer in a vertex's slot.
    pub fn kmer_at(&self, slot: usize) -> Kmer {
        self.map.kmer_at(slot)
    }

    /// Every vertex's counts, in no particular order.
    pub fn vertices(&self) -> impl Iterator<Item = &VertexCounts> + '_ {
        self.map.iter().map(|(_, v)| v)
    }

    /// Every vertex's slot, in the sorted order of the vertices' k-mers —
    /// traversal seeds, in an order that no partitioning changes. The sort
    /// holds 16 bytes a vertex: the k-mer's first packed word, which
    /// decides all but ties on the first 32 bases, and its slot.
    pub fn sorted_slots(&self) -> impl Iterator<Item = usize> {
        let mut seeds: Vec<(u64, u32)> = self
            .map
            .slots()
            .map(|slot| {
                let first = self.map.key_words(slot)[0];
                (first, u32::try_from(slot).expect("fewer than 2^32 slots"))
            })
            .collect();
        seeds.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                self.map.key_words(a.1 as usize).cmp(self.map.key_words(b.1 as usize))
            })
        });
        seeds.into_iter().map(|(_, slot)| slot as usize)
    }

    /// The unique extension base on the *walk-right* side of an oriented
    /// vertex, if any (translating orientation onto the stored votes).
    pub fn unique_right_ext(&self, o: &Oriented, min_votes: u16) -> Option<Base> {
        let v = self.map.get(&o.canon)?;
        if o.fwd {
            v.unique_ext(Side::Right, min_votes)
        } else {
            // Walk-right of the rc view is the complement of the stored left.
            v.unique_ext(Side::Left, min_votes).map(Base::complement)
        }
    }

    /// The unique extension base on the *walk-left* side of an oriented
    /// vertex, if any.
    pub fn unique_left_ext(&self, o: &Oriented, min_votes: u16) -> Option<Base> {
        let v = self.map.get(&o.canon)?;
        if o.fwd {
            v.unique_ext(Side::Left, min_votes)
        } else {
            v.unique_ext(Side::Right, min_votes).map(Base::complement)
        }
    }

    /// Step the walk one base right: returns the next oriented vertex and
    /// its slot if it exists in the graph.
    pub fn step_right(&self, o: &Oriented, b: Base) -> Option<(Oriented, usize)> {
        let next = Oriented::from_walk_kmer(o.walk_kmer().shift_right(b));
        self.slot(&next.canon).map(|slot| (next, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::count_kmers;
    use bioseq::{DnaSeq, Read};
    use proptest::prelude::*;

    fn graph_of(s: &str, k: usize) -> DbgGraph {
        let r = Read::with_uniform_qual("r", DnaSeq::from_str_strict(s).unwrap(), 30);
        let r2 = r.clone();
        DbgGraph::new(k, count_kmers(&[r, r2], k, 2))
    }

    #[test]
    fn navigation_follows_sequence() {
        let g = graph_of("TTACGGA", 4);
        let start = Oriented::from_walk_kmer(Kmer::from_seq(
            &DnaSeq::from_str_strict("TTAC").unwrap(),
            0,
            4,
        ));
        let ext = g.unique_right_ext(&start, 2).expect("unique ext");
        assert_eq!(ext, bioseq::Base::G);
        let (next, slot) = g.step_right(&start, ext).expect("next vertex");
        assert_eq!(g.slot(&next.canon), Some(slot));
        assert_eq!(next.walk_kmer().to_string(), "TACG");
    }

    #[test]
    fn orientation_symmetric_navigation() {
        // Walking the rc strand must mirror the fwd walk.
        let g = graph_of("TTACGGA", 4);
        let fwd = Oriented::from_walk_kmer(Kmer::from_seq(
            &DnaSeq::from_str_strict("TACG").unwrap(),
            0,
            4,
        ));
        let rc_view = Oriented::from_walk_kmer(fwd.walk_kmer().revcomp());
        let right_of_fwd = g.unique_right_ext(&fwd, 2);
        let left_of_rc = g.unique_left_ext(&rc_view, 2);
        assert_eq!(right_of_fwd.map(bioseq::Base::complement), left_of_rc);
    }

    #[test]
    fn missing_vertex_is_none() {
        let g = graph_of("TTACGGA", 4);
        let absent = Oriented::from_walk_kmer(Kmer::from_seq(
            &DnaSeq::from_str_strict("CCCC").unwrap(),
            0,
            4,
        ));
        assert_eq!(g.unique_right_ext(&absent, 1), None);
    }

    #[test]
    fn sorted_vertices_deterministic() {
        let g = graph_of("TTACGGATTACCGGAA", 5);
        let a: Vec<usize> = g.sorted_slots().collect();
        let b: Vec<usize> = g.sorted_slots().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), g.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The seed slots visit every vertex once, in `Kmer` order, over two
        /// partitions and at multi-word k. A variant genome with one
        /// substitution gives k-mers that tie on their first packed word
        /// (surely at k ≥ 63, where 30 or more windows hold the substitution
        /// past base 32), so the order falls through to the later words.
        #[test]
        fn sorted_slots_visit_kmers_in_kmer_order(
            genome in proptest::collection::vec(0u8..4, 300),
            at in 100usize..200,
            flip in 1u8..4,
        ) {
            let mut variant = genome.clone();
            variant[at] ^= flip;
            let reads: Vec<Read> = [genome, variant]
                .into_iter()
                .map(|codes| Read::with_uniform_qual("g", DnaSeq::from_codes(codes), 30))
                .collect();
            for k in [15, 31, 33, 63, 65, 99] {
                let g = rayon::ThreadPoolBuilder::new()
                    .num_threads(2)
                    .build()
                    .unwrap()
                    .install(|| DbgGraph::new(k, count_kmers(&reads, k, 1)));
                let visited: Vec<Kmer> = g.sorted_slots().map(|slot| g.kmer_at(slot)).collect();
                let mut want: Vec<Kmer> = g.map.iter().map(|(km, _)| km).collect();
                want.sort_unstable();
                prop_assert_eq!(&visited, &want, "k={}", k);
                if k >= 63 {
                    let ties = visited.windows(2).filter(|w| w[0].words()[0] == w[1].words()[0]);
                    prop_assert!(ties.count() > 0, "k={}: no tie on the first word", k);
                }
            }
        }
    }
}
