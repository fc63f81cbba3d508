//! The implicit de Bruijn graph, its vertices addressed by slot.

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

    /// The unique extension base on side `side` of a walk that sees the
    /// vertex in `slot` forward (`fwd`) or reverse-complemented: the stored
    /// votes on that side, or the complemented votes on the other.
    pub(crate) fn walk_ext(
        &self,
        slot: usize,
        fwd: bool,
        side: Side,
        min_votes: u16,
    ) -> Option<Base> {
        let v = self.vertex_at(slot);
        match (fwd, side) {
            (true, side) => v.unique_ext(side, min_votes),
            (false, Side::Left) => v.unique_ext(Side::Right, min_votes).map(Base::complement),
            (false, Side::Right) => v.unique_ext(Side::Left, min_votes).map(Base::complement),
        }
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

    fn kmer(s: &str) -> Kmer {
        Kmer::from_seq(&DnaSeq::from_str_strict(s).unwrap(), 0, s.len())
    }

    /// The slot of an as-walked k-mer's vertex and whether the walk sees
    /// it forward.
    fn view(g: &DbgGraph, km: Kmer) -> (usize, bool) {
        let canon = km.canonical();
        (g.slot(&canon).expect("vertex present"), canon == km)
    }

    #[test]
    fn navigation_follows_sequence() {
        let g = graph_of("TTACGGA", 4);
        let (slot, fwd) = view(&g, kmer("TTAC"));
        let ext = g.walk_ext(slot, fwd, Side::Right, 2).expect("unique ext");
        assert_eq!(ext, Base::G);
        let next = kmer("TTAC").shift_right(ext);
        assert_eq!(next.to_string(), "TACG");
        let (next_slot, next_fwd) = view(&g, next);
        assert!(!next_fwd, "TACG is stored as CGTA");
        // Walking on, the next vertex points back at the base shifted out.
        assert_eq!(g.walk_ext(next_slot, next_fwd, Side::Left, 2), Some(Base::T));
    }

    #[test]
    fn orientation_symmetric_navigation() {
        // Walking the rc strand must mirror the fwd walk: one slot, seen
        // in both orientations.
        let g = graph_of("TTACGGA", 4);
        let (slot, fwd) = view(&g, kmer("TACG"));
        let (rc_slot, rc_fwd) = view(&g, kmer("TACG").revcomp());
        assert_eq!((rc_slot, rc_fwd), (slot, !fwd));
        let right_of_fwd = g.walk_ext(slot, fwd, Side::Right, 2);
        let left_of_rc = g.walk_ext(rc_slot, rc_fwd, Side::Left, 2);
        assert_eq!(right_of_fwd, Some(Base::G));
        assert_eq!(right_of_fwd.map(Base::complement), left_of_rc);
    }

    #[test]
    fn missing_vertex_is_none() {
        let g = graph_of("TTACGGA", 4);
        assert_eq!(g.slot(&kmer("CCCC").canonical()), None);
    }

    #[test]
    fn sorted_vertices_deterministic() {
        let g = graph_of("TTACGGATTACCGGAA", 5);
        let a: Vec<usize> = g.sorted_slots().collect();
        let b: Vec<usize> = g.sorted_slots().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), g.map.len());
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
