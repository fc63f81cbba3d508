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
        self.map.capacity()
    }

    /// Vertex counts in a slot returned by [`DbgGraph::slot`].
    pub fn vertex_at(&self, slot: usize) -> &VertexCounts {
        self.map.at(slot)
    }

    /// Canonical k-mers in deterministic (sorted) order — traversal seeds.
    pub fn sorted_vertices(&self) -> Vec<Kmer> {
        let mut keys: Vec<Kmer> = self.map.iter().map(|(km, _)| km).collect();
        keys.sort_unstable();
        keys
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
        let a = g.sorted_vertices();
        let b = g.sorted_vertices();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
