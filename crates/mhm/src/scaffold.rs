//! Scaffolding: join contigs using read-pair links.
//!
//! Each contig is a node with two ends. A proper pair whose mates align to
//! different contigs witnesses a junction between a specific end of each.
//! Ends with a unique, reciprocal, well-supported partner are joined;
//! chains of joins become scaffolds.

use align::{align_read, AlignParams, SeedIndex};
use bioseq::{DnaSeq, PairedRead};
use rayon::prelude::*;
use std::collections::HashMap;

/// Scaffolding parameters.
#[derive(Debug, Clone)]
pub struct ScaffoldParams {
    /// Minimum read-pair support for a junction.
    pub min_links: usize,
    /// Seed k for the contig index.
    pub seed_k: usize,
    /// Repeat-masking occurrence cap for the index.
    pub max_occ: usize,
    /// Alignment parameters for mate placement.
    pub align: AlignParams,
}

impl Default for ScaffoldParams {
    fn default() -> Self {
        ScaffoldParams { min_links: 2, seed_k: 17, max_occ: 200, align: AlignParams::default() }
    }
}

/// A contig end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum End {
    Left,
    Right,
}

/// An ordered pair of contig ends joined by read-pair evidence.
type Junction = ((usize, End), (usize, End));

impl End {
    fn other(self) -> End {
        match self {
            End::Left => End::Right,
            End::Right => End::Left,
        }
    }
}

/// An ordered, oriented chain of contigs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scaffold {
    /// `(contig index, flipped?)` in scaffold order.
    pub members: Vec<(usize, bool)>,
}

impl Scaffold {
    /// Render the scaffold sequence by concatenating oriented members.
    /// (Gap sizes are not modeled — a documented simplification; MetaHipMer
    /// writes `N` runs here.)
    pub fn render(&self, contigs: &[DnaSeq]) -> DnaSeq {
        let mut out = DnaSeq::new();
        for &(ci, flipped) in &self.members {
            if flipped {
                out.extend_from(&contigs[ci].revcomp());
            } else {
                out.extend_from(&contigs[ci]);
            }
        }
        out
    }
}

/// Build scaffolds from read pairs. Returns the scaffolds (singletons
/// included, so every contig appears exactly once).
pub fn scaffold_contigs(
    contigs: &[DnaSeq],
    pairs: &[PairedRead],
    params: &ScaffoldParams,
) -> Vec<Scaffold> {
    let idx = SeedIndex::build(contigs, params.seed_k, params.max_occ);

    // Parallel link extraction.
    let links: Vec<((usize, End), (usize, End))> = pairs
        .par_iter()
        .filter_map(|p| {
            let h1 = best_hit(&idx, contigs, p, false, params)?;
            let h2 = best_hit(&idx, contigs, p, true, params)?;
            if h1.contig == h2.contig {
                return None;
            }
            // Fragment-forward reasoning (see module docs):
            // mate 1 forward on c1 ⇒ junction at c1.Right, else c1.Left;
            // mate 2 rc on c2 ⇒ junction at c2.Left, else c2.Right.
            let e1 = (h1.contig as usize, if h1.rc { End::Left } else { End::Right });
            let e2 = (h2.contig as usize, if h2.rc { End::Left } else { End::Right });
            Some(order_link(e1, e2))
        })
        .collect();

    // Count support per junction.
    let mut support: HashMap<Junction, usize> = HashMap::new();
    for l in links {
        *support.entry(l).or_insert(0) += 1;
    }

    // For each end, pick its best partner; keep only reciprocal bests with
    // enough support and no ambiguity at either end.
    let mut best: HashMap<(usize, End), ((usize, End), usize)> = HashMap::new();
    let mut sorted: Vec<_> = support.into_iter().collect();
    sorted.sort(); // deterministic iteration
    for ((a, b), n) in sorted {
        if n < params.min_links {
            continue;
        }
        for (x, y) in [(a, b), (b, a)] {
            match best.get(&x) {
                Some(&(_, m)) if m >= n => {}
                _ => {
                    best.insert(x, (y, n));
                }
            }
        }
    }
    let mut partner: HashMap<(usize, End), (usize, End)> = HashMap::new();
    for (&x, &(y, _)) in &best {
        if best.get(&y).map(|&(back, _)| back) == Some(x) {
            partner.insert(x, y);
        }
    }

    // Walk chains.
    let mut visited = vec![false; contigs.len()];
    let mut scaffolds = Vec::new();
    // Deterministic seed order; start from chain endpoints first so chains
    // are walked end-to-end.
    let mut seeds: Vec<usize> = (0..contigs.len()).collect();
    seeds.sort_by_key(|&ci| {
        let l = partner.contains_key(&(ci, End::Left));
        let r = partner.contains_key(&(ci, End::Right));
        match (l, r) {
            (false, false) => 0,                // singleton
            (false, true) | (true, false) => 1, // chain endpoint
            (true, true) => 2,                  // interior
        }
    });
    for &start in &seeds {
        if visited[start] {
            continue;
        }
        // Choose entry orientation: enter through an end with no partner if
        // possible (so we walk the full chain).
        let enter = if !partner.contains_key(&(start, End::Left)) { End::Left } else { End::Right };
        let mut members = Vec::new();
        let mut cur = start;
        let mut entry = enter;
        loop {
            visited[cur] = true;
            members.push((cur, entry == End::Right));
            let exit = entry.other();
            let Some(&(next_contig, next_end)) = partner.get(&(cur, exit)) else {
                break;
            };
            if visited[next_contig] {
                break; // cycle guard
            }
            cur = next_contig;
            entry = next_end;
        }
        scaffolds.push(Scaffold { members });
    }
    scaffolds
}

fn order_link(a: (usize, End), b: (usize, End)) -> Junction {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn best_hit(
    idx: &SeedIndex,
    contigs: &[DnaSeq],
    pair: &PairedRead,
    mate2: bool,
    params: &ScaffoldParams,
) -> Option<align::AlignHit> {
    let read = if mate2 { &pair.r2 } else { &pair.r1 };
    let hits = align_read(idx, contigs, read, &params.align);
    hits.into_iter().max_by_key(|h| h.overlap - h.mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    /// Pairs spanning a genome with the given insert size.
    fn spanning_pairs(
        genome: &DnaSeq,
        n: usize,
        insert: usize,
        read_len: usize,
    ) -> Vec<PairedRead> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n)
            .map(|i| {
                let start = rng.gen_range(0..genome.len() - insert);
                let frag = genome.subseq(start, insert);
                let r1 = Read::with_uniform_qual(format!("p{i}/1"), frag.subseq(0, read_len), 30);
                let r2 = Read::with_uniform_qual(
                    format!("p{i}/2"),
                    frag.subseq(insert - read_len, read_len).revcomp(),
                    30,
                );
                PairedRead::new(r1, r2)
            })
            .collect()
    }

    #[test]
    fn two_adjacent_contigs_join() {
        // Genome split into two contigs with a tiny unassembled gap; pairs
        // spanning the gap must link c0.Right to c1.Left.
        let genome = random_seq(1200, 1);
        let c0 = genome.subseq(0, 590);
        let c1 = genome.subseq(610, 590);
        let contigs = vec![c0, c1];
        let pairs = spanning_pairs(&genome, 150, 400, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        assert_eq!(scaffolds.len(), 1, "both contigs in one scaffold");
        let s = &scaffolds[0];
        assert_eq!(s.members.len(), 2);
        // Order is 0 then 1 (or the reverse walk), both unflipped together.
        let ids: Vec<usize> = s.members.iter().map(|m| m.0).collect();
        assert!(ids == vec![0, 1] || ids == vec![1, 0]);
        let rendered = s.render(&contigs);
        assert_eq!(rendered.len(), 590 * 2);
    }

    #[test]
    fn flipped_contig_detected() {
        let genome = random_seq(1200, 2);
        let c0 = genome.subseq(0, 590);
        let c1 = genome.subseq(610, 590).revcomp(); // assembler emitted rc
        let contigs = vec![c0, c1];
        let pairs = spanning_pairs(&genome, 150, 400, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        assert_eq!(scaffolds.len(), 1);
        let s = &scaffolds[0];
        assert_eq!(s.members.len(), 2);
        // Exactly one member is flipped relative to the other.
        assert_ne!(s.members[0].1, s.members[1].1);
    }

    #[test]
    fn unrelated_contigs_stay_apart() {
        let contigs = vec![random_seq(500, 3), random_seq(500, 4)];
        let pairs = spanning_pairs(&contigs[0], 50, 300, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        assert_eq!(scaffolds.len(), 2);
        assert!(scaffolds.iter().all(|s| s.members.len() == 1));
    }

    #[test]
    fn insufficient_support_ignored() {
        let genome = random_seq(1200, 5);
        let contigs = vec![genome.subseq(0, 590), genome.subseq(610, 590)];
        // Only one spanning pair < min_links=2.
        let pairs = spanning_pairs(&genome, 1, 400, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        assert_eq!(scaffolds.len(), 2);
    }

    #[test]
    fn three_contig_chain_in_order() {
        let genome = random_seq(1800, 6);
        let contigs =
            vec![genome.subseq(0, 580), genome.subseq(600, 580), genome.subseq(1200, 580)];
        let pairs = spanning_pairs(&genome, 300, 400, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        assert_eq!(scaffolds.len(), 1);
        let ids: Vec<usize> = scaffolds[0].members.iter().map(|m| m.0).collect();
        assert!(ids == vec![0, 1, 2] || ids == vec![2, 1, 0], "chain order wrong: {ids:?}");
    }

    #[test]
    fn every_contig_appears_once() {
        let genome = random_seq(1200, 7);
        let contigs = vec![genome.subseq(0, 590), genome.subseq(610, 590), random_seq(400, 8)];
        let pairs = spanning_pairs(&genome, 100, 400, 100);
        let scaffolds = scaffold_contigs(&contigs, &pairs, &ScaffoldParams::default());
        let mut seen: Vec<usize> =
            scaffolds.iter().flat_map(|s| s.members.iter().map(|m| m.0)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
