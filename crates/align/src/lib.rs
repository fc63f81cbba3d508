//! Read ↔ contig alignment — the pipeline stage between contig generation
//! and local assembly (Figure 1 of the paper: "Alignment" feeding "Local
//! assembly").
//!
//! The aligner is seed-and-extend:
//!
//! 1. [`index::SeedIndex`] — canonical k-mer index over the contigs, built
//!    one hash partition per thread;
//! 2. [`aligner::align_read`] — seed lookup, diagonal grouping, and ungapped
//!    verification (substitution-only short reads make gaps rare; a banded
//!    Smith–Waterman, [`sw::banded_sw`], is provided for gapped rescoring
//!    and for the alignment-phase cost model);
//! 3. [`candidates::collect_candidates`] — classification of alignments into
//!    per-contig-end *candidate read sets*: reads that overlap a contig end
//!    and extend past it, oriented into contig-forward coordinates. These
//!    sets are exactly the input of the local-assembly module.

pub mod aligner;
pub mod candidates;
pub mod index;
pub mod sw;

pub use aligner::{align_read, AlignHit, AlignParams};
pub use candidates::{collect_candidates, CandidateParams, EndCandidates};
pub use index::SeedIndex;
