//! K-mer machinery for the assembler.
//!
//! * [`Kmer`] — a fixed-width (≤ [`MAX_K`]) k-mer packed at 2 bits/base,
//!   with O(words) shift, reverse-complement and canonicalization.
//! * [`hash::murmur64a`] — the MurmurHash2 64-bit hash the SC'21 paper uses
//!   for its warp-local hash tables, implemented from the reference spec.
//! * [`ExtCounts`] — the *extension object* of MetaHipMer local assembly:
//!   per-base occurrence counts split into quality tiers, with the
//!   fork/dead-end classification rule used by mer-walks.
//! * [`KmerIter`] / [`CanonicalKmerIter`] — iterators over the (forward or
//!   canonical) k-mers of a sequence.
//! * [`KmerTable`] — the open-addressing k-mer → value table behind k-mer
//!   counting, the de Bruijn graph, the alignment seed index and reference
//!   evaluation.

pub mod ext;
pub mod hash;
pub mod kmer;
pub mod table;

pub use ext::{ExtCounts, ExtVerdict, QUAL_TIER_CUTOFF};
pub use kmer::{CanonicalKmerIter, Kmer, KmerIter, MAX_K};
pub use table::{KmerTable, SlotBits};
