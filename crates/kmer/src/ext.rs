//! Extension-count objects and the mer-walk classification rule.
//!
//! In MetaHipMer's local assembly the value stored against each k-mer is an
//! *extension object*: for each of the four bases that can follow the k-mer,
//! how many candidate reads vote for it, split by base-call quality. The
//! walk then classifies the votes into "extend with base X", "dead end"
//! (no credible vote) or "fork" (two or more credible votes).

use bioseq::{Base, QualScore};

/// Phred score at and above which a vote counts as high-quality.
/// MetaHipMer uses Q20 ("1% error") as its quality gate.
pub const QUAL_TIER_CUTOFF: QualScore = 20;

/// Per-base extension votes in two quality tiers.
///
/// Counts saturate at `u16::MAX`; candidate read sets are ≤ ~3000 reads so
/// saturation never occurs in practice, but the arithmetic must not wrap on
/// adversarial input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtCounts {
    hi: [u16; 4],
    lo: [u16; 4],
}

/// Outcome of classifying an [`ExtCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtVerdict {
    /// Exactly one credible extension base.
    Extend(Base),
    /// No credible extension ("X" in MetaHipMer logs).
    DeadEnd,
    /// Two or more credible extensions ("F").
    Fork,
}

impl ExtCounts {
    /// No votes.
    pub fn new() -> ExtCounts {
        ExtCounts::default()
    }

    /// Record one vote for `base` at quality `q`.
    pub fn add_vote(&mut self, base: Base, q: QualScore) {
        let i = base as usize;
        if q >= QUAL_TIER_CUTOFF {
            self.hi[i] = self.hi[i].saturating_add(1);
        } else {
            self.lo[i] = self.lo[i].saturating_add(1);
        }
    }

    /// Merge another vote set into this one (used when merging per-thread
    /// tables and when the GPU entry is reduced).
    pub fn merge(&mut self, other: &ExtCounts) {
        for i in 0..4 {
            self.hi[i] = self.hi[i].saturating_add(other.hi[i]);
            self.lo[i] = self.lo[i].saturating_add(other.lo[i]);
        }
    }

    /// High-quality votes for `base`.
    #[inline]
    pub fn hi_count(&self, base: Base) -> u16 {
        self.hi[base as usize]
    }

    /// Total votes across bases and tiers.
    pub fn total(&self) -> u32 {
        (0..4).map(|i| u32::from(self.hi[i]) + u32::from(self.lo[i])).sum()
    }

    /// A base's vote is *credible* when it has at least `min_viable`
    /// high-quality votes, or at least one high-quality vote backed by
    /// `min_viable + 1` total votes — MetaHipMer's quality-tiered rule
    /// (hi-q evidence required, lo-q evidence only corroborates) — **and**
    /// it carries at least 10% of all votes for this k-mer. The relative
    /// gate keeps recurrent sequencing errors (which easily reach 2
    /// absolute votes at high coverage) from forking every walk.
    pub fn is_credible(&self, base: Base, min_viable: u16) -> bool {
        let i = base as usize;
        let hi = self.hi[i];
        let tot = u32::from(self.hi[i]) + u32::from(self.lo[i]);
        let absolute =
            hi >= min_viable || (hi >= 1 && tot >= u32::from(min_viable.saturating_add(1)));
        absolute && tot * 10 >= self.total()
    }

    /// Classify the votes into extend/dead-end/fork.
    ///
    /// `min_viable` is the minimum credible-vote threshold (MetaHipMer
    /// default: 2, i.e. a lone read never extends a contig).
    pub fn classify(&self, min_viable: u16) -> ExtVerdict {
        let mut credible: Option<Base> = None;
        for b in Base::ALL {
            if self.is_credible(b, min_viable) {
                match credible {
                    None => credible = Some(b),
                    Some(_) => return ExtVerdict::Fork,
                }
            }
        }
        match credible {
            Some(b) => ExtVerdict::Extend(b),
            None => ExtVerdict::DeadEnd,
        }
    }

    /// Device layout used by the GPU hash-table entries: one word of four
    /// 16-bit high-quality counts (base `b` at bits `16b`) and one word of
    /// four 16-bit low-quality counts. A vote is an `atomicAdd` of
    /// `1 << 16b` on the matching word; fields wrap only past 65535 votes,
    /// far beyond the ≤3000-read candidate cap.
    pub fn to_hi_lo_words(&self) -> (u64, u64) {
        let mut hi = 0u64;
        let mut lo = 0u64;
        for i in 0..4 {
            hi |= u64::from(self.hi[i]) << (16 * i);
            lo |= u64::from(self.lo[i]) << (16 * i);
        }
        (hi, lo)
    }

    /// Inverse of [`to_hi_lo_words`](Self::to_hi_lo_words).
    pub fn from_hi_lo_words(hi: u64, lo: u64) -> ExtCounts {
        let mut e = ExtCounts::new();
        for i in 0..4 {
            e.hi[i] = ((hi >> (16 * i)) & 0xffff) as u16;
            e.lo[i] = ((lo >> (16 * i)) & 0xffff) as u16;
        }
        e
    }

    /// Pack into a `u64` for device memory: base `b`'s hi count in byte
    /// `2b`, lo count in byte `2b+1`. Counts clamp to 255.
    pub fn pack_u64(&self) -> u64 {
        let mut v = 0u64;
        for i in 0..4 {
            v |= u64::from(self.hi[i].min(255) as u8) << (16 * i);
            v |= u64::from(self.lo[i].min(255) as u8) << (16 * i + 8);
        }
        v
    }

    /// Unpack from the [`pack_u64`](Self::pack_u64) layout.
    pub fn unpack_u64(v: u64) -> ExtCounts {
        let mut e = ExtCounts::new();
        for i in 0..4 {
            e.hi[i] = u16::from(((v >> (16 * i)) & 0xff) as u8);
            e.lo[i] = u16::from(((v >> (16 * i + 8)) & 0xff) as u8);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_dead_end() {
        assert_eq!(ExtCounts::new().classify(2), ExtVerdict::DeadEnd);
    }

    #[test]
    fn single_hi_vote_insufficient() {
        let mut e = ExtCounts::new();
        e.add_vote(Base::A, 30);
        assert_eq!(e.classify(2), ExtVerdict::DeadEnd);
    }

    #[test]
    fn two_hi_votes_extend() {
        let mut e = ExtCounts::new();
        e.add_vote(Base::G, 30);
        e.add_vote(Base::G, 25);
        assert_eq!(e.classify(2), ExtVerdict::Extend(Base::G));
    }

    #[test]
    fn hi_plus_lo_corroboration_extends() {
        let mut e = ExtCounts::new();
        e.add_vote(Base::C, 30); // one hi
        e.add_vote(Base::C, 10); // lo
        e.add_vote(Base::C, 5); // lo
        assert_eq!(e.classify(2), ExtVerdict::Extend(Base::C));
    }

    #[test]
    fn lo_only_never_extends() {
        let mut e = ExtCounts::new();
        for _ in 0..10 {
            e.add_vote(Base::T, 5);
        }
        assert_eq!(e.classify(2), ExtVerdict::DeadEnd);
    }

    #[test]
    fn two_credible_bases_fork() {
        let mut e = ExtCounts::new();
        e.add_vote(Base::A, 30);
        e.add_vote(Base::A, 30);
        e.add_vote(Base::T, 30);
        e.add_vote(Base::T, 30);
        assert_eq!(e.classify(2), ExtVerdict::Fork);
    }

    #[test]
    fn credible_plus_noise_still_extends() {
        let mut e = ExtCounts::new();
        e.add_vote(Base::A, 30);
        e.add_vote(Base::A, 30);
        e.add_vote(Base::T, 5); // lone low-quality vote: noise
        assert_eq!(e.classify(2), ExtVerdict::Extend(Base::A));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExtCounts::new();
        a.add_vote(Base::A, 30);
        let mut b = ExtCounts::new();
        b.add_vote(Base::A, 30);
        a.merge(&b);
        assert_eq!(a.classify(2), ExtVerdict::Extend(Base::A));
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn saturating_counts() {
        let mut e = ExtCounts::new();
        for _ in 0..70000 {
            e.add_vote(Base::A, 30);
        }
        assert_eq!(e.hi_count(Base::A), u16::MAX);
    }

    proptest! {
        #[test]
        fn hi_lo_words_round_trip(hi in proptest::array::uniform4(any::<u16>()), lo in proptest::array::uniform4(any::<u16>())) {
            let e = ExtCounts { hi, lo };
            let (hw, lw) = e.to_hi_lo_words();
            prop_assert_eq!(ExtCounts::from_hi_lo_words(hw, lw), e);
        }

        #[test]
        fn atomic_add_layout_matches_add_vote(votes in proptest::collection::vec((0u8..4, 0u8..45), 0..50)) {
            // Simulate the device's atomicAdd accumulation and check it
            // produces the same counts as the host-side add_vote path.
            let mut host = ExtCounts::new();
            let (mut hi_w, mut lo_w) = (0u64, 0u64);
            for (code, q) in votes {
                let b = bioseq::Base::from_code(code);
                host.add_vote(b, q);
                if q >= QUAL_TIER_CUTOFF {
                    hi_w = hi_w.wrapping_add(1 << (16 * u64::from(code)));
                } else {
                    lo_w = lo_w.wrapping_add(1 << (16 * u64::from(code)));
                }
            }
            prop_assert_eq!(ExtCounts::from_hi_lo_words(hi_w, lo_w), host);
        }

        #[test]
        fn pack_round_trip(hi in proptest::array::uniform4(0u16..256), lo in proptest::array::uniform4(0u16..256)) {
            let e = ExtCounts { hi, lo };
            prop_assert_eq!(ExtCounts::unpack_u64(e.pack_u64()), e);
        }

        #[test]
        fn classify_never_panics(hi in proptest::array::uniform4(any::<u16>()), lo in proptest::array::uniform4(any::<u16>()), mv in 0u16..10) {
            let e = ExtCounts { hi, lo };
            let _ = e.classify(mv);
        }

        #[test]
        fn merge_commutative_on_small(av in proptest::array::uniform4(0u16..100), bv in proptest::array::uniform4(0u16..100)) {
            let a = ExtCounts { hi: av, lo: bv };
            let b = ExtCounts { hi: bv, lo: av };
            let mut ab = a; ab.merge(&b);
            let mut ba = b; ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }
    }
}
