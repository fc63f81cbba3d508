//! MurmurHash2 (64A), the hash function the SC'21 paper uses for its
//! warp-local GPU hash tables, implemented from Austin Appleby's reference.
//!
//! The GPU kernels and the CPU reference implementation both hash a k-mer by
//! feeding its packed words (see [`crate::Kmer::words`]) through
//! [`murmur64a_words`], so CPU and simulated-GPU tables place keys
//! identically — a property the integration tests rely on.

use crate::kmer::Kmer;

const M: u64 = 0xc6a4_a793_5bd1_e995;
const R: u32 = 47;

/// MurmurHash2 64A over a byte slice.
pub fn murmur64a(data: &[u8], seed: u64) -> u64 {
    let mut h: u64 = seed ^ (data.len() as u64).wrapping_mul(M);
    let chunks = data.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        let mut k = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }
    if !tail.is_empty() {
        let mut k: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            k |= u64::from(b) << (8 * i);
        }
        h ^= k;
        h = h.wrapping_mul(M);
    }
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// MurmurHash2 64A over little-endian `u64` words (equivalent to hashing the
/// words' LE byte representation).
pub fn murmur64a_words(words: &[u64], seed: u64) -> u64 {
    let mut h: u64 = seed ^ ((words.len() as u64 * 8).wrapping_mul(M));
    for &w in words {
        let mut k = w.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// Canonical hash of a k-mer: murmur64a over the packed words that carry
/// bases (`ceil(k/32)` words), seeded with k so equal packings at different
/// k never alias.
pub fn hash_kmer(km: &Kmer) -> u64 {
    let nwords = km.k().div_ceil(32);
    murmur64a_words(&km.words()[..nwords], km.k() as u64)
}

/// The hash partition, of `parts`, that owns a canonical k-mer: a
/// multiplicative hash of its first word, independent of the murmur
/// placement inside a partition's table so that placement stays uniform.
#[inline]
pub fn partition(canon: &Kmer, parts: usize) -> usize {
    let mixed = canon.words()[0].wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
    ((mixed * parts as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;

    #[test]
    fn words_matches_bytes() {
        let words = [0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3210];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(murmur64a_words(&words, 7), murmur64a(&bytes, 7));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let d = b"ACGTACGTACGT";
        assert_eq!(murmur64a(d, 0), murmur64a(d, 0));
        assert_ne!(murmur64a(d, 0), murmur64a(d, 1));
    }

    #[test]
    fn avalanche_on_single_bit() {
        let a = murmur64a(b"AAAAAAAA", 0);
        let b = murmur64a(b"AAAAAAAB", 0);
        // Hamming distance of outputs should be substantial (~32).
        let dist = (a ^ b).count_ones();
        assert!(dist > 10, "weak avalanche: {dist} bits");
    }

    #[test]
    fn tail_handling() {
        // Lengths not a multiple of 8 exercise the tail path.
        for len in 1..=16 {
            let data: Vec<u8> = (0..len as u8).collect();
            let h1 = murmur64a(&data, 3);
            let h2 = murmur64a(&data, 3);
            assert_eq!(h1, h2);
            if len > 1 {
                let mut flipped = data.clone();
                flipped[len - 1] ^= 1;
                assert_ne!(murmur64a(&flipped, 3), h1, "len={len}");
            }
        }
    }

    #[test]
    fn kmer_hash_depends_on_k() {
        let s = DnaSeq::from_str_strict("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").unwrap();
        let k21 = crate::Kmer::from_seq(&s, 0, 21);
        let k23 = crate::Kmer::from_seq(&s, 0, 23);
        assert_ne!(hash_kmer(&k21), hash_kmer(&k23));
    }

    #[test]
    fn kmer_hash_position_independent() {
        // The same k-mer extracted from different positions hashes equally.
        let s = DnaSeq::from_str_strict("ACGTACGTACGTACGTACGTACGTACGT").unwrap();
        let a = crate::Kmer::from_seq(&s, 0, 21);
        let b = crate::Kmer::from_seq(&s, 4, 21);
        assert_eq!(a, b);
        assert_eq!(hash_kmer(&a), hash_kmer(&b));
    }
}
