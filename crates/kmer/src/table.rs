//! Open-addressing k-mer → value table, the CPU counterpart of the paper's
//! flat GPU hash tables.
//!
//! Keys are stored as `⌈k/32⌉` packed words per slot in one flat `Vec<u64>`
//! (not as whole [`Kmer`]s), values in a parallel `Vec<V>`, and occupancy in
//! a [`SlotBits`] bitvector. Slots are probed linearly from
//! [`crate::hash::hash_kmer`] (MurmurHash2 64A seeded with k). The slot
//! count is a power of two and doubles when the load would pass 0.7, unless
//! [`KmerTable::with_capacity`] sized it up front; [`KmerTable::retain`]
//! shrinks the table to the survivors' size or closes the gaps in place, so
//! there are no tombstones.

use crate::hash::{hash_kmer, murmur64a_words};
use crate::kmer::{Kmer, KMER_WORDS, MAX_K};

/// Fewest slots a table ever has (a power of two).
const MIN_SLOTS: usize = 16;

/// The table grows before the load would pass `LOAD_NUM / LOAD_DEN` (0.7).
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 10;

/// The fewest slots that hold `entries` entries under the load limit.
fn slots_for(entries: usize) -> usize {
    let mut slots = MIN_SLOTS;
    while entries * LOAD_DEN > slots * LOAD_NUM {
        slots *= 2;
    }
    slots
}

/// A fixed-size bitvector, one bit per table slot.
#[derive(Debug, Clone)]
pub struct SlotBits(Vec<u64>);

impl SlotBits {
    /// `n` cleared bits.
    pub fn new(n: usize) -> SlotBits {
        SlotBits(vec![0; n.div_ceil(64)])
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
}

/// A map from k-mers of one fixed k to values of type `V`.
///
/// Iteration order is a deterministic function of the inserted keys and the
/// table's history (the hash is unseeded apart from k), but it is not
/// sorted; sort the keys where output order matters.
#[derive(Debug, Clone)]
pub struct KmerTable<V> {
    k: usize,
    /// Words per key, `⌈k/32⌉`.
    nwords: usize,
    /// `nwords` words per slot; meaningful only where `used` is set.
    keys: Vec<u64>,
    /// One value per slot; `V::default()` in empty slots.
    vals: Vec<V>,
    used: SlotBits,
    len: usize,
}

impl<V: Default> KmerTable<V> {
    /// An empty table for k-mers of length `k`.
    pub fn new(k: usize) -> KmerTable<V> {
        KmerTable::with_slots(k, MIN_SLOTS)
    }

    /// An empty table that holds `entries` entries without growing.
    pub fn with_capacity(k: usize, entries: usize) -> KmerTable<V> {
        KmerTable::with_slots(k, slots_for(entries))
    }

    fn with_slots(k: usize, slots: usize) -> KmerTable<V> {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        debug_assert!(slots.is_power_of_two());
        let nwords = k.div_ceil(32);
        KmerTable {
            k,
            nwords,
            keys: vec![0; slots * nwords],
            vals: std::iter::repeat_with(V::default).take(slots).collect(),
            used: SlotBits::new(slots),
            len: 0,
        }
    }

    /// The value for `km`, inserting `V::default()` first if absent.
    ///
    /// Panics if `km.k()` differs from the table's k.
    pub fn entry(&mut self, km: &Kmer) -> &mut V {
        self.entry_hashed(km, hash_kmer(km))
    }

    /// [`KmerTable::entry`] for a caller that already holds
    /// `hash = hash_kmer(km)`.
    pub fn entry_hashed(&mut self, km: &Kmer, hash: u64) -> &mut V {
        assert_eq!(km.k(), self.k, "k-mer length differs from the table's k");
        let slot = match self.probe(km, hash) {
            Ok(slot) => slot,
            Err(mut slot) => {
                if (self.len + 1) * LOAD_DEN > self.capacity() * LOAD_NUM {
                    self.rebuild(self.capacity() * 2);
                    slot = self.probe(km, hash).expect_err("key is absent after growing");
                }
                self.keys[slot * self.nwords..][..self.nwords]
                    .copy_from_slice(&km.words()[..self.nwords]);
                self.used.set(slot);
                self.len += 1;
                slot
            }
        };
        &mut self.vals[slot]
    }

    /// Keep only the entries whose value passes `keep`, at the smallest
    /// size that holds the survivors under the load limit. A table that
    /// keeps its size closes the gaps in place, without a second copy.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        // The load limit leaves a free slot, which no probe crosses.
        let free = (0..self.capacity()).find(|&slot| !self.used.get(slot)).expect("a free slot");
        for slot in 0..self.capacity() {
            if self.used.get(slot) && !keep(&self.vals[slot]) {
                self.used.clear(slot);
                self.vals[slot] = V::default();
                self.len -= 1;
            }
        }
        let slots = slots_for(self.len);
        if slots < self.capacity() {
            self.rebuild(slots);
        } else {
            self.close_gaps(free);
        }
    }

    /// Move every entry to the first free slot of its probe, so no probe
    /// crosses a cleared slot. `free` was free before the clearing, so
    /// walking the slots from it meets each probe's slots in probe order;
    /// entries only move back towards their home slot, and a slot an entry
    /// vacates lies after every probe settled before it.
    fn close_gaps(&mut self, free: usize) {
        let mask = self.capacity() - 1;
        let nwords = self.nwords;
        for step in 1..self.capacity() {
            let from = (free + step) & mask;
            if !self.used.get(from) {
                continue;
            }
            let mut to = self.home(&self.keys[from * nwords..][..nwords]) & mask;
            while to != from && self.used.get(to) {
                to = (to + 1) & mask;
            }
            if to != from {
                self.keys.copy_within(from * nwords..(from + 1) * nwords, to * nwords);
                self.vals.swap(from, to);
                self.used.set(to);
                self.used.clear(from);
            }
        }
    }

    /// Move every entry into a fresh table of `slots` slots.
    fn rebuild(&mut self, slots: usize) {
        let old = std::mem::replace(self, KmerTable::with_slots(self.k, slots));
        let mask = slots - 1;
        for (slot, v) in old.vals.into_iter().enumerate() {
            if !old.used.get(slot) {
                continue;
            }
            let key = &old.keys[slot * old.nwords..][..old.nwords];
            let mut to = self.home(key) & mask;
            while self.used.get(to) {
                to = (to + 1) & mask;
            }
            self.keys[to * self.nwords..][..self.nwords].copy_from_slice(key);
            self.vals[to] = v;
            self.used.set(to);
        }
        self.len = old.len;
    }
}

impl<V> KmerTable<V> {
    /// The k the table is keyed at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots; every slot index is below it.
    pub fn capacity(&self) -> usize {
        self.vals.len()
    }

    /// Where the probe for `key` starts, before masking: the same hash as
    /// [`crate::hash::hash_kmer`].
    #[inline]
    fn home(&self, key: &[u64]) -> usize {
        murmur64a_words(key, self.k as u64) as usize
    }

    /// `Ok(slot)` holding `km`, or `Err(slot)`: the empty slot where the
    /// probe for `km`, whose hash is `hash`, ends.
    #[inline]
    fn probe(&self, km: &Kmer, hash: u64) -> Result<usize, usize> {
        debug_assert_eq!(hash, hash_kmer(km), "hash of another k-mer");
        let key = &km.words()[..self.nwords];
        let mask = self.capacity() - 1;
        let mut slot = hash as usize & mask;
        loop {
            if !self.used.get(slot) {
                return Err(slot);
            }
            if &self.keys[slot * self.nwords..][..self.nwords] == key {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot holding `km`, if present (`None` for a k-mer of another k).
    /// Slots are stable until the next insertion or [`KmerTable::retain`].
    #[inline]
    pub fn slot(&self, km: &Kmer) -> Option<usize> {
        self.slot_hashed(km, hash_kmer(km))
    }

    /// [`KmerTable::slot`] for a caller that already holds
    /// `hash = hash_kmer(km)`.
    #[inline]
    pub fn slot_hashed(&self, km: &Kmer, hash: u64) -> Option<usize> {
        if km.k() != self.k {
            return None;
        }
        self.probe(km, hash).ok()
    }

    /// The value for `km`, if present.
    #[inline]
    pub fn get(&self, km: &Kmer) -> Option<&V> {
        self.slot(km).map(|slot| &self.vals[slot])
    }

    /// The value in an occupied `slot` (from [`KmerTable::slot`]).
    #[inline]
    pub fn at(&self, slot: usize) -> &V {
        debug_assert!(self.used.get(slot), "slot {slot} is empty");
        &self.vals[slot]
    }

    /// The value in an occupied `slot`, mutably.
    #[inline]
    pub fn at_mut(&mut self, slot: usize) -> &mut V {
        debug_assert!(self.used.get(slot), "slot {slot} is empty");
        &mut self.vals[slot]
    }

    /// The packed words (`⌈k/32⌉` of them) of the k-mer in an occupied
    /// `slot`. They order as the k-mers do.
    #[inline]
    pub fn key_words(&self, slot: usize) -> &[u64] {
        &self.keys[slot * self.nwords..][..self.nwords]
    }

    /// The k-mer stored in an occupied `slot`.
    pub fn key_at(&self, slot: usize) -> Kmer {
        let mut words = [0u64; KMER_WORDS];
        words[..self.nwords].copy_from_slice(self.key_words(slot));
        Kmer::from_words(words, self.k)
    }

    /// Occupied slots, in slot order.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.capacity()).filter(|&slot| self.used.get(slot))
    }

    /// Entries, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, &V)> + '_ {
        self.slots().map(|slot| (self.key_at(slot), &self.vals[slot]))
    }

    /// Values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots().map(|slot| &self.vals[slot])
    }

    /// Values, mutably, in slot order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        let used = &self.used;
        self.vals.iter_mut().enumerate().filter(|(slot, _)| used.get(*slot)).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn kmer(codes: &[u8]) -> Kmer {
        Kmer::from_seq(&DnaSeq::from_codes(codes.to_vec()), 0, codes.len())
    }

    #[test]
    fn insert_get_and_grow() {
        let mut t: KmerTable<u32> = KmerTable::new(40);
        let keys: Vec<Kmer> = (0..1000u32)
            .map(|i| kmer(&(0..40).map(|j| ((i >> (j % 10)) % 4) as u8).collect::<Vec<_>>()))
            .collect();
        for (i, km) in keys.iter().enumerate() {
            *t.entry(km) += i as u32;
        }
        let distinct: std::collections::HashSet<Kmer> = keys.iter().copied().collect();
        assert_eq!(t.len(), distinct.len());
        assert!(t.len() * LOAD_DEN <= t.capacity() * LOAD_NUM);
        for km in &distinct {
            let slot = t.slot(km).expect("inserted key is found");
            assert_eq!(t.key_at(slot), *km);
        }
    }

    #[test]
    fn other_k_is_absent() {
        let mut t: KmerTable<u8> = KmerTable::new(4);
        *t.entry(&kmer(&[0, 1, 2, 3])) = 1;
        assert_eq!(t.get(&kmer(&[0, 1, 2])), None);
        assert_eq!(t.get(&kmer(&[0, 1, 2, 3])), Some(&1));
    }

    #[test]
    fn values_mut_edits_in_place_in_slot_order() {
        let mut t: KmerTable<u32> = KmerTable::new(3);
        let (a, b) = (kmer(&[0, 1, 2]), kmer(&[3, 3, 0]));
        *t.entry(&a) = 1;
        *t.entry(&b) = 2;
        for v in t.values_mut() {
            *v *= 10;
        }
        assert_eq!((t.get(&a), t.get(&b)), (Some(&10), Some(&20)));
        let walked: Vec<u32> = t.values().copied().collect();
        assert_eq!(t.values_mut().map(|v| *v).collect::<Vec<_>>(), walked);
    }

    #[test]
    fn retain_in_place_keeps_every_probe_whole() {
        // Dropping a few entries keeps the size, so the gaps are closed in
        // place; with this many colliding 6-mers, most clusters lose a slot.
        let mut t: KmerTable<u32> = KmerTable::new(6);
        let keys: Vec<Kmer> = (0..2800u32)
            .map(|i| kmer(&(0..6).map(|j| ((i >> (2 * j)) % 4) as u8).collect::<Vec<_>>()))
            .collect();
        for (i, km) in keys.iter().enumerate() {
            *t.entry(km) = i as u32;
        }
        let capacity = t.capacity();
        t.retain(|&v| v % 16 != 0);
        assert_eq!(t.capacity(), capacity, "the size holds, so the gaps close in place");
        for (i, km) in keys.iter().enumerate() {
            let want = (i % 16 != 0).then_some(i as u32);
            assert_eq!(t.get(km).copied(), want, "key {i}");
        }
        assert_eq!(t.len(), keys.iter().enumerate().filter(|(i, _)| i % 16 != 0).count());
    }

    proptest! {
        /// The table agrees with a `HashMap` after inserts and a `retain`:
        /// every survivor is found with its value, every dropped key is
        /// absent, the sizes match, and the rebuilt table is no larger than
        /// the load limit needs.
        #[test]
        fn matches_hashmap_through_retain(
            k in 1usize..=MAX_K,
            pool in proptest::collection::vec(proptest::collection::vec(0u8..4, MAX_K), 1..60),
            picks in proptest::collection::vec(any::<usize>(), 1..300),
            cut in 0u32..4,
        ) {
            let mut table: KmerTable<u32> = KmerTable::new(k);
            let mut oracle: HashMap<Kmer, u32> = HashMap::new();
            for p in picks {
                let km = kmer(&pool[p % pool.len()][..k]);
                *table.entry(&km) += 1;
                *oracle.entry(km).or_default() += 1;
            }
            prop_assert_eq!(table.len(), oracle.len());
            table.retain(|&v| v > cut);
            oracle.retain(|_, &mut v| v > cut);
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert_eq!(table.iter().count(), oracle.len());
            for (km, v) in &oracle {
                prop_assert_eq!(table.get(km), Some(v));
            }
            for (km, v) in table.iter() {
                prop_assert_eq!(oracle.get(&km), Some(v));
            }
            prop_assert!(table.capacity() == MIN_SLOTS
                || table.len() * 2 * LOAD_DEN > table.capacity() * LOAD_NUM);
        }
    }
}
