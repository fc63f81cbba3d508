//! Shadow memory for the `gpucheck` memcheck analysis.
//!
//! Every device word below the bump allocator's all-time high-water mark
//! carries the id of the allocation that last covered it. Allocations are
//! zero-filled (the `cudaMemset` the paper's host code does), so every
//! live word is defined and memcheck checks only where an access lands.
//! The bump allocator leaves no gaps and restarts at address 0 after a
//! reset, so the live words are exactly those below the current epoch's
//! high-water mark, and the classification rules are exact:
//!
//! * an address at or past the all-time high-water mark has never been
//!   allocated — **out of bounds**;
//! * an address between the two high-water marks belongs to an allocation
//!   freed by the last reset and is reachable only through a stale
//!   [`Buf`](crate::mem::Buf) handle — **use after reset**.
//!
//! The shadow grows lazily with allocations, never to device capacity, so a
//! 16 GB simulated device costs only as much shadow as the run actually
//! allocates.

/// What the memcheck classification found for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemIssue {
    /// Address at or beyond the allocator's all-time high-water mark.
    OutOfBounds,
    /// Address inside an allocation invalidated by an arena reset.
    UseAfterReset { alloc: u32 },
}

/// Per-word allocation ids plus the live high-water mark.
#[derive(Debug, Default)]
pub struct ShadowMemory {
    /// 1-based id of the allocation that last covered each word.
    alloc_of: Vec<u32>,
    /// End of the live words: every word below it was allocated since the
    /// last reset.
    live_end: u64,
    /// Allocations made so far; the last one's id.
    allocs: u32,
}

impl ShadowMemory {
    /// An empty shadow space with no recorded allocations.
    pub fn new() -> ShadowMemory {
        ShadowMemory::default()
    }

    /// Record an allocation; returns its 1-based id.
    pub(crate) fn on_alloc(&mut self, addr: u64, len: u64) -> u32 {
        self.allocs += 1;
        let end = usize::try_from(addr + len).expect("shadow address fits usize");
        if self.alloc_of.len() < end {
            self.alloc_of.resize(end, 0);
        }
        let start = usize::try_from(addr).expect("shadow address fits usize");
        self.alloc_of[start..end].fill(self.allocs);
        self.live_end = self.live_end.max(addr + len);
        self.allocs
    }

    /// Arena reset: every word becomes freed. The ids stay, so stale-`Buf`
    /// accesses can still name the allocation they point into.
    pub(crate) fn on_reset(&mut self) {
        self.live_end = 0;
    }

    /// Classify a device access.
    pub(crate) fn classify(&self, addr: u64) -> Option<MemIssue> {
        match usize::try_from(addr).ok().and_then(|i| self.alloc_of.get(i)) {
            None => Some(MemIssue::OutOfBounds),
            Some(&alloc) if addr >= self.live_end => Some(MemIssue::UseAfterReset { alloc }),
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_classifies_in_and_out_of_bounds() {
        let mut s = ShadowMemory::new();
        s.on_alloc(0, 16);
        assert_eq!(s.classify(0), None);
        assert_eq!(s.classify(15), None);
        assert_eq!(s.classify(16), Some(MemIssue::OutOfBounds));
        assert_eq!(s.classify(u64::MAX), Some(MemIssue::OutOfBounds));
    }

    #[test]
    fn reset_frees_and_keeps_provenance() {
        let mut s = ShadowMemory::new();
        let id = s.on_alloc(0, 8);
        s.on_reset();
        assert_eq!(s.classify(3), Some(MemIssue::UseAfterReset { alloc: id }));
        // Re-allocating the words makes them valid again (arena reuse);
        // the freed words past the new allocation keep their old id.
        let id2 = s.on_alloc(0, 4);
        assert_eq!(id2, id + 1);
        assert_eq!(s.classify(3), None);
        assert_eq!(s.classify(4), Some(MemIssue::UseAfterReset { alloc: id }));
        assert_eq!(s.classify(8), Some(MemIssue::OutOfBounds));
    }
}
