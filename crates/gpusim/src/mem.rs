//! Simulated device global memory.
//!
//! Global memory is a flat, word-addressed (`u64`) address space with a bump
//! allocator — the same discipline the paper's kernels use (one big slab,
//! offsets computed host-side, no device-side `malloc`).
//!
//! Words are `AtomicU64`s so the warps of one launch can run on several
//! host threads over a shared `&GlobalMem`. Every lane access is `Relaxed`:
//! a word publishes no other data within a launch, because a kernel that
//! hands data from one warp to another through memory is a warp race
//! under racecheck, and the launch's thread join orders every access
//! before the host reads the results. On x86-64 relaxed loads and stores
//! compile to plain moves.

use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a device allocation: a word-addressed range of global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buf {
    /// First word address.
    pub(crate) addr: u64,
    /// Length in 64-bit words.
    pub(crate) len: u64,
}

impl Buf {
    /// Word address of element `i`; panics past the end in every build, so
    /// a kernel never reaches into a neighbouring allocation.
    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        assert!(i < self.len, "Buf index {i} out of {len}", len = self.len);
        self.addr + i
    }

    /// Sub-range `[off, off+len)` of this buffer.
    pub fn slice(&self, off: u64, len: u64) -> Buf {
        let end = off.checked_add(len);
        assert!(end.is_some_and(|e| e <= self.len), "slice out of bounds");
        Buf { addr: self.addr + off, len }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.len * 8
    }
}

/// Flat global memory with a bump allocator. Private to the simulator:
/// kernels reach it only through [`crate::WarpCtx`], which meters every
/// access and runs the sanitizer's checks.
#[derive(Debug)]
pub(crate) struct GlobalMem {
    words: Vec<AtomicU64>,
    next: u64,
    capacity_words: u64,
}

/// Out-of-memory error for the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOom {
    /// Words the failed allocation asked for.
    pub requested_words: u64,
    /// Words that were still free at the time of the request.
    pub free_words: u64,
}

impl std::fmt::Display for DeviceOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device OOM: requested {} words, {} free", self.requested_words, self.free_words)
    }
}

impl std::error::Error for DeviceOom {}

impl GlobalMem {
    /// New memory with the given capacity. Backing storage grows lazily.
    pub fn new(capacity_words: u64) -> GlobalMem {
        GlobalMem { words: Vec::new(), next: 0, capacity_words }
    }

    /// Allocate `len` words (zero-initialized).
    pub fn alloc(&mut self, len: u64) -> Result<Buf, DeviceOom> {
        // checked_add: `next + len` can wrap u64 before the capacity compare
        // (same hazard as the Buf::slice offset overflow).
        let end = self.next.checked_add(len).filter(|&e| e <= self.capacity_words);
        let Some(end) = end else {
            return Err(DeviceOom {
                requested_words: len,
                free_words: self.capacity_words - self.next,
            });
        };
        let addr = self.next;
        self.next = end;
        let needed = usize::try_from(self.next).expect("device capacity fits usize");
        if self.words.len() < needed {
            self.words.resize_with(needed, || AtomicU64::new(0));
        }
        Ok(Buf { addr, len })
    }

    /// Free everything (bump allocator reset). Existing `Buf` handles become
    /// dangling; callers own that discipline, as with a real device arena.
    pub fn reset(&mut self) {
        self.next = 0;
        self.words.clear();
    }

    /// Words currently allocated.
    pub fn used_words(&self) -> u64 {
        self.next
    }

    #[inline]
    fn word(&self, addr: u64) -> &AtomicU64 {
        &self.words[usize::try_from(addr).expect("addr fits usize")]
    }

    /// Raw word read (host-side or lane-side; no metering here — metering is
    /// the warp context's job).
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        self.word(addr).load(Ordering::Relaxed)
    }

    /// Lane-side word store.
    #[inline]
    pub(crate) fn store(&self, addr: u64, val: u64) {
        self.word(addr).store(val, Ordering::Relaxed);
    }

    /// Lane-side compare-and-swap; returns the old value.
    #[inline]
    pub(crate) fn cas(&self, addr: u64, expected: u64, new: u64) -> u64 {
        let (Ok(old) | Err(old)) =
            self.word(addr).compare_exchange(expected, new, Ordering::Relaxed, Ordering::Relaxed);
        old
    }

    /// Lane-side wrapping add; returns the old value.
    #[inline]
    pub(crate) fn fetch_add(&self, addr: u64, val: u64) -> u64 {
        self.word(addr).fetch_add(val, Ordering::Relaxed)
    }

    /// Host-side bulk copy into device memory.
    pub fn write_slice(&mut self, buf: Buf, offset: u64, data: &[u64]) {
        let end = offset.checked_add(data.len() as u64);
        assert!(end.is_some_and(|e| e <= buf.len), "write past buffer end");
        let start = usize::try_from(buf.addr + offset).expect("fits");
        for (word, &val) in self.words[start..start + data.len()].iter_mut().zip(data) {
            *word.get_mut() = val;
        }
    }

    /// Host-side bulk copy out of device memory.
    pub fn read_slice(&self, buf: Buf, offset: u64, len: u64) -> Vec<u64> {
        let end = offset.checked_add(len);
        assert!(end.is_some_and(|e| e <= buf.len), "read past buffer end");
        let start = usize::try_from(buf.addr + offset).expect("fits");
        let words = &self.words[start..start + usize::try_from(len).expect("fits")];
        words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut m = GlobalMem::new(1024);
        let b = m.alloc(16).unwrap();
        m.write_slice(b, 0, &[1, 2, 3]);
        assert_eq!(m.read_slice(b, 0, 4), vec![1, 2, 3, 0]);
        assert_eq!(m.read(b.at(1)), 2);
    }

    #[test]
    fn oom_reports_free() {
        let mut m = GlobalMem::new(10);
        m.alloc(8).unwrap();
        let err = m.alloc(4).unwrap_err();
        assert_eq!(err.free_words, 2);
        assert_eq!(err.requested_words, 4);
    }

    #[test]
    fn allocations_disjoint() {
        let mut m = GlobalMem::new(100);
        let a = m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        assert_eq!(a.addr + a.len, b.addr);
        m.write_slice(a, 9, &[7]);
        assert_eq!(m.read(b.at(0)), 0);
    }

    #[test]
    fn reset_reclaims() {
        let mut m = GlobalMem::new(10);
        m.alloc(10).unwrap();
        m.reset();
        assert!(m.alloc(10).is_ok());
    }

    #[test]
    fn slice_bounds() {
        let mut m = GlobalMem::new(100);
        let b = m.alloc(10).unwrap();
        let s = b.slice(4, 6);
        assert_eq!(s.addr, b.addr + 4);
        assert_eq!(s.len, 6);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_end_panics() {
        let b = Buf { addr: 0, len: 10 };
        b.slice(5, 6);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_overflowing_offset_panics() {
        // off + len wraps u64; must be rejected, not wrapped into bounds.
        let b = Buf { addr: 0, len: 10 };
        b.slice(u64::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "past buffer end")]
    fn write_slice_overflowing_offset_panics() {
        // offset + len wraps u64; must be rejected, not wrapped into the
        // previous allocation.
        let mut m = GlobalMem::new(100);
        m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        m.write_slice(b, u64::MAX, &[42]);
    }

    #[test]
    #[should_panic(expected = "past buffer end")]
    fn read_slice_overflowing_offset_panics() {
        let mut m = GlobalMem::new(100);
        m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        m.read_slice(b, u64::MAX, 1);
    }

    #[test]
    fn alloc_overflowing_len_is_oom_not_wrap() {
        // next + len wraps u64: must be a clean OOM, not a wrapped success.
        let mut m = GlobalMem::new(100);
        m.alloc(10).unwrap();
        let err = m.alloc(u64::MAX - 4).unwrap_err();
        assert_eq!(err.free_words, 90);
        assert!(m.alloc(90).is_ok(), "allocator state intact after overflow attempt");
    }

    #[test]
    #[should_panic(expected = "Buf index 4 out of 4")]
    fn at_past_the_end_panics() {
        // Checked in every build, with no sanitizer anywhere; the word
        // past the end exists (the next allocation's first).
        let mut m = GlobalMem::new(100);
        let b = m.alloc(4).unwrap();
        m.alloc(4).unwrap();
        b.at(4);
    }
}
