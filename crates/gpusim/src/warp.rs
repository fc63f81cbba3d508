//! Warp execution context: the API kernels are written against.
//!
//! A kernel function receives one [`WarpCtx`] per warp and expresses its work
//! as 32-lane operations. The context applies the functional effect of every
//! operation to device memory *and* meters it: instruction class counts,
//! coalesced transaction counts and active/predicated lane slots.
//!
//! Divergence is explicit, as in real SIMT assembly: the kernel pushes a
//! narrower active mask for a divergent region and pops it afterwards
//! ([`WarpCtx::push_mask`] / [`WarpCtx::pop_mask`]). Operations only act on
//! (and only count useful work for) active lanes.

use crate::counters::{Counters, InstClass};
use crate::mem::GlobalMem;
use crate::sanitizer::{AccessKind, Sanitizer};

/// Lanes per warp (NVIDIA hardware constant).
pub const WARP: usize = 32;

/// A per-lane value vector.
pub type Lanes<T> = [T; WARP];

/// Mask with all 32 lanes active.
pub const FULL_MASK: u32 = u32::MAX;

/// Execution context for one warp within a kernel launch.
pub struct WarpCtx<'a> {
    /// Flat warp index within the launch.
    pub warp_id: usize,
    mem: &'a GlobalMem,
    counters: &'a mut Counters,
    mask: u32,
    mask_stack: Vec<u32>,
    /// Per-warp local memory: `local[lane * words_per_lane + offset]`.
    local: Vec<u64>,
    local_words_per_lane: usize,
    sector_words: u64,
    /// `gpucheck` dynamic checker, when the device config enables it.
    sanitizer: Option<&'a mut Sanitizer>,
}

impl<'a> WarpCtx<'a> {
    pub(crate) fn new(
        warp_id: usize,
        mem: &'a GlobalMem,
        counters: &'a mut Counters,
        local_words_per_lane: usize,
        sector_bytes: u32,
        mut sanitizer: Option<&'a mut Sanitizer>,
    ) -> WarpCtx<'a> {
        if let Some(s) = sanitizer.as_mut() {
            s.begin_warp();
        }
        WarpCtx {
            warp_id,
            mem,
            counters,
            mask: FULL_MASK,
            mask_stack: Vec::new(),
            local: vec![0; local_words_per_lane * WARP],
            local_words_per_lane,
            sector_words: u64::from(sector_bytes) / 8,
            sanitizer,
        }
    }

    /// Annotate the kernel site (phase name) subsequent sanitizer reports
    /// should carry. A no-op when the sanitizer is off.
    pub fn set_site(&mut self, site: &'static str) {
        if let Some(s) = self.sanitizer.as_mut() {
            s.set_site(site);
        }
    }

    /// Kernel body returned: synccheck the residual mask stack. Called by
    /// the device after every kernel invocation.
    pub(crate) fn finish_warp(&mut self) {
        let depth = self.mask_stack.len();
        let warp = self.warp_id;
        if let Some(s) = self.sanitizer.as_mut() {
            s.end_warp(warp, depth);
        }
    }

    /// Sanitizer check for one lane's global access. `true` = proceed with
    /// the physical access; `false` = memcheck found it invalid (loads then
    /// yield 0, stores and atomics are dropped). Accounting is unaffected
    /// either way so clean-run counters are identical sanitizer on or off.
    #[inline]
    fn sanitize_access(&mut self, lane: usize, addr: u64, kind: AccessKind) -> bool {
        let warp = self.warp_id;
        match self.sanitizer.as_mut() {
            Some(s) => s.global_access(warp, lane, addr, kind),
            None => true,
        }
    }

    // ---- mask management ------------------------------------------------

    /// Current active mask (bit `i` = lane `i` active).
    #[inline]
    pub fn active_mask(&self) -> u32 {
        self.mask
    }

    /// Is lane `lane` active?
    #[inline]
    pub fn lane_active(&self, lane: usize) -> bool {
        self.mask & (1 << lane) != 0
    }

    /// Number of active lanes.
    #[inline]
    pub fn active_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Lowest-numbered active lane, if any.
    pub fn first_active_lane(&self) -> Option<usize> {
        if self.mask == 0 {
            None
        } else {
            Some(self.mask.trailing_zeros() as usize)
        }
    }

    /// Enter a divergent region: active mask becomes `mask ∧ current`.
    /// Counts one control instruction (the branch).
    pub fn push_mask(&mut self, mask: u32) {
        self.counters.record(InstClass::Control, 1, self.active_count());
        self.mask_stack.push(self.mask);
        self.mask &= mask;
    }

    /// Leave the innermost divergent region (reconvergence point).
    ///
    /// Panics if there is no matching `push_mask`.
    pub fn pop_mask(&mut self) {
        self.mask = self.mask_stack.pop().expect("pop_mask without push_mask");
    }

    /// Iterate over active lanes.
    pub fn for_each_active(&self, mut f: impl FnMut(usize)) {
        let mask = self.mask;
        for lane in 0..WARP {
            if mask & (1 << lane) != 0 {
                f(lane);
            }
        }
    }

    /// Build a per-lane vector from a closure evaluated for every lane
    /// (active or not). Purely a host-side convenience; not metered.
    pub fn lanes_from<T: Copy + Default>(&self, mut f: impl FnMut(usize) -> T) -> Lanes<T> {
        std::array::from_fn(|lane| {
            let _ = &mut f;
            f(lane)
        })
    }

    // ---- arithmetic accounting -------------------------------------------

    /// Account `n` integer warp instructions at the current mask.
    #[inline]
    pub fn int_ops(&mut self, n: u64) {
        self.counters.record(InstClass::Int, n, self.active_count());
    }

    /// Account `n` floating-point warp instructions.
    #[inline]
    pub fn fp_ops(&mut self, n: u64) {
        self.counters.record(InstClass::Fp, n, self.active_count());
    }

    /// Account `n` control-flow warp instructions (loop branches etc.).
    #[inline]
    pub fn ctrl_ops(&mut self, n: u64) {
        self.counters.record(InstClass::Control, n, self.active_count());
    }

    // ---- global memory ----------------------------------------------------

    /// Warp-wide global load: each active lane with `Some(addr)` loads one
    /// 64-bit word. One `LdStGlobal` warp instruction; transactions are the
    /// number of distinct 32-byte sectors touched (coalescing).
    ///
    /// Inactive lanes and `None` lanes return 0 and count as predicated.
    pub fn ld_global(&mut self, addrs: &Lanes<Option<u64>>) -> Lanes<u64> {
        let mut out = [0u64; WARP];
        let mut participating = 0u32;
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some(addr) = addrs[lane] {
                if self.sanitize_access(lane, addr, AccessKind::Read) {
                    out[lane] = self.mem.read(addr);
                }
                participating += 1;
                sectors.push(addr / self.sector_words);
            }
        }
        self.counters.record(InstClass::LdStGlobal, 1, participating);
        sectors.sort_unstable();
        sectors.dedup();
        self.counters.global_ld_transactions += sectors.len() as u64;
        out
    }

    /// Warp-wide global store; accounting mirrors [`ld_global`](Self::ld_global).
    /// When several lanes store to the same address the highest lane wins
    /// (CUDA leaves this undefined; we pick a deterministic rule).
    pub fn st_global(&mut self, addrs: &Lanes<Option<u64>>, vals: &Lanes<u64>) {
        let mut participating = 0u32;
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some(addr) = addrs[lane] {
                if self.sanitize_access(lane, addr, AccessKind::Write) {
                    self.mem.store(addr, vals[lane]);
                }
                participating += 1;
                sectors.push(addr / self.sector_words);
            }
        }
        self.counters.record(InstClass::LdStGlobal, 1, participating);
        sectors.sort_unstable();
        sectors.dedup();
        self.counters.global_st_transactions += sectors.len() as u64;
    }

    /// Single-lane convenience load (e.g. the walking lane). Still one warp
    /// instruction with one participating lane — exactly the predication
    /// pattern of the paper's DNA-walk phase.
    pub fn ld_global_lane(&mut self, lane: usize, addr: u64) -> u64 {
        let mut addrs: Lanes<Option<u64>> = [None; WARP];
        addrs[lane] = Some(addr);
        self.ld_global(&addrs)[lane]
    }

    /// Single-lane convenience store.
    pub fn st_global_lane(&mut self, lane: usize, addr: u64, val: u64) {
        let mut addrs: Lanes<Option<u64>> = [None; WARP];
        let mut vals: Lanes<u64> = [0; WARP];
        addrs[lane] = Some(addr);
        vals[lane] = val;
        self.st_global(&addrs, &vals);
    }

    // ---- atomics ----------------------------------------------------------

    /// Warp-wide compare-and-swap. For each active lane with
    /// `Some((addr, expected, new))`: atomically, if `*addr == expected`
    /// then `*addr = new`; returns the old value.
    ///
    /// Lanes are applied in ascending lane order — the serialization a real
    /// GPU performs when atomics conflict, and the property the paper's
    /// thread-collision resolution relies on (exactly one colliding lane
    /// sees `expected`).
    pub fn atomic_cas(&mut self, ops: &Lanes<Option<(u64, u64, u64)>>) -> Lanes<u64> {
        let mut out = [0u64; WARP];
        let mut participating = 0u32;
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some((addr, expected, new)) = ops[lane] {
                if self.sanitize_access(lane, addr, AccessKind::Atomic) {
                    out[lane] = self.mem.cas(addr, expected, new);
                }
                participating += 1;
                sectors.push(addr / self.sector_words);
            }
        }
        self.counters.record(InstClass::Atomic, 1, participating);
        sectors.sort_unstable();
        sectors.dedup();
        self.counters.atomic_transactions += sectors.len() as u64;
        out
    }

    /// Warp-wide atomic wrapping add; returns the previous values. Same-
    /// address lanes serialize in lane order (all additions take effect).
    pub fn atomic_add(&mut self, ops: &Lanes<Option<(u64, u64)>>) -> Lanes<u64> {
        let mut out = [0u64; WARP];
        let mut participating = 0u32;
        let mut sectors: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some((addr, val)) = ops[lane] {
                if self.sanitize_access(lane, addr, AccessKind::Atomic) {
                    out[lane] = self.mem.fetch_add(addr, val);
                }
                participating += 1;
                sectors.push(addr / self.sector_words);
            }
        }
        self.counters.record(InstClass::Atomic, 1, participating);
        sectors.sort_unstable();
        sectors.dedup();
        self.counters.atomic_transactions += sectors.len() as u64;
        out
    }

    // ---- warp intrinsics ----------------------------------------------------

    /// `__shfl_sync`: every active lane reads `vals[src_lane]`.
    pub fn shfl(&mut self, vals: &Lanes<u64>, src_lane: usize) -> Lanes<u64> {
        let (warp, mask) = (self.warp_id, self.mask);
        if let Some(s) = self.sanitizer.as_mut() {
            s.shuffle(warp, src_lane, mask);
        }
        self.counters.record(InstClass::Shuffle, 1, self.active_count());
        let v = vals[src_lane];
        let mut out = *vals;
        self.for_each_active(|lane| out[lane] = v);
        out
    }

    /// `__ballot_sync`: bit `i` of the result is set iff lane `i` is active
    /// and its predicate is true.
    pub fn ballot(&mut self, preds: &Lanes<bool>) -> u32 {
        let (warp, mask) = (self.warp_id, self.mask);
        if let Some(s) = self.sanitizer.as_mut() {
            s.collective(warp, mask);
        }
        self.counters.record(InstClass::Shuffle, 1, self.active_count());
        let mut bits = 0u32;
        self.for_each_active(|lane| {
            if preds[lane] {
                bits |= 1 << lane;
            }
        });
        bits
    }

    /// `__match_any_sync`: for each active lane, the mask of active lanes
    /// holding an equal value. Inactive lanes get 0.
    pub fn match_any(&mut self, vals: &Lanes<u64>) -> Lanes<u32> {
        let (warp, mask) = (self.warp_id, self.mask);
        if let Some(s) = self.sanitizer.as_mut() {
            s.collective(warp, mask);
        }
        self.counters.record(InstClass::Shuffle, 1, self.active_count());
        let mut out = [0u32; WARP];
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            let mut m = 0u32;
            self.for_each_active(|other| {
                if vals[other] == vals[lane] {
                    m |= 1 << other;
                }
            });
            out[lane] = m;
        }
        out
    }

    /// `__syncwarp`: counts a sync instruction (execution here is already
    /// lockstep, so this is purely an accounting event). Under racecheck it
    /// also delimits the unsynced region — accesses before and after a
    /// `syncwarp` are ordered, not racing.
    pub fn syncwarp(&mut self) {
        let (warp, mask) = (self.warp_id, self.mask);
        if let Some(s) = self.sanitizer.as_mut() {
            s.sync_point(warp, mask);
        }
        self.counters.record(InstClass::Sync, 1, self.active_count());
    }

    // ---- local memory -------------------------------------------------------

    /// Words of local (per-lane) memory this warp was launched with.
    pub fn local_words_per_lane(&self) -> usize {
        self.local_words_per_lane
    }

    /// Per-lane local-memory load at per-lane offsets.
    ///
    /// Transactions: lanes accessing the *same* offset sit contiguously in
    /// the interleaved local layout, so each distinct offset contributes
    /// `ceil(participants / lanes_per_sector)` transactions.
    pub fn ld_local(&mut self, offsets: &Lanes<Option<u64>>) -> Lanes<u64> {
        let mut out = [0u64; WARP];
        let mut participating = 0u32;
        let mut by_offset: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some(off) = offsets[lane] {
                let off_us = usize::try_from(off).expect("local offset fits");
                assert!(off_us < self.local_words_per_lane, "local OOB");
                out[lane] = self.local[lane * self.local_words_per_lane + off_us];
                participating += 1;
                by_offset.push(off);
            }
        }
        self.counters.record(InstClass::LdStLocal, 1, participating);
        self.counters.local_transactions += local_transactions(&mut by_offset, self.sector_words);
        out
    }

    /// Per-lane local-memory store; accounting mirrors [`ld_local`](Self::ld_local).
    pub fn st_local(&mut self, offsets: &Lanes<Option<u64>>, vals: &Lanes<u64>) {
        let mut participating = 0u32;
        let mut by_offset: Vec<u64> = Vec::with_capacity(WARP);
        for lane in 0..WARP {
            if !self.lane_active(lane) {
                continue;
            }
            if let Some(off) = offsets[lane] {
                let off_us = usize::try_from(off).expect("local offset fits");
                assert!(off_us < self.local_words_per_lane, "local OOB");
                self.local[lane * self.local_words_per_lane + off_us] = vals[lane];
                participating += 1;
                by_offset.push(off);
            }
        }
        self.counters.record(InstClass::LdStLocal, 1, participating);
        self.counters.local_transactions += local_transactions(&mut by_offset, self.sector_words);
    }

    /// Single-lane local load.
    pub fn ld_local_lane(&mut self, lane: usize, offset: u64) -> u64 {
        let mut offs: Lanes<Option<u64>> = [None; WARP];
        offs[lane] = Some(offset);
        self.ld_local(&offs)[lane]
    }

    /// Single-lane local store.
    pub fn st_local_lane(&mut self, lane: usize, offset: u64, val: u64) {
        let mut offs: Lanes<Option<u64>> = [None; WARP];
        let mut vals: Lanes<u64> = [0; WARP];
        offs[lane] = Some(offset);
        vals[lane] = val;
        self.st_local(&offs, &vals);
    }
}

/// Transactions for a local access: group by offset, each group of `n`
/// contiguous lanes needs `ceil(n / lanes_per_sector)` sectors.
fn local_transactions(offsets: &mut [u64], sector_words: u64) -> u64 {
    if offsets.is_empty() {
        return 0;
    }
    offsets.sort_unstable();
    let lanes_per_sector = sector_words.max(1);
    let mut tx = 0u64;
    let mut run_off = offsets[0];
    let mut run_len: u64 = 0;
    for &off in offsets.iter() {
        if off == run_off {
            run_len += 1;
        } else {
            tx += run_len.div_ceil(lanes_per_sector);
            run_off = off;
            run_len = 1;
        }
    }
    tx + run_len.div_ceil(lanes_per_sector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GlobalMem;

    fn with_ctx(f: impl FnOnce(&mut WarpCtx)) -> Counters {
        let mut mem = GlobalMem::new(1 << 16);
        // Preallocate a working buffer at addr 0.
        mem.alloc(4096).unwrap();
        let mut counters = Counters::new();
        let mut ctx = WarpCtx::new(0, &mem, &mut counters, 64, 32, None);
        f(&mut ctx);
        counters
    }

    #[test]
    fn coalesced_load_is_8_sectors() {
        // 32 lanes × 8 B contiguous = 256 B = 8 × 32 B sectors.
        let c = with_ctx(|ctx| {
            let addrs = ctx.lanes_from(|l| Some(l as u64));
            ctx.ld_global(&addrs);
        });
        assert_eq!(c.ldst_global_inst, 1);
        assert_eq!(c.global_ld_transactions, 8);
        assert_eq!(c.active_lane_slots, 32);
    }

    #[test]
    fn strided_load_is_32_sectors() {
        // Each lane in its own sector: worst case.
        let c = with_ctx(|ctx| {
            let addrs = ctx.lanes_from(|l| Some(l as u64 * 64));
            ctx.ld_global(&addrs);
        });
        assert_eq!(c.global_ld_transactions, 32);
    }

    #[test]
    fn same_word_load_is_1_sector() {
        let c = with_ctx(|ctx| {
            let addrs = ctx.lanes_from(|_| Some(0u64));
            ctx.ld_global(&addrs);
        });
        assert_eq!(c.global_ld_transactions, 1);
    }

    #[test]
    fn store_then_load_round_trips() {
        with_ctx(|ctx| {
            let addrs = ctx.lanes_from(|l| Some(l as u64));
            let vals = ctx.lanes_from(|l| l as u64 * 10);
            ctx.st_global(&addrs, &vals);
            let out = ctx.ld_global(&addrs);
            for l in 0..WARP {
                assert_eq!(out[l], l as u64 * 10);
            }
        });
    }

    #[test]
    fn masked_lanes_do_nothing() {
        with_ctx(|ctx| {
            let addrs = ctx.lanes_from(|l| Some(l as u64));
            let vals = ctx.lanes_from(|_| 7u64);
            ctx.push_mask(0x1); // only lane 0
            ctx.st_global(&addrs, &vals);
            ctx.pop_mask();
            let out = ctx.ld_global(&addrs);
            assert_eq!(out[0], 7);
            for v in &out[1..] {
                assert_eq!(*v, 0);
            }
        });
    }

    #[test]
    fn predication_accounting() {
        let c = with_ctx(|ctx| {
            ctx.push_mask(0x1);
            ctx.int_ops(10);
            ctx.pop_mask();
        });
        // push_mask's control inst ran with 32 active lanes; the 10 int ops
        // ran with 1 active lane.
        assert_eq!(c.int_inst, 10);
        assert_eq!(c.active_lane_slots, 32 + 10);
        assert_eq!(c.predicated_lane_slots, 310);
    }

    #[test]
    fn cas_only_first_succeeds_on_conflict() {
        with_ctx(|ctx| {
            // All 32 lanes CAS the same address from 0 to lane-specific value.
            let ops = ctx.lanes_from(|l| Some((5u64, 0u64, l as u64 + 100)));
            let old = ctx.atomic_cas(&ops);
            // Lane 0 wins (sees 0); all later lanes see lane 0's value.
            assert_eq!(old[0], 0);
            for l in 1..WARP {
                assert_eq!(old[l], 100, "lane {l}");
            }
            let addrs = ctx.lanes_from(|_| Some(5u64));
            assert_eq!(ctx.ld_global(&addrs)[0], 100);
        });
    }

    #[test]
    fn cas_distinct_addresses_all_succeed() {
        with_ctx(|ctx| {
            let ops = ctx.lanes_from(|l| Some((l as u64, 0u64, 1u64)));
            let old = ctx.atomic_cas(&ops);
            assert!(old.iter().all(|&o| o == 0));
        });
    }

    #[test]
    fn atomic_add_accumulates_all_lanes() {
        with_ctx(|ctx| {
            let ops = ctx.lanes_from(|_| Some((9u64, 1u64)));
            ctx.atomic_add(&ops);
            assert_eq!(ctx.ld_global_lane(0, 9), 32);
        });
    }

    #[test]
    fn shfl_broadcasts() {
        with_ctx(|ctx| {
            let vals = ctx.lanes_from(|l| l as u64);
            let out = ctx.shfl(&vals, 5);
            assert!(out.iter().all(|&v| v == 5));
        });
    }

    #[test]
    fn ballot_respects_mask() {
        with_ctx(|ctx| {
            let preds = ctx.lanes_from(|l| l % 2 == 0);
            ctx.push_mask(0xFF);
            let b = ctx.ballot(&preds);
            ctx.pop_mask();
            assert_eq!(b, 0b0101_0101);
        });
    }

    #[test]
    fn match_any_groups_equal_values() {
        with_ctx(|ctx| {
            let vals = ctx.lanes_from(|l| (l % 2) as u64);
            let m = ctx.match_any(&vals);
            let evens: u32 = (0..32).filter(|l| l % 2 == 0).map(|l| 1u32 << l).sum();
            let odds = !evens;
            for l in 0..WARP {
                assert_eq!(m[l], if l % 2 == 0 { evens } else { odds }, "lane {l}");
            }
        });
    }

    #[test]
    fn local_memory_round_trip_and_tx() {
        let c = with_ctx(|ctx| {
            let offs = ctx.lanes_from(|_| Some(3u64));
            let vals = ctx.lanes_from(|l| l as u64);
            ctx.st_local(&offs, &vals);
            let out = ctx.ld_local(&offs);
            for l in 0..WARP {
                assert_eq!(out[l], l as u64);
            }
        });
        // 32 lanes, same offset, 4 lanes/sector → 8 transactions each way.
        assert_eq!(c.local_transactions, 16);
        assert_eq!(c.ldst_local_inst, 2);
    }

    #[test]
    fn local_scattered_offsets_more_tx() {
        let c = with_ctx(|ctx| {
            let offs = ctx.lanes_from(|l| Some(l as u64)); // all distinct
            let vals = [0u64; WARP];
            ctx.st_local(&offs, &vals);
        });
        // 32 distinct offsets → 32 transactions.
        assert_eq!(c.local_transactions, 32);
    }

    #[test]
    #[should_panic(expected = "pop_mask without push_mask")]
    fn unbalanced_pop_panics() {
        with_ctx(|ctx| ctx.pop_mask());
    }

    #[test]
    fn first_active_lane() {
        with_ctx(|ctx| {
            assert_eq!(ctx.first_active_lane(), Some(0));
            ctx.push_mask(0b1100);
            assert_eq!(ctx.first_active_lane(), Some(2));
            ctx.pop_mask();
        });
    }

    mod sanitized {
        use super::*;
        use crate::sanitizer::{Sanitizer, SanitizerConfig, SanitizerKind};

        fn with_sanitized_ctx(f: impl FnOnce(&mut WarpCtx)) -> (Sanitizer, Counters) {
            let mut mem = GlobalMem::new(1 << 16);
            mem.alloc(4096).unwrap();
            let mut counters = Counters::new();
            let mut s = Sanitizer::new(SanitizerConfig::full());
            s.on_alloc(0, 4096, true);
            {
                let mut ctx = WarpCtx::new(0, &mem, &mut counters, 64, 32, Some(&mut s));
                f(&mut ctx);
                ctx.finish_warp();
            }
            (s, counters)
        }

        #[test]
        fn oob_load_is_dropped_but_still_metered() {
            // Address 5000 is past the 4096-word arena; the raw GlobalMem
            // would panic on it — the sanitizer reports and skips instead.
            let (s, c) = with_sanitized_ctx(|ctx| {
                let out = ctx.ld_global_lane(0, 5000);
                assert_eq!(out, 0);
            });
            assert_eq!(s.summary().count(SanitizerKind::OutOfBounds), 1);
            assert_eq!(c.ldst_global_inst, 1);
            assert_eq!(c.global_ld_transactions, 1);
        }

        #[test]
        fn clean_kernel_reports_nothing() {
            let (s, _) = with_sanitized_ctx(|ctx| {
                let addrs = ctx.lanes_from(|l| Some(l as u64));
                let vals = ctx.lanes_from(|l| l as u64);
                ctx.st_global(&addrs, &vals);
                ctx.syncwarp();
                ctx.ld_global(&addrs);
                let ops = ctx.lanes_from(|_| Some((100u64, 1u64)));
                ctx.atomic_add(&ops);
            });
            assert!(s.summary().is_clean(), "{}", s.summary().render());
        }

        #[test]
        fn same_word_stores_race_without_sync() {
            let (s, _) = with_sanitized_ctx(|ctx| {
                let addrs = ctx.lanes_from(|_| Some(7u64));
                let vals = ctx.lanes_from(|l| l as u64);
                ctx.st_global(&addrs, &vals);
            });
            assert!(s.summary().count(SanitizerKind::LaneRace) > 0);
        }

        #[test]
        fn unpopped_mask_reported_at_exit() {
            let (s, _) = with_sanitized_ctx(|ctx| {
                ctx.push_mask(0xF);
            });
            assert_eq!(s.summary().count(SanitizerKind::MaskStackImbalance), 1);
        }

        #[test]
        fn shfl_from_masked_out_lane_reported() {
            let (s, _) = with_sanitized_ctx(|ctx| {
                let vals = ctx.lanes_from(|l| l as u64);
                ctx.push_mask(0b10); // lane 1 only; src lane 0 is inactive
                ctx.shfl(&vals, 0);
                ctx.pop_mask();
            });
            assert_eq!(s.summary().count(SanitizerKind::ShuffleInactiveSrc), 1);
        }
    }
}
