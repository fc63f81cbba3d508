//! The simulated device: allocation, kernel launch, accumulated statistics.

use crate::config::DeviceConfig;
use crate::counters::Counters;
use crate::fault::{Fault, LaunchError};
use crate::mem::{Buf, DeviceOom, GlobalMem};
use crate::sanitizer::{Sanitizer, SanitizerSummary};
use crate::timing::{self, TimingEstimate};
use crate::warp::WarpCtx;
use rayon::prelude::*;
use std::ops::Range;

/// Does the `GPUSIM_SANITIZE` environment variable force the `gpucheck`
/// sanitizer on for every device, whatever its config? Any value but empty
/// or `0` does (the CI whole-suite sanitize job sets it).
pub fn sanitize_env_forced() -> bool {
    std::env::var_os("GPUSIM_SANITIZE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Warp ranges a launch is cut into per host thread, so warps of uneven
/// cost still balance across threads.
const RANGES_PER_THREAD: usize = 4;

/// Statistics for one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Warps in the launch grid.
    pub warps: usize,
    /// Counters accumulated during this launch only.
    pub counters: Counters,
    /// Estimated execution time under the device's timing model.
    pub timing: TimingEstimate,
}

/// A simulated GPU: global memory plus accumulated execution counters.
///
/// Faults from the config's [`FaultPlan`](crate::fault::FaultPlan) fire at
/// deterministic allocation/launch indices. A fatal fault ([`Fault::KernelHang`],
/// [`Fault::BitFlip`]) *poisons* the device — every subsequent launch fails
/// with [`LaunchError::DeviceLost`] until [`Device::reset_device`] is called —
/// mirroring CUDA sticky errors.
pub struct Device {
    config: DeviceConfig,
    mem: GlobalMem,
    /// Counters accumulated across all launches since construction/reset.
    total: Counters,
    /// Seconds of simulated kernel time accumulated across launches.
    total_time_s: f64,
    launches: u64,
    /// Allocation attempts over the device's lifetime (denied ones included).
    allocs: u64,
    /// `fired[i]` ⇔ `config.fault_plan.faults[i]` has already fired.
    fired: Vec<bool>,
    /// The fatal error poisoning the context, if any.
    poisoned: Option<LaunchError>,
    /// Completed device resets.
    resets: u64,
    /// `gpucheck` dynamic checker (config- or env-enabled).
    sanitizer: Option<Box<Sanitizer>>,
}

impl Device {
    /// New device with the given configuration. The `GPUSIM_SANITIZE`
    /// environment variable ([`sanitize_env_forced`]) turns the sanitizer
    /// on even when the config leaves it off.
    pub fn new(config: DeviceConfig) -> Device {
        let cap = config.capacity_words();
        let fired = vec![false; config.fault_plan.faults.len()];
        let sanitizer = (config.sanitize || sanitize_env_forced()).then(|| {
            crate::mem::enable_strict_bounds();
            Box::new(Sanitizer::new())
        });
        Device {
            config,
            mem: GlobalMem::new(cap),
            total: Counters::new(),
            total_time_s: 0.0,
            launches: 0,
            allocs: 0,
            fired,
            poisoned: None,
            resets: 0,
            sanitizer,
        }
    }

    /// Is the `gpucheck` sanitizer active on this device?
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Drain the sanitizer findings accumulated since the last call
    /// (`None` when the sanitizer is off).
    pub fn take_sanitizer_summary(&mut self) -> Option<SanitizerSummary> {
        self.sanitizer.as_mut().map(|s| s.take_summary())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Allocate `words` 64-bit words of zeroed global memory.
    ///
    /// An armed [`Fault::SlabOom`] matching this allocation attempt makes it
    /// fail with [`DeviceOom`] even if capacity remains; the device stays
    /// usable (callers shrink and retry).
    pub fn alloc(&mut self, words: u64) -> Result<Buf, DeviceOom> {
        self.alloc_inner(words, true)
    }

    /// Allocate `words` words *without* the zero-fill guarantee — the
    /// `cudaMalloc` analogue of [`Device::alloc`]'s `cudaMemset` semantics.
    /// Physically the simulator still zeroes the words, but under memcheck a
    /// load from them before any store is an uninitialized read.
    pub fn alloc_uninit(&mut self, words: u64) -> Result<Buf, DeviceOom> {
        self.alloc_inner(words, false)
    }

    fn alloc_inner(&mut self, words: u64, initialized: bool) -> Result<Buf, DeviceOom> {
        let attempt = self.allocs;
        self.allocs += 1;
        for i in 0..self.config.fault_plan.faults.len() {
            if self.fired[i] {
                continue;
            }
            if let Fault::SlabOom { at_alloc } = self.config.fault_plan.faults[i] {
                if at_alloc == attempt {
                    self.fired[i] = true;
                    let free = self.config.capacity_words() - self.mem.used_words();
                    return Err(DeviceOom { requested_words: words, free_words: free });
                }
            }
        }
        let buf = self.mem.alloc(words)?;
        if let Some(s) = self.sanitizer.as_mut() {
            s.on_alloc(buf.addr, buf.len, initialized);
        }
        Ok(buf)
    }

    /// Free all allocations (arena reset), keeping counters.
    pub fn reset_mem(&mut self) {
        self.mem.reset();
        if let Some(s) = self.sanitizer.as_mut() {
            s.on_reset();
        }
    }

    /// Words currently allocated on the device.
    pub fn mem_used_words(&self) -> u64 {
        self.mem.used_words()
    }

    /// Host → device copy.
    pub fn h2d(&mut self, buf: Buf, offset: u64, data: &[u64]) {
        self.mem.write_slice(buf, offset, data);
        if let Some(s) = self.sanitizer.as_mut() {
            s.on_host_write(buf.addr + offset, data.len() as u64);
        }
    }

    /// Device → host copy.
    pub fn d2h(&self, buf: Buf, offset: u64, len: u64) -> Vec<u64> {
        self.mem.read_slice(buf, offset, len)
    }

    /// Read a single word host-side.
    pub fn d2h_word(&self, buf: Buf, offset: u64) -> u64 {
        self.mem.read(buf.at(offset))
    }

    /// Launch a kernel of `warps` warps, each with `local_words_per_lane`
    /// words of local memory. The kernel body runs once per warp.
    ///
    /// The warp ids `0..warps` are cut into contiguous ranges that run in
    /// parallel on the rayon thread pool; within a range, warps run in
    /// warp-id order. Each range meters into its own [`Counters`], and the
    /// ranges are merged in range order, so counters and the timing
    /// estimate are identical at any thread count. Device memory is
    /// identical to a serial warp-id-order run only for kernels that
    /// racecheck reports race-free — kernels must not rely on inter-warp
    /// ordering, just as on real hardware. With the sanitizer on, the
    /// launch runs as one range on the calling thread, because the
    /// sanitizer's state is per launch.
    ///
    /// Returns per-launch counters and a timing estimate, or a
    /// [`LaunchError`] when an injected fault fires (or the device is
    /// already poisoned by one). Failed launch attempts still count toward
    /// [`Device::launches`], and a hang's watchdog wait is charged to
    /// [`Device::total_time_s`].
    pub fn launch(
        &mut self,
        warps: usize,
        local_words_per_lane: usize,
        kernel: impl Fn(&mut WarpCtx) + Sync,
    ) -> Result<LaunchStats, LaunchError> {
        let launch_idx = self.launches;
        self.launches += 1;
        if self.poisoned.is_some() {
            return Err(LaunchError::DeviceLost { launch_idx });
        }
        if let Some(err) = self.fire_launch_fault(launch_idx) {
            self.poisoned = Some(err);
            return Err(err);
        }
        if let Some(s) = self.sanitizer.as_mut() {
            s.begin_launch(launch_idx);
        }
        let (mem, sector_bytes) = (&self.mem, self.config.sector_bytes);
        let run_range = |range: Range<usize>, mut sanitizer: Option<&mut Sanitizer>| {
            let mut counters = Counters::new();
            for warp_id in range {
                let mut ctx = WarpCtx::new(
                    warp_id,
                    mem,
                    &mut counters,
                    local_words_per_lane,
                    sector_bytes,
                    sanitizer.as_deref_mut(),
                );
                kernel(&mut ctx);
                ctx.finish_warp();
            }
            counters
        };
        let counters = match self.sanitizer.as_deref_mut() {
            Some(s) => run_range(0..warps, Some(s)),
            None => {
                let n = (rayon::current_num_threads() * RANGES_PER_THREAD).clamp(1, warps.max(1));
                let ranges: Vec<Range<usize>> =
                    (0..n).map(|r| r * warps / n..(r + 1) * warps / n).collect();
                let per_range: Vec<Counters> =
                    ranges.par_iter().map(|r| run_range(r.clone(), None)).collect();
                per_range.iter().fold(Counters::new(), |mut sum, c| {
                    sum.merge(c);
                    sum
                })
            }
        };
        let timing = timing::estimate(&self.config, &counters, warps);
        self.total.merge(&counters);
        self.total_time_s += timing.total_seconds();
        Ok(LaunchStats { warps, counters, timing })
    }

    /// Fire the first armed launch-scoped fault matching `launch_idx`.
    fn fire_launch_fault(&mut self, launch_idx: u64) -> Option<LaunchError> {
        for i in 0..self.config.fault_plan.faults.len() {
            if self.fired[i] {
                continue;
            }
            match self.config.fault_plan.faults[i] {
                Fault::KernelHang { at_launch, after_cycles } if at_launch == launch_idx => {
                    self.fired[i] = true;
                    // The host blocks on the watchdog before seeing the error.
                    self.total_time_s += after_cycles as f64 / (self.config.clock_ghz * 1e9);
                    return Some(LaunchError::Hang { launch_idx, after_cycles });
                }
                Fault::BitFlip { at_launch, addr } if at_launch == launch_idx => {
                    self.fired[i] = true;
                    if addr < self.mem.used_words() {
                        self.mem.write(addr, self.mem.read(addr) ^ 1);
                    }
                    return Some(LaunchError::MemCorruption { launch_idx, addr });
                }
                _ => {}
            }
        }
        None
    }

    /// Recover a poisoned context: clears the sticky error and the memory
    /// arena (device memory does not survive a reset), keeps counters and
    /// already-fired faults. Counterpart of `cudaDeviceReset`.
    pub fn reset_device(&mut self) {
        self.poisoned = None;
        self.mem.reset();
        if let Some(s) = self.sanitizer.as_mut() {
            s.on_reset();
        }
        self.resets += 1;
    }

    /// Whether a fatal fault has poisoned the context.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Completed [`Device::reset_device`] calls.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Number of injected faults that have fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.fired.iter().filter(|&&f| f).count() as u64
    }

    /// Counters accumulated across all launches.
    pub fn total_counters(&self) -> &Counters {
        &self.total
    }

    /// Simulated seconds across all launches (including launch overheads).
    pub fn total_time_s(&self) -> f64 {
        self.total_time_s
    }

    /// Number of launches performed.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Zero the accumulated counters and time (memory is untouched).
    pub fn reset_counters(&mut self) {
        self.total = Counters::new();
        self.total_time_s = 0.0;
        self.launches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::warp::WARP;

    #[test]
    fn vector_add_kernel() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let n = 256usize;
        let a = dev.alloc(n as u64).unwrap();
        let b = dev.alloc(n as u64).unwrap();
        let c = dev.alloc(n as u64).unwrap();
        dev.h2d(a, 0, &(0..n as u64).collect::<Vec<_>>());
        dev.h2d(b, 0, &(0..n as u64).map(|x| x * 2).collect::<Vec<_>>());

        let warps = n / WARP;
        let stats = dev
            .launch(warps, 0, |ctx| {
                let base = (ctx.warp_id * WARP) as u64;
                let addrs_a = ctx.lanes_from(|l| Some(a.at(base + l as u64)));
                let va = ctx.ld_global(&addrs_a);
                let addrs_b = ctx.lanes_from(|l| Some(b.at(base + l as u64)));
                let vb = ctx.ld_global(&addrs_b);
                ctx.int_ops(1);
                let sum = ctx.lanes_from(|l| va[l] + vb[l]);
                let addrs_c = ctx.lanes_from(|l| Some(c.at(base + l as u64)));
                ctx.st_global(&addrs_c, &sum);
            })
            .expect("healthy device");

        let out = dev.d2h(c, 0, n as u64);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
        }
        // 8 warps × (2 loads + 1 store) × 8 sectors each = fully coalesced.
        assert_eq!(stats.counters.global_ld_transactions, 8 * 2 * 8);
        assert_eq!(stats.counters.global_st_transactions, 8 * 8);
        assert!(stats.timing.total_seconds() > 0.0);
    }

    #[test]
    fn histogram_kernel_with_atomics() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let n = 128usize;
        let input = dev.alloc(n as u64).unwrap();
        let hist = dev.alloc(4).unwrap();
        dev.h2d(input, 0, &(0..n as u64).map(|x| x % 4).collect::<Vec<_>>());

        dev.launch(n / WARP, 0, |ctx| {
            let base = (ctx.warp_id * WARP) as u64;
            let addrs = ctx.lanes_from(|l| Some(input.at(base + l as u64)));
            let vals = ctx.ld_global(&addrs);
            let ops = ctx.lanes_from(|l| Some((hist.at(vals[l]), 1u64)));
            ctx.atomic_add(&ops);
        })
        .expect("healthy device");

        let out = dev.d2h(hist, 0, 4);
        assert_eq!(out, vec![32, 32, 32, 32]);
    }

    #[test]
    fn launch_is_identical_at_any_thread_count() {
        // 37 warps: at 4 threads that is 16 uneven ranges. Each warp stores
        // into its own window, adds to one shared word, and races every
        // other warp to claim one shared word with CAS.
        let warps = 37usize;
        let run = |threads: usize| {
            let mut dev = Device::new(DeviceConfig::tiny());
            let out = dev.alloc((warps * WARP) as u64).unwrap();
            let shared = dev.alloc(3).unwrap(); // [sum, claim, claim winners]
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let stats = pool
                .install(|| {
                    dev.launch(warps, 2, |ctx| {
                        let w = ctx.warp_id as u64;
                        ctx.int_ops(1 + w % 5);
                        let addrs = ctx.lanes_from(|l| Some(out.at(w * WARP as u64 + l as u64)));
                        let vals = ctx.lanes_from(|l| w * 1000 + l as u64);
                        ctx.st_global(&addrs, &vals);
                        ctx.atomic_add(&ctx.lanes_from(|_| Some((shared.at(0), w + 1))));
                        let old = ctx.atomic_cas(&ctx.lanes_from(|_| Some((shared.at(1), 0, 1))));
                        let won = old.iter().filter(|&&o| o == 0).count() as u64;
                        ctx.atomic_add(
                            &ctx.lanes_from(|l| (l == 0).then_some((shared.at(2), won))),
                        );
                    })
                })
                .expect("healthy device");
            (stats, dev.d2h(out, 0, out.len), dev.d2h(shared, 0, 3))
        };
        let (stats, out, shared) = run(1);
        let sum: u64 = (1..=warps as u64).sum::<u64>() * WARP as u64;
        assert_eq!(shared, vec![sum, 1, 1], "exact sum, claimed once, one winner");
        let timing_bits = |s: &LaunchStats| {
            let t = s.timing;
            [t.issue_cycles, t.bandwidth_cycles, t.latency_cycles, t.l1_cycles]
                .into_iter()
                .chain([t.kernel_cycles, t.kernel_seconds, t.overhead_seconds])
                .map(f64::to_bits)
                .collect::<Vec<u64>>()
        };
        for threads in [2, 4] {
            let (s, o, sh) = run(threads);
            assert_eq!(s.warps, stats.warps);
            assert_eq!(s.counters, stats.counters, "{threads} threads: counters");
            assert_eq!(timing_bits(&s), timing_bits(&stats), "{threads} threads: timing");
            assert!(o == out && sh == shared, "{threads} threads: device memory");
        }
    }

    #[test]
    fn counters_accumulate_across_launches() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.launch(1, 0, |ctx| ctx.int_ops(5)).expect("healthy device");
        dev.launch(1, 0, |ctx| ctx.int_ops(7)).expect("healthy device");
        assert_eq!(dev.total_counters().int_inst, 12);
        assert_eq!(dev.launches(), 2);
        dev.reset_counters();
        assert_eq!(dev.total_counters().int_inst, 0);
    }

    #[test]
    fn oom_propagates() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let cap = dev.config().capacity_words();
        assert!(dev.alloc(cap + 1).is_err());
    }

    #[test]
    fn injected_slab_oom_fires_once_then_device_recovers() {
        let plan = FaultPlan::single(Fault::SlabOom { at_alloc: 1 });
        let mut dev = Device::new(DeviceConfig::tiny().with_fault_plan(plan));
        assert!(dev.alloc(16).is_ok()); // attempt 0
        let err = dev.alloc(16).unwrap_err(); // attempt 1: injected
        assert_eq!(err.requested_words, 16);
        assert!(dev.alloc(16).is_ok()); // one-shot: attempt 2 succeeds
        assert!(!dev.is_poisoned());
        assert_eq!(dev.faults_fired(), 1);
    }

    #[test]
    fn kernel_hang_poisons_until_reset() {
        let plan = FaultPlan::single(Fault::KernelHang { at_launch: 1, after_cycles: 1000 });
        let mut dev = Device::new(DeviceConfig::tiny().with_fault_plan(plan));
        dev.launch(1, 0, |ctx| ctx.int_ops(1)).expect("launch 0 healthy");
        let t_before = dev.total_time_s();
        let err = dev.launch(1, 0, |ctx| ctx.int_ops(1)).unwrap_err();
        assert!(matches!(err, LaunchError::Hang { launch_idx: 1, after_cycles: 1000 }));
        assert!(err.needs_reset());
        assert!(dev.total_time_s() > t_before, "watchdog wait is charged");
        // Sticky: further launches fail until reset.
        assert!(matches!(
            dev.launch(1, 0, |ctx| ctx.int_ops(1)).unwrap_err(),
            LaunchError::DeviceLost { .. }
        ));
        dev.reset_device();
        assert!(!dev.is_poisoned());
        assert_eq!(dev.resets(), 1);
        dev.launch(1, 0, |ctx| ctx.int_ops(1)).expect("healthy after reset");
    }

    #[test]
    fn bit_flip_corrupts_memory_and_poisons() {
        let plan = FaultPlan::single(Fault::BitFlip { at_launch: 0, addr: 3 });
        let mut dev = Device::new(DeviceConfig::tiny().with_fault_plan(plan));
        let buf = dev.alloc(8).unwrap();
        dev.h2d(buf, 0, &[10, 11, 12, 13, 14, 15, 16, 17]);
        let err = dev.launch(1, 0, |ctx| ctx.int_ops(1)).unwrap_err();
        assert!(matches!(err, LaunchError::MemCorruption { launch_idx: 0, addr: 3 }));
        assert!(dev.is_poisoned());
        assert_eq!(dev.d2h_word(buf, 3), 13 ^ 1, "one bit flipped in place");
        // Reset clears the arena: memory does not survive a device reset.
        dev.reset_device();
        assert_eq!(dev.mem_used_words(), 0);
    }

    #[test]
    fn fault_free_run_unaffected_by_empty_plan() {
        let mut dev = Device::new(DeviceConfig::tiny());
        for _ in 0..4 {
            dev.launch(1, 0, |ctx| ctx.int_ops(1)).expect("no faults planned");
        }
        assert_eq!(dev.faults_fired(), 0);
        assert_eq!(dev.resets(), 0);
    }

    mod sanitized {
        use super::*;
        use crate::sanitizer::SanitizerKind;

        fn sanitized_device() -> Device {
            Device::new(DeviceConfig::tiny().with_sanitizer())
        }

        #[test]
        fn off_by_default_on_when_configured() {
            assert!(sanitized_device().sanitizer_enabled());
            // The default is off — unless the process-wide env override is
            // in force (the CI sanitize job runs this very test under it).
            if !sanitize_env_forced() {
                assert!(!Device::new(DeviceConfig::tiny()).sanitizer_enabled());
                assert!(Device::new(DeviceConfig::tiny()).take_sanitizer_summary().is_none());
            }
        }

        #[test]
        fn use_after_reset_flagged_through_stale_buf() {
            let mut dev = sanitized_device();
            let stale = dev.alloc(16).unwrap();
            dev.reset_mem();
            // Keep one live word so address 0 exists physically again.
            dev.alloc(16).unwrap();
            dev.reset_mem();
            let fresh = dev.alloc(8).unwrap();
            dev.launch(1, 0, |ctx| {
                ctx.ld_global_lane(0, fresh.at(0)); // live: fine
                ctx.ld_global_lane(0, stale.at(12)); // stale epoch: flagged
            })
            .expect("launch ok");
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert_eq!(sum.count(SanitizerKind::UseAfterReset), 1);
            assert_eq!(sum.count(SanitizerKind::OutOfBounds), 0);
        }

        #[test]
        fn uninit_read_only_for_alloc_uninit() {
            let mut dev = sanitized_device();
            let zeroed = dev.alloc(8).unwrap();
            let raw = dev.alloc_uninit(8).unwrap();
            dev.launch(1, 0, |ctx| {
                ctx.ld_global_lane(0, zeroed.at(3)); // cudaMemset semantics: defined
                ctx.ld_global_lane(0, raw.at(3)); // cudaMalloc semantics: uninit
                ctx.st_global_lane(0, raw.at(4), 9); // store defines...
                ctx.ld_global_lane(0, raw.at(4)); // ...so this is clean
            })
            .expect("launch ok");
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert_eq!(sum.count(SanitizerKind::UninitRead), 1);
        }

        #[test]
        fn h2d_defines_uninit_words() {
            let mut dev = sanitized_device();
            let raw = dev.alloc_uninit(8).unwrap();
            dev.h2d(raw, 2, &[1, 2]);
            dev.launch(1, 0, |ctx| {
                ctx.ld_global_lane(0, raw.at(2));
                ctx.ld_global_lane(0, raw.at(3));
            })
            .expect("launch ok");
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert!(sum.is_clean(), "{}", sum.render());
        }

        #[test]
        fn take_summary_drains() {
            let mut dev = sanitized_device();
            dev.alloc(4).unwrap();
            dev.launch(1, 0, |ctx| {
                ctx.ld_global_lane(0, 100); // OOB
            })
            .expect("launch ok");
            assert_eq!(dev.take_sanitizer_summary().unwrap().total(), 1);
            let again = dev.take_sanitizer_summary().unwrap();
            assert!(again.enabled && again.total() == 0);
        }

        #[test]
        fn cross_warp_plain_writes_same_word_flagged() {
            let mut dev = sanitized_device();
            let buf = dev.alloc(4).unwrap();
            dev.launch(2, 0, |ctx| {
                ctx.st_global_lane(0, buf.at(0), ctx.warp_id as u64);
            })
            .expect("launch ok");
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert!(sum.count(SanitizerKind::WarpRace) > 0);
            assert_eq!(sum.count(SanitizerKind::LaneRace), 0);
        }

        #[test]
        fn clean_kernels_stay_clean_across_launches() {
            let mut dev = sanitized_device();
            let buf = dev.alloc(64).unwrap();
            for _ in 0..3 {
                dev.launch(2, 0, |ctx| {
                    // Each warp owns a disjoint 32-word window.
                    let base = (ctx.warp_id * WARP) as u64;
                    let addrs = ctx.lanes_from(|l| Some(buf.at(base + l as u64)));
                    let vals = ctx.lanes_from(|l| l as u64);
                    ctx.st_global(&addrs, &vals);
                    ctx.ld_global(&addrs);
                })
                .expect("launch ok");
            }
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert!(sum.is_clean(), "{}", sum.render());
        }
    }
}
