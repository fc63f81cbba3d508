//! The simulated device: allocation, kernel launch, per-launch statistics.

use crate::config::DeviceConfig;
use crate::counters::Counters;
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

/// A simulated GPU: global memory plus a launch counter. Each launch
/// returns its own [`LaunchStats`]; callers sum them.
pub struct Device {
    config: DeviceConfig,
    mem: GlobalMem,
    launches: u64,
    /// `gpucheck` dynamic checker (config- or env-enabled).
    sanitizer: Option<Box<Sanitizer>>,
}

impl Device {
    /// New device with the given configuration. The `GPUSIM_SANITIZE`
    /// environment variable ([`sanitize_env_forced`]) turns the sanitizer
    /// on even when the config leaves it off.
    pub fn new(config: DeviceConfig) -> Device {
        let cap = config.capacity_words();
        let sanitizer =
            (config.sanitize || sanitize_env_forced()).then(|| Box::new(Sanitizer::new()));
        Device { config, mem: GlobalMem::new(cap), launches: 0, sanitizer }
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

    /// Allocate `words` 64-bit words of zeroed global memory (`cudaMalloc`
    /// followed by the `cudaMemset` the paper's host code does).
    pub fn alloc(&mut self, words: u64) -> Result<Buf, DeviceOom> {
        let buf = self.mem.alloc(words)?;
        if let Some(s) = self.sanitizer.as_mut() {
            s.on_alloc(buf.addr, buf.len);
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
    /// Returns per-launch counters and a timing estimate. A panicking
    /// kernel unwinds to the caller (from a pool thread, rayon re-raises it
    /// on the calling thread); the launch still counts toward
    /// [`Device::launches`].
    pub fn launch(
        &mut self,
        warps: usize,
        local_words_per_lane: usize,
        kernel: impl Fn(&mut WarpCtx) + Sync,
    ) -> LaunchStats {
        let launch_idx = self.launches;
        self.launches += 1;
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
        LaunchStats { warps, counters, timing }
    }

    /// Number of launches performed.
    pub fn launches(&self) -> u64 {
        self.launches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let stats = dev.launch(warps, 0, |ctx| {
            let base = (ctx.warp_id * WARP) as u64;
            let addrs_a = ctx.lanes_from(|l| Some(a.at(base + l as u64)));
            let va = ctx.ld_global(&addrs_a);
            let addrs_b = ctx.lanes_from(|l| Some(b.at(base + l as u64)));
            let vb = ctx.ld_global(&addrs_b);
            ctx.int_ops(1);
            let sum = ctx.lanes_from(|l| va[l] + vb[l]);
            let addrs_c = ctx.lanes_from(|l| Some(c.at(base + l as u64)));
            ctx.st_global(&addrs_c, &sum);
        });

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
        });

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
            let stats = pool.install(|| {
                dev.launch(warps, 2, |ctx| {
                    let w = ctx.warp_id as u64;
                    ctx.int_ops(1 + w % 5);
                    let addrs = ctx.lanes_from(|l| Some(out.at(w * WARP as u64 + l as u64)));
                    let vals = ctx.lanes_from(|l| w * 1000 + l as u64);
                    ctx.st_global(&addrs, &vals);
                    ctx.atomic_add(&ctx.lanes_from(|_| Some((shared.at(0), w + 1))));
                    let old = ctx.atomic_cas(&ctx.lanes_from(|_| Some((shared.at(1), 0, 1))));
                    let won = old.iter().filter(|&&o| o == 0).count() as u64;
                    ctx.atomic_add(&ctx.lanes_from(|l| (l == 0).then_some((shared.at(2), won))));
                })
            });
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
        let first = dev.launch(1, 0, |ctx| ctx.int_ops(5));
        let second = dev.launch(1, 0, |ctx| ctx.int_ops(7));
        let mut sum = first.counters;
        sum.merge(&second.counters);
        assert_eq!((first.counters.int_inst, second.counters.int_inst), (5, 7));
        assert_eq!(sum.int_inst, 12, "each launch meters only its own warps");
        assert_eq!(dev.launches(), 2);
    }

    #[test]
    #[should_panic(expected = "Buf index 32 out of 32")]
    fn kernel_indexing_past_a_buf_panics_out_of_the_launch() {
        // Warps 1-3 index past `buf`; without the bounds check their loads
        // would read the neighbouring allocation.
        let mut dev = Device::new(DeviceConfig::tiny());
        let buf = dev.alloc(WARP as u64).unwrap();
        dev.alloc(WARP as u64).unwrap();
        dev.launch(4, 0, |ctx| {
            let addrs = ctx.lanes_from(|l| Some(buf.at((ctx.warp_id + l) as u64)));
            ctx.ld_global(&addrs);
        });
    }

    #[test]
    fn oom_propagates() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let cap = dev.config().capacity_words();
        assert!(dev.alloc(cap + 1).is_err());
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
            });
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert_eq!(sum.count(SanitizerKind::UseAfterReset), 1);
            assert_eq!(sum.count(SanitizerKind::OutOfBounds), 0);
        }

        #[test]
        fn take_summary_drains() {
            let mut dev = sanitized_device();
            dev.alloc(4).unwrap();
            dev.launch(1, 0, |ctx| {
                ctx.ld_global_lane(0, 100); // OOB
            });
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
            });
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
                });
            }
            let sum = dev.take_sanitizer_summary().expect("sanitizer on");
            assert!(sum.is_clean(), "{}", sum.render());
        }
    }
}
