//! Randomized invariants of the gpusim memory/coalescing model and its
//! interaction with the local-assembly kernels, plus `gpucheck` sanitizer
//! regressions: each defect class is seeded deliberately and must be
//! caught, and the fault-free kernels must stay finding-free.

use gpusim::{Device, DeviceConfig, WARP};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalescing bound: a warp load of n participating lanes generates
    /// between 1 and n transactions, and exactly
    /// #distinct-sectors transactions.
    #[test]
    fn load_transactions_match_distinct_sectors(addrs in proptest::collection::vec(0u64..1024, 1..32)) {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.alloc(2048).unwrap();
        let n = addrs.len();
        let stats = dev.launch(1, 0, |ctx| {
            let a = ctx.lanes_from(|l| addrs.get(l).copied());
            ctx.ld_global(&a);
        }).expect("healthy device");
        let mut sectors: Vec<u64> = addrs.iter().map(|a| a / 4).collect();
        sectors.sort_unstable();
        sectors.dedup();
        prop_assert_eq!(stats.counters.global_ld_transactions, sectors.len() as u64);
        prop_assert!(stats.counters.global_ld_transactions >= 1);
        prop_assert!(stats.counters.global_ld_transactions <= n as u64);
    }

    /// Atomic adds from all lanes to one address serialize: the final value
    /// is the sum regardless of lane values.
    #[test]
    fn atomic_add_sums_all_lanes(vals in proptest::collection::vec(0u64..1000, 32)) {
        let mut dev = Device::new(DeviceConfig::tiny());
        let buf = dev.alloc(16).unwrap();
        let vals2 = vals.clone();
        dev.launch(1, 0, move |ctx| {
            let ops = ctx.lanes_from(|l| Some((buf.addr + 3, vals2[l])));
            ctx.atomic_add(&ops);
        }).expect("healthy device");
        prop_assert_eq!(dev.d2h_word(buf, 3), vals.iter().sum::<u64>());
    }

    /// CAS claim semantics: when all lanes CAS the same slot from the same
    /// expected value, exactly one succeeds.
    #[test]
    fn cas_exactly_one_winner(news in proptest::collection::vec(1u64..u64::MAX, 32)) {
        let mut dev = Device::new(DeviceConfig::tiny());
        let buf = dev.alloc(4).unwrap();
        // Each lane writes the value its CAS saw to its own word.
        let seen = dev.alloc(WARP as u64).unwrap();
        dev.launch(1, 0, |ctx| {
            let ops = ctx.lanes_from(|l| Some((buf.addr, 0u64, news[l])));
            let old = ctx.atomic_cas(&ops);
            let addrs = ctx.lanes_from(|l| Some(seen.at(l as u64)));
            ctx.st_global(&addrs, &old);
        }).expect("healthy device");
        let old = dev.d2h(seen, 0, WARP as u64);
        let winners: Vec<usize> = (0..WARP).filter(|&l| old[l] == 0).collect();
        prop_assert_eq!(winners.len(), 1);
        prop_assert_eq!(dev.d2h_word(buf, 0), news[winners[0]]);
    }
}

#[test]
fn timing_monotone_in_work() {
    // More transactions can never make the estimated kernel faster.
    let cfg = DeviceConfig::v100();
    let mut prev = 0.0;
    for scale in [1usize, 4, 16, 64] {
        let mut dev = Device::new(cfg.clone());
        dev.alloc(1 << 20).unwrap();
        let stats = dev
            .launch(64, 0, |ctx| {
                let mut rng = StdRng::seed_from_u64(ctx.warp_id as u64);
                for _ in 0..scale * 10 {
                    let a = ctx.lanes_from(|_| Some(rng.gen_range(0..(1 << 20))));
                    ctx.ld_global(&a);
                }
            })
            .expect("healthy device");
        let t = stats.timing.kernel_seconds;
        assert!(t >= prev, "time decreased with more work");
        prev = t;
    }
}

#[test]
fn scattered_slower_than_coalesced() {
    // The same number of load instructions costs more when scattered —
    // the mechanism behind the v1/v2 gap.
    let cfg = DeviceConfig::v100();
    let run = |stride: u64| {
        let mut dev = Device::new(cfg.clone());
        dev.alloc(1 << 22).unwrap();
        // Enough warps that resident parallelism hides latency and the
        // launch is bandwidth-bound (the regime where coalescing matters).
        let stats = dev
            .launch(5120, 0, |ctx| {
                for i in 0..50u64 {
                    let a = ctx.lanes_from(|l| Some((i * 32 + l as u64) * stride % (1 << 22)));
                    ctx.ld_global(&a);
                }
            })
            .expect("healthy device");
        stats.timing.kernel_seconds
    };
    let coalesced = run(1);
    let scattered = run(97); // co-prime stride: every lane its own sector
    assert!(scattered > 2.0 * coalesced, "scattered {scattered} vs coalesced {coalesced}");
}

#[test]
fn local_memory_isolated_per_lane() {
    let mut dev = Device::new(DeviceConfig::tiny());
    dev.launch(1, 8, |ctx| {
        // Each lane stores its id at offset 0 of its own local slice.
        let offs = ctx.lanes_from(|_| Some(0u64));
        let vals = ctx.lanes_from(|l| l as u64 * 11);
        ctx.st_local(&offs, &vals);
        let out = ctx.ld_local(&offs);
        for (l, &v) in out.iter().enumerate() {
            assert_eq!(v, l as u64 * 11, "lane {l} saw another lane's local");
        }
    })
    .expect("healthy device");
}

#[test]
fn device_oom_is_clean_error() {
    let mut dev = Device::new(DeviceConfig::tiny());
    let cap = dev.config().capacity_words();
    assert!(dev.alloc(cap / 2).is_ok());
    let err = dev.alloc(cap).unwrap_err();
    assert!(err.free_words < cap);
    // Device stays usable after the failed allocation.
    assert!(dev.alloc(cap / 4).is_ok());
}

#[test]
fn overflowing_allocation_is_oom_not_wraparound() {
    // A length that would wrap the bump pointer must surface as OOM with
    // the allocator untouched, never as a bogus low address.
    let mut dev = Device::new(DeviceConfig::tiny());
    let used_before = dev.mem_used_words();
    assert!(dev.alloc(u64::MAX - 2).is_err());
    assert_eq!(dev.mem_used_words(), used_before);
    assert!(dev.alloc(64).is_ok());
}

/// Seeded-defect regressions for the `gpucheck` sanitizer: every class the
/// paper's real counterpart (`compute-sanitizer`) catches on the CUDA code
/// must be caught here, with the defect contained rather than fatal.
mod sanitized {
    use gpusim::{Device, DeviceConfig, SanitizerConfig, SanitizerKind, SanitizerSummary, WARP};

    fn device() -> Device {
        Device::new(DeviceConfig::tiny().with_sanitizer(SanitizerConfig::full()))
    }

    fn summary(dev: &mut Device) -> SanitizerSummary {
        dev.take_sanitizer_summary().expect("sanitizer configured")
    }

    #[test]
    fn seeded_oob_write_is_reported_and_contained() {
        let mut dev = device();
        let buf = dev.alloc(64).unwrap();
        dev.h2d(buf, 0, &[7; 64]);
        // Lane 0 stores one word past the allocator's high-water mark — the
        // classic off-by-one the paper debugged with compute-sanitizer.
        dev.launch(1, 0, |ctx| {
            ctx.st_global_lane(0, buf.addr + 100, 0xdead);
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::OutOfBounds), 1, "{}", s.render());
        assert!(!s.is_clean());
        // The invalid store was dropped: live memory is unharmed and the
        // device stays usable.
        assert_eq!(dev.d2h(buf, 0, 64), vec![7; 64]);
        assert!(dev.alloc(16).is_ok());
    }

    #[test]
    fn use_after_reset_through_stale_buf_is_flagged() {
        let mut dev = device();
        let stale = dev.alloc(64).unwrap();
        dev.reset_mem();
        // `stale` now dangles into freed arena; a load through it must be
        // classified as use-after-reset, not out-of-bounds.
        dev.launch(1, 0, |ctx| {
            let v = ctx.ld_global_lane(3, stale.at(12));
            assert_eq!(v, 0, "invalid load reads as zero");
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::UseAfterReset), 1, "{}", s.render());
        assert_eq!(s.count(SanitizerKind::OutOfBounds), 0);
        assert_eq!(s.reports[0].lanes, vec![3]);
    }

    #[test]
    fn uninit_read_flagged_until_first_store() {
        let mut dev = device();
        let buf = dev.alloc_uninit(32).unwrap();
        dev.launch(1, 0, |ctx| {
            // Store defines word 4; word 5 is read while still undefined.
            ctx.st_global_lane(0, buf.at(4), 1);
            ctx.ld_global_lane(0, buf.at(4));
            ctx.ld_global_lane(0, buf.at(5));
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::UninitRead), 1, "{}", s.render());
        assert_eq!(s.reports[0].addr, Some(buf.at(5)));
    }

    #[test]
    fn scattered_insert_lane_race_names_both_lanes() {
        let mut dev = device();
        let table = dev.alloc(64).unwrap();
        // A v1-style scattered insert where two lanes hash to the same slot
        // and plain-store their payloads: last writer silently wins, which
        // is exactly the bug racecheck exists for.
        dev.launch(1, 0, |ctx| {
            let slots: [u64; 3] = [9, 17, 9]; // lanes 0 and 2 collide
            let addrs = ctx.lanes_from(|l| slots.get(l).map(|&s| table.at(s)));
            let vals = ctx.lanes_from(|l| l as u64 + 1);
            ctx.st_global(&addrs, &vals);
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::LaneRace), 1, "{}", s.render());
        assert_eq!(s.reports[0].lanes, vec![0, 2], "both racing lanes must be named");
        assert_eq!(s.reports[0].addr, Some(table.at(9)));
    }

    #[test]
    fn syncwarp_separates_write_then_read_phases() {
        let run = |sync: bool| {
            let mut dev = device();
            let buf = dev.alloc(64).unwrap();
            dev.launch(1, 0, move |ctx| {
                ctx.st_global_lane(1, buf.at(0), 42);
                if sync {
                    ctx.syncwarp();
                }
                ctx.ld_global_lane(5, buf.at(0));
            })
            .expect("sanitized launch still succeeds");
            summary(&mut dev)
        };
        let racy = run(false);
        assert_eq!(racy.count(SanitizerKind::LaneRace), 1, "{}", racy.render());
        let clean = run(true);
        assert!(clean.is_clean(), "{}", clean.render());
    }

    #[test]
    fn atomic_contention_is_not_a_race() {
        let mut dev = device();
        let buf = dev.alloc(16).unwrap();
        dev.launch(1, 0, |ctx| {
            let ops = ctx.lanes_from(|_| Some((buf.at(3), 1u64)));
            ctx.atomic_add(&ops);
        })
        .expect("sanitized launch still succeeds");
        assert_eq!(dev.d2h_word(buf, 3), WARP as u64);
        let s = summary(&mut dev);
        assert!(s.is_clean(), "{}", s.render());
    }

    #[test]
    fn unbalanced_mask_stack_flagged_at_kernel_exit() {
        let mut dev = device();
        dev.alloc(16).unwrap();
        dev.launch(1, 0, |ctx| {
            ctx.push_mask(0b1); // never popped
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::MaskStackImbalance), 1, "{}", s.render());
    }

    #[test]
    fn shuffle_from_masked_out_lane_flagged() {
        let mut dev = device();
        dev.alloc(16).unwrap();
        dev.launch(1, 0, |ctx| {
            ctx.push_mask(0b10);
            let vals = ctx.lanes_from(|l| l as u64);
            // Source lane 0 is excluded by the active mask: on hardware its
            // register is undefined for this shuffle.
            ctx.shfl(&vals, 0);
            ctx.pop_mask();
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::ShuffleInactiveSrc), 1, "{}", s.render());
    }

    #[test]
    fn inter_warp_same_word_write_is_a_warp_race() {
        let mut dev = device();
        let buf = dev.alloc(16).unwrap();
        dev.launch(2, 0, |ctx| {
            ctx.st_global_lane(0, buf.at(7), ctx.warp_id as u64);
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert_eq!(s.count(SanitizerKind::WarpRace), 1, "{}", s.render());
        assert_eq!(s.count(SanitizerKind::LaneRace), 0, "same lane id, different warps");
    }

    #[test]
    fn clean_proptest_style_workload_has_no_findings() {
        // The fault-free access patterns of the unsanitized tests above
        // must not light up any analysis (no false positives).
        let mut dev = device();
        let buf = dev.alloc(2048).unwrap();
        dev.launch(4, 8, |ctx| {
            let a = ctx.lanes_from(|l| Some(buf.at((ctx.warp_id * WARP + l) as u64)));
            let vals = ctx.lanes_from(|l| l as u64);
            ctx.st_global(&a, &vals);
            ctx.syncwarp();
            ctx.ld_global(&a);
            let offs = ctx.lanes_from(|_| Some(0u64));
            ctx.st_local(&offs, &vals);
            ctx.ld_local(&offs);
        })
        .expect("sanitized launch still succeeds");
        let s = summary(&mut dev);
        assert!(s.is_clean(), "{}", s.render());
    }
}
