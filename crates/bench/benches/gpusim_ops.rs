//! Criterion bench: simulator host cost per warp instruction.
//!
//! Each `warp_op` iteration launches one warp that issues `OPS` warp
//! instructions of one class, so microseconds per iteration read as host
//! nanoseconds per warp instruction (launch set-up included, amortized
//! over `OPS`). The `v2_launch` rows time one full extension-kernel v2
//! launch over a packed batch at 1 and 2 host threads; divide by the
//! printed warp-instruction count for nanoseconds per instruction.

use bench::{local_assembly_dump, DumpConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use datagen::arcticsynth_like;
use gpusim::{Device, DeviceConfig, Lanes, WarpCtx, WARP};
use locassm::gpu::kernel::extension_kernel_v2;
use locassm::gpu::pack::{pack_batch, GpuBatch};
use locassm::ExtTask;
use std::hint::black_box;
use std::time::Duration;

/// Warp instructions per iteration: µs per iteration = ns per instruction.
const OPS: usize = 1000;

/// One warp instruction of the class under test.
type WarpOp<'a> = &'a (dyn Fn(&mut WarpCtx) + Sync);

fn bench_warp_ops(c: &mut Criterion) {
    let mut dev = Device::new(DeviceConfig::v100());
    let buf = dev.alloc(4 * WARP as u64).expect("fits");
    let coalesced: Lanes<Option<u64>> = std::array::from_fn(|l| Some(buf.at(l as u64)));
    let vals: Lanes<u64> = std::array::from_fn(|l| l as u64 % 4);
    let cas: Lanes<Option<(u64, u64, u64)>> =
        std::array::from_fn(|l| Some((buf.at((WARP + l) as u64), 0, 1)));

    let mut group = c.benchmark_group("warp_op");
    group.sample_size(200).measurement_time(Duration::from_secs(2));
    let ops: [(&str, WarpOp); 5] = [
        ("ld_global", &|ctx| {
            black_box(ctx.ld_global(&coalesced));
        }),
        ("st_global", &|ctx| ctx.st_global(&coalesced, &vals)),
        ("atomic_cas", &|ctx| {
            black_box(ctx.atomic_cas(&cas));
        }),
        ("match_any", &|ctx| {
            black_box(ctx.match_any(&vals));
        }),
        ("int_ops", &|ctx| ctx.int_ops(black_box(1))),
    ];
    for (name, op) in ops {
        group.bench_function(name, |b| {
            b.iter(|| {
                dev.launch(1, 0, |ctx| (0..OPS).for_each(|_| op(ctx))).expect("healthy device")
            })
        });
    }
    group.finish();
}

fn bench_v2_launch(c: &mut Criterion) {
    let cfg = DumpConfig::default();
    let dump = local_assembly_dump(&arcticsynth_like(0.015), &cfg);
    let params = cfg.locassm;
    let tasks: Vec<&ExtTask> = dump.tasks.iter().filter(|t| !t.reads.is_empty()).collect();
    let packed = || {
        let mut dev = Device::new(DeviceConfig::v100());
        let batch = pack_batch(&mut dev, &tasks, &params).expect("batch fits the device");
        (dev, batch)
    };
    let launch = |(mut dev, batch): (Device, GpuBatch)| {
        dev.launch(tasks.len(), batch.window, |ctx| extension_kernel_v2(ctx, &batch, &params))
            .expect("healthy device")
    };
    let insts = launch(packed()).counters.warp_insts();
    println!("v2_launch: {} warps, {insts} warp instructions per launch", tasks.len());

    let mut group = c.benchmark_group("v2_launch");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter_batched(packed, |p| pool.install(|| launch(p)), BatchSize::LargeInput)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_warp_ops, bench_v2_launch);
criterion_main!(benches);
