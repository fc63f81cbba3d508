//! The **v1** extension kernel — the paper's first implementation: one
//! extension per *thread*. Each warp carries 32 independent contig-end
//! extensions in lockstep; every lane builds and walks its own hash table.
//!
//! This is exactly the design the roofline study (§4.2, Figure 8) found
//! wanting: at every load instruction the 32 lanes touch 32 *unrelated*
//! addresses (different reads, different tables), so one warp instruction
//! costs up to 32 memory transactions; and because the per-lane workloads
//! are non-deterministic (different read counts, walk lengths, k-shift
//! schedules), lanes finish at wildly different times and the warp runs
//! increasingly predicated. v2 (one extension per warp,
//! [`super::kernel`]) fixes the first problem with cooperative coalesced
//! loads and contains the second to the walk phase.
//!
//! Functionally, each lane executes the same algorithm as the CPU engine
//! and the v2 kernel; the engine's equivalence tests hold across all
//! three.

// Kernel data paths degrade, never panic: `expect` here, like `unwrap`
// across the crate, is a clippy error outside tests.
#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::gpu::layout::{
    self, decode_key, encode_key, key_is_current, ENTRY_WORDS, EXT_META_WORDS, READ_META_WORDS,
    VIS_ENTRY_WORDS,
};
use crate::gpu::pack::GpuBatch;
use crate::params::{KShift, LocalAssemblyParams, WalkState};
use gpusim::{Lanes, WarpCtx, WARP};
use kmer::hash::hash_kmer;
use kmer::{ExtCounts, ExtVerdict, Kmer};

/// Per-lane extension state.
#[derive(Clone)]
struct LaneExt {
    /// Extension (task) index this lane owns.
    ext: u64,
    // metadata
    read_slot_start: u64,
    n_reads: u64,
    ht_off: u64,
    ht_slots: u64,
    vis_off: u64,
    vis_slots: u64,
    tail_len: usize,
    // progress
    kshift: KShift,
    iterations: u32,
    work_len: usize,
    appended_total: usize,
    final_state: WalkState,
    done: bool,
}

/// The v1 per-warp kernel body: extensions `warp_id*32 .. +32`.
pub fn extension_kernel_v1(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    params: &LocalAssemblyParams,
    n_exts: usize,
) {
    let base_ext = (ctx.warp_id * WARP) as u64;
    let lanes_here = (n_exts as u64 - base_ext).min(WARP as u64) as usize;
    let live_mask = if lanes_here == WARP { u32::MAX } else { (1u32 << lanes_here) - 1 };
    ctx.push_mask(live_mask);

    // ---- load per-lane extension metadata (8 scattered rounds) ----
    ctx.set_site("v1::load_meta");
    let mut meta = [[0u64; EXT_META_WORDS as usize]; WARP];
    for w in 0..EXT_META_WORDS {
        let addrs = ctx.lanes_from(|l| {
            (l < lanes_here).then(|| batch.ext_meta.at((base_ext + l as u64) * EXT_META_WORDS + w))
        });
        let vals = ctx.ld_global(&addrs);
        for l in 0..lanes_here {
            meta[l][w as usize] = vals[l];
        }
    }

    let mut lanes: Vec<LaneExt> = (0..lanes_here)
        .map(|l| LaneExt {
            ext: base_ext + l as u64,
            read_slot_start: meta[l][0],
            n_reads: meta[l][1],
            ht_off: meta[l][2],
            ht_slots: meta[l][3],
            vis_off: meta[l][4],
            vis_slots: meta[l][5],
            tail_len: meta[l][7] as usize,
            kshift: KShift::new(params.k_list.len(), params.start_k_idx),
            iterations: 0,
            work_len: meta[l][7] as usize,
            appended_total: 0,
            final_state: WalkState::DeadEnd,
            done: meta[l][1] == 0, // zero-read extensions finish immediately
        })
        .collect();

    // ---- copy tails into each lane's local window (scattered loads) ----
    ctx.set_site("v1::tail_copy");
    let max_tail_words = lanes
        .iter()
        .filter(|s| !s.done)
        .map(|s| (s.tail_len as u64).div_ceil(32))
        .max()
        .unwrap_or(0);
    for w in 0..max_tail_words {
        let addrs = ctx.lanes_from(|l| {
            (l < lanes_here && !lanes[l].done && w < (lanes[l].tail_len as u64).div_ceil(32))
                .then(|| batch.tails.at(meta[l][6] + w))
        });
        let words = ctx.ld_global(&addrs);
        for b in 0..32usize {
            let offs = ctx.lanes_from(|l| {
                let idx = (w as usize) * 32 + b;
                (l < lanes_here && !lanes[l].done && idx < lanes[l].tail_len).then_some(idx as u64)
            });
            let vals = ctx.lanes_from(|l| (words[l] >> (2 * b)) & 3);
            ctx.int_ops(2);
            ctx.st_local(&offs, &vals);
        }
    }

    // ---- lockstep k-shift iteration rounds ----
    loop {
        let alive: Vec<usize> = (0..lanes_here).filter(|&l| !lanes[l].done).collect();
        if alive.is_empty() {
            break;
        }
        let amask: u32 = alive.iter().map(|&l| 1u32 << l).sum();
        ctx.push_mask(amask);
        ctx.ctrl_ops(1);

        // Start this lane-local iteration.
        let mut walk_state: Lanes<WalkState> = [WalkState::DeadEnd; WARP];
        let mut working: Vec<usize> = Vec::new();
        let mut ks: Lanes<usize> = [0; WARP];
        let mut tags: Lanes<u8> = [0; WARP];
        for &l in &alive {
            let s = &mut lanes[l];
            let k = params.k_list[s.kshift.k_idx()];
            layout::assert_k_supported(k);
            s.iterations += 1;
            ks[l] = k;
            tags[l] = s.iterations as u8;
            let budget = params.max_total_extension - s.appended_total;
            if budget > 0 && s.work_len >= k {
                working.push(l);
            }
        }

        if !working.is_empty() {
            build_tables_lockstep(ctx, batch, params, &lanes, &working, &ks, &tags);
            walk_lockstep(ctx, batch, params, &mut lanes, &working, &ks, &tags, &mut walk_state);
        }

        // Per-lane controller updates (uniform control ops).
        ctx.ctrl_ops(2);
        for &l in &alive {
            let s = &mut lanes[l];
            s.final_state = walk_state[l];
            if !s.kshift.on_walk(walk_state[l]) {
                s.done = true;
            }
        }
        ctx.pop_mask();
    }

    // ---- store output records (scattered) ----
    ctx.set_site("v1::store_out");
    let out_addrs =
        ctx.lanes_from(|l| (l < lanes_here).then(|| batch.out.at(lanes[l].ext * batch.out_stride)));
    let out_lens =
        ctx.lanes_from(|l| if l < lanes_here { lanes[l].appended_total as u64 } else { 0 });
    ctx.st_global(&out_addrs, &out_lens);
    let hdr_addrs = ctx.lanes_from(|l| {
        (l < lanes_here).then(|| batch.out.at(lanes[l].ext * batch.out_stride + 1))
    });
    let hdrs = ctx.lanes_from(|l| {
        if l < lanes_here {
            layout::encode_out_header(lanes[l].final_state.to_u64(), lanes[l].iterations)
        } else {
            0
        }
    });
    ctx.st_global(&hdr_addrs, &hdrs);

    let max_out_words =
        lanes.iter().map(|s| (s.appended_total as u64).div_ceil(32)).max().unwrap_or(0);
    for w in 0..max_out_words {
        // Gather 32 bases from each lane's local window, then store.
        let mut words: Lanes<u64> = [0; WARP];
        for b in 0..32usize {
            let offs = ctx.lanes_from(|l| {
                if l >= lanes_here {
                    return None;
                }
                let idx = (w as usize) * 32 + b;
                (idx < lanes[l].appended_total).then(|| (lanes[l].tail_len + idx) as u64)
            });
            let codes = ctx.ld_local(&offs);
            ctx.int_ops(2);
            for l in 0..lanes_here {
                let idx = (w as usize) * 32 + b;
                if idx < lanes[l].appended_total {
                    words[l] |= (codes[l] & 3) << (2 * b);
                }
            }
        }
        let addrs = ctx.lanes_from(|l| {
            (l < lanes_here && w < (lanes[l].appended_total as u64).div_ceil(32))
                .then(|| batch.out.at(lanes[l].ext * batch.out_stride + 2 + w))
        });
        ctx.st_global(&addrs, &words);
    }
    ctx.pop_mask();
}

/// Per-lane work cursor over a lane's candidate reads.
#[derive(Clone, Copy, Default)]
struct BuildCursor {
    read: u64,
    pos: usize,
    // cached read meta
    bases_start: u64,
    qual_start: u64,
    rlen: usize,
    meta_loaded: bool,
    done: bool,
}

/// Lockstep table construction: every working lane inserts the k-mers of
/// its own candidate reads into its own table, one k-mer per lane per
/// round. All loads are scattered across lanes (v1's signature pattern).
#[allow(clippy::too_many_arguments)]
fn build_tables_lockstep(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    _params: &LocalAssemblyParams,
    lanes: &[LaneExt],
    working: &[usize],
    ks: &Lanes<usize>,
    tags: &Lanes<u8>,
) {
    ctx.set_site("v1::build_table");
    let mut cursors: Lanes<BuildCursor> = [BuildCursor::default(); WARP];
    for &l in working {
        cursors[l] = BuildCursor::default();
    }
    let is_working = |l: usize| working.contains(&l);

    loop {
        // Advance cursors to the next k-mer, loading read metadata as
        // needed (lockstep rounds of scattered meta loads).
        loop {
            let need: Vec<usize> = working
                .iter()
                .copied()
                .filter(|&l| {
                    let c = &cursors[l];
                    !c.done && (!c.meta_loaded || c.rlen < ks[l] + 1 || c.pos + ks[l] >= c.rlen)
                })
                .collect();
            if need.is_empty() {
                break;
            }
            // Lanes whose current read is exhausted/too short move on.
            let mut to_load: Vec<usize> = Vec::new();
            for &l in &need {
                let c = &mut cursors[l];
                if c.meta_loaded {
                    c.read += 1;
                    c.pos = 0;
                    c.meta_loaded = false;
                }
                if c.read >= lanes[l].n_reads {
                    c.done = true;
                } else {
                    to_load.push(l);
                }
            }
            if to_load.is_empty() {
                continue;
            }
            ctx.push_mask(to_load.iter().map(|&l| 1u32 << l).sum());
            let mut vals = [[0u64; READ_META_WORDS as usize]; WARP];
            for w in 0..READ_META_WORDS {
                let addrs = ctx.lanes_from(|l| {
                    to_load.contains(&l).then(|| {
                        batch
                            .read_meta
                            .at((lanes[l].read_slot_start + cursors[l].read) * READ_META_WORDS + w)
                    })
                });
                let loaded = ctx.ld_global(&addrs);
                for &l in &to_load {
                    vals[l][w as usize] = loaded[l];
                }
            }
            for &l in &to_load {
                let c = &mut cursors[l];
                c.bases_start = vals[l][0];
                c.qual_start = vals[l][1];
                c.rlen = vals[l][2] as usize;
                c.meta_loaded = true;
            }
            ctx.pop_mask();
        }

        let active: Vec<usize> = working.iter().copied().filter(|&l| !cursors[l].done).collect();
        if active.is_empty() {
            break;
        }
        let amask: u32 = active.iter().map(|&l| 1u32 << l).sum();
        ctx.push_mask(amask);
        ctx.ctrl_ops(1);

        // Byte-by-byte k-mer loads: round j loads base p+j of each lane's
        // k-mer from its own read — 32 unrelated addresses per instruction.
        let max_k = active.iter().map(|&l| ks[l]).max().unwrap_or(0);
        let mut words: Lanes<[u64; 5]> = [[0u64; 5]; WARP];
        for j in 0..=max_k {
            let addrs = ctx.lanes_from(|l| {
                (is_working(l) && !cursors[l].done && j <= ks[l]).then(|| {
                    let p = cursors[l].pos;
                    batch.reads_bases.at(cursors[l].bases_start + ((p + j) / 32) as u64)
                })
            });
            let loaded = ctx.ld_global(&addrs);
            ctx.int_ops(1);
            for &l in &active {
                if j <= ks[l] {
                    let p = cursors[l].pos;
                    let w = (p + j) / 32 - p / 32;
                    words[l][w] = loaded[l];
                }
            }
        }
        // Qualities of the extension base (scattered).
        let qaddrs = ctx.lanes_from(|l| {
            (is_working(l) && !cursors[l].done).then(|| {
                batch.reads_quals.at(cursors[l].qual_start + ((cursors[l].pos + ks[l]) / 64) as u64)
            })
        });
        let qwords = ctx.ld_global(&qaddrs);
        ctx.int_ops(2);

        // Materialize, hash, probe, vote.
        let mut kms: Lanes<Option<Kmer>> = [None; WARP];
        let mut hashes: Lanes<u64> = [0; WARP];
        let mut descs: Lanes<u64> = [0; WARP];
        let mut ext_codes: Lanes<u8> = [0; WARP];
        let mut hi_tier: Lanes<bool> = [false; WARP];
        for &l in &active {
            let p = cursors[l].pos;
            let k = ks[l];
            let km = Kmer::from_packed_words(&words[l], p % 32, k);
            hashes[l] = hash_kmer(&km);
            let ext_idx = p + k;
            let wsel = ext_idx / 32 - p / 32;
            ext_codes[l] = ((words[l][wsel] >> (2 * (ext_idx % 32))) & 3) as u8;
            hi_tier[l] = (qwords[l] >> (ext_idx % 64)) & 1 == 1;
            descs[l] = encode_key(
                (lanes[l].read_slot_start + cursors[l].read) as u32,
                p as u16,
                tags[l],
                k as u8,
            );
            kms[l] = Some(km);
        }
        let kmw_max = max_k.div_ceil(32) as u64;
        ctx.int_ops(6 * kmw_max); // murmur2

        probe_and_vote_v1(ctx, batch, lanes, &kms, &hashes, &descs, &ext_codes, &hi_tier, ks, tags);

        for &l in &active {
            cursors[l].pos += 1;
        }
        ctx.pop_mask();
    }
}

/// Lockstep probe/insert into 32 independent tables, byte-wise key
/// comparison (the CPU code's character compare, ported directly).
#[allow(clippy::too_many_arguments)]
fn probe_and_vote_v1(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    lanes: &[LaneExt],
    kms: &Lanes<Option<Kmer>>,
    hashes: &Lanes<u64>,
    descs: &Lanes<u64>,
    ext_codes: &Lanes<u8>,
    hi_tier: &Lanes<bool>,
    ks: &Lanes<usize>,
    tags: &Lanes<u8>,
) {
    let mut slot: Lanes<u64> = [0; WARP];
    let mut pending: u32 = 0;
    for (l, km) in kms.iter().enumerate() {
        if km.is_some() && ctx.lane_active(l) {
            slot[l] = hashes[l] % lanes[l].ht_slots;
            pending |= 1 << l;
        }
    }
    ctx.int_ops(2);
    let mut entry: Lanes<Option<u64>> = [None; WARP];
    let entry_word =
        |l: usize, s: u64, w: u64| batch.slab.at(lanes[l].ht_off + s * ENTRY_WORDS + w);
    let entry_addr = |l: usize, s: u64| entry_word(l, s, 0);
    let mut guard = 0u64;
    let max_slots = (0..WARP)
        .filter(|&l| pending & (1 << l) != 0)
        .map(|l| lanes[l].ht_slots)
        .max()
        .unwrap_or(1);
    while pending != 0 {
        ctx.push_mask(pending);
        ctx.int_ops(2);
        let key_addrs =
            ctx.lanes_from(|l| (pending & (1 << l) != 0).then(|| entry_addr(l, slot[l])));
        let keys = ctx.ld_global(&key_addrs);

        let claim_ops = ctx.lanes_from(|l| {
            if pending & (1 << l) == 0 || key_is_current(keys[l], tags[l]) {
                None
            } else {
                Some((entry_addr(l, slot[l]), keys[l], descs[l]))
            }
        });
        let claim_old = ctx.atomic_cas(&claim_ops);
        let mut claimed: Vec<usize> = Vec::new();
        for l in 0..WARP {
            if pending & (1 << l) == 0 || key_is_current(keys[l], tags[l]) {
                continue;
            }
            if claim_old[l] == keys[l] {
                claimed.push(l);
            }
        }
        if !claimed.is_empty() {
            for off in [1u64, 2u64] {
                let addrs =
                    ctx.lanes_from(|l| claimed.contains(&l).then(|| entry_word(l, slot[l], off)));
                ctx.st_global(&addrs, &[0; WARP]);
            }
            for &l in &claimed {
                entry[l] = Some(entry_addr(l, slot[l]));
                pending &= !(1 << l);
            }
        }

        let cmp: Vec<usize> = (0..WARP)
            .filter(|&l| pending & (1 << l) != 0 && key_is_current(keys[l], tags[l]))
            .collect();
        if !cmp.is_empty() {
            // Stored read base pointer.
            let addrs = ctx.lanes_from(|l| {
                cmp.contains(&l).then(|| {
                    let (rs, _, _, _) = decode_key(keys[l]);
                    batch.read_meta.at(u64::from(rs) * READ_META_WORDS)
                })
            });
            let bases_starts = ctx.ld_global(&addrs);
            // Byte-wise compare: one scattered load per base.
            let max_k = cmp.iter().map(|&l| ks[l]).max().unwrap_or(0);
            let mut stored: Lanes<[u64; 5]> = [[0u64; 5]; WARP];
            for j in 0..max_k {
                let addrs = ctx.lanes_from(|l| {
                    (cmp.contains(&l) && j < ks[l]).then(|| {
                        let (_, pos, _, _) = decode_key(keys[l]);
                        batch.reads_bases.at(bases_starts[l] + ((pos as usize + j) / 32) as u64)
                    })
                });
                let loaded = ctx.ld_global(&addrs);
                ctx.int_ops(1);
                for &l in &cmp {
                    if j < ks[l] {
                        let (_, pos, _, _) = decode_key(keys[l]);
                        let p = pos as usize;
                        stored[l][(p + j) / 32 - p / 32] = loaded[l];
                    }
                }
            }
            for &l in &cmp {
                let (_, pos, _, _) = decode_key(keys[l]);
                let p = pos as usize;
                let stored_km = Kmer::from_packed_words(&stored[l], p % 32, ks[l]);
                if Some(stored_km) == kms[l] {
                    entry[l] = Some(entry_addr(l, slot[l]));
                    pending &= !(1 << l);
                } else {
                    slot[l] = (slot[l] + 1) % lanes[l].ht_slots;
                }
            }
        }
        ctx.pop_mask();
        guard += 1;
        assert!(guard <= 2 * (max_slots + 1), "v1 probe did not terminate");
    }

    let hi_ops = ctx.lanes_from(|l| {
        entry[l].and_then(|a| hi_tier[l].then(|| (a + 1, 1u64 << (16 * u64::from(ext_codes[l])))))
    });
    ctx.atomic_add(&hi_ops);
    let lo_ops = ctx.lanes_from(|l| {
        entry[l]
            .and_then(|a| (!hi_tier[l]).then(|| (a + 2, 1u64 << (16 * u64::from(ext_codes[l])))))
    });
    ctx.atomic_add(&lo_ops);
}

/// Lockstep DNA walks: every working lane walks its own table, appending
/// to its own local window. Lanes terminate independently; the live mask
/// shrinks as walks end (the predication imbalance of §2.4).
#[allow(clippy::too_many_arguments)]
fn walk_lockstep(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    params: &LocalAssemblyParams,
    lanes: &mut [LaneExt],
    working: &[usize],
    ks: &Lanes<usize>,
    tags: &Lanes<u8>,
    walk_state: &mut Lanes<WalkState>,
) {
    ctx.set_site("v1::walk");
    // Per-lane current k-mer, materialized from each lane's local window.
    let mut cur: Lanes<Option<Kmer>> = [None; WARP];
    let max_k = working.iter().map(|&l| ks[l]).max().unwrap_or(0);
    {
        let wmask: u32 = working.iter().map(|&l| 1u32 << l).sum();
        ctx.push_mask(wmask);
        let mut codes: Lanes<Vec<u8>> = std::array::from_fn(|_| Vec::new());
        for j in 0..max_k {
            let offs = ctx.lanes_from(|l| {
                (working.contains(&l) && j < ks[l]).then(|| (lanes[l].work_len - ks[l] + j) as u64)
            });
            let vals = ctx.ld_local(&offs);
            ctx.int_ops(1);
            for &l in working {
                if j < ks[l] {
                    codes[l].push(vals[l] as u8);
                }
            }
        }
        for &l in working {
            let seq = bioseq::DnaSeq::from_codes(codes[l].clone());
            cur[l] = Some(Kmer::from_seq(&seq, 0, ks[l]));
        }
        ctx.pop_mask();
    }

    let mut steps: Lanes<usize> = [0; WARP];
    let mut max_steps: Lanes<usize> = [0; WARP];
    let mut appended: Lanes<usize> = [0; WARP];
    for &l in working {
        let budget = params.max_total_extension - lanes[l].appended_total;
        max_steps[l] = params.max_walk_len.min(budget);
    }
    let mut walking: Vec<usize> = working.to_vec();

    while !walking.is_empty() {
        // Lane invariant: every walking lane carries its current k-mer. If
        // device-memory corruption ever breaks it, dead-end the lane
        // instead of panicking the whole kernel.
        walking.retain(|&l| {
            if cur[l].is_none() {
                walk_state[l] = WalkState::DeadEnd;
            }
            cur[l].is_some()
        });
        if walking.is_empty() {
            break;
        }
        let wmask: u32 = walking.iter().map(|&l| 1u32 << l).sum();
        ctx.push_mask(wmask);
        ctx.ctrl_ops(1);

        // ---- visited check / insert (per-lane probe, lockstep rounds) ----
        let mut vslot: Lanes<u64> = [0; WARP];
        for &l in &walking {
            if let Some(km) = &cur[l] {
                vslot[l] = hash_kmer(km) % lanes[l].vis_slots;
            }
        }
        ctx.int_ops(6 * max_k.div_ceil(32) as u64 + 2);
        let mut vis_pending: Vec<usize> = walking.clone();
        let mut looped: Vec<usize> = Vec::new();
        while !vis_pending.is_empty() {
            ctx.push_mask(vis_pending.iter().map(|&l| 1u32 << l).sum());
            ctx.ctrl_ops(1);
            let vword = |l: usize, w: u64| {
                batch.visited.at(lanes[l].vis_off + vslot[l] * VIS_ENTRY_WORDS + w)
            };
            let flag_addrs =
                ctx.lanes_from(|l| vis_pending.contains(&l).then(|| vword(l, VIS_ENTRY_WORDS - 1)));
            let flags = ctx.ld_global(&flag_addrs);
            let mut to_insert: Vec<usize> = Vec::new();
            let mut to_compare: Vec<usize> = Vec::new();
            for &l in &vis_pending {
                if layout::vis_is_current(flags[l], tags[l]) {
                    to_compare.push(l);
                } else {
                    to_insert.push(l);
                }
            }
            if !to_insert.is_empty() {
                for w in 0..VIS_ENTRY_WORDS {
                    let addrs = ctx.lanes_from(|l| to_insert.contains(&l).then(|| vword(l, w)));
                    let vals = ctx.lanes_from(|l| {
                        if !to_insert.contains(&l) {
                            return 0;
                        }
                        let words =
                            cur[l].as_ref().map(layout::kmer_entry_words).unwrap_or_default();
                        if w == VIS_ENTRY_WORDS - 1 {
                            layout::vis_tag(words[w as usize], tags[l])
                        } else {
                            words[w as usize]
                        }
                    });
                    ctx.st_global(&addrs, &vals);
                }
            }
            let mut next_pending: Vec<usize> = Vec::new();
            if !to_compare.is_empty() {
                let mut same: Lanes<bool> = [true; WARP];
                for w in 0..VIS_ENTRY_WORDS - 1 {
                    let addrs = ctx.lanes_from(|l| to_compare.contains(&l).then(|| vword(l, w)));
                    let vals = ctx.ld_global(&addrs);
                    for &l in &to_compare {
                        let words =
                            cur[l].as_ref().map(layout::kmer_entry_words).unwrap_or_default();
                        same[l] &= vals[l] == words[w as usize];
                    }
                }
                ctx.int_ops(VIS_ENTRY_WORDS);
                for &l in &to_compare {
                    let words = cur[l].as_ref().map(layout::kmer_entry_words).unwrap_or_default();
                    let tagged = layout::vis_tag(words[VIS_ENTRY_WORDS as usize - 1], tags[l]);
                    if same[l] && flags[l] == tagged {
                        looped.push(l);
                    } else {
                        vslot[l] = (vslot[l] + 1) % lanes[l].vis_slots;
                        next_pending.push(l);
                    }
                }
            }
            ctx.pop_mask();
            vis_pending = next_pending;
        }
        for &l in &looped {
            walk_state[l] = WalkState::Loop;
        }
        walking.retain(|l| !looped.contains(l));

        // ---- hash-table lookup (per-lane probe, lockstep, byte compare) ----
        let mut slot: Lanes<u64> = [0; WARP];
        for &l in &walking {
            if let Some(km) = &cur[l] {
                slot[l] = hash_kmer(km) % lanes[l].ht_slots;
            }
        }
        ctx.int_ops(2);
        let mut probe_pending: Vec<usize> = walking.clone();
        let mut found_counts: Lanes<Option<ExtCounts>> = [None; WARP];
        let mut dead: Vec<usize> = Vec::new();
        let mut probes = 0u64;
        while !probe_pending.is_empty() {
            ctx.push_mask(probe_pending.iter().map(|&l| 1u32 << l).sum());
            ctx.ctrl_ops(1);
            let eword =
                |l: usize, s: u64, w: u64| batch.slab.at(lanes[l].ht_off + s * ENTRY_WORDS + w);
            let key_addrs =
                ctx.lanes_from(|l| probe_pending.contains(&l).then(|| eword(l, slot[l], 0)));
            let keys = ctx.ld_global(&key_addrs);
            let mut to_cmp: Vec<usize> = Vec::new();
            for &l in &probe_pending {
                if !key_is_current(keys[l], tags[l]) {
                    dead.push(l);
                } else {
                    to_cmp.push(l);
                }
            }
            let mut next_pending: Vec<usize> = Vec::new();
            if !to_cmp.is_empty() {
                let maddrs = ctx.lanes_from(|l| {
                    to_cmp.contains(&l).then(|| {
                        let (rs, _, _, _) = decode_key(keys[l]);
                        batch.read_meta.at(u64::from(rs) * READ_META_WORDS)
                    })
                });
                let bases_starts = ctx.ld_global(&maddrs);
                let maxk_cmp = to_cmp.iter().map(|&l| ks[l]).max().unwrap_or(0);
                let mut stored: Lanes<[u64; 5]> = [[0u64; 5]; WARP];
                for j in 0..maxk_cmp {
                    let addrs = ctx.lanes_from(|l| {
                        (to_cmp.contains(&l) && j < ks[l]).then(|| {
                            let (_, pos, _, _) = decode_key(keys[l]);
                            batch.reads_bases.at(bases_starts[l] + ((pos as usize + j) / 32) as u64)
                        })
                    });
                    let loaded = ctx.ld_global(&addrs);
                    ctx.int_ops(1);
                    for &l in &to_cmp {
                        if j < ks[l] {
                            let (_, pos, _, _) = decode_key(keys[l]);
                            let p = pos as usize;
                            stored[l][(p + j) / 32 - p / 32] = loaded[l];
                        }
                    }
                }
                // Matching lanes fetch their counts words.
                let mut matched: Vec<usize> = Vec::new();
                for &l in &to_cmp {
                    let (_, pos, _, _) = decode_key(keys[l]);
                    let p = pos as usize;
                    let stored_km = Kmer::from_packed_words(&stored[l], p % 32, ks[l]);
                    if Some(stored_km) == cur[l] {
                        matched.push(l);
                    } else {
                        slot[l] = (slot[l] + 1) % lanes[l].ht_slots;
                        next_pending.push(l);
                    }
                }
                if !matched.is_empty() {
                    let hi_addrs =
                        ctx.lanes_from(|l| matched.contains(&l).then(|| eword(l, slot[l], 1)));
                    let his = ctx.ld_global(&hi_addrs);
                    let lo_addrs =
                        ctx.lanes_from(|l| matched.contains(&l).then(|| eword(l, slot[l], 2)));
                    let los = ctx.ld_global(&lo_addrs);
                    for &l in &matched {
                        found_counts[l] = Some(ExtCounts::from_hi_lo_words(his[l], los[l]));
                    }
                }
            }
            ctx.pop_mask();
            probe_pending = next_pending;
            probes += 1;
            let cap = walking.iter().map(|&l| lanes[l].ht_slots).max().unwrap_or(1);
            assert!(probes <= cap + 1, "v1 walk probe did not terminate");
        }
        for &l in &dead {
            walk_state[l] = WalkState::DeadEnd;
        }
        walking.retain(|l| !dead.contains(l));

        // ---- classify and extend (per-lane) ----
        ctx.int_ops(12);
        let mut extenders: Vec<(usize, bioseq::Base)> = Vec::new();
        let mut ended: Vec<usize> = Vec::new();
        for &l in &walking {
            // A lane that somehow lost its counts dead-ends conservatively.
            let verdict =
                found_counts[l].map_or(ExtVerdict::DeadEnd, |c| c.classify(params.min_viable));
            match verdict {
                ExtVerdict::Extend(b) => extenders.push((l, b)),
                ExtVerdict::DeadEnd => {
                    walk_state[l] = WalkState::DeadEnd;
                    ended.push(l);
                }
                ExtVerdict::Fork => {
                    walk_state[l] = WalkState::Fork;
                    ended.push(l);
                }
            }
        }
        if !extenders.is_empty() {
            let offs = ctx.lanes_from(|l| {
                extenders.iter().find(|(el, _)| *el == l).map(|_| lanes[l].work_len as u64)
            });
            let vals = ctx.lanes_from(|l| {
                extenders.iter().find(|(el, _)| *el == l).map_or(0, |(_, b)| u64::from(b.code()))
            });
            ctx.st_local(&offs, &vals);
            ctx.int_ops(2 * max_k.div_ceil(32) as u64);
            for (l, b) in &extenders {
                lanes[*l].work_len += 1;
                lanes[*l].appended_total += 1;
                appended[*l] += 1;
                cur[*l] = cur[*l].map(|km| km.shift_right(*b));
                steps[*l] += 1;
            }
        }
        walking.retain(|l| !ended.contains(l));
        // Step-cap enforcement.
        let mut capped: Vec<usize> = Vec::new();
        for &l in &walking {
            if steps[l] >= max_steps[l] {
                walk_state[l] = WalkState::MaxLen;
                capped.push(l);
            }
        }
        walking.retain(|l| !capped.contains(l));
        ctx.pop_mask();
        let _ = appended;
    }
}
