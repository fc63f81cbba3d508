//! The **v2** extension kernel: one warp per contig-end extension
//! (Figure 5), warp-cooperative hash-table construction.
//!
//! * All 32 lanes cooperatively insert k-mers into the warp-local hash
//!   table: lane `i` handles k-mers `i, i+32, …` of each read, so adjacent
//!   lanes load adjacent packed read words (coalesced). Thread collisions
//!   (two lanes inserting the same k-mer) are resolved with an `atomicCAS`
//!   claim; `match_any` + `syncwarp` group the colliding lanes exactly as
//!   §3.3 describes.
//! * The DNA walk (§3.4) runs with every lane except lane 0 masked out; the
//!   walk state is broadcast to the warp with a shuffle so all lanes agree
//!   on whether to rebuild the table at a shifted k — the in-warp k-shift
//!   loop of Figure 5.
//! * Tables are **generation-tagged** (see [`super::layout`]): rebuilding
//!   at a new k costs no re-initialization traffic; the slab arrives
//!   zeroed from the host (`cudaMemset` semantics).
//!
//! The paper's first-cut **v1** kernel (one extension per *thread*) lives
//! in [`super::kernel_v1`].
//!
//! ### Instruction-accounting conventions
//!
//! `gpusim` meters loads/stores/atomics/shuffles automatically. Arithmetic
//! is charged explicitly at these rates, applied consistently across v1, v2
//! and the walk so that *relative* comparisons are meaningful: ~2 INT ops
//! per packed word touched (shift+mask), 6 INT ops per word hashed
//! (murmur2's multiply/xor ladder), 2 INT ops per probe-address
//! computation, 12 INT ops for a vote classification, and 1 control op per
//! loop-carried branch.

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

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVersion {
    /// One extension per **thread** — the paper's first cut: scattered,
    /// uncoalesced accesses across 32 independent tables per warp.
    V1,
    /// One extension per **warp** with cooperative table construction —
    /// the paper's contribution.
    V2,
}

/// The v2 per-warp kernel body: extend one contig end to completion.
pub fn extension_kernel_v2(ctx: &mut WarpCtx, batch: &GpuBatch, params: &LocalAssemblyParams) {
    let e = ctx.warp_id as u64;

    // ---- load extension metadata (8 words, lanes 0..8, then broadcast) ----
    ctx.set_site("v2::load_meta");
    let meta = batch.ext_meta.slice(e * EXT_META_WORDS, EXT_META_WORDS);
    let addrs = ctx.lanes_from(|l| (l < EXT_META_WORDS as usize).then(|| meta.at(l as u64)));
    let m = ctx.ld_global(&addrs);
    // Distribute the eight values to all lanes (one shuffle round).
    let _ = ctx.shfl(&m, 0);
    let read_slot_start = m[0];
    let n_reads = m[1];
    let ht_off = m[2];
    let ht_slots = m[3];
    let vis_off = m[4];
    let vis_slots = m[5];
    let tail_off = m[6];
    let tail_len = m[7] as usize;

    let out = batch.out.slice(e * batch.out_stride, batch.out_stride);
    if n_reads == 0 {
        // Bin-1 style early exit: store an empty result.
        ctx.st_global_lane(0, out.at(0), 0);
        ctx.st_global_lane(0, out.at(1), layout::encode_out_header(WalkState::DeadEnd.to_u64(), 0));
        return;
    }

    // Warp-local table regions carved out of the shared slab/visited arenas.
    let ht = batch.slab.slice(ht_off, ht_slots * ENTRY_WORDS);
    let vis = batch.visited.slice(vis_off, vis_slots * VIS_ENTRY_WORDS);

    // ---- copy the contig tail into the working window (lane 0 local) ----
    ctx.set_site("v2::tail_copy");
    ctx.push_mask(1);
    {
        let tail_words = (tail_len as u64).div_ceil(32);
        for w in 0..tail_words {
            let word = ctx.ld_global_lane(0, batch.tails.at(tail_off + w));
            let n_here = (tail_len - (w as usize) * 32).min(32);
            for b in 0..n_here {
                ctx.int_ops(2);
                ctx.st_local_lane(0, (w as usize * 32 + b) as u64, (word >> (2 * b)) & 3);
            }
        }
    }
    ctx.pop_mask();

    let mut work_len = tail_len;
    let mut appended_total = 0usize;

    // ---- in-warp k-shift loop (Figure 5) ----
    let mut kshift = KShift::new(params.k_list.len(), params.start_k_idx);
    #[allow(unused_assignments)]
    let mut final_state = WalkState::DeadEnd;
    let mut iterations = 0u32;
    loop {
        let k = params.k_list[kshift.k_idx()];
        layout::assert_k_supported(k);
        iterations += 1;
        let iter_tag = iterations as u8;
        ctx.ctrl_ops(1);

        let budget = params.max_total_extension - appended_total;
        let walk_state;
        let mut appended_this = 0usize;
        if budget == 0 || work_len < k {
            walk_state = WalkState::DeadEnd;
        } else {
            build_table_v2(ctx, batch, read_slot_start, n_reads, ht, ht_slots, k, iter_tag);

            // ---- DNA walk: lane 0 only ----
            ctx.set_site("v2::walk");
            ctx.push_mask(1);
            let max_steps = params.max_walk_len.min(budget);
            let (state, n_app) = dna_walk_lane0(
                ctx,
                batch,
                ht,
                ht_slots,
                vis,
                vis_slots,
                k,
                iter_tag,
                work_len,
                max_steps,
                params.min_viable,
            );
            ctx.pop_mask();
            walk_state = state;
            appended_this = n_app;
        }
        work_len += appended_this;
        appended_total += appended_this;
        final_state = walk_state;

        // Broadcast the walk state to the whole warp (shuffle), then drive
        // the shared k-shift controller uniformly.
        let mut sv: Lanes<u64> = [0; WARP];
        sv[0] = walk_state.to_u64();
        let broadcast = ctx.shfl(&sv, 0);
        // The broadcast value was written by this warp one shuffle ago, so
        // it is always a valid encoding; a corrupted value conservatively
        // terminates the walk as a dead end rather than aborting the kernel.
        let state = WalkState::from_u64(broadcast[0]).unwrap_or(WalkState::DeadEnd);
        ctx.ctrl_ops(2);
        if !kshift.on_walk(state) {
            break;
        }
    }

    // ---- store the output record (lane 0) ----
    ctx.set_site("v2::store_out");
    ctx.push_mask(1);
    ctx.st_global_lane(0, out.at(0), appended_total as u64);
    ctx.st_global_lane(0, out.at(1), layout::encode_out_header(final_state.to_u64(), iterations));
    let out_words = (appended_total as u64).div_ceil(32);
    for w in 0..out_words {
        let mut word = 0u64;
        let n_here = (appended_total - (w as usize) * 32).min(32);
        for b in 0..n_here {
            let code = ctx.ld_local_lane(0, (tail_len + w as usize * 32 + b) as u64);
            ctx.int_ops(2);
            word |= (code & 3) << (2 * b);
        }
        ctx.st_global_lane(0, out.at(2 + w), word);
    }
    ctx.pop_mask();
}

/// Load the 3 metadata words of global read slot `slot` (lane-parallel).
pub(crate) fn load_read_meta(ctx: &mut WarpCtx, batch: &GpuBatch, slot: u64) -> (u64, u64, u64) {
    let meta = batch.read_meta.slice(slot * READ_META_WORDS, READ_META_WORDS);
    let addrs = ctx.lanes_from(|l| (l < READ_META_WORDS as usize).then(|| meta.at(l as u64)));
    let m = ctx.ld_global(&addrs);
    let _ = ctx.shfl(&m, 0);
    (m[0], m[1], m[2])
}

/// v2 build phase: 32 lanes cooperatively insert each read's k-mers.
#[allow(clippy::too_many_arguments)]
fn build_table_v2(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    read_slot_start: u64,
    n_reads: u64,
    ht: gpusim::Buf,
    ht_slots: u64,
    k: usize,
    iter_tag: u8,
) {
    ctx.set_site("v2::build_table");
    for r in 0..n_reads {
        let slot_global = read_slot_start + r;
        let (bases_start, qual_start, rlen) = load_read_meta(ctx, batch, slot_global);
        let rlen = rlen as usize;
        ctx.ctrl_ops(1);
        if rlen < k + 1 {
            continue;
        }
        let n_kmers = rlen - k; // k-mers that have a following base
        let mut j0 = 0usize;
        while j0 < n_kmers {
            let lanes_here = (n_kmers - j0).min(WARP);
            let mask = if lanes_here == WARP { u32::MAX } else { (1u32 << lanes_here) - 1 };
            ctx.push_mask(mask);

            // Coalesced load of the words spanning bases p..=p+k per lane.
            let max_span = (j0 + lanes_here - 1 + k) / 32 - j0 / 32 + 1;
            let mut lane_words: Vec<Lanes<u64>> = Vec::with_capacity(max_span);
            for w in 0..max_span {
                let addrs = ctx.lanes_from(|l| {
                    if l >= lanes_here {
                        return None;
                    }
                    let p = j0 + l;
                    let span = (p + k) / 32 - p / 32 + 1;
                    (w < span).then(|| batch.reads_bases.at(bases_start + (p / 32 + w) as u64))
                });
                lane_words.push(ctx.ld_global(&addrs));
            }
            ctx.int_ops(2 * max_span as u64);

            // Quality tier bit of the extension base (coalesced load).
            let qaddrs = ctx.lanes_from(|l| {
                (l < lanes_here)
                    .then(|| batch.reads_quals.at(qual_start + ((j0 + l + k) / 64) as u64))
            });
            let qwords = ctx.ld_global(&qaddrs);
            ctx.int_ops(2);

            // Per-lane k-mer materialization + hash.
            let mut kms: Lanes<Option<Kmer>> = [None; WARP];
            let mut hashes: Lanes<u64> = [0; WARP];
            let mut ext_codes: Lanes<u8> = [0; WARP];
            let mut hi_tier: Lanes<bool> = [false; WARP];
            for l in 0..lanes_here {
                let p = j0 + l;
                let local: Vec<u64> = (0..max_span).map(|w| lane_words[w][l]).collect();
                let km = Kmer::from_packed_words(&local, p % 32, k);
                hashes[l] = hash_kmer(&km);
                let ext_idx = p + k;
                let wsel = ext_idx / 32 - p / 32;
                ext_codes[l] = ((lane_words[wsel][l] >> (2 * (ext_idx % 32))) & 3) as u8;
                hi_tier[l] = (qwords[l] >> (ext_idx % 64)) & 1 == 1;
                kms[l] = Some(km);
            }
            let kmw = (k as u64).div_ceil(32);
            ctx.int_ops(2 * kmw + 2); // extraction
            ctx.int_ops(6 * kmw); // murmur2 ladder

            // The paper's collision grouping: match colliding lanes, sync.
            let _groups = ctx.match_any(&hashes);
            ctx.syncwarp();

            // Probe + insert + vote.
            let descs = ctx
                .lanes_from(|l| encode_key(slot_global as u32, (j0 + l) as u16, iter_tag, k as u8));
            probe_and_vote_v2(
                ctx, batch, ht, ht_slots, mask, &kms, &hashes, &descs, &ext_codes, &hi_tier, k,
                iter_tag,
            );
            ctx.pop_mask();
            j0 += WARP;
        }
    }
}

/// Linear-probe insertion with generation-tagged CAS claims, then the vote
/// atomics. Active lanes are those set in `mask` with `Some` k-mers.
#[allow(clippy::too_many_arguments)]
fn probe_and_vote_v2(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    ht: gpusim::Buf,
    ht_slots: u64,
    mask: u32,
    kms: &Lanes<Option<Kmer>>,
    hashes: &Lanes<u64>,
    descs: &Lanes<u64>,
    ext_codes: &Lanes<u8>,
    hi_tier: &Lanes<bool>,
    k: usize,
    iter_tag: u8,
) {
    ctx.set_site("v2::probe_insert");
    let mut slot: Lanes<u64> = [0; WARP];
    let mut pending: u32 = 0;
    for l in 0..WARP {
        if mask & (1 << l) != 0 && kms[l].is_some() {
            slot[l] = hashes[l] % ht_slots;
            pending |= 1 << l;
        }
    }
    ctx.int_ops(2);
    let mut entry: Lanes<Option<u64>> = [None; WARP];
    let mut guard = 0u64;
    while pending != 0 {
        ctx.push_mask(pending);
        ctx.int_ops(2); // slot -> address

        // 1. read the key word of each pending lane's slot.
        let key_addrs =
            ctx.lanes_from(|l| (pending & (1 << l) != 0).then(|| ht.at(slot[l] * ENTRY_WORDS)));
        let keys = ctx.ld_global(&key_addrs);

        // 2. lanes whose slot is empty-or-stale try to claim it with CAS on
        // the observed value.
        let claim_ops = ctx.lanes_from(|l| {
            if pending & (1 << l) == 0 || key_is_current(keys[l], iter_tag) {
                None
            } else {
                Some((ht.at(slot[l] * ENTRY_WORDS), keys[l], descs[l]))
            }
        });
        let claim_old = ctx.atomic_cas(&claim_ops);
        let mut claimed: Vec<usize> = Vec::new();
        for l in 0..WARP {
            if pending & (1 << l) == 0 || key_is_current(keys[l], iter_tag) {
                continue;
            }
            if claim_old[l] == keys[l] {
                claimed.push(l);
            }
            // Losers re-read the slot next round (stay pending).
        }

        // 3. claimers reset the stale count words BEFORE anyone votes.
        if !claimed.is_empty() {
            for off in [1u64, 2u64] {
                let addrs = ctx.lanes_from(|l| {
                    claimed.contains(&l).then(|| ht.at(slot[l] * ENTRY_WORDS + off))
                });
                let zeros: Lanes<u64> = [0; WARP];
                ctx.st_global(&addrs, &zeros);
            }
            for &l in &claimed {
                entry[l] = Some(ht.at(slot[l] * ENTRY_WORDS));
                pending &= !(1 << l);
            }
        }

        // 4. lanes whose slot holds a live key of this generation compare
        // k-mers by dereferencing the stored read pointer — the random
        // (uncoalesced) accesses of the pointer scheme.
        let cmp_lanes: Vec<usize> = (0..WARP)
            .filter(|&l| pending & (1 << l) != 0 && key_is_current(keys[l], iter_tag))
            .collect();
        if !cmp_lanes.is_empty() {
            let addrs = ctx.lanes_from(|l| {
                cmp_lanes.contains(&l).then(|| {
                    let (rs, _, _, _) = decode_key(keys[l]);
                    batch.read_meta.at(u64::from(rs) * READ_META_WORDS)
                })
            });
            let bases_starts = ctx.ld_global(&addrs);
            let kmw = k.div_ceil(32);
            let max_span = kmw + 1;
            let mut stored_words: Vec<Lanes<u64>> = Vec::with_capacity(max_span);
            for w in 0..max_span {
                let addrs = ctx.lanes_from(|l| {
                    if !cmp_lanes.contains(&l) {
                        return None;
                    }
                    let (_, pos, _, _) = decode_key(keys[l]);
                    let p = pos as usize;
                    let span = (p + k - 1) / 32 - p / 32 + 1;
                    (w < span).then(|| batch.reads_bases.at(bases_starts[l] + (p / 32 + w) as u64))
                });
                stored_words.push(ctx.ld_global(&addrs));
            }
            ctx.int_ops(2 * kmw as u64 + 2);
            for &l in &cmp_lanes {
                let (_, pos, _, _) = decode_key(keys[l]);
                let p = pos as usize;
                let words: Vec<u64> = (0..max_span).map(|w| stored_words[w][l]).collect();
                let stored_km = Kmer::from_packed_words(&words, p % 32, k);
                if Some(stored_km) == kms[l] {
                    entry[l] = Some(ht.at(slot[l] * ENTRY_WORDS));
                    pending &= !(1 << l);
                } else {
                    slot[l] = (slot[l] + 1) % ht_slots;
                }
            }
            ctx.int_ops(kmw as u64);
        }
        ctx.pop_mask();
        guard += 1;
        assert!(
            guard <= 2 * (ht_slots + 1),
            "hash table probe did not terminate (slots {ht_slots})"
        );
    }

    // Votes: claimers just plain-stored zeros into their entries' count
    // words; lanes that matched an *existing* entry are about to atomic-add
    // the very same words. Order the two phases — without this barrier that
    // is a cross-lane plain-write/atomic race (and racecheck flags it).
    ctx.syncwarp();

    // Votes: hi-tier counts and lo-tier counts.
    ctx.set_site("v2::vote");
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

/// The DNA walk (Algorithm 2) on a device table, lane 0 active.
/// Returns the terminal state and number of bases appended to the window.
#[allow(clippy::too_many_arguments)]
fn dna_walk_lane0(
    ctx: &mut WarpCtx,
    batch: &GpuBatch,
    ht: gpusim::Buf,
    ht_slots: u64,
    vis: gpusim::Buf,
    vis_slots: u64,
    k: usize,
    iter_tag: u8,
    work_len_in: usize,
    max_steps: usize,
    min_viable: u16,
) -> (WalkState, usize) {
    let kmw = k.div_ceil(32);
    let mut work_len = work_len_in;

    // Materialize the terminal k-mer from the working window.
    let mut codes = Vec::with_capacity(k);
    for i in 0..k {
        let c = ctx.ld_local_lane(0, (work_len - k + i) as u64);
        codes.push(c as u8);
    }
    ctx.int_ops(k as u64);
    let mut cur = {
        let seq = bioseq::DnaSeq::from_codes(codes);
        Kmer::from_seq(&seq, 0, k)
    };

    let mut appended = 0usize;
    for _ in 0..max_steps {
        ctx.ctrl_ops(1);
        // ---- visited check / insert ----
        let h = hash_kmer(&cur);
        ctx.int_ops(6 * kmw as u64);
        let mut vslot = h % vis_slots;
        ctx.int_ops(2);
        let cur_words = layout::kmer_entry_words(&cur);
        let cur_tagged = layout::vis_tag(cur_words[VIS_ENTRY_WORDS as usize - 1], iter_tag);
        loop {
            ctx.ctrl_ops(1);
            let flag =
                ctx.ld_global_lane(0, vis.at(vslot * VIS_ENTRY_WORDS + (VIS_ENTRY_WORDS - 1)));
            if !layout::vis_is_current(flag, iter_tag) {
                // Not visited: insert cur (single writer, plain stores).
                for (w, &val) in cur_words.iter().enumerate().take(VIS_ENTRY_WORDS as usize - 1) {
                    ctx.st_global_lane(0, vis.at(vslot * VIS_ENTRY_WORDS + w as u64), val);
                }
                ctx.st_global_lane(
                    0,
                    vis.at(vslot * VIS_ENTRY_WORDS + (VIS_ENTRY_WORDS - 1)),
                    cur_tagged,
                );
                break;
            }
            // Occupied this generation: full compare.
            let mut same = flag == cur_tagged;
            for w in 0..(VIS_ENTRY_WORDS - 1) {
                let stored = ctx.ld_global_lane(0, vis.at(vslot * VIS_ENTRY_WORDS + w));
                same &= stored == cur_words[w as usize];
            }
            ctx.int_ops(VIS_ENTRY_WORDS);
            if same {
                return (WalkState::Loop, appended);
            }
            vslot = (vslot + 1) % vis_slots;
        }

        // ---- hash-table lookup ----
        let mut slot = h % ht_slots;
        ctx.int_ops(2);
        let counts;
        let mut probes = 0u64;
        loop {
            ctx.ctrl_ops(1);
            let key = ctx.ld_global_lane(0, ht.at(slot * ENTRY_WORDS));
            if !key_is_current(key, iter_tag) {
                return (WalkState::DeadEnd, appended);
            }
            // Pointer dereference for key comparison.
            let (rs, pos, _, _) = decode_key(key);
            let bases_start =
                ctx.ld_global_lane(0, batch.read_meta.at(u64::from(rs) * READ_META_WORDS));
            let p = pos as usize;
            let span = (p + k - 1) / 32 - p / 32 + 1;
            let mut words = Vec::with_capacity(span);
            for w in 0..span {
                words.push(
                    ctx.ld_global_lane(0, batch.reads_bases.at(bases_start + (p / 32 + w) as u64)),
                );
            }
            ctx.int_ops(2 * kmw as u64 + 2);
            let stored_km = Kmer::from_packed_words(&words, p % 32, k);
            if stored_km == cur {
                let hi = ctx.ld_global_lane(0, ht.at(slot * ENTRY_WORDS + 1));
                let lo = ctx.ld_global_lane(0, ht.at(slot * ENTRY_WORDS + 2));
                counts = ExtCounts::from_hi_lo_words(hi, lo);
                break;
            }
            slot = (slot + 1) % ht_slots;
            probes += 1;
            assert!(probes <= ht_slots, "walk probe did not terminate");
        }

        // ---- classify and extend ----
        ctx.int_ops(12);
        match counts.classify(min_viable) {
            ExtVerdict::Extend(b) => {
                ctx.st_local_lane(0, work_len as u64, u64::from(b.code()));
                work_len += 1;
                appended += 1;
                cur = cur.shift_right(b);
                ctx.int_ops(2 * kmw as u64);
            }
            ExtVerdict::DeadEnd => return (WalkState::DeadEnd, appended),
            ExtVerdict::Fork => return (WalkState::Fork, appended),
        }
    }
    (WalkState::MaxLen, appended)
}
