//! Host-side packing of extension tasks into device buffers.
//!
//! This is the "CPU-side data packing" of the paper's driver function
//! (§4.3): reads and contig tails are 2-bit packed, quality scores are
//! reduced to a 1-bit tier (≥ Q20), and the per-extension hash-table sizes
//! (`ht_sizes`) are computed exactly and laid out as offsets into one flat
//! slab, following the §3.2 memory-minimization scheme.

use crate::gpu::layout::{self, EXT_META_WORDS, READ_META_WORDS};
use crate::params::LocalAssemblyParams;
use crate::task::ExtTask;
use bioseq::PackedSeq;
use gpusim::{Buf, Device, DeviceOom};
use kmer::QUAL_TIER_CUTOFF;

/// A packed batch resident in device memory.
#[derive(Debug, Clone)]
pub struct GpuBatch {
    /// Extensions in this batch.
    pub n_exts: usize,
    /// Concatenated 2-bit packed read bases (word-aligned per read).
    pub reads_bases: Buf,
    /// Concatenated 1-bit quality tiers (word-aligned per read).
    pub reads_quals: Buf,
    /// Per-read metadata ([`READ_META_WORDS`] each).
    pub read_meta: Buf,
    /// Per-extension metadata ([`EXT_META_WORDS`] each).
    pub ext_meta: Buf,
    /// Packed contig tails.
    pub tails: Buf,
    /// The flat hash-table slab, all extensions, exact offsets.
    pub slab: Buf,
    /// Visited-table regions, one per extension.
    pub visited: Buf,
    /// Output records, `out_stride` words per extension.
    pub out: Buf,
    /// Words per output record.
    pub out_stride: u64,
    /// Local-memory words per lane needed by the kernel (working window).
    pub window: usize,
    /// Total slab slots (diagnostics).
    pub total_ht_slots: u64,
}

/// Device words one task will consume. This is the workspace's single task
/// cost model, with two consumers that must stay consistent: the engine
/// batches against the device memory budget with it, and the work-stealing
/// scheduler sizes its batches by it (`schedule::build_batches`).
pub fn estimate_task_words(task: &ExtTask, params: &LocalAssemblyParams) -> u64 {
    let read_words: u64 = task
        .reads
        .iter()
        .map(|r| (r.len() as u64).div_ceil(32) + (r.len() as u64).div_ceil(64))
        .sum();
    let ht_slots = layout::ht_slots_for(task.reads.iter().map(|r| r.len()));
    let vis = layout::vis_slots_for(params.max_walk_len) * layout::VIS_ENTRY_WORDS;
    read_words
        + task.reads.len() as u64 * READ_META_WORDS
        + EXT_META_WORDS
        + (task.tail.len() as u64).div_ceil(32)
        + ht_slots * layout::ENTRY_WORDS
        + vis
        + layout::out_stride(params.max_total_extension)
}

/// [`estimate_task_words`] clamped to ≥ 1 — the *scheduling* cost of a
/// task. Every scheduler (work-steal batches, the static bin-2 deal) must
/// charge at least one word per task:
/// a zero-cost task would advance no virtual clock and add no bin load,
/// so one engine could drain arbitrarily many of them "for free" and the
/// schedule's balance claims would be fiction.
pub fn estimate_task_cost(task: &ExtTask, params: &LocalAssemblyParams) -> u64 {
    estimate_task_words(task, params).max(1)
}

/// Pack a batch of tasks onto the device. Callers batch with
/// [`estimate_task_words`] against the device budget first: the batch uses
/// at most their sum plus one word for each of its eight buffers that would
/// otherwise be empty. An OOM anyway is returned, and the engine runs the
/// batch on the CPU instead.
pub fn pack_batch(
    dev: &mut Device,
    tasks: &[&ExtTask],
    params: &LocalAssemblyParams,
) -> Result<GpuBatch, DeviceOom> {
    let n_exts = tasks.len();
    let vis_slots = layout::vis_slots_for(params.max_walk_len);
    let out_stride = layout::out_stride(params.max_total_extension);
    // The working window holds the largest task tail in the batch plus
    // everything the walk may append.
    let max_tail = tasks.iter().map(|t| t.tail.len()).max().unwrap_or(0);
    let window = max_tail.max(params.k_max()) + params.max_total_extension;

    let mut bases_words: Vec<u64> = Vec::new();
    let mut qual_words: Vec<u64> = Vec::new();
    let mut read_meta: Vec<u64> = Vec::new();
    let mut ext_meta: Vec<u64> = Vec::new();
    let mut tail_words: Vec<u64> = Vec::new();
    let mut ht_cursor: u64 = 0;

    let mut read_slot: u64 = 0;
    for (ei, task) in tasks.iter().enumerate() {
        let read_slot_start = read_slot;
        for read in &task.reads {
            let packed = PackedSeq::from_seq(&read.seq);
            let bases_start = bases_words.len() as u64;
            bases_words.extend_from_slice(packed.words());
            // 1-bit quality tier, 64 bases per word.
            let qual_start = qual_words.len() as u64;
            let mut qw = vec![0u64; read.len().div_ceil(64)];
            for (i, &q) in read.quals.iter().enumerate() {
                if q >= QUAL_TIER_CUTOFF {
                    qw[i / 64] |= 1 << (i % 64);
                }
            }
            qual_words.extend_from_slice(&qw);
            read_meta.extend_from_slice(&[bases_start, qual_start, read.len() as u64]);
            read_slot += 1;
        }
        let ht_slots = layout::ht_slots_for(task.reads.iter().map(|r| r.len()));
        let ht_off = ht_cursor;
        ht_cursor += ht_slots * layout::ENTRY_WORDS;

        let tail_packed = PackedSeq::from_seq(&task.tail);
        let tail_off = tail_words.len() as u64;
        tail_words.extend_from_slice(tail_packed.words());

        ext_meta.extend_from_slice(&[
            read_slot_start,
            task.reads.len() as u64,
            ht_off,
            ht_slots,
            ei as u64 * vis_slots * layout::VIS_ENTRY_WORDS,
            vis_slots,
            tail_off,
            task.tail.len() as u64,
        ]);
    }

    let reads_bases = dev.alloc((bases_words.len() as u64).max(1))?;
    let reads_quals = dev.alloc((qual_words.len() as u64).max(1))?;
    let read_meta_buf = dev.alloc((read_meta.len() as u64).max(1))?;
    let ext_meta_buf = dev.alloc((ext_meta.len() as u64).max(1))?;
    let tails = dev.alloc((tail_words.len() as u64).max(1))?;
    let slab = dev.alloc(ht_cursor.max(1))?;
    let visited = dev.alloc((n_exts as u64 * vis_slots * layout::VIS_ENTRY_WORDS).max(1))?;
    let out = dev.alloc((n_exts as u64 * out_stride).max(1))?;

    dev.h2d(reads_bases, 0, &bases_words);
    dev.h2d(reads_quals, 0, &qual_words);
    dev.h2d(read_meta_buf, 0, &read_meta);
    dev.h2d(ext_meta_buf, 0, &ext_meta);
    dev.h2d(tails, 0, &tail_words);

    Ok(GpuBatch {
        n_exts,
        reads_bases,
        reads_quals,
        read_meta: read_meta_buf,
        ext_meta: ext_meta_buf,
        tails,
        slab,
        visited,
        out,
        out_stride,
        window,
        total_ht_slots: ht_cursor / layout::ENTRY_WORDS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use gpusim::DeviceConfig;

    fn mk_task(tail: &str, reads: &[&str]) -> ExtTask {
        ExtTask {
            contig: 0,
            end: ContigEnd::Right,
            tail: DnaSeq::from_str_strict(tail).unwrap(),
            reads: reads
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let seq = DnaSeq::from_str_strict(s).unwrap();
                    let quals: Vec<u8> =
                        (0..seq.len()).map(|j| if j % 2 == 0 { 35 } else { 10 }).collect();
                    Read::new(format!("r{i}"), seq, quals)
                })
                .collect(),
        }
    }

    #[test]
    fn pack_layout_is_consistent() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let params = LocalAssemblyParams::default();
        let t1 = mk_task("ACGTACGTACGTACGTACGT", &["ACGTACGTACGTACGTA", "TTTTGGGGCCCCAAAA"]);
        let t2 = mk_task("TTTTGGGGCCCCAAAATTTT", &["GGGGCCCCAAAATTTTCC"]);
        let batch = pack_batch(&mut dev, &[&t1, &t2], &params).expect("fits");

        assert_eq!(batch.n_exts, 2);
        // ext 0 meta
        let m0 = dev.d2h(batch.ext_meta, 0, EXT_META_WORDS);
        assert_eq!(m0[0], 0); // read slot start
        assert_eq!(m0[1], 2); // n reads
        assert_eq!(m0[3], (17 + 16) as u64); // ht slots = sum of lens
        assert_eq!(m0[7], 20); // tail len
                               // ext 1 meta
        let m1 = dev.d2h(batch.ext_meta, EXT_META_WORDS, EXT_META_WORDS);
        assert_eq!(m1[0], 2);
        assert_eq!(m1[1], 1);
        assert_eq!(m1[2], m0[3] * layout::ENTRY_WORDS); // slab offset after ext0
    }

    #[test]
    fn packed_reads_round_trip() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let params = LocalAssemblyParams::default();
        let t = mk_task("ACGTACGTACGTACGTACGT", &["ACGGTTCAAGTACCGGTTAA"]);
        let batch = pack_batch(&mut dev, &[&t], &params).expect("fits");
        let rm = dev.d2h(batch.read_meta, 0, READ_META_WORDS);
        let (bases_start, len) = (rm[0], rm[2] as usize);
        let words = dev.d2h(batch.reads_bases, bases_start, (len as u64).div_ceil(32));
        let km = kmer::Kmer::from_packed_words(&words, 0, len);
        assert_eq!(km.to_seq(), t.reads[0].seq);
    }

    #[test]
    fn qual_tier_bits_match() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let params = LocalAssemblyParams::default();
        let t = mk_task("ACGTACGTACGTACGTACGT", &["ACGGTTCAAGTACCGG"]);
        let batch = pack_batch(&mut dev, &[&t], &params).expect("fits");
        let rm = dev.d2h(batch.read_meta, 0, READ_META_WORDS);
        let qw = dev.d2h(batch.reads_quals, rm[1], 1)[0];
        for (i, &q) in t.reads[0].quals.iter().enumerate() {
            let bit = (qw >> i) & 1;
            assert_eq!(bit == 1, q >= QUAL_TIER_CUTOFF, "base {i}");
        }
    }

    /// A packed batch uses at most the sum of its tasks' estimates plus one
    /// word for each of its eight buffers that would otherwise be empty.
    /// The engine batches against 80% of device memory, so a batch it
    /// builds always fits.
    #[test]
    fn estimate_bounds_actual() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn seq(rng: &mut StdRng, len: usize) -> DnaSeq {
            (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
        }
        let params = LocalAssemblyParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        for mix in 0..200 {
            let tasks: Vec<ExtTask> = (0..rng.gen_range(0..7))
                .map(|i| {
                    let tail_len = rng.gen_range(1..=200);
                    let reads = (0..rng.gen_range(0..5))
                        .map(|r| {
                            let len = rng.gen_range(1..=150);
                            Read::with_uniform_qual(format!("r{r}"), seq(&mut rng, len), 30)
                        })
                        .collect();
                    ExtTask {
                        contig: i,
                        end: ContigEnd::Right,
                        tail: seq(&mut rng, tail_len),
                        reads,
                    }
                })
                .collect();
            let refs: Vec<&ExtTask> = tasks.iter().collect();
            let mut dev = Device::new(DeviceConfig::tiny());
            pack_batch(&mut dev, &refs, &params).expect("fits");
            let est: u64 = tasks.iter().map(|t| estimate_task_words(t, &params)).sum();
            let actual = dev.mem_used_words();
            assert!(actual <= est + 8, "mix {mix}: {actual} words used, estimate {est}");
        }
    }
}
