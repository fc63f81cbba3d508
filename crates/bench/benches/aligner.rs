//! Criterion bench: the alignment phase — seed-index build at 1 and 2
//! threads (one hash partition per thread), read alignment throughput,
//! candidate collection, and the banded-SW "aln kernel".

use align::sw::{banded_sw, SwScoring};
use align::{align_read, collect_candidates, AlignParams, CandidateParams, SeedIndex};
use bioseq::{DnaSeq, Read};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn random_seq(len: usize, sd: u64) -> DnaSeq {
    let mut rng = StdRng::seed_from_u64(sd);
    (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
}

fn bench_aligner(c: &mut Criterion) {
    let contigs: Vec<DnaSeq> = (0..50).map(|i| random_seq(2_000, i)).collect();
    let reads: Vec<Read> = (0..200)
        .map(|i| {
            let ci = i % contigs.len();
            let start = (i * 31) % (contigs[ci].len() - 150);
            Read::with_uniform_qual(format!("r{i}"), contigs[ci].subseq(start, 150), 35)
        })
        .collect();

    let mut group = c.benchmark_group("aligner");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        group.bench_function(format!("index_build_50x2kb_{threads}t"), |b| {
            b.iter(|| pool.install(|| black_box(SeedIndex::build(&contigs, 17, 200))))
        });
    }

    let idx = SeedIndex::build(&contigs, 17, 200);
    let params = AlignParams::default();
    group.bench_function("align_200_reads", |b| {
        b.iter(|| {
            for r in &reads {
                black_box(align_read(&idx, &contigs, r, &params));
            }
        })
    });

    let cand = CandidateParams::default();
    group.bench_function("collect_candidates_200_reads", |b| {
        b.iter(|| black_box(collect_candidates(&contigs, &reads, &idx, &cand)))
    });

    let q = random_seq(150, 999);
    let t = random_seq(300, 998);
    group.bench_function("banded_sw_150x300_band16", |b| {
        b.iter(|| black_box(banded_sw(&q, &t, SwScoring::default(), 16, 0)))
    });
    group.finish();
}

criterion_group!(benches, bench_aligner);
criterion_main!(benches);
