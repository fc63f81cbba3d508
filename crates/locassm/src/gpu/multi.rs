//! Multi-GPU striping: a Summit node drives six V100s
//! (`mhm2.py --ranks-per-gpu` maps 7 ranks onto each), each rank owning a
//! fixed share of the work. [`stripe_lpt`] computes such a static share
//! per device; node and multi-node scaling are modelled by
//! `mhm::ScalingModel`.

use crate::gpu::pack::estimate_task_cost;
use crate::params::LocalAssemblyParams;
use crate::task::ExtTask;

/// Assign every task index to one shard per entry of `rates`, by greedy
/// LPT on uniform machines.
///
/// Tasks go heaviest-first by [`estimate_task_cost`], each to the device
/// that would finish it earliest, `(load + w) / rate`; a strict `<` keeps
/// ties on the lowest device id. So a device rated 0.5 receives about half
/// the words of a 1.0 peer, and equal rates give plain least-loaded LPT.
/// Only the ratios of `rates` matter. Each shard is sorted ascending, so a
/// device launches its tasks in input order whatever the assignment order.
///
/// # Panics
///
/// If `rates` is empty, or any rate is not positive and finite.
pub fn stripe_lpt(
    tasks: &[ExtTask],
    params: &LocalAssemblyParams,
    rates: &[f64],
) -> Vec<Vec<usize>> {
    assert!(!rates.is_empty(), "need at least one device");
    assert!(
        rates.iter().all(|r| r.is_finite() && *r > 0.0),
        "device rates must be positive and finite, got {rates:?}"
    );
    let mut weighted: Vec<(u64, usize)> =
        tasks.iter().enumerate().map(|(i, t)| (estimate_task_cost(t, params), i)).collect();
    weighted.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); rates.len()];
    let mut load = vec![0u64; rates.len()];
    for (w, i) in weighted {
        let mut dev = 0usize;
        let mut dev_finish = f64::INFINITY;
        for (d, &rate) in rates.iter().enumerate() {
            let finish = (load[d] + w) as f64 / rate;
            if finish < dev_finish {
                dev_finish = finish;
                dev = d;
            }
        }
        load[dev] += w;
        shards[dev].push(i);
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn make_tasks(n: usize) -> Vec<ExtTask> {
        (0..n)
            .map(|i| {
                let genome = random_seq(400, 900 + i as u64);
                let reads = (0..6 + i % 9)
                    .map(|r| {
                        Read::with_uniform_qual(
                            format!("t{i}r{r}"),
                            genome.subseq(60 + (r * 17) % 180, 80),
                            35,
                        )
                    })
                    .collect();
                ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 120), reads }
            })
            .collect()
    }

    fn words(tasks: &[ExtTask], params: &LocalAssemblyParams, idx: &[usize]) -> u64 {
        idx.iter().map(|&i| estimate_task_cost(&tasks[i], params)).sum()
    }

    #[test]
    fn rate_aware_lpt_weights_loads_by_device_rate() {
        let tasks = make_tasks(40);
        let params = LocalAssemblyParams::for_tests();
        let shards = stripe_lpt(&tasks, &params, &[1.0, 0.5]);
        let ratio =
            words(&tasks, &params, &shards[0]) as f64 / words(&tasks, &params, &shards[1]) as f64;
        assert!((ratio - 2.0).abs() < 0.3, "2:1 rates must yield ~2:1 word shares, got {ratio:.2}");
    }

    #[test]
    fn equal_rates_reduce_to_plain_lpt() {
        let tasks = make_tasks(30);
        let params = LocalAssemblyParams::for_tests();
        let shards = stripe_lpt(&tasks, &params, &[1.0, 1.0, 1.0]);
        let loads: Vec<u64> = shards.iter().map(|idx| words(&tasks, &params, idx)).collect();
        let (lo, hi) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(lo as f64 > 0.85 * hi as f64, "uniform rates must balance: {loads:?}");
    }

    #[test]
    fn empty_task_list() {
        let params = LocalAssemblyParams::for_tests();
        let shards = stripe_lpt(&[], &params, &[1.0; 4]);
        assert_eq!(shards, vec![Vec::<usize>::new(); 4]);
    }
}
