//! Analytic kernel-time model.
//!
//! The estimate is the max of three bound-and-bottleneck terms, plus a fixed
//! launch overhead:
//!
//! * **issue-bound**: total warp instructions divided by the device's issue
//!   throughput (`SMs × schedulers`), using only as many issue slots as
//!   there are warps;
//! * **bandwidth-bound**: total DRAM bytes (32 B × global transactions)
//!   divided by DRAM bandwidth;
//! * **latency-bound**: the average per-warp chain of dependent memory
//!   instructions charged at full DRAM latency, divided by how much of it
//!   the resident warps can hide. With abundant warps this term vanishes
//!   under the throughput terms; with few warps (the strong-scaling regime
//!   of the paper's Figures 13/14) it dominates — which is precisely the
//!   "GPU overheads grow as work per GPU shrinks" effect the paper reports.

use crate::config::DeviceConfig;
use crate::counters::Counters;

/// Decomposed timing estimate for one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct TimingEstimate {
    /// Cycles if limited purely by instruction issue.
    pub issue_cycles: f64,
    /// Cycles if limited purely by DRAM bandwidth.
    pub bandwidth_cycles: f64,
    /// Cycles if limited purely by unhidden memory latency.
    pub latency_cycles: f64,
    /// Cycles charged to L1 throughput (local + global transactions).
    pub l1_cycles: f64,
    /// The governing (maximum) term, in cycles.
    pub kernel_cycles: f64,
    /// Kernel time in seconds (cycles / clock).
    pub kernel_seconds: f64,
    /// Fixed launch overhead in seconds.
    pub overhead_seconds: f64,
}

impl TimingEstimate {
    /// Kernel plus launch-overhead time.
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.overhead_seconds
    }

    /// Which bound governs this launch.
    pub fn bound(&self) -> Bound {
        let m = self.kernel_cycles;
        if m == self.bandwidth_cycles {
            Bound::Bandwidth
        } else if m == self.latency_cycles {
            Bound::Latency
        } else if m == self.l1_cycles {
            Bound::L1
        } else {
            Bound::Issue
        }
    }
}

/// The governing bottleneck of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Instruction-issue throughput limits the launch.
    Issue,
    /// DRAM bandwidth (global transactions) limits the launch.
    Bandwidth,
    /// Memory latency limits the launch (too few warps in flight).
    Latency,
    /// L1/shared-memory throughput limits the launch.
    L1,
}

/// Estimate execution time for a launch with the given aggregate counters.
pub fn estimate(cfg: &DeviceConfig, c: &Counters, warps: usize) -> TimingEstimate {
    let warps_f = warps.max(1) as f64;
    let insts = c.warp_insts() as f64;

    // Issue: each of min(warps, SMs × schedulers) issue slots retires one
    // warp instruction per cycle.
    let issue_slots = f64::from(cfg.sms * cfg.schedulers_per_sm).min(warps_f).max(1.0);
    let issue_cycles = insts / issue_slots;

    // Bandwidth: sector-sized transactions against DRAM bandwidth.
    let dram_bytes = c.global_transactions() as f64 * f64::from(cfg.sector_bytes);
    let bandwidth_cycles = dram_bytes / cfg.dram_bytes_per_cycle();

    // L1 throughput: every transaction (global or local) passes L1.
    let l1_tx = c.l1_transactions() as f64;
    let sms_used = f64::from(cfg.sms).min(warps_f).max(1.0);
    let l1_cycles = l1_tx / (cfg.l1_tx_per_cycle_per_sm * sms_used);

    // Latency: per-warp dependent chain of memory instructions. Resident
    // warps on an SM overlap their chains; waves beyond residency serialize.
    let mem_insts = (c.ldst_global_inst + c.atomic_inst) as f64;
    let chain_per_warp = mem_insts / warps_f;
    let warps_per_sm = (warps_f / f64::from(cfg.sms)).ceil().max(1.0);
    let waves = (warps_per_sm / f64::from(cfg.max_resident_warps_per_sm)).ceil();
    let latency_cycles = chain_per_warp * f64::from(cfg.dram_latency_cycles) * waves;

    let kernel_cycles = issue_cycles.max(bandwidth_cycles).max(latency_cycles).max(l1_cycles);
    let kernel_seconds = kernel_cycles / (cfg.clock_ghz * 1e9);

    TimingEstimate {
        issue_cycles,
        bandwidth_cycles,
        latency_cycles,
        l1_cycles,
        kernel_cycles,
        kernel_seconds,
        overhead_seconds: cfg.launch_overhead_us * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::InstClass;

    fn counters_with(ld_insts: u64, tx: u64, ints: u64) -> Counters {
        let mut c = Counters::new();
        c.record(InstClass::LdStGlobal, ld_insts, 32);
        c.global_ld_transactions = tx;
        c.record(InstClass::Int, ints, 32);
        c
    }

    #[test]
    fn more_work_takes_longer() {
        let cfg = DeviceConfig::v100();
        let t1 = estimate(&cfg, &counters_with(100, 800, 1000), 1000);
        let t2 = estimate(&cfg, &counters_with(200, 1600, 2000), 1000);
        assert!(t2.kernel_seconds > t1.kernel_seconds);
    }

    #[test]
    fn few_warps_latency_bound() {
        let cfg = DeviceConfig::v100();
        // One warp with a long dependent chain: latency must govern.
        let t = estimate(&cfg, &counters_with(10_000, 10_000, 100), 1);
        assert_eq!(t.bound(), Bound::Latency);
    }

    #[test]
    fn many_warps_hide_latency() {
        let cfg = DeviceConfig::v100();
        // Same total work spread over many warps: latency term shrinks.
        let few = estimate(&cfg, &counters_with(100_000, 100_000, 1000), 10);
        let many = estimate(&cfg, &counters_with(100_000, 100_000, 1000), 10_000);
        assert!(many.latency_cycles < few.latency_cycles);
    }

    #[test]
    fn overhead_is_fixed() {
        let cfg = DeviceConfig::v100();
        let t = estimate(&cfg, &Counters::new(), 1);
        assert!((t.overhead_seconds - 10e-6).abs() < 1e-12);
        assert_eq!(t.kernel_cycles, 0.0);
    }

    #[test]
    fn compute_only_is_issue_bound() {
        let cfg = DeviceConfig::v100();
        let mut c = Counters::new();
        c.record(InstClass::Int, 1_000_000, 32);
        let t = estimate(&cfg, &c, 100_000);
        assert_eq!(t.bound(), Bound::Issue);
    }
}
