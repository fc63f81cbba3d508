//! Device configuration: V100-flavoured defaults, everything tunable.

/// Hardware parameters of the simulated device.
///
/// Defaults model the NVIDIA V100 used on Summit and Cori-GPU in the paper.
/// The derived peak — `sms × schedulers_per_sm × clock_ghz` — is 489.6 warp
/// GIPS, the "Theoretical Peak" line of the paper's Figures 8 and 9.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Warp schedulers per SM (each can issue one warp instruction/cycle).
    pub schedulers_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global (HBM) bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Average global-memory latency in cycles.
    pub dram_latency_cycles: u32,
    /// Maximum warps resident per SM (occupancy ceiling).
    pub max_resident_warps_per_sm: u32,
    /// Global memory sector (transaction) size in bytes.
    pub sector_bytes: u32,
    /// Device global memory capacity in bytes (V100: 16 GB).
    pub global_mem_bytes: u64,
    /// Fixed kernel-launch overhead in microseconds (driver + queueing).
    pub launch_overhead_us: f64,
    /// L1/shared aggregate bandwidth in transactions per cycle per SM.
    pub l1_tx_per_cycle_per_sm: f64,
    /// Run every launch under the `gpucheck` sanitizer (off by default).
    pub sanitize: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::v100()
    }
}

impl DeviceConfig {
    /// NVIDIA V100 (SXM2 16 GB), the GPU in both test systems of the paper.
    pub fn v100() -> DeviceConfig {
        DeviceConfig {
            name: "V100-like".to_string(),
            sms: 80,
            schedulers_per_sm: 4,
            clock_ghz: 1.53,
            dram_gbps: 900.0,
            dram_latency_cycles: 450,
            max_resident_warps_per_sm: 64,
            sector_bytes: 32,
            global_mem_bytes: 16 * (1 << 30),
            launch_overhead_us: 10.0,
            l1_tx_per_cycle_per_sm: 4.0,
            sanitize: false,
        }
    }

    /// A deliberately tiny device for fast unit tests.
    pub fn tiny() -> DeviceConfig {
        DeviceConfig {
            name: "tiny-test".to_string(),
            sms: 2,
            schedulers_per_sm: 2,
            clock_ghz: 1.0,
            dram_gbps: 100.0,
            dram_latency_cycles: 100,
            max_resident_warps_per_sm: 8,
            sector_bytes: 32,
            global_mem_bytes: 1 << 24,
            launch_overhead_us: 1.0,
            l1_tx_per_cycle_per_sm: 2.0,
            sanitize: false,
        }
    }

    /// Turn the `gpucheck` sanitizer on (builder style).
    pub fn with_sanitizer(mut self) -> DeviceConfig {
        self.sanitize = true;
        self
    }

    /// Theoretical peak warp instructions per second (the roofline's flat
    /// ceiling), in GIPS.
    pub fn peak_warp_gips(&self) -> f64 {
        f64::from(self.sms) * f64::from(self.schedulers_per_sm) * self.clock_ghz
    }

    /// Global-memory words (u64) the simulator will allow allocating.
    pub fn capacity_words(&self) -> u64 {
        self.global_mem_bytes / 8
    }

    /// DRAM bandwidth in bytes per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_gbps / self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peak_matches_paper() {
        let c = DeviceConfig::v100();
        assert!((c.peak_warp_gips() - 489.6).abs() < 1e-9);
    }

    #[test]
    fn capacity_words() {
        let c = DeviceConfig::v100();
        assert_eq!(c.capacity_words(), 2 * (1 << 30));
    }
}
