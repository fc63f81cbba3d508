//! Instruction Roofline reporting (Ding & Williams, PMBS'19), as used in
//! Figures 8–10 of the paper.
//!
//! The model plots a kernel as a point: x = *instruction intensity* (warp
//! instructions per L1 transaction), y = achieved warp GIPS. Ceilings are
//! the flat theoretical issue peak and diagonal transaction-bandwidth lines;
//! vertical "memory walls" mark the intensity of ideal access patterns
//! (stride-1 / unit access), which random hash-table probing cannot reach.

use crate::config::DeviceConfig;
use crate::counters::Counters;

/// Roofline characterization of one kernel (or launch series).
#[derive(Debug, Clone)]
pub struct RooflineReport {
    /// Kernel name for display.
    pub name: String,
    /// Total warp instructions executed.
    pub warp_insts: u64,
    /// Total L1 transactions (global + local + atomic).
    pub l1_transactions: u64,
    /// Global-memory transactions only.
    pub global_transactions: u64,
    /// Kernel time in seconds (simulated).
    pub seconds: f64,
    /// Achieved billions of warp instructions per second.
    pub gips: f64,
    /// Non-predicated ("useful-lane-weighted") GIPS: what the kernel would
    /// achieve if predicated lane slots were eliminated. The gap between
    /// this and `gips` is the paper's thread-predication gap.
    pub gips_nonpredicated: f64,
    /// Instruction intensity vs L1 transactions (paper's x-axis).
    pub intensity_l1: f64,
    /// Instruction intensity vs global transactions only.
    pub intensity_global: f64,
    /// Average sectors per global memory instruction (32 = fully scattered,
    /// 8 = perfectly coalesced 64-bit accesses, <8 = same-address reuse).
    pub sectors_per_mem_inst: f64,
    /// Fraction of lane slots predicated off.
    pub predication_ratio: f64,
    /// Theoretical peak warp GIPS (flat ceiling).
    pub peak_gips: f64,
    /// Fraction of L1 transactions that came from local memory.
    pub local_tx_fraction: f64,
}

impl RooflineReport {
    /// Build a report from counters and a simulated kernel time.
    pub fn from_counters(
        name: impl Into<String>,
        cfg: &DeviceConfig,
        c: &Counters,
        seconds: f64,
    ) -> RooflineReport {
        let insts = c.warp_insts();
        let l1 = c.l1_transactions();
        let global = c.global_transactions();
        let gips = if seconds > 0.0 { insts as f64 / seconds / 1e9 } else { 0.0 };
        let active = c.active_lane_slots as f64;
        let total_slots = (c.active_lane_slots + c.predicated_lane_slots) as f64;
        // If every slot were useful the same lane-work would need fewer warp
        // instructions; scale GIPS by the utilization headroom.
        let gips_nonpredicated = if active > 0.0 { gips * total_slots / active } else { gips };
        let mem_insts = c.ldst_global_inst + c.atomic_inst;
        RooflineReport {
            name: name.into(),
            warp_insts: insts,
            l1_transactions: l1,
            global_transactions: global,
            seconds,
            gips,
            gips_nonpredicated,
            intensity_l1: ratio(insts, l1),
            intensity_global: ratio(insts, global),
            sectors_per_mem_inst: ratio(global, mem_insts),
            predication_ratio: c.predication_ratio(),
            peak_gips: cfg.peak_warp_gips(),
            local_tx_fraction: ratio(c.local_transactions, l1),
        }
    }

    /// GIPS ceiling at this report's intensity imposed by L1 transaction
    /// bandwidth (the diagonal roof): `intensity × peak GTXN/s`.
    pub fn l1_roof_gips(&self, cfg: &DeviceConfig) -> f64 {
        let peak_gtxn = f64::from(cfg.sms) * cfg.l1_tx_per_cycle_per_sm * cfg.clock_ghz; // GTXN/s
        self.intensity_l1 * peak_gtxn
    }

    /// Render the fixed-width text block the `fig08`/`fig09` harnesses print.
    pub fn render(&self, cfg: &DeviceConfig) -> String {
        format!(
            "kernel: {}\n\
             warp instructions:        {:>14}\n\
             L1 transactions:          {:>14}  (local fraction {:.2})\n\
             global transactions:      {:>14}\n\
             simulated time:           {:>14.6} s\n\
             achieved warp GIPS:       {:>14.3}\n\
             non-predicated GIPS:      {:>14.3}  (predication gap {:.1}%)\n\
             instruction intensity L1: {:>14.4} inst/txn\n\
             intensity (global only):  {:>14.4} inst/txn\n\
             sectors per mem inst:     {:>14.2}  (8 = coalesced u64, 32 = scattered)\n\
             theoretical peak:         {:>14.1} warp GIPS\n\
             L1 roof at this intensity:{:>14.1} warp GIPS\n",
            self.name,
            self.warp_insts,
            self.l1_transactions,
            self.local_tx_fraction,
            self.global_transactions,
            self.seconds,
            self.gips,
            self.gips_nonpredicated,
            self.predication_ratio * 100.0,
            self.intensity_l1,
            self.intensity_global,
            self.sectors_per_mem_inst,
            self.peak_gips,
            self.l1_roof_gips(cfg),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::InstClass;

    fn sample_counters() -> Counters {
        let mut c = Counters::new();
        c.record(InstClass::Int, 1000, 32);
        c.record(InstClass::LdStGlobal, 100, 32);
        c.global_ld_transactions = 800;
        c.record(InstClass::LdStLocal, 50, 32);
        c.local_transactions = 400;
        c
    }

    #[test]
    fn intensities() {
        let cfg = DeviceConfig::v100();
        let r = RooflineReport::from_counters("t", &cfg, &sample_counters(), 1e-3);
        assert_eq!(r.warp_insts, 1150);
        assert_eq!(r.l1_transactions, 1200);
        assert!((r.intensity_l1 - 1150.0 / 1200.0).abs() < 1e-12);
        assert!((r.gips - 1150.0 / 1e-3 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn predication_widens_gap() {
        let cfg = DeviceConfig::v100();
        let mut c = Counters::new();
        c.record(InstClass::Int, 100, 1); // single-lane work
        let r = RooflineReport::from_counters("walk", &cfg, &c, 1e-6);
        assert!(r.gips_nonpredicated > r.gips * 30.0);
        assert!(r.predication_ratio > 0.96);
    }

    #[test]
    fn zero_time_zero_gips() {
        let cfg = DeviceConfig::v100();
        let r = RooflineReport::from_counters("z", &cfg, &Counters::new(), 0.0);
        assert_eq!(r.gips, 0.0);
        assert_eq!(r.intensity_l1, 0.0);
    }

    #[test]
    fn render_contains_key_fields() {
        let cfg = DeviceConfig::v100();
        let r = RooflineReport::from_counters("demo", &cfg, &sample_counters(), 1e-3);
        let s = r.render(&cfg);
        assert!(s.contains("demo"));
        assert!(s.contains("489.6"));
    }
}
