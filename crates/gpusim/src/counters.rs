//! Instruction and memory-transaction counters.

/// Instruction classes tracked by the simulator, mirroring the breakdown in
/// Figure 10 of the paper (global-memory, local-memory, FP, INT) plus the
/// control/atomic/shuffle classes that feed total warp-instruction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer arithmetic / logic / address computation.
    Int,
    /// Floating point.
    Fp,
    /// Global-memory load/store.
    LdStGlobal,
    /// Local (per-thread spill/scratch) or shared-memory load/store.
    LdStLocal,
    /// Branches, loop control, mask manipulation.
    Control,
    /// Atomic read-modify-write on global memory.
    Atomic,
    /// Warp shuffle / ballot / match.
    Shuffle,
    /// Warp synchronization.
    Sync,
}

/// Aggregated execution counters for a kernel launch (or several).
///
/// "Warp instruction" counts are per-warp (one count regardless of how many
/// lanes participate); lane-level utilization is captured separately by
/// `active_lane_slots` / `predicated_lane_slots`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Integer ALU warp instructions.
    pub int_inst: u64,
    /// Floating-point warp instructions.
    pub fp_inst: u64,
    /// Global-memory load/store warp instructions.
    pub ldst_global_inst: u64,
    /// Local-memory (per-lane scratch) load/store warp instructions.
    pub ldst_local_inst: u64,
    /// Control-flow warp instructions (branches, mask manipulation).
    pub control_inst: u64,
    /// Global atomic warp instructions.
    pub atomic_inst: u64,
    /// Warp shuffle / `match_any` / ballot instructions.
    pub shuffle_inst: u64,
    /// Warp/block synchronization instructions.
    pub sync_inst: u64,

    /// 32-byte-sector transactions generated by global loads.
    pub global_ld_transactions: u64,
    /// 32-byte-sector transactions generated by global stores.
    pub global_st_transactions: u64,
    /// Transactions generated by atomics (one per distinct sector touched).
    pub atomic_transactions: u64,
    /// L1 transactions from local/shared accesses.
    pub local_transactions: u64,

    /// Lane-instruction slots that did useful work.
    pub active_lane_slots: u64,
    /// Lane-instruction slots wasted to predication/divergence.
    pub predicated_lane_slots: u64,
}

impl Counters {
    /// Zeroed counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Record `n` warp instructions of class `class`, executed with
    /// `active_lanes` lanes doing useful work.
    pub fn record(&mut self, class: InstClass, n: u64, active_lanes: u32) {
        let slot = match class {
            InstClass::Int => &mut self.int_inst,
            InstClass::Fp => &mut self.fp_inst,
            InstClass::LdStGlobal => &mut self.ldst_global_inst,
            InstClass::LdStLocal => &mut self.ldst_local_inst,
            InstClass::Control => &mut self.control_inst,
            InstClass::Atomic => &mut self.atomic_inst,
            InstClass::Shuffle => &mut self.shuffle_inst,
            InstClass::Sync => &mut self.sync_inst,
        };
        *slot += n;
        self.active_lane_slots += n * u64::from(active_lanes);
        self.predicated_lane_slots += n * u64::from(32 - active_lanes.min(32));
    }

    /// Total warp instructions across all classes.
    pub fn warp_insts(&self) -> u64 {
        self.int_inst
            + self.fp_inst
            + self.ldst_global_inst
            + self.ldst_local_inst
            + self.control_inst
            + self.atomic_inst
            + self.shuffle_inst
            + self.sync_inst
    }

    /// Total global-memory transactions (loads + stores + atomics).
    pub fn global_transactions(&self) -> u64 {
        self.global_ld_transactions + self.global_st_transactions + self.atomic_transactions
    }

    /// Total L1 transactions (global + local) — the denominator of the
    /// paper's instruction intensity.
    pub fn l1_transactions(&self) -> u64 {
        self.global_transactions() + self.local_transactions
    }

    /// Memory instructions (global + local load/store + atomics).
    pub fn mem_insts(&self) -> u64 {
        self.ldst_global_inst + self.ldst_local_inst + self.atomic_inst
    }

    /// Fraction of lane slots lost to predication, in `[0, 1]`.
    pub fn predication_ratio(&self) -> f64 {
        let total = self.active_lane_slots + self.predicated_lane_slots;
        if total == 0 {
            0.0
        } else {
            self.predicated_lane_slots as f64 / total as f64
        }
    }

    /// Accumulate another counter set.
    pub fn merge(&mut self, o: &Counters) {
        self.int_inst += o.int_inst;
        self.fp_inst += o.fp_inst;
        self.ldst_global_inst += o.ldst_global_inst;
        self.ldst_local_inst += o.ldst_local_inst;
        self.control_inst += o.control_inst;
        self.atomic_inst += o.atomic_inst;
        self.shuffle_inst += o.shuffle_inst;
        self.sync_inst += o.sync_inst;
        self.global_ld_transactions += o.global_ld_transactions;
        self.global_st_transactions += o.global_st_transactions;
        self.atomic_transactions += o.atomic_transactions;
        self.local_transactions += o.local_transactions;
        self.active_lane_slots += o.active_lane_slots;
        self.predicated_lane_slots += o.predicated_lane_slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tallies_classes_and_slots() {
        let mut c = Counters::new();
        c.record(InstClass::Int, 3, 32);
        c.record(InstClass::LdStGlobal, 1, 8);
        assert_eq!(c.int_inst, 3);
        assert_eq!(c.ldst_global_inst, 1);
        assert_eq!(c.warp_insts(), 4);
        assert_eq!(c.active_lane_slots, 3 * 32 + 8);
        assert_eq!(c.predicated_lane_slots, 24);
    }

    #[test]
    fn predication_ratio() {
        let mut c = Counters::new();
        c.record(InstClass::Int, 1, 16);
        assert!((c.predication_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(Counters::new().predication_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Counters::new();
        a.record(InstClass::Fp, 2, 32);
        a.global_ld_transactions = 5;
        let mut b = Counters::new();
        b.record(InstClass::Fp, 3, 32);
        b.global_st_transactions = 7;
        a.merge(&b);
        assert_eq!(a.fp_inst, 5);
        assert_eq!(a.global_transactions(), 12);
    }
}
