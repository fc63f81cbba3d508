//! `gpucheck` — a compute-sanitizer for the simulated device.
//!
//! Three analyses, mirroring CUDA's `compute-sanitizer` tools:
//!
//! * **memcheck** — shadow memory ([`crate::shadow`]) tracks which
//!   allocation each word belongs to; flags out-of-bounds accesses and
//!   use-after-`reset` through stale [`Buf`](crate::mem::Buf) handles.
//!   Invalid accesses are reported *and dropped* (loads return 0, stores
//!   are discarded) so a run survives to collect every finding.
//! * **racecheck** — within a warp's unsynced region, two active lanes
//!   touching the same word where at least one is a non-atomic write is a
//!   hazard (CAS/atomics serialize in lane order and are exempt); the same
//!   rule applies across warps for the whole launch. `__syncwarp` clears
//!   the intra-warp region, exactly like the barrier-delimited regions of
//!   the real racecheck tool.
//! * **synccheck** — `push_mask`/`pop_mask` balance at kernel exit,
//!   shuffles whose source lane is excluded by the active mask, and
//!   warp collectives executed with no active lanes.
//!
//! The sanitizer is a pure observer of the instruction stream: counters,
//! coalescing, and timing are identical with it on or off for a clean
//! kernel, and a device without the sanitizer pays one `Option` test per
//! lane access.

use crate::shadow::{MemIssue, ShadowMemory};
use std::collections::HashMap;

/// Detailed reports a [`SanitizerSummary`] keeps; findings past the cap
/// are still counted, just not materialized.
pub const MAX_REPORTS: usize = 64;

/// The defect classes the sanitizer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SanitizerKind {
    /// Access at or beyond the allocator's high-water mark.
    OutOfBounds,
    /// Access through a `Buf` invalidated by an arena/device reset.
    UseAfterReset,
    /// Two lanes of one warp touched the same word in an unsynced region,
    /// at least one with a plain (non-atomic) store.
    LaneRace,
    /// Same hazard between two warps of one launch.
    WarpRace,
    /// Shuffle source lane excluded by the active mask.
    ShuffleInactiveSrc,
    /// Warp sync/collective executed with no active lanes.
    SyncNoActiveLanes,
    /// Kernel returned with a non-empty `push_mask` stack.
    MaskStackImbalance,
}

impl SanitizerKind {
    /// Every kind, in report order.
    pub const ALL: [SanitizerKind; 7] = [
        SanitizerKind::OutOfBounds,
        SanitizerKind::UseAfterReset,
        SanitizerKind::LaneRace,
        SanitizerKind::WarpRace,
        SanitizerKind::ShuffleInactiveSrc,
        SanitizerKind::SyncNoActiveLanes,
        SanitizerKind::MaskStackImbalance,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SanitizerKind::OutOfBounds => "out-of-bounds access",
            SanitizerKind::UseAfterReset => "use after reset",
            SanitizerKind::LaneRace => "lane race",
            SanitizerKind::WarpRace => "warp race",
            SanitizerKind::ShuffleInactiveSrc => "shuffle from inactive lane",
            SanitizerKind::SyncNoActiveLanes => "sync with no active lanes",
            SanitizerKind::MaskStackImbalance => "mask stack imbalance",
        }
    }

    fn index(self) -> usize {
        SanitizerKind::ALL.iter().position(|&k| k == self).expect("kind is in ALL")
    }
}

/// One finding: what, where (launch/warp/lanes/address), and at which
/// kernel site ([`WarpCtx::set_site`](crate::warp::WarpCtx::set_site)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Which class of hazard was detected.
    pub kind: SanitizerKind,
    /// Launch index on the device the finding occurred in.
    pub launch: u64,
    /// Warp id within the launch.
    pub warp: usize,
    /// Offending lanes (one for memcheck/synccheck, two for a lane race).
    pub lanes: Vec<usize>,
    /// Device word address, when the finding concerns one.
    pub addr: Option<u64>,
    /// 1-based allocation id, numbered in allocation order on the device.
    pub alloc: Option<u32>,
    /// Kernel site annotation in force when the finding fired.
    pub site: &'static str,
    /// Free-form specifics.
    pub detail: String,
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {} (launch {}, warp {}, lanes {:?}",
            self.kind.name(),
            self.site,
            self.launch,
            self.warp,
            self.lanes
        )?;
        if let Some(a) = self.addr {
            write!(f, ", addr {a}")?;
        }
        if let Some(id) = self.alloc {
            write!(f, ", alloc #{id}")?;
        }
        write!(f, "): {}", self.detail)
    }
}

/// Aggregated findings of one or more runs: per-kind counts plus a capped
/// sample of detailed reports. Folds across launches, engines, and devices
/// with [`SanitizerSummary::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizerSummary {
    /// True once any sanitizer-enabled device contributed (distinguishes
    /// "clean under the sanitizer" from "never checked").
    pub enabled: bool,
    counts: [u64; SanitizerKind::ALL.len()],
    /// Detailed sample, capped at [`MAX_REPORTS`].
    pub reports: Vec<SanitizerReport>,
    /// Findings counted but not materialized (past the cap).
    pub dropped: u64,
}

impl SanitizerSummary {
    /// Findings of one kind.
    pub fn count(&self, kind: SanitizerKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total findings across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when the sanitizer ran and found nothing.
    pub fn is_clean(&self) -> bool {
        self.enabled && self.total() == 0
    }

    /// Fold another summary into this one.
    pub fn absorb(&mut self, other: &SanitizerSummary) {
        self.enabled |= other.enabled;
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.dropped += other.dropped;
        for r in &other.reports {
            if self.reports.len() < MAX_REPORTS {
                self.reports.push(r.clone());
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Multi-line human-readable rendering (empty string when disabled).
    pub fn render(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let mut out = String::new();
        if self.total() == 0 {
            out.push_str("gpucheck: clean (0 findings)\n");
            return out;
        }
        out.push_str(&format!("gpucheck: {} finding(s)\n", self.total()));
        for kind in SanitizerKind::ALL {
            let n = self.count(kind);
            if n > 0 {
                out.push_str(&format!("  {:<28} {n}\n", kind.name()));
            }
        }
        for r in &self.reports {
            out.push_str(&format!("  - {r}\n"));
        }
        if self.dropped > 0 {
            out.push_str(&format!("  ({} further report(s) not materialized)\n", self.dropped));
        }
        out
    }

    fn record(&mut self, report: SanitizerReport) {
        self.counts[report.kind.index()] += 1;
        if self.reports.len() < MAX_REPORTS {
            self.reports.push(report);
        } else {
            self.dropped += 1;
        }
    }
}

/// How a lane touched a word (the racecheck taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Read,
    Write,
    Atomic,
}

/// Intra-warp per-word access masks for the current unsynced region.
#[derive(Debug, Clone, Copy, Default)]
struct RegionAccess {
    readers: u32,
    writers: u32,
    atomics: u32,
}

/// Launch-scope per-word access record for inter-warp hazards. One reader
/// warp plus a "several warps read" flag is enough to decide every rule.
#[derive(Debug, Clone, Copy, Default)]
struct LaunchAccess {
    reader: Option<usize>,
    multi_reader: bool,
    writer: Option<usize>,
    atomic: Option<usize>,
    reported: bool,
}

/// The dynamic checker, running all three analyses. Owned by
/// [`Device`](crate::device::Device) when the sanitizer is on; threaded
/// into every [`WarpCtx`](crate::warp::WarpCtx) the device launches.
#[derive(Debug)]
pub struct Sanitizer {
    shadow: ShadowMemory,
    summary: SanitizerSummary,
    launch: u64,
    site: &'static str,
    /// Intra-warp unsynced region, cleared at warp start and `syncwarp`.
    region: HashMap<u64, RegionAccess>,
    /// Whole-launch access map for inter-warp hazards.
    launch_map: HashMap<u64, LaunchAccess>,
}

impl Sanitizer {
    /// A fresh sanitizer with empty shadow state.
    pub(crate) fn new() -> Sanitizer {
        Sanitizer {
            shadow: ShadowMemory::new(),
            summary: SanitizerSummary { enabled: true, ..Default::default() },
            launch: 0,
            site: "<kernel>",
            region: HashMap::new(),
            launch_map: HashMap::new(),
        }
    }

    /// Findings so far (accumulates until [`Sanitizer::take_summary`]).
    pub fn summary(&self) -> &SanitizerSummary {
        &self.summary
    }

    /// Drain the accumulated findings, leaving an empty (still enabled)
    /// summary behind.
    pub fn take_summary(&mut self) -> SanitizerSummary {
        std::mem::replace(
            &mut self.summary,
            SanitizerSummary { enabled: true, ..Default::default() },
        )
    }

    fn report(
        &mut self,
        kind: SanitizerKind,
        warp: usize,
        lanes: Vec<usize>,
        addr: Option<u64>,
        alloc: Option<u32>,
        detail: String,
    ) {
        let report = SanitizerReport {
            kind,
            launch: self.launch,
            warp,
            lanes,
            addr,
            alloc,
            site: self.site,
            detail,
        };
        self.summary.record(report);
    }

    // ---- host-side hooks ---------------------------------------------------

    pub(crate) fn on_alloc(&mut self, addr: u64, len: u64) {
        self.shadow.on_alloc(addr, len);
    }

    pub(crate) fn on_reset(&mut self) {
        self.shadow.on_reset();
        self.region.clear();
        self.launch_map.clear();
    }

    // ---- launch / warp lifecycle -------------------------------------------

    pub(crate) fn begin_launch(&mut self, launch_idx: u64) {
        self.launch = launch_idx;
        self.launch_map.clear();
    }

    pub(crate) fn begin_warp(&mut self) {
        self.region.clear();
        self.site = "<kernel>";
    }

    /// Kernel body returned for this warp; `mask_depth` is the residual
    /// `push_mask` stack depth (synccheck: must be zero).
    pub(crate) fn end_warp(&mut self, warp: usize, mask_depth: usize) {
        if mask_depth != 0 {
            self.report(
                SanitizerKind::MaskStackImbalance,
                warp,
                vec![],
                None,
                None,
                format!("kernel exited with {mask_depth} unmatched push_mask frame(s)"),
            );
        }
        self.region.clear();
    }

    pub(crate) fn set_site(&mut self, site: &'static str) {
        self.site = site;
    }

    // ---- memcheck + racecheck ----------------------------------------------

    /// Check one lane's global access. Returns `false` when memcheck found
    /// the access invalid — the caller must drop the physical access (the
    /// load yields 0).
    pub(crate) fn global_access(
        &mut self,
        warp: usize,
        lane: usize,
        addr: u64,
        kind: AccessKind,
    ) -> bool {
        match self.shadow.classify(addr) {
            Some(MemIssue::OutOfBounds) => {
                self.report(
                    SanitizerKind::OutOfBounds,
                    warp,
                    vec![lane],
                    Some(addr),
                    None,
                    format!("{} past the allocated arena", access_verb(kind)),
                );
                return false;
            }
            Some(MemIssue::UseAfterReset { alloc }) => {
                self.report(
                    SanitizerKind::UseAfterReset,
                    warp,
                    vec![lane],
                    Some(addr),
                    Some(alloc),
                    format!("{} through a Buf invalidated by reset", access_verb(kind)),
                );
                return false;
            }
            None => {}
        }
        self.check_lane_race(warp, lane, addr, kind);
        self.check_warp_race(warp, lane, addr, kind);
        true
    }

    /// Intra-warp hazard: same word, two different lanes, at least one
    /// plain write, no intervening `syncwarp`.
    fn check_lane_race(&mut self, warp: usize, lane: usize, addr: u64, kind: AccessKind) {
        let acc = self.region.entry(addr).or_default();
        let me = 1u32 << lane;
        let others = |mask: u32| mask & !me;
        let conflict = match kind {
            // A plain write conflicts with any prior access by another lane.
            AccessKind::Write => others(acc.readers | acc.writers | acc.atomics),
            // Reads and atomics conflict only with prior plain writes.
            AccessKind::Read | AccessKind::Atomic => others(acc.writers),
        };
        match kind {
            AccessKind::Read => acc.readers |= me,
            AccessKind::Write => acc.writers |= me,
            AccessKind::Atomic => acc.atomics |= me,
        }
        if conflict != 0 {
            let other = conflict.trailing_zeros() as usize;
            self.report(
                SanitizerKind::LaneRace,
                warp,
                vec![other, lane],
                Some(addr),
                None,
                format!(
                    "lane {lane} {} a word lane {other} touched in the same unsynced region",
                    access_verb(kind)
                ),
            );
        }
    }

    /// Inter-warp hazard over the whole launch: a plain writer warp plus
    /// any access from a different warp.
    fn check_warp_race(&mut self, warp: usize, lane: usize, addr: u64, kind: AccessKind) {
        let acc = self.launch_map.entry(addr).or_default();
        let conflict = match kind {
            AccessKind::Write => {
                acc.writer.is_some_and(|w| w != warp)
                    || acc.atomic.is_some_and(|w| w != warp)
                    || acc.reader.is_some_and(|w| w != warp)
                    || acc.multi_reader
            }
            AccessKind::Read | AccessKind::Atomic => acc.writer.is_some_and(|w| w != warp),
        };
        match kind {
            AccessKind::Read => match acc.reader {
                Some(r) if r != warp => acc.multi_reader = true,
                _ => acc.reader = Some(warp),
            },
            AccessKind::Write => acc.writer = Some(warp),
            AccessKind::Atomic => acc.atomic = Some(warp),
        }
        if conflict && !acc.reported {
            acc.reported = true;
            self.report(
                SanitizerKind::WarpRace,
                warp,
                vec![lane],
                Some(addr),
                None,
                format!(
                    "warp {warp} {} a word another warp accessed in this launch",
                    access_verb(kind)
                ),
            );
        }
    }

    // ---- synccheck ---------------------------------------------------------

    /// `syncwarp`: clears the intra-warp race region; flags a sync with no
    /// active lanes.
    pub(crate) fn sync_point(&mut self, warp: usize, active_mask: u32) {
        if active_mask == 0 {
            self.report(
                SanitizerKind::SyncNoActiveLanes,
                warp,
                vec![],
                None,
                None,
                "syncwarp with an empty active mask".to_string(),
            );
        }
        self.region.clear();
    }

    /// A shuffle reading `vals[src_lane]`: the source lane must be active.
    pub(crate) fn shuffle(&mut self, warp: usize, src_lane: usize, active_mask: u32) {
        if active_mask == 0 {
            self.report(
                SanitizerKind::SyncNoActiveLanes,
                warp,
                vec![],
                None,
                None,
                "shuffle with an empty active mask".to_string(),
            );
        } else if active_mask & (1 << src_lane) == 0 {
            self.report(
                SanitizerKind::ShuffleInactiveSrc,
                warp,
                vec![src_lane],
                None,
                None,
                format!("shuffle reads lane {src_lane}, which the active mask excludes"),
            );
        }
    }

    /// A ballot/match collective: needs at least one active lane.
    pub(crate) fn collective(&mut self, warp: usize, active_mask: u32) {
        if active_mask == 0 {
            self.report(
                SanitizerKind::SyncNoActiveLanes,
                warp,
                vec![],
                None,
                None,
                "warp collective with an empty active mask".to_string(),
            );
        }
    }
}

fn access_verb(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "load",
        AccessKind::Write => "plain store",
        AccessKind::Atomic => "atomic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane() -> Sanitizer {
        Sanitizer::new()
    }

    #[test]
    fn off_config_is_disabled() {
        use crate::config::DeviceConfig;
        assert!(!DeviceConfig::v100().sanitize && !DeviceConfig::tiny().sanitize);
        assert!(DeviceConfig::tiny().with_sanitizer().sanitize);
    }

    #[test]
    fn oob_is_reported_and_dropped() {
        let mut s = sane();
        s.on_alloc(0, 8);
        assert!(!s.global_access(0, 3, 8, AccessKind::Write));
        assert_eq!(s.summary().count(SanitizerKind::OutOfBounds), 1);
        let r = &s.summary().reports[0];
        assert_eq!(r.lanes, vec![3]);
        assert_eq!(r.addr, Some(8));
    }

    #[test]
    fn same_lane_reuse_is_not_a_race() {
        let mut s = sane();
        s.on_alloc(0, 8);
        assert!(s.global_access(0, 0, 3, AccessKind::Write));
        assert!(s.global_access(0, 0, 3, AccessKind::Read));
        assert!(s.global_access(0, 0, 3, AccessKind::Write));
        assert_eq!(s.summary().total(), 0);
    }

    #[test]
    fn cross_lane_write_write_is_a_race() {
        let mut s = sane();
        s.on_alloc(0, 8);
        s.global_access(0, 1, 3, AccessKind::Write);
        s.global_access(0, 5, 3, AccessKind::Write);
        assert_eq!(s.summary().count(SanitizerKind::LaneRace), 1);
        assert_eq!(s.summary().reports[0].lanes, vec![1, 5]);
    }

    #[test]
    fn atomics_do_not_race_each_other() {
        let mut s = sane();
        s.on_alloc(0, 8);
        for lane in 0..8 {
            s.global_access(0, lane, 3, AccessKind::Atomic);
            s.global_access(0, lane, 3, AccessKind::Read);
        }
        assert_eq!(s.summary().total(), 0);
    }

    #[test]
    fn syncwarp_clears_the_region() {
        let mut s = sane();
        s.on_alloc(0, 8);
        s.global_access(0, 1, 3, AccessKind::Write);
        s.sync_point(0, u32::MAX);
        s.global_access(0, 5, 3, AccessKind::Read);
        assert_eq!(s.summary().total(), 0);
    }

    #[test]
    fn cross_warp_write_then_read_is_a_warp_race() {
        let mut s = sane();
        s.on_alloc(0, 8);
        s.begin_warp();
        s.global_access(0, 0, 3, AccessKind::Write);
        s.begin_warp();
        s.global_access(1, 0, 3, AccessKind::Read);
        assert_eq!(s.summary().count(SanitizerKind::WarpRace), 1);
        // One report per word, not per access.
        s.global_access(1, 1, 3, AccessKind::Read);
        assert_eq!(s.summary().count(SanitizerKind::WarpRace), 1);
        assert_eq!(s.summary().reports.len(), 1);
    }

    #[test]
    fn report_cap_counts_but_drops() {
        let races = MAX_REPORTS as u64 + 2;
        let mut s = sane();
        s.on_alloc(0, races);
        for addr in 0..races {
            // Lanes 0 and 1 store to the same word: one race per word.
            s.global_access(0, 0, addr, AccessKind::Write);
            s.global_access(0, 1, addr, AccessKind::Write);
        }
        assert_eq!(s.summary().count(SanitizerKind::LaneRace), races);
        assert_eq!(s.summary().reports.len(), MAX_REPORTS);
        assert_eq!(s.summary().dropped, 2);
        // Folding keeps the same cap.
        let mut total = SanitizerSummary::default();
        total.absorb(s.summary());
        total.absorb(s.summary());
        assert_eq!(total.reports.len(), MAX_REPORTS);
        assert_eq!(total.dropped, 2 + 2 + MAX_REPORTS as u64);
    }

    #[test]
    fn summary_absorb_folds_counts() {
        let mut a = sane();
        a.on_alloc(0, 1);
        a.global_access(0, 0, 5, AccessKind::Read); // OOB
        let mut total = SanitizerSummary::default();
        total.absorb(&a.take_summary());
        total.absorb(&a.take_summary()); // drained: empty but enabled
        assert!(total.enabled);
        assert_eq!(total.count(SanitizerKind::OutOfBounds), 1);
        assert!(!total.is_clean());
        assert!(total.render().contains("out-of-bounds"));
    }

    #[test]
    fn render_when_clean() {
        let s = sane();
        assert!(s.summary().render().contains("clean"));
        assert!(SanitizerSummary::default().render().is_empty());
    }
}
