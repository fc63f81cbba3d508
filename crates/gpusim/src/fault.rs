//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is attached to a [`DeviceConfig`](crate::DeviceConfig)
//! and armed when the [`Device`](crate::Device) is constructed. Faults fire
//! at exact points in the device's lifetime — the Nth allocation attempt or
//! the Nth launch attempt — so a run with a given plan replays identically,
//! which is what makes recovery paths testable.
//!
//! The fault model mirrors how real CUDA devices fail:
//!
//! * [`Fault::SlabOom`] — an allocation is denied even though capacity
//!   remains (fragmentation / a neighbouring process on a shared GPU).
//!   Non-fatal: the device stays usable; callers shrink and retry.
//! * [`Fault::KernelHang`] — a launch never completes and the watchdog
//!   kills it after `after_cycles`. Fatal to the context: the device is
//!   poisoned until reset, like a CUDA sticky error.
//! * [`Fault::BitFlip`] — an uncorrectable-ECC-style corruption of one
//!   word, *detected* at the next launch boundary. The launch is failed
//!   and the device poisoned; detection (rather than silent corruption) is
//!   the ECC contract on data-center GPUs, and it is what makes
//!   fault-free-identical recovery possible for the layers above.

/// One injected fault, pinned to a deterministic firing point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deny the `at_alloc`-th allocation attempt (0-based, counted over the
    /// device's lifetime, including denied attempts).
    SlabOom {
        /// 0-based allocation index at which the denial fires.
        at_alloc: u64,
    },
    /// Hang the `at_launch`-th launch attempt (0-based); the watchdog
    /// reports failure after `after_cycles` simulated core cycles, which
    /// are charged to the device's accumulated time.
    KernelHang {
        /// 0-based launch index at which the hang fires.
        at_launch: u64,
        /// Simulated core cycles the watchdog waits before killing it.
        after_cycles: u64,
    },
    /// Corrupt the word at `addr` and fail the `at_launch`-th launch
    /// attempt with a detected-corruption error.
    BitFlip {
        /// 0-based launch index at which the corruption is detected.
        at_launch: u64,
        /// Device address of the corrupted word.
        addr: u64,
    },
}

/// A deterministic schedule of faults for one device.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, in no particular order; each fires at its own index.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: a healthy device.
    pub fn none() -> FaultPlan {
        FaultPlan { faults: Vec::new() }
    }

    /// A plan with a single fault.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan { faults: vec![fault] }
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a plan from a seed: `n_faults` faults with kinds and firing
    /// points drawn from a SplitMix64 stream over the first `horizon`
    /// allocation/launch indices. Same seed ⇒ same plan, always.
    pub fn from_seed(seed: u64, n_faults: usize, horizon: u64) -> FaultPlan {
        let horizon = horizon.max(1);
        let mut state = seed;
        let mut next = move || -> u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let faults = (0..n_faults)
            .map(|_| match next() % 3 {
                0 => Fault::SlabOom { at_alloc: next() % horizon },
                1 => Fault::KernelHang {
                    at_launch: next() % horizon,
                    after_cycles: 1 + next() % 1_000_000,
                },
                _ => Fault::BitFlip { at_launch: next() % horizon, addr: next() % (1 << 20) },
            })
            .collect();
        FaultPlan { faults }
    }
}

/// Why a kernel launch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// The watchdog killed a hung kernel after `after_cycles` cycles. The
    /// device context is lost; reset before launching again.
    Hang {
        /// 0-based index of the launch that hung.
        launch_idx: u64,
        /// Simulated cycles the watchdog charged before the kill.
        after_cycles: u64,
    },
    /// Uncorrectable memory corruption detected at the launch boundary.
    /// The device context is lost; reset before launching again.
    MemCorruption {
        /// 0-based index of the launch that hit the corruption.
        launch_idx: u64,
        /// Device address of the corrupted word.
        addr: u64,
    },
    /// Launch attempted on a device poisoned by an earlier fatal fault.
    DeviceLost {
        /// 0-based index of the rejected launch.
        launch_idx: u64,
    },
}

impl LaunchError {
    /// All current launch failures poison the context; callers must
    /// [`reset_device`](crate::Device::reset_device) before relaunching.
    pub fn needs_reset(&self) -> bool {
        true
    }

    /// The launch attempt index the error fired on.
    pub fn launch_idx(&self) -> u64 {
        match *self {
            LaunchError::Hang { launch_idx, .. }
            | LaunchError::MemCorruption { launch_idx, .. }
            | LaunchError::DeviceLost { launch_idx } => launch_idx,
        }
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Hang { launch_idx, after_cycles } => write!(
                f,
                "kernel launch {launch_idx} hung; watchdog fired after {after_cycles} cycles"
            ),
            LaunchError::MemCorruption { launch_idx, addr } => write!(
                f,
                "uncorrectable memory corruption at word {addr} detected at launch {launch_idx}"
            ),
            LaunchError::DeviceLost { launch_idx } => {
                write!(f, "launch {launch_idx} on a lost device context (reset required)")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = FaultPlan::from_seed(7, 5, 100);
        let b = FaultPlan::from_seed(7, 5, 100);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 5);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(FaultPlan::from_seed(1, 8, 100), FaultPlan::from_seed(2, 8, 100));
    }

    #[test]
    fn empty_plan() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::single(Fault::SlabOom { at_alloc: 0 }).is_empty());
    }

    #[test]
    fn launch_error_reports_index() {
        let e = LaunchError::Hang { launch_idx: 3, after_cycles: 10 };
        assert_eq!(e.launch_idx(), 3);
        assert!(e.needs_reset());
        assert!(e.to_string().contains("hung"));
    }
}
