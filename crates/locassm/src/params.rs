//! Parameters, walk outcomes, and the k-shift termination state machine.

/// Tuning parameters for local assembly (both engines share these).
#[derive(Debug, Clone)]
pub struct LocalAssemblyParams {
    /// Ascending k values the k-shift controller moves through.
    /// MetaHipMer's iterative schedule, clipped to the read length upstream.
    pub k_list: Vec<usize>,
    /// Index into `k_list` where extension starts.
    pub start_k_idx: usize,
    /// Maximum bases appended by one mer-walk (one k iteration).
    pub max_walk_len: usize,
    /// Cap on total appended bases per contig end across all k iterations
    /// (the paper observes walks "up to 300 steps").
    pub max_total_extension: usize,
    /// Minimum credible votes for an extension base (see
    /// [`kmer::ExtCounts::classify`]).
    pub min_viable: u16,
}

/// The one parameter set every run, figure and example uses: k 15..41,
/// starting at 21, 64-base walks and at most 200 bases per contig end.
impl Default for LocalAssemblyParams {
    fn default() -> Self {
        LocalAssemblyParams {
            k_list: vec![15, 21, 31, 41],
            start_k_idx: 1,
            max_walk_len: 64,
            max_total_extension: 200,
            min_viable: 2,
        }
    }
}

impl LocalAssemblyParams {
    /// Largest k in the schedule.
    pub fn k_max(&self) -> usize {
        self.k_list.iter().copied().max().unwrap_or(0)
    }
}

/// Terminal state of one mer-walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkState {
    /// No credible extension (or terminal k-mer absent from the table).
    DeadEnd,
    /// Two or more credible extensions.
    Fork,
    /// The walk revisited a k-mer (cycle in the local graph).
    Loop,
    /// Hit the per-walk step limit.
    MaxLen,
}

impl WalkState {
    /// Encode for device memory.
    pub fn to_u64(self) -> u64 {
        match self {
            WalkState::DeadEnd => 0,
            WalkState::Fork => 1,
            WalkState::Loop => 2,
            WalkState::MaxLen => 3,
        }
    }

    /// Decode from device memory. `None` on an invalid encoding — the
    /// caller treats that as detected device-memory corruption rather than
    /// aborting.
    pub fn from_u64(v: u64) -> Option<WalkState> {
        match v {
            0 => Some(WalkState::DeadEnd),
            1 => Some(WalkState::Fork),
            2 => Some(WalkState::Loop),
            3 => Some(WalkState::MaxLen),
            _ => None,
        }
    }
}

/// Direction of the previous k shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftDir {
    /// k was last shifted up (after a fork).
    Up,
    /// k was last shifted down (after a dead end).
    Down,
}

/// The paper's k-shift controller (§2.3):
///
/// * fork ⇒ up-shift k; dead end ⇒ down-shift k;
/// * terminate on a fork right after a down-shift, or a dead end right
///   after an up-shift, or when the schedule runs out at either edge.
///
/// Loop/MaxLen walks are treated as dead ends (no credible continuation).
/// Both the CPU engine (host loop) and the GPU kernel (in-warp loop with the
/// walk state broadcast by shuffle, Figure 5) drive this same state machine,
/// which is what keeps their termination behaviour bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KShift {
    idx: usize,
    n_ks: usize,
    last: Option<ShiftDir>,
    done: bool,
}

impl KShift {
    /// Start a controller over `n_ks` k values at `start_idx`.
    pub fn new(n_ks: usize, start_idx: usize) -> KShift {
        assert!(n_ks > 0, "empty k schedule");
        assert!(start_idx < n_ks, "start index out of range");
        KShift { idx: start_idx, n_ks, last: None, done: false }
    }

    /// Index of the k to use for the next walk.
    pub fn k_idx(&self) -> usize {
        self.idx
    }

    /// Feed the walk outcome; returns `true` if another iteration (at the
    /// new [`k_idx`](Self::k_idx)) should run.
    pub fn on_walk(&mut self, state: WalkState) -> bool {
        assert!(!self.done, "on_walk after termination");
        match state {
            WalkState::Fork => {
                if self.last == Some(ShiftDir::Down) || self.idx + 1 >= self.n_ks {
                    self.done = true;
                } else {
                    self.idx += 1;
                    self.last = Some(ShiftDir::Up);
                }
            }
            WalkState::DeadEnd | WalkState::Loop | WalkState::MaxLen => {
                if self.last == Some(ShiftDir::Up) || self.idx == 0 {
                    self.done = true;
                } else {
                    self.idx -= 1;
                    self.last = Some(ShiftDir::Down);
                }
            }
        }
        !self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_upshifts_then_deadend_terminates() {
        let mut ks = KShift::new(5, 1);
        assert!(ks.on_walk(WalkState::Fork));
        assert_eq!(ks.k_idx(), 2);
        assert!(!ks.on_walk(WalkState::DeadEnd), "dead end after up-shift stops");
    }

    #[test]
    fn deadend_downshifts_then_fork_terminates() {
        let mut ks = KShift::new(5, 2);
        assert!(ks.on_walk(WalkState::DeadEnd));
        assert_eq!(ks.k_idx(), 1);
        assert!(!ks.on_walk(WalkState::Fork), "fork after down-shift stops");
    }

    #[test]
    fn repeated_forks_climb_to_top() {
        let mut ks = KShift::new(4, 0);
        assert!(ks.on_walk(WalkState::Fork));
        assert!(ks.on_walk(WalkState::Fork));
        assert!(ks.on_walk(WalkState::Fork));
        assert_eq!(ks.k_idx(), 3);
        assert!(!ks.on_walk(WalkState::Fork), "top of schedule stops");
    }

    #[test]
    fn repeated_deadends_descend_to_bottom() {
        let mut ks = KShift::new(4, 3);
        assert!(ks.on_walk(WalkState::DeadEnd));
        assert!(ks.on_walk(WalkState::DeadEnd));
        assert!(ks.on_walk(WalkState::DeadEnd));
        assert_eq!(ks.k_idx(), 0);
        assert!(!ks.on_walk(WalkState::DeadEnd), "bottom of schedule stops");
    }

    #[test]
    fn loop_and_maxlen_act_as_deadend() {
        let mut a = KShift::new(3, 1);
        assert!(a.on_walk(WalkState::Loop));
        assert_eq!(a.k_idx(), 0);
        let mut b = KShift::new(3, 1);
        assert!(b.on_walk(WalkState::MaxLen));
        assert_eq!(b.k_idx(), 0);
    }

    #[test]
    fn single_k_terminates_immediately() {
        let mut ks = KShift::new(1, 0);
        assert!(!ks.on_walk(WalkState::Fork));
        let mut ks2 = KShift::new(1, 0);
        assert!(!ks2.on_walk(WalkState::DeadEnd));
    }

    #[test]
    fn walkstate_codec_round_trips() {
        for s in [WalkState::DeadEnd, WalkState::Fork, WalkState::Loop, WalkState::MaxLen] {
            assert_eq!(WalkState::from_u64(s.to_u64()), Some(s));
        }
        assert_eq!(WalkState::from_u64(7), None, "corrupt encoding is detected");
    }

    #[test]
    #[should_panic(expected = "after termination")]
    fn on_walk_after_done_panics() {
        let mut ks = KShift::new(1, 0);
        ks.on_walk(WalkState::Fork);
        ks.on_walk(WalkState::Fork);
    }
}
