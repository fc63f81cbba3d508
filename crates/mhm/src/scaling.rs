//! Summit strong-scaling model — the machinery behind Figures 2, 13 and 14.
//!
//! We cannot run on 64–1024 Summit nodes, so the node-count series are
//! produced by a documented analytic model with two kinds of inputs:
//!
//! * **paper anchors** (one breakdown + two speedup points) taken from the
//!   paper itself: total 2128 s at 64 nodes with local assembly at 34%
//!   (Fig. 2a), local-assembly GPU speedup 7× at 64 nodes and 2.65× at
//!   1024 nodes (Fig. 13);
//! * **mechanistic forms**: compute phases strong-scale as `64/N`;
//!   communication-heavy phases split into a `64/N` part and a
//!   `log₂N/log₂64` part (α–β collectives); the GPU local-assembly time is
//!   `K/N + F` — per-node work plus a fixed per-node offload overhead,
//!   which is exactly the paper's explanation for the speedup decay
//!   ("a decrease in the amount of work that can be offloaded to one GPU…
//!   causes larger GPU overheads").
//!
//! `K` and `F` are solved from the two anchored speedups; every
//! intermediate node count is then a *prediction*, compared against the
//! paper in EXPERIMENTS.md. The same model reproduces Figure 2b's observed
//! post-offload breakdown (local assembly 34% → ~6%, total ≈ 1.5 ks) with
//! no additional fitting — a useful consistency check.

use crate::pipeline::{Phase, PhaseTimings};

/// Why a scaling-model query was rejected. The model is *anchored*, not a
/// general law: it can only interpolate between its calibration points, so
/// out-of-domain queries return an error instead of a silently
/// extrapolated number (the `Comm` log term reaches 0 at N=1, and a phase
/// missing from the anchor table used to evaluate to 0 s with no signal).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingError {
    /// The queried phase has no entry in the anchor table.
    UnknownPhase { phase: Phase },
    /// `nodes` is outside the anchored range `[nodes_anchor, nodes_far]`
    /// (or not finite).
    NodesOutOfRange { nodes: f64, lo: f64, hi: f64 },
}

impl std::fmt::Display for ScalingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingError::UnknownPhase { phase } => {
                write!(f, "phase {:?} has no anchor entry in the scaling model", phase)
            }
            ScalingError::NodesOutOfRange { nodes, lo, hi } => {
                write!(f, "node count {nodes} outside the anchored range [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for ScalingError {}

/// How a phase scales with node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseScaling {
    /// Node-local compute: `t(N) = t64 · 64/N`.
    Local,
    /// Mixed compute + communication: `t(N) = t64·((1−c)·64/N + c·log₂N/log₂64)`.
    Comm(f64),
    /// Constant with scale (serial I/O, fixed setup).
    Fixed,
}

/// Anchors lifted from the paper.
#[derive(Debug, Clone)]
pub struct PaperAnchors {
    /// Anchor node count (64).
    pub nodes_anchor: f64,
    /// Total pipeline seconds at the anchor, CPU local assembly (Fig. 2a).
    pub total_anchor_s: f64,
    /// Fraction of total in each phase at the anchor (Fig. 2a), plus its
    /// scaling class.
    pub phases: Vec<(Phase, f64, PhaseScaling)>,
    /// Local-assembly GPU speedup at the anchor (Fig. 13).
    pub la_speedup_anchor: f64,
    /// Local-assembly GPU speedup at `nodes_far` (Fig. 13).
    pub la_speedup_far: f64,
    /// The far node count (1024).
    pub nodes_far: f64,
}

impl Default for PaperAnchors {
    fn default() -> Self {
        PaperAnchors {
            nodes_anchor: 64.0,
            total_anchor_s: 2128.0,
            // Fractions estimated from the Fig. 2a pie (local assembly 34%
            // is stated in the text; the rest are read off the chart and
            // sum to 1).
            phases: vec![
                (Phase::MergeReads, 0.06, PhaseScaling::Local),
                (Phase::KmerAnalysis, 0.16, PhaseScaling::Comm(0.35)),
                (Phase::ContigGeneration, 0.08, PhaseScaling::Comm(0.2)),
                (Phase::Alignment, 0.12, PhaseScaling::Comm(0.35)),
                (Phase::AlnKernel, 0.06, PhaseScaling::Local),
                (Phase::LocalAssembly, 0.34, PhaseScaling::Local),
                (Phase::Scaffolding, 0.14, PhaseScaling::Comm(0.45)),
                (Phase::FileIo, 0.04, PhaseScaling::Fixed),
            ],
            la_speedup_anchor: 7.0,
            la_speedup_far: 2.65,
            nodes_far: 1024.0,
        }
    }
}

/// The solved scaling model.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    pub anchors: PaperAnchors,
    /// Node-seconds of CPU local-assembly work (`C` in the derivation).
    pub la_work_node_seconds: f64,
    /// GPU kernel node-seconds (`K`).
    pub gpu_work_node_seconds: f64,
    /// Fixed per-node GPU overhead seconds (`F`).
    pub gpu_overhead_s: f64,
}

impl ScalingModel {
    /// Solve `K` and `F` from the two anchored speedups.
    pub fn from_anchors(anchors: PaperAnchors) -> ScalingModel {
        let la_frac = anchors
            .phases
            .iter()
            .find(|(p, _, _)| *p == Phase::LocalAssembly)
            .map(|(_, f, _)| *f)
            .expect("local assembly fraction required");
        let la64 = anchors.total_anchor_s * la_frac;
        let c = la64 * anchors.nodes_anchor; // node-seconds of CPU LA work
                                             // speedup(N) = C / (K + F·N)
        let s1 = anchors.la_speedup_anchor;
        let s2 = anchors.la_speedup_far;
        let n1 = anchors.nodes_anchor;
        let n2 = anchors.nodes_far;
        let f = c * (1.0 / s2 - 1.0 / s1) / (n2 - n1);
        let k = c / s1 - n1 * f;
        assert!(f > 0.0 && k > 0.0, "anchors produce a degenerate model");
        ScalingModel {
            anchors,
            la_work_node_seconds: c,
            gpu_work_node_seconds: k,
            gpu_overhead_s: f,
        }
    }

    /// Reject queries outside the anchored node range. Every public
    /// evaluation goes through this: the anchors calibrate the model on
    /// `[nodes_anchor, nodes_far]` only, and below the anchor the `Comm`
    /// log term turns negative-curvature nonsense (0 at N=1).
    fn check_nodes(&self, nodes: f64) -> Result<(), ScalingError> {
        let (lo, hi) = (self.anchors.nodes_anchor, self.anchors.nodes_far);
        if !nodes.is_finite() || nodes < lo || nodes > hi {
            return Err(ScalingError::NodesOutOfRange { nodes, lo, hi });
        }
        Ok(())
    }

    /// CPU local-assembly seconds at `nodes`.
    pub fn la_cpu_s(&self, nodes: f64) -> Result<f64, ScalingError> {
        self.check_nodes(nodes)?;
        Ok(self.la_work_node_seconds / nodes)
    }

    /// GPU local-assembly seconds at `nodes` (work + fixed overhead).
    pub fn la_gpu_s(&self, nodes: f64) -> Result<f64, ScalingError> {
        self.check_nodes(nodes)?;
        Ok(self.gpu_work_node_seconds / nodes + self.gpu_overhead_s)
    }

    /// Local-assembly speedup at `nodes` (the Fig. 13 triangles).
    pub fn la_speedup(&self, nodes: f64) -> Result<f64, ScalingError> {
        Ok(self.la_cpu_s(nodes)? / self.la_gpu_s(nodes)?)
    }

    /// Seconds of one phase at `nodes` with CPU local assembly. A phase
    /// with no anchor entry is an error — it used to evaluate to 0 s,
    /// which silently shrank any total it was summed into.
    pub fn phase_cpu_s(&self, phase: Phase, nodes: f64) -> Result<f64, ScalingError> {
        self.check_nodes(nodes)?;
        let a = &self.anchors;
        let (_, frac, scaling) = a
            .phases
            .iter()
            .find(|(p, _, _)| *p == phase)
            .copied()
            .ok_or(ScalingError::UnknownPhase { phase })?;
        let t64 = a.total_anchor_s * frac;
        let ratio = a.nodes_anchor / nodes;
        Ok(match scaling {
            PhaseScaling::Local => t64 * ratio,
            PhaseScaling::Fixed => t64,
            PhaseScaling::Comm(c) => {
                t64 * ((1.0 - c) * ratio + c * nodes.log2() / a.nodes_anchor.log2())
            }
        })
    }

    /// Full-pipeline timings at `nodes`, CPU or GPU local assembly. Every
    /// phase of [`Phase::ALL`] must have an anchor entry.
    pub fn pipeline_at(&self, nodes: f64, gpu_la: bool) -> Result<PhaseTimings, ScalingError> {
        self.check_nodes(nodes)?;
        let mut t = PhaseTimings::new();
        for p in Phase::ALL {
            let s = if p == Phase::LocalAssembly {
                if gpu_la {
                    self.la_gpu_s(nodes)?
                } else {
                    self.la_cpu_s(nodes)?
                }
            } else {
                self.phase_cpu_s(p, nodes)?
            };
            t.add(p, s);
        }
        Ok(t)
    }

    /// Whole-pipeline speedup from GPU local assembly (Fig. 14 triangles),
    /// expressed as a percentage improvement.
    pub fn overall_speedup_pct(&self, nodes: f64) -> Result<f64, ScalingError> {
        let cpu = self.pipeline_at(nodes, false)?.total();
        let gpu = self.pipeline_at(nodes, true)?.total();
        Ok(100.0 * (cpu - gpu) / gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ScalingModel {
        ScalingModel::from_anchors(PaperAnchors::default())
    }

    #[test]
    fn anchors_reproduced_exactly() {
        let m = model();
        assert!((m.la_speedup(64.0).unwrap() - 7.0).abs() < 1e-9);
        assert!((m.la_speedup(1024.0).unwrap() - 2.65).abs() < 1e-9);
    }

    #[test]
    fn speedup_decays_monotonically() {
        let m = model();
        let mut prev = f64::INFINITY;
        for n in [64.0, 128.0, 256.0, 512.0, 1024.0] {
            let s = m.la_speedup(n).unwrap();
            assert!(s < prev, "speedup must decay with nodes");
            assert!(s > 1.0, "GPU must stay faster at {n} nodes");
            prev = s;
        }
    }

    #[test]
    fn fig2b_consistency_check() {
        // With no extra fitting, the model must land near the paper's
        // observed post-offload numbers: total ≈ 1495 s, LA ≈ 6%.
        let m = model();
        let gpu64 = m.pipeline_at(64.0, true).unwrap();
        let total = gpu64.total();
        assert!(
            (total - 1495.0).abs() / 1495.0 < 0.05,
            "total {total:.0}s should be within 5% of the paper's 1495s"
        );
        let la_frac = gpu64.get(Phase::LocalAssembly) / total;
        assert!(
            la_frac > 0.04 && la_frac < 0.09,
            "LA fraction {la_frac:.3} should be near the paper's 6%"
        );
    }

    #[test]
    fn overall_speedup_peaks_early_and_decays() {
        let m = model();
        let s64 = m.overall_speedup_pct(64.0).unwrap();
        let s1024 = m.overall_speedup_pct(1024.0).unwrap();
        assert!(
            (s64 - 42.0).abs() < 6.0,
            "64-node overall speedup {s64:.1}% should be near the paper's 42%"
        );
        assert!(s1024 < s64 / 2.0, "1024-node speedup must collapse");
    }

    #[test]
    fn phase_scaling_classes_behave() {
        let m = model();
        // Local phases halve when nodes double.
        let a = m.phase_cpu_s(Phase::MergeReads, 64.0).unwrap();
        let b = m.phase_cpu_s(Phase::MergeReads, 128.0).unwrap();
        assert!((a / b - 2.0).abs() < 1e-9);
        // Fixed phases do not change.
        assert_eq!(
            m.phase_cpu_s(Phase::FileIo, 64.0).unwrap(),
            m.phase_cpu_s(Phase::FileIo, 1024.0).unwrap()
        );
        // Comm phases shrink slower than local ones.
        let ka = m.phase_cpu_s(Phase::KmerAnalysis, 64.0).unwrap();
        let kb = m.phase_cpu_s(Phase::KmerAnalysis, 1024.0).unwrap();
        assert!(ka / kb < 16.0, "comm phase cannot scale perfectly");
        assert!(kb < ka, "but it must still shrink somewhat");
    }

    #[test]
    fn unknown_phase_is_an_error_not_zero_seconds() {
        // Regression: a phase missing from the anchor table used to
        // evaluate to 0 s via `unwrap_or` — a typo'd table shrank totals
        // with no signal. It must be a hard error now.
        let mut anchors = PaperAnchors::default();
        anchors.phases.retain(|(p, _, _)| *p != Phase::MergeReads);
        let m = ScalingModel::from_anchors(anchors);
        let err = m.phase_cpu_s(Phase::MergeReads, 64.0).expect_err("missing phase must error");
        assert_eq!(err, ScalingError::UnknownPhase { phase: Phase::MergeReads });
        // And pipeline_at (which sums all phases) must propagate it.
        assert!(m.pipeline_at(64.0, false).is_err());
    }

    #[test]
    fn out_of_range_nodes_rejected_boundaries_accepted() {
        // Regression: below the anchor the Comm log term silently
        // extrapolated (reaching 0 s at N=1). The model now only answers
        // inside its anchored range; both boundaries are inclusive.
        let m = model();
        for n in [1.0, 2.0, 63.999, 1024.001, 4096.0, 0.0, -64.0, f64::NAN, f64::INFINITY] {
            for query in [
                m.la_cpu_s(n),
                m.la_gpu_s(n),
                m.la_speedup(n),
                m.phase_cpu_s(Phase::KmerAnalysis, n),
                m.overall_speedup_pct(n),
            ] {
                let err = query.expect_err("out-of-range nodes must be rejected");
                assert!(
                    matches!(err, ScalingError::NodesOutOfRange { lo, hi, .. }
                        if lo == 64.0 && hi == 1024.0),
                    "nodes {n}: got {err:?}"
                );
            }
            assert!(m.pipeline_at(n, true).is_err(), "nodes {n}");
        }
        for n in [64.0, 65.0, 512.0, 1024.0] {
            assert!(m.la_speedup(n).is_ok(), "in-range nodes {n} must be accepted");
            assert!(m.pipeline_at(n, false).is_ok(), "in-range nodes {n} must be accepted");
        }
        // An anchor set calibrated at small scale accepts its own range
        // (the fig12 harness anchors at 2–32 nodes).
        let small = ScalingModel::from_anchors(PaperAnchors {
            nodes_anchor: 2.0,
            nodes_far: 32.0,
            la_speedup_anchor: 4.3,
            la_speedup_far: 2.0,
            ..PaperAnchors::default()
        });
        assert!(small.la_speedup(2.0).is_ok());
        assert!(small.la_speedup(64.0).is_err(), "outside its own far anchor");
    }

    #[test]
    fn anchor_fractions_sum_to_one() {
        let a = PaperAnchors::default();
        let sum: f64 = a.phases.iter().map(|(_, f, _)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn inverted_anchors_rejected() {
        // Faster at scale: impossible under K/N + F.
        let a = PaperAnchors { la_speedup_far: 20.0, ..Default::default() };
        ScalingModel::from_anchors(a);
    }
}
