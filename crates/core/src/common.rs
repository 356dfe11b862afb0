//! Shared run configuration and reporting types.

use sb_par::counters::{CounterSnapshot, Counters};
use sb_par::frontier::ScratchStats;
use sb_trace::{TraceSink, TraceSummary};
use std::sync::Arc;
use std::time::Duration;

/// Which execution model a composite algorithm targets.
///
/// The paper evaluates every algorithm on a 20-core Xeon and a K40c GPU.
/// Here `Cpu` selects the CPU algorithm family (GM / VB / worklist Luby) on
/// the rayon pool, and `GpuSim` selects the GPU family (LMAX / EB / flat
/// Luby) expressed as bulk-synchronous kernels on `sb_par::bsp::BspExecutor`
/// — the documented K40c substitute (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Multicore-CPU algorithm family.
    Cpu,
    /// GPU-sim (bulk-synchronous kernel) algorithm family.
    GpuSim,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Cpu => write!(f, "cpu"),
            Arch::GpuSim => write!(f, "gpu"),
        }
    }
}

/// The inverse of [`Arch`]'s `Display`: `cpu` or `gpu`.
impl std::str::FromStr for Arch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cpu" => Ok(Arch::Cpu),
            "gpu" => Ok(Arch::GpuSim),
            other => Err(format!("unknown arch '{other}' (expected cpu or gpu)")),
        }
    }
}

/// How a solver's synchronous round loop tracks its live set.
///
/// `Dense` is the paper-faithful formulation: every round sweeps the full
/// participant list fixed at entry, skipping decided vertices with an O(1)
/// status check. `Compact` keeps the live set as u64 bitset words
/// (`sb_par::frontier::BitFrontier`) compacted between rounds: iteration is
/// a trailing-zeros walk over the nonzero words, winner masks are
/// word-level ANDs, and compaction emits nonzero-word-index runs. Compact
/// runs borrow their per-call working arrays from a scratch arena and — on
/// the GPU-sim pipeline — run masked solves directly against the zero-copy
/// `EdgeView` instead of materializing an induced CSR. Both modes produce
/// valid solutions; for GM / LMAX / Luby / VB the outputs are
/// byte-identical (pinned by `tests/frontier.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontierMode {
    /// Full-sweep rounds over a participant list fixed at entry.
    Dense,
    /// Bitset live sets compacted between rounds + scratch-arena buffer
    /// reuse.
    #[default]
    Compact,
}

impl std::fmt::Display for FrontierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierMode::Dense => write!(f, "dense"),
            FrontierMode::Compact => write!(f, "compact"),
        }
    }
}

impl std::str::FromStr for FrontierMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(FrontierMode::Dense),
            "compact" => Ok(FrontierMode::Compact),
            other => Err(format!(
                "frontier mode must be dense or compact, got '{other}'"
            )),
        }
    }
}

/// Per-run options of [`crate::solve`] and the `*_opts` entry points.
#[derive(Debug, Clone, Default)]
pub struct SolveOpts {
    /// Trace sink for phase spans and round records (`None` = untraced).
    pub trace: Option<Arc<TraceSink>>,
    /// Live-set strategy for every round loop in the run.
    pub frontier: FrontierMode,
}

impl SolveOpts {
    /// Options for a run in the default (compact) mode reporting into
    /// `trace` when given.
    pub fn traced(trace: Option<Arc<TraceSink>>) -> SolveOpts {
        SolveOpts {
            trace,
            ..SolveOpts::default()
        }
    }

    /// Options for an untraced run in the given mode.
    pub fn with_mode(frontier: FrontierMode) -> SolveOpts {
        SolveOpts {
            trace: None,
            frontier,
        }
    }
}

/// Timing and work breakdown of one solver run, reported next to every
/// result so benches can separate decomposition cost from solve cost —
/// the distinction Figures 2–5 of the paper turn on.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Time spent decomposing the input (zero for baselines).
    pub decompose_time: Duration,
    /// Time spent in the solver phases.
    pub solve_time: Duration,
    /// Work counters accumulated across decomposition and solving.
    pub counters: CounterSnapshot,
    /// Round-convergence digest, present when the run was traced (see
    /// `sb_trace`): rounds to converge, round-time percentiles, and
    /// settled-per-round histogram.
    pub trace: Option<TraceSummary>,
    /// Scratch-arena allocation behavior of the run (fresh allocations vs
    /// pool reuses) — zeroed when the composite predates the accounting.
    pub scratch: ScratchStats,
}

impl RunStats {
    /// Assemble the stats of a finished run from its counter block,
    /// attaching the trace digest when the run was traced.
    pub fn from_counters(
        decompose_time: Duration,
        solve_time: Duration,
        counters: &Counters,
    ) -> RunStats {
        RunStats {
            decompose_time,
            solve_time,
            counters: counters.snapshot(),
            trace: counters.trace_sink().and_then(|s| s.summary()),
            scratch: ScratchStats::default(),
        }
    }

    /// Attach the run's scratch-arena snapshot (builder style, so the
    /// composites' `from_counters` call sites stay one expression).
    pub fn with_scratch(mut self, scratch: ScratchStats) -> RunStats {
        self.scratch = scratch;
        self
    }

    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.decompose_time + self.solve_time
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_time().as_secs_f64() * 1e3
    }

    /// Modeled K40c device time for this run's counters (see
    /// `sb_par::counters::GpuCostModel`). This is the figure reported for
    /// `Arch::GpuSim` runs: host wall-clock cannot express the
    /// coalesced-vs-gather bandwidth gap that governs real GPU graph codes,
    /// but the counters record exactly the traffic in each class.
    pub fn modeled_gpu_ms(&self) -> f64 {
        sb_par::counters::GpuCostModel::K40C.modeled_ms(&self.counters)
    }
}

/// Counter block for one run's options: reporting into the options' sink
/// when tracing was requested, plain otherwise.
pub(crate) fn counters_for_opts(opts: &SolveOpts) -> Counters {
    match &opts.trace {
        Some(sink) => Counters::with_trace(sink.clone()),
        None => Counters::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_display() {
        assert_eq!(Arch::Cpu.to_string(), "cpu");
        assert_eq!(Arch::GpuSim.to_string(), "gpu");
        for arch in [Arch::Cpu, Arch::GpuSim] {
            assert_eq!(arch.to_string().parse::<Arch>(), Ok(arch));
        }
        let e = "tpu".parse::<Arch>().unwrap_err();
        assert!(e.contains("unknown arch 'tpu'"), "{e}");
    }

    #[test]
    fn frontier_mode_parse_round_trips_and_rejects_unknown_labels() {
        for mode in [FrontierMode::Dense, FrontierMode::Compact] {
            assert_eq!(mode.to_string().parse::<FrontierMode>(), Ok(mode));
        }
        for bad in ["bitset", "sparse", ""] {
            let e = bad.parse::<FrontierMode>().unwrap_err();
            assert_eq!(
                e,
                format!("frontier mode must be dense or compact, got '{bad}'")
            );
        }
    }

    #[test]
    fn runstats_total() {
        let s = RunStats {
            decompose_time: Duration::from_millis(3),
            solve_time: Duration::from_millis(7),
            counters: CounterSnapshot::default(),
            trace: None,
            scratch: ScratchStats::default(),
        };
        assert_eq!(s.total_time(), Duration::from_millis(10));
        assert!((s.total_ms() - 10.0).abs() < 1e-9);
    }
}
