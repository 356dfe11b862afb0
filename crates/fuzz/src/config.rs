//! The solver configuration matrix the fuzzer sweeps, with stable string
//! labels so counterexample files can name — and replay — the exact
//! configuration that failed.

use sb_core::{Algo, Arch, Solver};
use std::fmt;

/// One solver configuration: problem × algorithm × architecture.
/// Frontier mode and thread count are *not* part of the configuration —
/// the oracle runs every configuration at dense/compact × 1/N and
/// cross-checks, which is the whole point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Problem × algorithm.
    pub solver: Solver,
    /// Execution architecture.
    pub arch: Arch,
}

/// RAND partition count used across the fuzz matrix (small, so tiny
/// graphs still split into several non-trivial pieces).
pub const FUZZ_PARTITIONS: usize = 3;
/// DEGk threshold used across the fuzz matrix (the paper's k = 2).
pub const FUZZ_K: usize = 2;

impl SolverConfig {
    /// The configuration running `solver` on `arch`.
    pub const fn new(solver: Solver, arch: Arch) -> SolverConfig {
        SolverConfig { solver, arch }
    }

    /// Every registered configuration: 3 problems × 5 algorithms × 2
    /// architectures = 30, the whole of `sb_core::solve`'s table.
    pub fn all() -> Vec<SolverConfig> {
        let algos = [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand {
                partitions: FUZZ_PARTITIONS,
            },
            Algo::Degk { k: FUZZ_K },
            Algo::Bicc,
        ];
        let mut v = Vec::with_capacity(30);
        for make in [Solver::Mm, Solver::Mis, Solver::Color] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                v.extend(algos.map(|a| SolverConfig::new(make(a), arch)));
            }
        }
        v
    }

    /// Parse a label (`mm-rand:3@gpu`) back into a configuration.
    pub fn parse(s: &str) -> Result<SolverConfig, String> {
        let (solver, arch) = s
            .split_once('@')
            .ok_or_else(|| format!("bad config label '{s}' (expected e.g. mm-rand:3@gpu)"))?;
        Ok(SolverConfig::new(solver.parse()?, arch.parse()?))
    }
}

/// `{solver}@{arch}`, e.g. `mm-rand:3@gpu`; [`SolverConfig::parse`]
/// inverts it.
impl fmt::Display for SolverConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.solver, self.arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete_and_labels_round_trip() {
        let all = SolverConfig::all();
        assert_eq!(all.len(), 30);
        for cfg in all {
            let label = cfg.to_string();
            assert_eq!(SolverConfig::parse(&label).unwrap(), cfg, "{label}");
            assert_eq!(label.split_once('@').unwrap().0.parse(), Ok(cfg.solver));
        }
    }

    #[test]
    fn bad_labels_are_rejected() {
        for bad in [
            "",
            "mm-rand3",
            "mm-randx@gpu",
            "tsp-baseline@cpu",
            "mm@cpu",
            "mm-rand:x@gpu",
            "mm-baseline@tpu",
            "mm-rand:0@cpu",
            "mm-degk:0@cpu",
            "mm-rand0@cpu",
        ] {
            assert!(SolverConfig::parse(bad).is_err(), "{bad}");
        }
    }
}
