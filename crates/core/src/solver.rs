//! The one naming and dispatch table of the solver design space.
//!
//! The paper's space is 3 problems × {baseline, BRIDGE, RAND, DEGk} (plus
//! the BICC extension) × 2 architectures, and every composite decomposes
//! the graph and then extends a partial solution over it. [`Algo`] names
//! the decomposition, [`Solver`] pairs it with a problem, [`decompose`]
//! computes the decomposition an [`Algo`] needs, and [`solve`] runs a
//! solver against it. A new decomposition family is one [`Algo`] arm, one
//! [`Decomposition`] arm, and one `solve` arm per problem.
//!
//! Counter semantics of [`solve`]:
//!
//! - `d = None`: the decomposition runs inline on the run's own counters,
//!   under the `decompose` phase span, and is timed into
//!   [`RunStats::decompose_time`] — its work is part of the run's counters
//!   (and hence of its modeled GPU time).
//! - `d = Some(_)`: no decomposition work is charged and `decompose_time`
//!   is zero; a caller serving decompositions from a cache stamps the time
//!   it measured. The solution is byte-identical to the `None` path as
//!   long as `d` came from [`decompose`] with the same `(algo, seed)`.

use crate::common::{counters_for_opts, Arch, RunStats, SolveOpts};
use crate::{coloring, matching, mis, verify};
use sb_decompose::bicc::{decompose_bicc, BiccDecomposition};
use sb_decompose::bridge::{decompose_bridge, BridgeDecomposition};
use sb_decompose::degk::{decompose_degk, DegkDecomposition};
use sb_decompose::rand_part::{decompose_rand, RandDecomposition};
use sb_graph::csr::{Graph, INVALID};
use sb_par::counters::{Counters, Stopwatch};
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which decomposition a solver runs over (or none, for the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The architecture's baseline solver on the whole graph: GM / VB /
    /// Luby on CPU, LMAX / EB / flat Luby on GPU-sim.
    Baseline,
    /// BRIDGE: solve the 2-edge-connected components, then fix up across
    /// the bridges (Algorithms 4, 7, 10).
    Bridge,
    /// RAND: solve the induced partition subgraphs, then the cross edges
    /// (Algorithms 5, 8, 11). Seed-dependent.
    Rand {
        /// Number of RAND partitions (paper: 10 on CPU, 4 on GPU, 100 on
        /// kron for matching).
        partitions: usize,
    },
    /// DEGk: split at degree threshold `k` and peel the low-degree fringe
    /// (Algorithms 6, 9, 12).
    Degk {
        /// Degree threshold (paper: 2).
        k: usize,
    },
    /// BICC (extension, after Hochbaum): solve the block interiors, then
    /// extend over the articulation vertices. Not part of the paper's
    /// evaluated set.
    Bicc,
}

impl Algo {
    /// Whether the decomposition depends on the solver seed (only RAND's
    /// partition assignment does).
    pub fn uses_seed(self) -> bool {
        matches!(self, Algo::Rand { .. })
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algo::Baseline => write!(f, "baseline"),
            Algo::Bridge => write!(f, "bridge"),
            Algo::Rand { partitions } => write!(f, "rand:{partitions}"),
            Algo::Degk { k } => write!(f, "degk:{k}"),
            Algo::Bicc => write!(f, "bicc"),
        }
    }
}

/// One problem × algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Maximal matching.
    Mm(Algo),
    /// Vertex coloring.
    Color(Algo),
    /// Maximal independent set.
    Mis(Algo),
}

impl Solver {
    /// Parse a `problem` (`mm` | `color` | `mis`) and an `algo`
    /// (`baseline` | `bridge` | `rand[:P]` | `degk[:K]` | `bicc`). A bare
    /// `rand` takes the per-problem default partition count (10 for mm and
    /// mis, 2 for color); a bare `degk` takes k = 2. A parameter must be a
    /// positive integer.
    pub fn parse(problem: &str, algo: &str) -> Result<Solver, String> {
        let (name, param) = split_param(algo)?;
        let make: fn(Algo) -> Solver = match problem {
            "mm" => Solver::Mm,
            "color" => Solver::Color,
            "mis" => Solver::Mis,
            _ => {
                return Err(format!(
                    "unknown problem '{problem}' (expected mm, color, or mis)"
                ))
            }
        };
        let rand_default = if problem == "color" { 2 } else { 10 };
        let algo = match (name, param) {
            ("baseline", _) => Algo::Baseline,
            ("bridge", _) => Algo::Bridge,
            ("rand", p) => Algo::Rand {
                partitions: p.unwrap_or(rand_default),
            },
            ("degk", k) => Algo::Degk { k: k.unwrap_or(2) },
            ("bicc", _) => Algo::Bicc,
            _ => {
                return Err(format!(
                    "unknown algo '{algo}' (expected baseline, bridge, rand[:P], degk[:K], or bicc)"
                ))
            }
        };
        Ok(make(algo))
    }

    /// The problem tag: `mm`, `color`, or `mis`.
    pub fn problem(self) -> &'static str {
        match self {
            Solver::Mm(_) => "mm",
            Solver::Color(_) => "color",
            Solver::Mis(_) => "mis",
        }
    }

    /// The decomposition this solver runs over.
    pub fn algo(self) -> Algo {
        match self {
            Solver::Mm(a) | Solver::Color(a) | Solver::Mis(a) => a,
        }
    }
}

/// `mm-rand:10`, `mis-baseline`, … — [`Solver`]'s `FromStr` inverts it.
impl fmt::Display for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.problem(), self.algo())
    }
}

impl FromStr for Solver {
    type Err = String;

    fn from_str(s: &str) -> Result<Solver, String> {
        let (problem, algo) = s
            .split_once('-')
            .ok_or_else(|| format!("bad solver label '{s}' (expected e.g. mm-rand:10)"))?;
        Solver::parse(problem, algo)
    }
}

/// `name:K` → `(name, Some(K))`; `name` → `(name, None)`. A malformed or
/// zero parameter is an error rather than a silent fallback.
pub fn split_param(s: &str) -> Result<(&str, Option<usize>), String> {
    match s.split_once(':') {
        Some((a, b)) => match b.parse::<usize>() {
            Ok(k) if k >= 1 => Ok((a, Some(k))),
            _ => Err(format!(
                "'{s}': the parameter after ':' must be a positive integer"
            )),
        },
        None => Ok((s, None)),
    }
}

/// A computed decomposition, one variant per decomposing [`Algo`].
#[derive(Debug)]
pub enum Decomposition {
    /// BRIDGE result.
    Bridge(BridgeDecomposition),
    /// RAND result.
    Rand(RandDecomposition),
    /// DEGk result.
    Degk(DegkDecomposition),
    /// BICC result.
    Bicc(BiccDecomposition),
}

impl Decomposition {
    /// Estimated resident size in bytes. The per-edge class vector
    /// dominates every variant; auxiliary component tables are the same
    /// order and not worth itemizing.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Decomposition::Bridge(d) => (d.class.len() + 4 * d.bridges.len()) as u64,
            Decomposition::Rand(d) => d.class.len() as u64,
            Decomposition::Degk(d) => d.class.len() as u64,
            Decomposition::Bicc(d) => d.is_articulation.len() as u64,
        }
    }
}

/// Compute the decomposition `algo` runs over, charging its work to
/// `counters` under a `decompose` phase span. `None` for the baseline,
/// which decomposes nothing (and opens no span).
pub fn decompose(g: &Graph, algo: Algo, seed: u64, counters: &Counters) -> Option<Decomposition> {
    let _span = (algo != Algo::Baseline).then(|| counters.phase("decompose"));
    match algo {
        Algo::Baseline => None,
        Algo::Bridge => Some(Decomposition::Bridge(decompose_bridge(g, counters))),
        Algo::Rand { partitions } => Some(Decomposition::Rand(decompose_rand(
            g, partitions, seed, counters,
        ))),
        Algo::Degk { k } => Some(Decomposition::Degk(decompose_degk(g, k, counters))),
        Algo::Bicc => Some(Decomposition::Bicc(decompose_bicc(g, counters))),
    }
}

/// Run `solver` on `g` with the architecture's baseline for every phase.
///
/// With `d = None` the decomposition is computed inline and charged to
/// this run; with `d = Some(_)` it is taken as given and nothing is
/// charged for it (see the module docs). `seed` drives every random
/// choice, so runs are reproducible independent of thread count.
///
/// # Panics
///
/// If `d` is a different decomposition family than `solver`'s [`Algo`].
pub fn solve(
    g: &Graph,
    solver: Solver,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
    d: Option<&Decomposition>,
) -> (Solution, RunStats) {
    use crate::coloring::decomp as color;
    use crate::matching::decomp as mm;
    use crate::mis::decomp as mis;
    use Decomposition as D;

    let c = counters_for_opts(opts);
    let owned;
    let (d, dt) = match d {
        Some(d) => (Some(d), Duration::ZERO),
        None => {
            let sw = Stopwatch::start();
            owned = decompose(g, solver.algo(), seed, &c);
            let dt = owned.as_ref().map_or(Duration::ZERO, |_| sw.elapsed());
            (owned.as_ref(), dt)
        }
    };
    match (solver, d) {
        (Solver::Mm(Algo::Baseline), _) => mate(mm::baseline_solve(g, arch, seed, opts, c)),
        (Solver::Mm(_), Some(D::Bridge(d))) => {
            mate(mm::mm_bridge_solve(g, d, arch, seed, opts, c, dt))
        }
        (Solver::Mm(_), Some(D::Rand(d))) => mate(mm::mm_rand_solve(g, d, arch, seed, opts, c, dt)),
        (Solver::Mm(_), Some(D::Degk(d))) => mate(mm::mm_degk_solve(g, d, arch, seed, opts, c, dt)),
        (Solver::Mm(_), Some(D::Bicc(d))) => mate(mm::mm_bicc_solve(g, d, arch, seed, opts, c, dt)),
        (Solver::Color(Algo::Baseline), _) => colors(color::baseline_solve(g, arch, opts, c)),
        (Solver::Color(_), Some(D::Bridge(d))) => {
            colors(color::color_bridge_solve(g, d, arch, opts, c, dt))
        }
        (Solver::Color(_), Some(D::Rand(d))) => {
            colors(color::color_rand_solve(g, d, arch, opts, c, dt))
        }
        (Solver::Color(_), Some(D::Degk(d))) => {
            colors(color::color_degk_solve(g, d, arch, opts, c, dt))
        }
        (Solver::Color(_), Some(D::Bicc(d))) => {
            colors(color::color_bicc_solve(g, d, arch, opts, c, dt))
        }
        (Solver::Mis(Algo::Baseline), _) => set(mis::baseline_solve(g, arch, seed, opts, c)),
        (Solver::Mis(_), Some(D::Bridge(d))) => {
            set(mis::mis_bridge_solve(g, d, arch, seed, opts, c, dt))
        }
        (Solver::Mis(_), Some(D::Rand(d))) => {
            set(mis::mis_rand_solve(g, d, arch, seed, opts, c, dt))
        }
        (Solver::Mis(_), Some(D::Degk(d))) => {
            set(mis::mis_degk_solve(g, d, arch, seed, opts, c, dt))
        }
        (Solver::Mis(_), Some(D::Bicc(d))) => {
            set(mis::mis_bicc_solve(g, d, arch, seed, opts, c, dt))
        }
        (solver, _) => panic!("solver {solver} paired with the wrong decomposition"),
    }
}

fn mate(run: matching::MatchingRun) -> (Solution, RunStats) {
    (Solution::Mate(run.mate), run.stats)
}

fn colors(run: coloring::ColoringRun) -> (Solution, RunStats) {
    (Solution::Color(run.color), run.stats)
}

fn set(run: mis::MisRun) -> (Solution, RunStats) {
    (Solution::Set(run.in_set), run.stats)
}

/// A solver output in problem-agnostic form, rendered and compared
/// byte-for-byte across cached and fresh paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// `mate[v]` per vertex (matching).
    Mate(Vec<u32>),
    /// Color per vertex.
    Color(Vec<u32>),
    /// In-set flag per vertex (MIS).
    Set(Vec<bool>),
}

impl Solution {
    /// Canonical text rendering — the format `sbreak solve -o` writes, so
    /// batch and serve outputs diff cleanly against single-shot runs.
    pub fn render(&self) -> String {
        match self {
            Solution::Mate(mate) => mate
                .iter()
                .enumerate()
                .filter(|&(v, &m)| (m as usize) > v && m != INVALID)
                .map(|(v, &m)| format!("{v} {m}\n"))
                .collect(),
            Solution::Color(color) => color
                .iter()
                .enumerate()
                .map(|(v, c)| format!("{v} {c}\n"))
                .collect(),
            Solution::Set(in_set) => in_set
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(v, _)| format!("{v}\n"))
                .collect(),
        }
    }

    /// Check the solution against the sequential oracles in [`verify`].
    pub fn verify(&self, g: &Graph) -> Result<(), String> {
        match self {
            Solution::Mate(mate) => {
                verify::check_maximal_matching(g, mate).map_err(|e| e.to_string())
            }
            Solution::Color(color) => verify::check_coloring(g, color).map_err(|e| e.to_string()),
            Solution::Set(in_set) => {
                verify::check_maximal_independent_set(g, in_set).map_err(|e| e.to_string())
            }
        }
    }

    /// One-phrase result summary for reports.
    pub fn summary(&self) -> String {
        match self {
            Solution::Mate(mate) => {
                format!("matching of {} edges", verify::matching_cardinality(mate))
            }
            Solution::Color(color) => {
                let colors = color
                    .iter()
                    .filter(|&&c| c != INVALID)
                    .max()
                    .map_or(0, |&c| c as usize + 1);
                format!("{colors} colors")
            }
            Solution::Set(in_set) => {
                format!("MIS of {} vertices", in_set.iter().filter(|&&b| b).count())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALGOS: [&str; 5] = ["baseline", "bridge", "rand:3", "degk:2", "bicc"];

    #[test]
    fn every_solver_label_round_trips() {
        for problem in ["mm", "color", "mis"] {
            for algo in ALGOS {
                let s = Solver::parse(problem, algo).unwrap();
                assert_eq!(s.to_string(), format!("{problem}-{algo}"));
                assert_eq!(s.to_string().parse::<Solver>().unwrap(), s);
            }
        }
    }

    #[test]
    fn bare_parameters_take_the_per_problem_defaults() {
        let rand = |p| Solver::parse(p, "rand").unwrap().algo();
        assert_eq!(rand("mm"), Algo::Rand { partitions: 10 });
        assert_eq!(rand("color"), Algo::Rand { partitions: 2 });
        assert_eq!(rand("mis"), Algo::Rand { partitions: 10 });
        assert_eq!(
            Solver::parse("mm", "degk").unwrap().algo(),
            Algo::Degk { k: 2 }
        );
    }

    #[test]
    fn malformed_labels_are_rejected() {
        for (problem, algo, fragment) in [
            ("mm", "rand:0", "positive integer"),
            ("mm", "rand:x", "positive integer"),
            ("mm", "degk:0", "positive integer"),
            ("mm", "rand:", "positive integer"),
            ("mm", "quux", "unknown algo"),
            ("tsp", "rand", "unknown problem"),
        ] {
            let e = Solver::parse(problem, algo).unwrap_err();
            assert!(e.contains(fragment), "{problem} {algo}: {e}");
        }
        assert!("mm".parse::<Solver>().is_err());
    }
}
