//! Shared configuration and dataset loading for the bench binaries.

use sb_core::common::{Arch, FrontierMode};
use sb_datasets::suite::{load_or_generate, spec, DatasetSpec, GraphId, Scale};
use sb_engine::{Engine, EngineConfig, GraphSource};
use sb_graph::csr::Graph;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration shared by all bench binaries, parsed from CLI arguments.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset size multiplier (1.0 = the default laptop-scale suite).
    pub scale: Scale,
    /// Seed for generators and randomized algorithms.
    pub seed: u64,
    /// Execution model under test (figure binaries).
    pub arch: Arch,
    /// Substring filter on graph names (empty = all).
    pub filter: String,
    /// Timing repetitions; the minimum is reported.
    pub reps: usize,
    /// Optional directory of real SuiteSparse `.mtx` files.
    pub data_dir: Option<PathBuf>,
    /// When set, figure runners save a per-(graph, algorithm) trace JSONL
    /// under this directory (from an extra untimed run, so the reported
    /// timings stay trace-free).
    pub trace_dir: Option<PathBuf>,
    /// Thread counts to run at (`--threads 1,2,4`). Empty means the
    /// binary's default axis: powers of two up to the host parallelism for
    /// scaling harnesses, the host default for single-pool binaries.
    pub threads: Vec<usize>,
    /// Round-loop live-set strategy (`--frontier dense|compact|bitset`):
    /// compacted worklists (the default) vs full dense rescans vs u64-bitset
    /// live sets, for A/B/C comparison.
    pub frontier: FrontierMode,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Default,
            seed: 42,
            arch: Arch::Cpu,
            filter: String::new(),
            reps: 1,
            data_dir: None,
            trace_dir: None,
            threads: Vec::new(),
            frontier: FrontierMode::default(),
        }
    }
}

/// The flags every bench binary accepts, for usage errors.
pub const BENCH_USAGE: &str = "flags: --scale <float> --seed <u64> --arch cpu|gpu \
     --graphs <substring> --reps <n> --data-dir <dir> --trace-dir <dir> \
     --threads <n[,n,…]> --frontier dense|compact|bitset";

impl BenchConfig {
    /// Parse `--scale`, `--seed`, `--arch`, `--graphs`, `--reps`,
    /// `--data-dir`, `--trace-dir` from an argument list. Any unknown flag,
    /// missing value, or malformed value is a hard error naming the
    /// offending flag — never a silent fallback.
    pub fn try_from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut val = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match a.as_str() {
                "--scale" => {
                    let raw = val("--scale")?;
                    let f: f64 = raw
                        .parse()
                        .map_err(|_| format!("--scale takes a float, got '{raw}'"))?;
                    cfg.scale = Scale::Factor(f);
                }
                "--seed" => {
                    let raw = val("--seed")?;
                    cfg.seed = raw
                        .parse()
                        .map_err(|_| format!("--seed takes a u64, got '{raw}'"))?;
                }
                "--arch" => {
                    cfg.arch = val("--arch")?.parse().map_err(|e| format!("--arch: {e}"))?;
                }
                "--graphs" => cfg.filter = val("--graphs")?,
                "--reps" => {
                    let raw = val("--reps")?;
                    cfg.reps = raw
                        .parse()
                        .map_err(|_| format!("--reps takes a usize, got '{raw}'"))?;
                }
                "--data-dir" => cfg.data_dir = Some(PathBuf::from(val("--data-dir")?)),
                "--trace-dir" => cfg.trace_dir = Some(PathBuf::from(val("--trace-dir")?)),
                "--threads" => {
                    let raw = val("--threads")?;
                    cfg.threads = raw
                        .split(',')
                        .map(|p| match p.trim().parse::<usize>() {
                            Ok(n) if n >= 1 => Ok(n),
                            _ => Err(format!(
                                "--threads takes positive integers, got '{p}' in '{raw}'"
                            )),
                        })
                        .collect::<Result<Vec<usize>, String>>()?;
                }
                "--frontier" => {
                    let raw = val("--frontier")?;
                    cfg.frontier = raw.parse().map_err(|_| {
                        format!("--frontier must be dense, compact, or bitset, got '{raw}'")
                    })?;
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(cfg)
    }

    /// [`Self::try_from_args`], panicking with the usage line on malformed
    /// input (for tests and programmatic callers).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::try_from_args(args) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}\n{BENCH_USAGE}"),
        }
    }

    /// Parse from `std::env::args` (skipping the binary name); prints the
    /// error plus usage and exits with status 2 on malformed input.
    pub fn from_env() -> Self {
        match Self::try_from_args(std::env::args().skip(1)) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}\n{BENCH_USAGE}");
                std::process::exit(2)
            }
        }
    }
}

/// The loaded dataset suite: Table II specs paired with their (generated or
/// loaded) graphs. Graphs are `Arc`-shared so the suite, the engine's graph
/// cache, and batch jobs can all hold the same ingestion without copying.
pub struct Suite {
    /// Spec + graph, in Table II order.
    pub graphs: Vec<(DatasetSpec, Arc<Graph>)>,
}

/// Load (or generate) every suite graph passing the config's filter.
///
/// Generated graphs route through [`load_suite_with`] and an engine's graph
/// cache, so a runner that also drives `sb-engine` batches (the Table I
/// amortization report) pays ingestion once per graph.
pub fn load_suite(cfg: &BenchConfig) -> Suite {
    load_suite_with(cfg, &mut Engine::new(EngineConfig::default()))
}

/// [`load_suite`] against a caller-owned engine: generated graphs go through
/// `engine.graph(..)` keyed by `(name, scale, seed)`, so later batch jobs on
/// the same engine hit the cache. Graphs from `--data-dir` files bypass the
/// engine (their identity is the path, not the generator key).
pub fn load_suite_with(cfg: &BenchConfig, engine: &mut Engine) -> Suite {
    let graphs = GraphId::ALL
        .into_iter()
        .map(spec)
        .filter(|sp| cfg.filter.is_empty() || sp.name.contains(&cfg.filter))
        .map(|sp| {
            let g = if cfg.data_dir.is_some() {
                Arc::new(load_or_generate(
                    sp.id,
                    cfg.data_dir.as_deref(),
                    cfg.scale,
                    cfg.seed,
                ))
            } else {
                let src = GraphSource::Gen {
                    id: sp.id,
                    name: sp.name.to_string(),
                    scale: cfg.scale.factor(),
                    seed: cfg.seed,
                };
                let (g, _fingerprint, _cached) = engine
                    .graph(&src)
                    .unwrap_or_else(|e| panic!("cannot load {}: {e}", sp.name));
                g
            };
            (sp, g)
        })
        .collect();
    Suite { graphs }
}

/// Thread-count axis for scaling harnesses: the config's `--threads` list
/// when given, else powers of two up to the host's available parallelism.
pub fn thread_counts(cfg: &BenchConfig) -> Vec<usize> {
    if !cfg.threads.is_empty() {
        return cfg.threads.clone();
    }
    let max = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut ts = vec![1usize];
    while ts.last().unwrap() * 2 <= max {
        ts.push(ts.last().unwrap() * 2);
    }
    ts
}

/// The RAND partition count the paper uses for matching: 10 on the CPU, 4
/// on the GPU, and 100 on the high-average-degree kron instances (§III-C).
pub fn mm_rand_partitions(arch: Arch, sp: &DatasetSpec) -> usize {
    if matches!(sp.id, GraphId::KronLogn20 | GraphId::KronLogn21) {
        100
    } else {
        match arch {
            Arch::Cpu => 10,
            Arch::GpuSim => 4,
        }
    }
}

/// Partition count for COLOR-Rand (§IV-C experiments with two partitions;
/// more partitions only add conflicts).
pub fn color_rand_partitions(_arch: Arch) -> usize {
    2
}

/// Partition count for MIS-Rand (same setting as matching).
pub fn mis_rand_partitions(arch: Arch) -> usize {
    match arch {
        Arch::Cpu => 10,
        Arch::GpuSim => 4,
    }
}

/// Time `f` over `reps` repetitions, returning the minimum duration and the
/// last result.
pub fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let sw = std::time::Instant::now();
        let r = f();
        best = best.min(sw.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_roundtrip() {
        let cfg = BenchConfig::from_args(
            [
                "--scale", "0.5", "--seed", "7", "--arch", "gpu", "--graphs", "kron", "--reps", "3",
            ]
            .map(String::from),
        );
        assert_eq!(cfg.scale, Scale::Factor(0.5));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.arch, Arch::GpuSim);
        assert_eq!(cfg.filter, "kron");
        assert_eq!(cfg.reps, 3);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flag() {
        BenchConfig::from_args(["--bogus".to_string()]);
    }

    #[test]
    fn errors_name_the_offending_flag() {
        let e = BenchConfig::try_from_args(["--bogus".to_string()]).unwrap_err();
        assert!(e.contains("--bogus"), "got: {e}");
        let e = BenchConfig::try_from_args(["--seed".to_string()]).unwrap_err();
        assert!(
            e.contains("--seed") && e.contains("needs a value"),
            "got: {e}"
        );
        let e =
            BenchConfig::try_from_args(["--scale".to_string(), "fast".to_string()]).unwrap_err();
        assert!(e.contains("--scale") && e.contains("'fast'"), "got: {e}");
        let e = BenchConfig::try_from_args(["--reps".to_string(), "-1".to_string()]).unwrap_err();
        assert!(e.contains("--reps"), "got: {e}");
        let e = BenchConfig::try_from_args(["--arch".to_string(), "tpu".to_string()]).unwrap_err();
        assert!(e.contains("--arch") && e.contains("'tpu'"), "got: {e}");
        let e = BenchConfig::try_from_args(["--frontier".to_string(), "sparse".to_string()])
            .unwrap_err();
        assert!(
            e.contains("--frontier") && e.contains("'sparse'"),
            "got: {e}"
        );
    }

    #[test]
    fn frontier_flag_parses_and_defaults_to_compact() {
        assert_eq!(BenchConfig::default().frontier, FrontierMode::Compact);
        let cfg = BenchConfig::from_args(["--frontier", "dense"].map(String::from));
        assert_eq!(cfg.frontier, FrontierMode::Dense);
        let cfg = BenchConfig::from_args(["--frontier", "compact"].map(String::from));
        assert_eq!(cfg.frontier, FrontierMode::Compact);
        let cfg = BenchConfig::from_args(["--frontier", "bitset"].map(String::from));
        assert_eq!(cfg.frontier, FrontierMode::Bitset);
    }

    #[test]
    fn threads_flag_parses_lists() {
        let cfg = BenchConfig::from_args(["--threads", "1,2,4"].map(String::from));
        assert_eq!(cfg.threads, vec![1, 2, 4]);
        assert_eq!(thread_counts(&cfg), vec![1, 2, 4]);
        let cfg = BenchConfig::from_args(["--threads", "8"].map(String::from));
        assert_eq!(cfg.threads, vec![8]);
        let e = BenchConfig::try_from_args(["--threads".into(), "1,0".into()]).unwrap_err();
        assert!(e.contains("--threads") && e.contains("'0'"), "got: {e}");
        let e = BenchConfig::try_from_args(["--threads".into(), "two".into()]).unwrap_err();
        assert!(e.contains("'two'"), "got: {e}");
    }

    #[test]
    fn default_thread_axis_is_powers_of_two() {
        let ts = thread_counts(&BenchConfig::default());
        assert_eq!(ts[0], 1);
        for w in ts.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        let max = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(*ts.last().unwrap() <= max);
    }

    #[test]
    fn trace_dir_parses() {
        let cfg =
            BenchConfig::from_args(["--trace-dir", "/tmp/traces", "--reps", "2"].map(String::from));
        assert_eq!(cfg.trace_dir, Some(PathBuf::from("/tmp/traces")));
        assert_eq!(cfg.reps, 2);
        assert_eq!(
            BenchConfig::from_args(std::iter::empty::<String>()).trace_dir,
            None
        );
    }

    #[test]
    fn filtered_suite_loads_only_matches() {
        let cfg = BenchConfig {
            scale: Scale::Tiny,
            filter: "lp1".into(),
            ..Default::default()
        };
        let suite = load_suite(&cfg);
        assert_eq!(suite.graphs.len(), 1);
        assert_eq!(suite.graphs[0].0.name, "lp1");
        assert!(suite.graphs[0].1.num_vertices() > 0);
    }

    #[test]
    fn partition_choices_follow_paper() {
        let kron = spec(GraphId::KronLogn20);
        let rgg = spec(GraphId::Rgg23);
        assert_eq!(mm_rand_partitions(Arch::Cpu, &kron), 100);
        assert_eq!(mm_rand_partitions(Arch::Cpu, &rgg), 10);
        assert_eq!(mm_rand_partitions(Arch::GpuSim, &rgg), 4);
        assert_eq!(color_rand_partitions(Arch::Cpu), 2);
    }

    #[test]
    fn time_min_returns_minimum() {
        let mut calls = 0;
        let (ms, v) = time_min(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 3);
        assert_eq!(v, 3);
        assert!(ms >= 0.0);
    }
}
