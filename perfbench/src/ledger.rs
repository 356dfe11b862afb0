//! The per-layer ledger: spans timed around calls into the program's
//! layers from the benchmark's own code, kept in memory and written out
//! when the run ends.
//!
//! A span is named `<layer>.<what>` (`graph.parse`, `core.solve.mm.cpu`,
//! `engine.apply_edits`, ...). The layer is the name up to the first dot:
//! `graph`, `decompose`, `core`, `engine`, `cli`. Every span belongs to a
//! timed op; the op's wall time minus its spans is the time no layer
//! accounts for.

use crate::stats;
use crate::Outcome;
use sb_core::{Arch, RunStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    op: u32,
    name: String,
    start_us: f64,
    dur_ms: f64,
}

/// Spans and op walls of one traced pass. Disabled ledgers record
/// nothing, so the untraced pass runs the same code with no bookkeeping.
pub struct Ledger {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    ops: Vec<(u32, f64)>,
}

impl Ledger {
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Time `f` as span `name` of op `op`.
    pub fn time<T>(&mut self, op: u32, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(op, name, start, start.elapsed());
        out
    }

    /// Record a span measured elsewhere (a sub-interval the program
    /// reports, such as the decomposition inside a solve call).
    pub fn record(&mut self, op: u32, name: &str, start: Instant, dur: Duration) {
        if self.enabled {
            self.spans.push(Span {
                op,
                name: name.to_string(),
                start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_ms: dur.as_secs_f64() * 1e3,
            });
        }
    }

    /// Record the wall time of a whole op.
    pub fn op_wall(&mut self, op: u32, wall: Duration) {
        if self.enabled {
            self.ops.push((op, wall.as_secs_f64() * 1e3));
        }
    }

    /// Spans named exactly `name`: (count, total ms).
    pub fn span(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| (n + 1, t + s.dur_ms))
    }

    /// Spans whose name starts with `prefix`: (count, total ms).
    pub fn prefix(&self, prefix: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .fold((0, 0.0), |(n, t), s| (n + 1, t + s.dur_ms))
    }

    /// Mean ms of spans named `name` (0 when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (n, t) = self.span(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// Total ms per span name within timed ops, largest first.
    pub fn op_span_totals(&self) -> Vec<(String, f64)> {
        let mut by: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.spans {
            *by.entry(s.name.as_str()).or_default() += s.dur_ms;
        }
        let mut v: Vec<(String, f64)> = by.into_iter().map(|(k, t)| (k.to_string(), t)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Summed op wall time, ms.
    pub fn ops_wall_ms(&self) -> f64 {
        self.ops.iter().map(|&(_, w)| w).sum()
    }

    /// Share of op wall time that no span covers.
    pub fn unaccounted_frac(&self) -> f64 {
        let wall = self.ops_wall_ms();
        let covered: f64 = self.spans.iter().map(|s| s.dur_ms).sum();
        if wall > 0.0 {
            (wall - covered) / wall
        } else {
            0.0
        }
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":\"{}\",\"start_us\":{:.1},\"dur_ms\":{:.4}}}",
                s.op, s.name, s.start_us, s.dur_ms
            );
        }
        for &(op, wall) in &self.ops {
            let _ = writeln!(out, "{{\"op\":{op},\"span\":\"op\",\"dur_ms\":{wall:.4}}}");
        }
        std::fs::write(path, out)
    }
}

/// Total ms within timed ops per span group: the span name cut to its
/// first two parts (`core.solve.mm.cpu` → `core.solve`).
pub fn span_group_totals(l: &Ledger) -> BTreeMap<String, f64> {
    let mut by = BTreeMap::new();
    for (name, t) in l.op_span_totals() {
        let group: Vec<&str> = name.splitn(3, '.').take(2).collect();
        *by.entry(group.join(".")).or_default() += t;
    }
    by
}

/// The pool counters of the process-wide `sb_metrics::global()` registry
/// (the rayon shim's pool and the sb-par scratch arena).
#[derive(Debug, Clone, Copy)]
pub struct PoolSnap {
    at: Instant,
    threads: u64,
    idle_us: u64,
    caller_wait_us: u64,
    steals: u64,
    jobs: u64,
    reuses: u64,
    fresh: u64,
}

impl PoolSnap {
    pub fn take() -> PoolSnap {
        let s = sb_metrics::global().snapshot();
        let c = |name: &str| s.scalar_or_zero(name);
        PoolSnap {
            at: Instant::now(),
            threads: c("sb_pool_threads_started"),
            idle_us: c("sb_pool_worker_idle_us"),
            caller_wait_us: c("sb_pool_caller_wait_us"),
            steals: c("sb_pool_steals"),
            jobs: c("sb_pool_jobs_published"),
            reuses: c("sb_par_scratch_reuses"),
            fresh: c("sb_par_scratch_fresh_allocs"),
        }
    }

    /// The `pool.*` metrics over the interval since `self`, with the
    /// caller wait spread over `ops` operations.
    pub fn since(&self, ops: usize) -> Vec<(&'static str, f64)> {
        let now = PoolSnap::take();
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let span_us = now.at.duration_since(self.at).as_secs_f64() * 1e6;
        let workers = now.threads.max(1) as f64;
        let reuses = d(now.reuses, self.reuses);
        let fresh = d(now.fresh, self.fresh);
        vec![
            (
                "pool.worker_idle_frac",
                stats::ratio(d(now.idle_us, self.idle_us), span_us * workers).min(1.0),
            ),
            (
                "pool.caller_wait_ms",
                stats::ratio(d(now.caller_wait_us, self.caller_wait_us) / 1e3, ops as f64),
            ),
            (
                "pool.steal_frac",
                stats::ratio(d(now.steals, self.steals), d(now.jobs, self.jobs)),
            ),
            (
                "pool.scratch_reuse_frac",
                stats::ratio(reuses, reuses + fresh),
            ),
        ]
    }
}

/// The benchmark's output directory inside its own tree (scratch inputs
/// and span dumps; ignored by git).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> Result<PathBuf, String> {
    Ok(out_dir()?.join(format!("spans-{workload}-{seed}.jsonl")))
}

/// The solver-side metrics shared by every workload: per-(problem, arch)
/// solve time, decomposition time, logical counters and modeled GPU ms.
pub fn solve_metrics<'a>(
    out: &mut Outcome,
    l: &Ledger,
    runs: impl Iterator<Item = (&'a str, Arch, &'a RunStats)>,
) {
    for p in ["mm", "color", "mis"] {
        for a in ["cpu", "gpu"] {
            out.set(
                &format!("core.solve_ms.{p}.{a}"),
                l.mean_ms(&format!("core.solve.{p}.{a}")),
            );
        }
    }
    out.set("decompose.rand_ms", l.mean_ms("decompose.rand"));
    out.set("decompose.degk_ms", l.mean_ms("decompose.degk"));
    let (mut n, mut rounds, mut edges, mut launches) = (0.0, 0.0, 0.0, 0.0);
    let mut gpu = [0.0f64; 3];
    for (problem, arch, st) in runs {
        n += 1.0;
        rounds += st.counters.rounds as f64;
        edges += st.counters.edges_scanned as f64;
        launches += st.counters.kernel_launches as f64;
        if arch == Arch::GpuSim {
            let i = ["mm", "color", "mis"]
                .iter()
                .position(|&p| p == problem)
                .unwrap_or(0);
            gpu[i] += st.modeled_gpu_ms();
        }
    }
    out.set("core.rounds", stats::ratio(rounds, n));
    out.set("core.edges_scanned", stats::ratio(edges, n));
    out.set("core.kernel_launches", stats::ratio(launches, n));
    out.set("core.gpu_model_ms.mm", gpu[0]);
    out.set("core.gpu_model_ms.color", gpu[1]);
    out.set("core.gpu_model_ms.mis", gpu[2]);
}

/// Print each span's share of op time, largest first.
pub fn report_layers(l: &Ledger) {
    let wall = l.ops_wall_ms();
    for (name, t) in l.op_span_totals() {
        println!(
            "span {name:<28} {t:>10.2} ms {:>6.2}%",
            100.0 * stats::ratio(t, wall)
        );
    }
    println!(
        "unaccounted {:.2}% of {wall:.1} ms op wall (target < 5%)",
        100.0 * l.unaccounted_frac()
    );
}

/// Report one layer prediction; returns 1 when it failed.
pub fn predict(what: &str, held: bool) -> f64 {
    println!(
        "prediction {what}: {}",
        if held { "held" } else { "FAILED" }
    );
    if held {
        0.0
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaccounted_is_op_wall_minus_spans() {
        let mut l = Ledger::new(true);
        let t = Instant::now();
        l.record(0, "graph.parse", t, Duration::from_millis(6));
        l.record(0, "core.verify", t, Duration::from_millis(3));
        l.op_wall(0, Duration::from_millis(10));
        assert!((l.unaccounted_frac() - 0.1).abs() < 1e-9);
        assert_eq!(l.span("graph.parse"), (1, 6.0));
        assert_eq!(l.op_span_totals()[0].0, "graph.parse");
        let off = Ledger::new(false);
        assert_eq!(off.unaccounted_frac(), 0.0);
    }
}
