//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-solve|serve-solve|serve-mutate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures one workload, checks
//! every output it samples, prints a human-readable report and, as its
//! last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end set; with
//! `--trace 1` a separate traced run reports the per-layer ledger. Any
//! failed output check exits nonzero without a result.
//!
//! Workload settings (rates, saturation window, hold-out seed, the
//! layer-to-metric map) are frozen in `spec.json`, compiled in here.

mod check;
mod cold;
mod ledger;
mod serve;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("gpu_model_ms", "ms"),
];

/// Per-layer metrics of the traced run.
pub const LAYERS: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("graph.parse_ms", "ms"),
    ("graph.parse_mb_s", "MB/s"),
    ("graph.parse_frac", "frac"),
    ("graph.parse_calls", "count"),
    ("decompose.rand_ms", "ms"),
    ("decompose.degk_ms", "ms"),
    ("core.solve_ms.mm.cpu", "ms"),
    ("core.solve_ms.mm.gpu", "ms"),
    ("core.solve_ms.color.cpu", "ms"),
    ("core.solve_ms.color.gpu", "ms"),
    ("core.solve_ms.mis.cpu", "ms"),
    ("core.solve_ms.mis.gpu", "ms"),
    ("core.rounds", "count"),
    ("core.edges_scanned", "count"),
    ("core.kernel_launches", "count"),
    ("core.gpu_model_ms.mm", "ms"),
    ("core.gpu_model_ms.color", "ms"),
    ("core.gpu_model_ms.mis", "ms"),
    ("core.verify_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("core.repair_ms.1", "ms"),
    ("core.repair_ms.10", "ms"),
    ("core.repair_ms.100", "ms"),
    ("core.repair_edges_scanned", "count"),
    ("core.repaired_frac", "frac"),
    ("engine.apply_edits_ms", "ms"),
    ("engine.fingerprint_edits_ms", "ms"),
    ("engine.decomps_patched", "count"),
    ("engine.graph_hit_frac", "frac"),
    ("engine.decomp_hit_frac", "frac"),
    ("pool.worker_idle_frac", "frac"),
    ("pool.caller_wait_ms", "ms"),
    ("pool.steal_frac", "frac"),
    ("pool.scratch_reuse_frac", "frac"),
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.overloaded_frac", "frac"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.saturated_rps", "1/s"),
    ("serve.peak_rss_default_malloc_mb", "MB"),
    ("bench.late_ms_p99", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unaccounted_frac", "frac"),
    ("bench.latency_samples", "count"),
    ("bench.predictions_failed", "count"),
];

pub const WORKLOADS: &[&str] = &["cold-solve", "serve-solve", "serve-mutate"];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// CPU time (user + system, all threads) a process has used, in ms.
/// Time the hypervisor steals from the guest is not charged to it.
pub fn cpu_ms(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, in USER_HZ (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    match f[..] {
        [utime, stime] => Ok((utime + stime) * 10.0),
        _ => Err(format!("malformed /proc/{pid}/stat")),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"cpu\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"holdout_seed\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        sb_metrics::escape_json(&cpu),
        sb_metrics::escape_json(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
        commit,
        spec::spec().holdout_seed,
    )
}

/// Render the final result line, failing if the workload left a metric
/// of the reported set unmeasured.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let names = if trace { LAYERS } else { E2E };
    let mut body = Vec::new();
    for &(name, unit) in names {
        if !stats::valid_name(name) {
            return Err(format!("invalid metric name {name}"));
        }
        let v = *out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    ))
}

/// (steal, total) jiffies of all CPUs from `/proc/stat`: on a shared
/// virtual machine, time the hypervisor gave the host's other guests.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn run(args: &Args) -> Result<String, String> {
    println!("provenance {}", provenance(args));
    let steal_at_start = cpu_steal();
    let mut out = Outcome::default();
    if args.trace {
        for &(name, _) in LAYERS {
            out.set(name, 0.0);
        }
    }
    match args.workload.as_str() {
        "cold-solve" => cold::run(args, &mut out)?,
        "serve-solve" => serve::run_solve(args, &mut out)?,
        "serve-mutate" => serve::run_mutate(args, &mut out)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_at_start, cpu_steal()) {
        let frac = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("cpu steal during the run: {:.1}%", 100.0 * frac);
    }
    if out.failed > 0 {
        return Err(format!(
            "{} of {} ops failed (error_frac {:.4})",
            out.failed,
            out.attempted,
            out.failed as f64 / out.attempted.max(1) as f64
        ));
    }
    result_line(&out, args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        return match serve::daemon_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            let _ = std::io::stdout().flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in E2E.iter().chain(LAYERS) {
            assert!(stats::valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = sb_metrics::parse_json_value(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(E2E));
        assert_eq!(names("per_layer"), own(LAYERS));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload serve-solve --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse_args(&v("--workload nope --seed 1")).is_err());
        assert!(parse_args(&v("--workload cold-solve")).is_err());
        assert!(parse_args(&v("--workload cold-solve --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_ms("self").unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_ms("self").unwrap() > before);
        assert!(cpu_ms("0").is_err());
    }

    #[test]
    fn a_missing_metric_fails_the_result() {
        let mut out = Outcome::default();
        for &(name, _) in E2E.iter().skip(1) {
            out.set(name, 1.0);
        }
        assert!(result_line(&out, false).is_err());
        out.set("setup_s", 0.5);
        let line = result_line(&out, false).unwrap();
        assert!(line.starts_with("{\"correct\":true"));
    }
}
