//! `cold-solve`: a closed loop with one caller doing what `sbreak solve
//! <file> -o out` does, once per Table I cell — read and parse the text
//! edge list, decompose, solve, verify with `check_*`, render and write
//! the solution. No engine cache: every op starts from the file.

use crate::ledger::{
    out_dir, predict, report_layers, solve_metrics, span_group_totals, spans_path, Ledger, PoolSnap,
};
use crate::spec::spec;
use crate::stats::{self, percentile, Rng};
use crate::{Args, Outcome};
use sb_core::coloring::vertex_coloring_opts;
use sb_core::common::{FrontierMode, SolveOpts};
use sb_core::matching::maximal_matching_opts;
use sb_core::mis::maximal_independent_set_opts;
use sb_core::{Arch, RunStats};
use sb_datasets::suite::{generate, GraphId, Scale};
use sb_engine::jobs::parse_solver;
use sb_engine::{Solution, Solver};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One Table I cell: a graph file and a solver configuration.
struct Cell {
    label: String,
    path: PathBuf,
    bytes: u64,
    problem: &'static str,
    solver: Solver,
    arch: Arch,
    decompose: Option<&'static str>,
}

/// What one op produced, for the checks and the ledger.
struct Done {
    wall: Duration,
    digest: u64,
    stats: RunStats,
}

fn graph_id(name: &str) -> Result<GraphId, String> {
    GraphId::ALL
        .into_iter()
        .find(|&id| sb_datasets::suite::spec(id).name == name)
        .ok_or_else(|| format!("unknown graph '{name}'"))
}

pub fn parse_arch(s: &str) -> Result<Arch, String> {
    match s {
        "cpu" => Ok(Arch::Cpu),
        "gpu" => Ok(Arch::GpuSim),
        other => Err(format!("unknown arch '{other}'")),
    }
}

/// `rand:10` → `decompose.rand`; baselines have none.
pub fn decompose_span(algo: &str) -> Option<&'static str> {
    match algo.split(':').next() {
        Some("rand") => Some("decompose.rand"),
        Some("degk") => Some("decompose.degk"),
        _ => None,
    }
}

/// The run's scratch directory for its input files.
fn work_dir() -> Result<PathBuf, String> {
    let dir = out_dir()?.join(format!("cold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Generate the stand-ins and write them as text edge lists. Returns the
/// per-graph generation times.
fn set_up(seed: u64, dir: &std::path::Path) -> Result<Vec<(PathBuf, u64, Duration)>, String> {
    let w = &spec().cold;
    let mut files = Vec::new();
    for (i, name) in w.graphs.iter().enumerate() {
        let id = graph_id(name)?;
        let t = Instant::now();
        let g = generate(
            id,
            Scale::Factor(w.scale),
            Rng::derive(seed, 100 + i as u64),
        );
        let gen = t.elapsed();
        let path = dir.join(format!("{name}.edges"));
        let fh =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        sb_graph::io::write_edge_list(&g, fh)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        files.push((path, bytes, gen));
    }
    Ok(files)
}

fn cells(files: &[(PathBuf, u64, Duration)], seed: u64) -> Result<Vec<Cell>, String> {
    let s = spec();
    let mut cells = Vec::new();
    for (gi, (path, bytes, _)) in files.iter().enumerate() {
        for (problem, algo) in &s.problems {
            for arch in &s.archs {
                let problem = crate::check::Problem::parse(problem)?.name();
                cells.push(Cell {
                    label: format!("{}/{problem}-{algo}@{arch}", s.cold.graphs[gi]),
                    path: path.clone(),
                    bytes: *bytes,
                    problem,
                    solver: parse_solver(problem, algo)?,
                    arch: parse_arch(arch)?,
                    decompose: decompose_span(algo),
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut cells);
    Ok(cells)
}

fn solve(g: &sb_graph::csr::Graph, c: &Cell, seed: u64) -> (Solution, RunStats) {
    let opts = SolveOpts::with_mode(FrontierMode::Compact);
    match c.solver {
        Solver::Mm(a) => {
            let r = maximal_matching_opts(g, a, c.arch, seed, &opts);
            (Solution::Mate(r.mate), r.stats)
        }
        Solver::Color(a) => {
            let r = vertex_coloring_opts(g, a, c.arch, seed, &opts);
            (Solution::Color(r.color), r.stats)
        }
        Solver::Mis(a) => {
            let r = maximal_independent_set_opts(g, a, c.arch, seed, &opts);
            (Solution::Set(r.in_set), r.stats)
        }
    }
}

/// One op, exactly the `sbreak solve <file> -o out` sequence.
fn op(c: &Cell, seed: u64, out: &std::path::Path, l: &mut Ledger, id: u32) -> Result<Done, String> {
    let t0 = Instant::now();
    let g = l
        .time(id, "graph.parse", || sb_graph::io::read_path(&c.path))
        .map_err(|e| format!("{}: cannot read: {e}", c.label))?;
    let t1 = Instant::now();
    let (solution, stats) = solve(&g, c, seed);
    let call = t1.elapsed();
    // The decomposition runs inside the solve call; split it off with the
    // time the core reports for it.
    let dec = stats.decompose_time.min(call);
    if let Some(span) = c.decompose {
        l.record(id, span, t1, dec);
    }
    let solve_span = format!("core.solve.{}.{}", c.problem, c.arch);
    l.record(id, &solve_span, t1 + dec, call - dec);
    l.time(id, "core.verify", || solution.verify(&g))
        .map_err(|e| format!("{}: INVALID RESULT: {e}", c.label))?;
    let text = l.time(id, "cli.render", || solution.render());
    l.time(id, "cli.write", || std::fs::write(out, &text))
        .map_err(|e| format!("{}: write: {e}", c.label))?;
    let wall = t0.elapsed();
    l.op_wall(id, wall);
    Ok(Done {
        wall,
        digest: stats::digest(text.as_bytes()),
        stats,
    })
}

/// One pass over every cell; checks each digest against `expect`.
/// Coloring cells are exempt: the speculative colorers are
/// schedule-dependent above one thread (the determinism suite pins only
/// matching, MIS and JP coloring), so they are checked with
/// `check_coloring` alone.
fn pass(
    cells: &[Cell],
    seed: u64,
    out: &std::path::Path,
    l: &mut Ledger,
    expect: &mut Vec<u64>,
) -> Result<Vec<Done>, String> {
    let mut done = Vec::with_capacity(cells.len());
    for (i, c) in cells.iter().enumerate() {
        let d = op(c, seed, out, l, i as u32)?;
        let digest = if c.problem == "color" { 0 } else { d.digest };
        match expect.get(i) {
            Some(&want) if want != digest => {
                return Err(format!(
                    "{}: solution digest changed between passes",
                    c.label
                ))
            }
            Some(_) => {}
            None => expect.push(digest),
        }
        done.push(d);
    }
    Ok(done)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let s = spec();
    let dir = work_dir()?;
    let result = run_in(args, out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    println!(
        "cold-solve: nproc {}, 1 closed-loop caller, {} graphs at scale {}",
        crate::nproc(),
        s.cold.graphs.len(),
        s.cold.scale
    );
    Ok(())
}

fn run_in(args: &Args, out: &mut Outcome, dir: &std::path::Path) -> Result<(), String> {
    let s = spec();
    let reps = if args.trace { 1 } else { s.setup_reps };
    let mut setups = Vec::new();
    let mut files = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        files = set_up(args.seed, dir)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let cells = cells(&files, args.seed)?;
    let seed = Rng::derive(args.seed, 1);
    let sol = dir.join("solution.txt");
    let mut digests = Vec::new();
    if args.trace {
        let mut off = Ledger::new(false);
        let t = Instant::now();
        pass(&cells, seed, &sol, &mut off, &mut digests)?;
        let untraced = t.elapsed().as_secs_f64();
        let mut l = Ledger::new(true);
        let pool = PoolSnap::take();
        let t = Instant::now();
        let done = pass(&cells, seed, &sol, &mut l, &mut digests)?;
        let traced = t.elapsed().as_secs_f64();
        for (name, v) in pool.since(cells.len()) {
            out.set(name, v);
        }
        out.attempted = 2 * cells.len() as u64;
        out.set("bench.trace_overhead_frac", (traced - untraced) / untraced);
        ledger_metrics(out, &l, &cells, &done, &files);
        l.write_jsonl(&spans_path("cold-solve", args.seed)?)
            .map_err(|e| format!("write trace: {e}"))?;
        return Ok(());
    }
    let mut l = Ledger::new(false);
    let mut walls = Vec::new();
    let mut passes = 0;
    let mut gpu_model_ms = 0.0;
    let budget = Duration::from_secs_f64(args.seconds);
    let cpu_before = crate::cpu_ms("self")?;
    let steal_before = crate::cpu_steal();
    let t = Instant::now();
    while passes < s.cold.min_passes || t.elapsed() < budget {
        let done = pass(&cells, seed, &sol, &mut l, &mut digests)?;
        if passes == 0 {
            gpu_model_ms = cells
                .iter()
                .zip(&done)
                .filter(|(c, _)| c.arch == Arch::GpuSim)
                .map(|(_, d)| d.stats.modeled_gpu_ms())
                .sum();
        }
        walls.extend(done.iter().map(|d| stats::ms(d.wall)));
        passes += 1;
    }
    let cpu_per_op = (crate::cpu_ms("self")? - cpu_before) / walls.len() as f64;
    println!("cpu_ms_per_op {cpu_per_op:.4} ms (process CPU over the passes)");
    // The share of the passes' CPU time the hypervisor gave other guests.
    // Over ten seeds, op-time throughput spread 0.17 as this ranged over
    // 0.3-9.5%; with stolen time taken out it spread half as much.
    let stolen = match (steal_before, crate::cpu_steal()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    };
    let busy_s: f64 = walls.iter().sum::<f64>() / 1e3 * (1.0 - stolen);
    let p50 = percentile(&walls, 0.5).ok_or("too few ops for a median")?;
    let p90 = percentile(&walls, 0.9).ok_or("too few ops for a p90 (need 100)")?;
    let throughput = walls.len() as f64 / busy_s;
    out.attempted = walls.len() as u64;
    out.set("setup_s", stats::median(&setups));
    out.set("throughput_ops_s", throughput);
    out.set("cpu_ms_per_op", cpu_per_op);
    out.set("peak_rss_mb", crate::peak_rss_mb("self")?);
    out.set("gpu_model_ms", gpu_model_ms);
    println!(
        "passes {passes} x {} cells, mm and mis digests identical across passes",
        cells.len()
    );
    println!(
        "setup_s {:.4} s (median of {})",
        stats::median(&setups),
        setups.len()
    );
    println!(
        "throughput_ops_s {throughput:.3} 1/s (op time less the {:.1}% stolen; {:.3} 1/s over all op time)",
        100.0 * stolen,
        throughput * (1.0 - stolen)
    );
    println!("latency_p50_ms {:.3} ms (n={})", p50.value, p50.samples);
    println!("latency_p90_ms {:.3} ms (n={})", p90.value, p90.samples);
    println!("latency_p99_ms not reported: it would need 1000 samples");
    println!("capacity_rps {throughput:.3} 1/s: a closed loop sustains its throughput");
    println!("error_frac 0 (0 of {} ops failed)", walls.len());
    println!("gpu_model_ms {gpu_model_ms:.3} ms (24 gpu cells, modeled K40c)");
    Ok(())
}

fn ledger_metrics(
    out: &mut Outcome,
    l: &Ledger,
    cells: &[Cell],
    done: &[Done],
    files: &[(PathBuf, u64, Duration)],
) {
    let gens: Vec<f64> = files.iter().map(|f| stats::ms(f.2)).collect();
    out.set("datasets.generate_ms", stats::mean(&gens));
    let (parses, parse_ms) = l.span("graph.parse");
    let bytes: u64 = cells.iter().map(|c| c.bytes).sum();
    out.set("graph.parse_ms", l.mean_ms("graph.parse"));
    out.set(
        "graph.parse_mb_s",
        stats::ratio(bytes as f64 / 1e6, parse_ms / 1e3),
    );
    out.set("graph.parse_frac", stats::ratio(parse_ms, l.ops_wall_ms()));
    out.set("graph.parse_calls", parses as f64);
    solve_metrics(
        out,
        l,
        cells
            .iter()
            .zip(done)
            .map(|(c, d)| (c.problem, c.arch, &d.stats)),
    );
    out.set("core.verify_ms", l.mean_ms("core.verify"));
    out.set("cli.render_ms", l.mean_ms("cli.render"));
    out.set("cli.write_ms", l.mean_ms("cli.write"));
    out.set("bench.unaccounted_frac", l.unaccounted_frac());
    out.set("bench.latency_samples", done.len() as f64);
    let groups = span_group_totals(l);
    let biggest = groups
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, _)| k.clone())
        .unwrap_or_default();
    let failed = predict(
        "graph.parse_ms is the largest layer on cold-solve",
        biggest == "graph.parse",
    ) + predict(
        "no repair or apply_edits calls on cold-solve",
        l.prefix("core.repair").0 == 0 && l.span("engine.apply_edits").0 == 0,
    );
    out.set("bench.predictions_failed", failed);
    report_layers(l);
}
