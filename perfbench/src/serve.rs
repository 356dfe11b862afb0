//! The serve workloads: an open loop of JSONL requests against a serve
//! daemon in its own process.
//!
//! `serve-solve` sends read-only `solve` requests spread uniformly over
//! the Table I configs on generated stand-ins; one in four carries a
//! fresh seed, so its RAND decomposition misses the cache. `serve-mutate`
//! interleaves each tenant stream's `mutate` 1:1 with a `solve` on the
//! stream's base graph.
//!
//! Latency is timed from each request's due time at one nominal rate.
//! Capacity is the completion rate of a saturating phase that keeps a
//! fixed window of requests in flight: the queue never empties, and
//! the backlog cannot grow. The daemon's CPU per op is measured in that
//! phase too: at the nominal rate the host's cores sit idle most of the
//! time, and CPU time per op then moved by up to a quarter run to run
//! with how the host treated the idle cores.
//! The daemon is this binary re-run as `perfbench daemon`, which serves
//! through `sb_engine::serve::Server` with the same settings `sbreak
//! serve` uses. One client connection and two client threads (a sender
//! and a receiver) drive it.

use crate::check::{check_identical, check_rendered, Problem};
use crate::cold::{decompose_span, parse_arch};
use crate::ledger::{predict, report_layers, solve_metrics, spans_path, Ledger, PoolSnap};
use crate::spec::spec;
use crate::stats::{self, percentile, Rng, Schedule};
use crate::{Args, Outcome};
use sb_core::common::{FrontierMode, SolveOpts};
use sb_core::{repair, Arch, RunStats};
use sb_engine::fingerprint::{fingerprint_with_edits_from, DEFAULT_SEED};
use sb_engine::jobs::parse_solver;
use sb_engine::protocol::{MutateParams, Reply, SolveParams};
use sb_engine::serve::{Client, ServeConfig, Server};
use sb_engine::{Engine, EngineConfig, GraphSource, Solution, Solver};
use sb_graph::csr::Graph;
use sb_graph::editlog::EditLog;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long to wait for the replies still outstanding after the last send.
const DRAIN: Duration = Duration::from_secs(60);

/// `perfbench daemon --workers N`: serve until a client sends `shutdown`.
pub fn daemon_main(argv: &[String]) -> Result<(), String> {
    let workers = match argv {
        [flag, n] if flag == "--workers" => n.parse::<usize>().map_err(|e| e.to_string())?,
        _ => return Err("usage: perfbench daemon --workers N".into()),
    };
    let s = spec();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: s.serve.queue_cap,
        engine: EngineConfig {
            cache_cap: s.serve.cache_cap,
            ..EngineConfig::default()
        },
        rebase_log_edits: s.mutate.rebase_log_edits,
        ..ServeConfig::default()
    };
    let handle = Server::spawn(cfg).map_err(|e| format!("cannot start server: {e}"))?;
    println!("listening {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.join();
    Ok(())
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawn a daemon. `pin_malloc` fixes two glibc malloc settings that
    /// otherwise adapt at run time: the arena count (each job's worker
    /// thread may allocate from a fresh arena) and the mmap threshold
    /// (which rises after the first large free, so later large buffers
    /// stay in the heap). With both adaptive, the daemon's peak RSS on
    /// serve-mutate is bimodal, about 100 or 170 MB at one seed run to
    /// run; pinned, it tracks live memory. The untraced runs pin them so
    /// `peak_rss_mb` measures the program's own footprint; the traced run
    /// keeps the defaults and reports `serve.peak_rss_default_malloc_mb`.
    fn start(pin_malloc: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        if pin_malloc {
            cmd.env("MALLOC_ARENA_MAX", "2")
                .env("MALLOC_MMAP_THRESHOLD_", "131072");
        }
        let mut child = cmd
            .args(["daemon", "--workers", &crate::nproc().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not report its address: '{}'",
                    line.trim()
                ))
            }
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    fn cpu_ms(&self) -> Result<f64, String> {
        crate::cpu_ms(&self.child.id().to_string())
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Ask the daemon to drain and stop, and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        self.client()?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not stop within 30 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How a sampled reply's solution is checked.
#[derive(Clone)]
enum Check {
    None,
    /// Byte-for-byte against reference `i` (matching and MIS, whose output
    /// the program pins as independent of thread scheduling).
    Reference(usize),
    /// With `check_*` against the benchmark's own copy of the graph: a
    /// mutate stream's edited graph, or the base graph of a coloring
    /// (the speculative colorers are schedule-dependent above one thread).
    Graph(Problem, Arc<Graph>),
}

/// One request of an open-loop phase.
struct Op {
    line: String,
    /// An earlier op of the same phase whose reply must arrive first (the
    /// previous mutate of the same stream, so edits apply in order).
    after: Option<usize>,
    check: Check,
    /// Pair (serve-solve) or stream (serve-mutate) index.
    target: usize,
    seed: u64,
    /// The edit batch of a mutate.
    batch: Option<EditLog>,
}

impl Op {
    /// Whether the request asked for its solution (and is checked).
    fn sampled(&self) -> bool {
        !matches!(self.check, Check::None)
    }
}

/// The fields of one reply the benchmark uses.
#[derive(Clone, Default)]
struct Rec {
    recv: Duration,
    status: String,
    detail: String,
    queue_ms: f64,
    wall_ms: f64,
    graph_cached: bool,
    decomp_cached: Option<bool>,
    repaired: Option<bool>,
    patched: f64,
    solution: Option<String>,
}

impl Rec {
    fn from_reply(r: &Reply, recv: Duration) -> Rec {
        Rec {
            recv,
            status: r.status().to_string(),
            detail: r.str_field("detail").unwrap_or("").to_string(),
            queue_ms: r.num_field("queue_ms").unwrap_or(0.0),
            wall_ms: r.num_field("wall_ms").unwrap_or(0.0),
            graph_cached: r.bool_field("graph_cached").unwrap_or(false),
            decomp_cached: r.bool_field("decomp_cached"),
            repaired: r.bool_field("repaired"),
            patched: r.num_field("decomps_patched").unwrap_or(0.0),
            solution: None,
        }
    }
}

/// Cut the `solution` string out of a reply line: returns the line with
/// the value replaced by `null`, and the unescaped solution text. A
/// solution runs to hundreds of kilobytes, and the general JSON reader
/// takes hundreds of milliseconds on a string that long, which would
/// stall the receiver and be charged to every reply behind it. Solution
/// text is digits, spaces and newlines, so the escapes are few.
fn split_solution(line: &str) -> (String, Option<String>) {
    const KEY: &str = "\"solution\":\"";
    let Some(at) = line.find(KEY) else {
        return (line.to_string(), None);
    };
    let body = &line[at + KEY.len()..];
    let mut text = String::with_capacity(body.len());
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                let rest = format!("{}\"solution\":null{}", &line[..at], &body[i + 1..]);
                return (rest, Some(text));
            }
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('n') => text.push('\n'),
                Some('t') => text.push('\t'),
                Some(e) => text.push(e),
                None => break,
            },
            c => text.push(c),
        }
    }
    (line.to_string(), None)
}

/// One open-loop phase at a fixed rate.
struct Phase {
    sched: Schedule,
    sent: Vec<Option<Duration>>,
    recs: Vec<Option<Rec>>,
    /// The daemon's CPU ms after every `CpuProbe::every` replies, starting
    /// with one sample before the first send.
    cpu: Vec<f64>,
}

/// Samples a daemon's CPU time as its replies arrive.
struct CpuProbe {
    pid: String,
    every: usize,
}

impl Phase {
    /// Latency (ms from due time) of every answered `ok` request.
    fn latencies(&self) -> Vec<f64> {
        self.recs
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.as_ref().filter(|r| r.status == "ok").map(|r| (k, r)))
            .map(|(k, r)| stats::ms(self.sched.latency(k, r.recv)))
            .collect()
    }

    fn lateness_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.map(|s| stats::ms(self.sched.lateness(k, s))))
            .collect()
    }

    fn count_status(&self, status: &str) -> usize {
        self.recs
            .iter()
            .flatten()
            .filter(|r| r.status == status)
            .count()
    }

    /// Offset from the phase start to the last reply.
    fn span(&self) -> Duration {
        self.recs
            .iter()
            .flatten()
            .map(|r| r.recv)
            .max()
            .unwrap_or_default()
    }
}

/// How a phase paces its sends.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: request `k` is due at `k / rate` seconds.
    Rate(f64),
    /// Saturation: send whenever fewer than this many are in flight.
    Window(usize),
}

/// Poll `ready` until it holds, or fail after [`DRAIN`].
fn wait_for(ready: impl Fn() -> bool, what: impl Fn() -> String) -> Result<(), String> {
    let t = Instant::now();
    while !ready() {
        if t.elapsed() > DRAIN {
            return Err(format!("no {} within {DRAIN:?}", what()));
        }
        thread::sleep(Duration::from_micros(50));
    }
    Ok(())
}

/// Run `ops` over one connection: the calling thread sends, paced by
/// `pace`, and a second thread receives (and samples `probe`).
fn run_phase(
    addr: SocketAddr,
    ops: &[Op],
    pace: Pace,
    probe: Option<&CpuProbe>,
) -> Result<Phase, String> {
    let n = ops.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let rx_stream = stream.try_clone().map_err(|e| e.to_string())?;
    rx_stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let sched = Schedule {
        rate_per_s: match pace {
            Pace::Rate(r) => r,
            Pace::Window(_) => f64::INFINITY,
        },
    };
    let recs: Mutex<Vec<Option<Rec>>> = Mutex::new(vec![None; n]);
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let received = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut sent = vec![None; n];
    let first = match probe {
        Some(p) => vec![crate::cpu_ms(&p.pid)?],
        None => Vec::new(),
    };
    let start = Instant::now();
    let rx_result = thread::scope(|sc| {
        let rx = sc.spawn(|| -> Result<Vec<f64>, String> {
            let mut cpu = first;
            let mut reader = BufReader::new(rx_stream);
            let mut line = String::new();
            loop {
                match reader.read_line(&mut line) {
                    Ok(0) => return Ok(cpu),
                    Ok(_) => {
                        let recv = start.elapsed();
                        let (rest, solution) = split_solution(line.trim());
                        let reply = Reply::parse(&rest)?;
                        let k: usize = reply
                            .id()
                            .parse()
                            .map_err(|_| format!("reply without a request id: {}", line.trim()))?;
                        if k >= n {
                            return Err(format!("reply for unknown request {k}"));
                        }
                        let mut rec = Rec::from_reply(&reply, recv);
                        rec.solution = solution;
                        recs.lock().expect("receiver is the only writer")[k] = Some(rec);
                        done[k].store(true, Ordering::Release);
                        let got = received.fetch_add(1, Ordering::AcqRel) + 1;
                        if let Some(p) = probe.filter(|p| got.is_multiple_of(p.every)) {
                            cpu.push(crate::cpu_ms(&p.pid)?);
                        }
                        line.clear();
                    }
                    // A timed-out read keeps any partial line in `line`.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if stop.load(Ordering::Acquire) {
                            return Ok(cpu);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        });
        let mut send = || -> Result<(), String> {
            let mut w = &stream;
            let mut count = 0;
            for (k, op) in ops.iter().enumerate() {
                if let Some(a) = op.after {
                    wait_for(|| done[a].load(Ordering::Acquire), || format!("reply {a}"))?;
                }
                match pace {
                    Pace::Rate(_) => {
                        let due = start + sched.due(k);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                    }
                    Pace::Window(window) => wait_for(
                        || count - received.load(Ordering::Acquire) < window,
                        || format!("a free slot in the window of {window}"),
                    )?,
                }
                // Stamped before the write: the daemon cannot start on a
                // request before it is written, so the round trip always
                // covers the reply's queue and execution time.
                sent[k] = Some(start.elapsed());
                w.write_all(op.line.as_bytes())
                    .map_err(|e| format!("write: {e}"))?;
                count += 1;
            }
            let t = Instant::now();
            while received.load(Ordering::Acquire) < count && t.elapsed() < DRAIN {
                thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        };
        let sent_ok = send();
        stop.store(true, Ordering::Release);
        let rx_ok = rx
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        sent_ok.and(rx_ok)
    });
    Ok(Phase {
        sched,
        sent,
        recs: recs.into_inner().expect("receiver joined"),
        cpu: rx_result?,
    })
}

/// Check one sampled solution.
fn apply_check(what: &str, check: &Check, text: &str, refs: &References) -> Result<(), String> {
    match check {
        Check::None => Ok(()),
        Check::Reference(i) => check_identical(what, text, &refs.text[*i]),
        Check::Graph(problem, g) => {
            check_rendered(*problem, g, text).map_err(|e| format!("{what}: {e}"))
        }
    }
}

/// Check every sampled solution of a phase; returns the failures.
fn check_phase(phase: &Phase, ops: &[Op], refs: &References) -> Vec<String> {
    let mut failures = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let Some(rec) = &phase.recs[k] else {
            if phase.sent[k].is_some() {
                failures.push(format!("request {k}: no reply"));
            }
            continue;
        };
        if rec.status != "ok" {
            failures.push(format!("request {k}: {} ({})", rec.status, rec.detail));
            continue;
        }
        let res = match (&op.check, rec.solution.as_deref()) {
            (Check::None, _) => Ok(()),
            (_, None) => Err(format!("request {k}: sampled reply carries no solution")),
            (check, Some(text)) => apply_check(&format!("request {k}"), check, text, refs),
        };
        if let Err(e) = res {
            failures.push(e);
        }
    }
    failures
}

/// One graph × solver configuration a request can name.
struct Target {
    graph: String,
    graph_seed: u64,
    scale: f64,
    problem: Problem,
    algo: String,
    arch: String,
    solver: Solver,
    arch_v: Arch,
    tenant: String,
}

impl Target {
    fn params(&self, id: usize, seed: u64, want: bool) -> SolveParams {
        let mut p = SolveParams::new(
            &format!("gen:{}", self.graph),
            self.problem.name(),
            &self.algo,
        );
        p.id = id.to_string();
        p.tenant = self.tenant.clone();
        p.scale = self.scale;
        p.graph_seed = Some(self.graph_seed);
        p.arch = self.arch.clone();
        p.seed = seed;
        p.want_solution = want;
        p
    }

    fn source(&self) -> Result<GraphSource, String> {
        GraphSource::parse(&format!("gen:{}", self.graph), self.scale, self.graph_seed)
    }
}

fn target(
    graph: &str,
    graph_seed: u64,
    scale: f64,
    problem: &str,
    algo: &str,
    arch: &str,
    tenant: String,
) -> Result<Target, String> {
    Ok(Target {
        graph: graph.to_string(),
        graph_seed,
        scale,
        problem: Problem::parse(problem)?,
        algo: algo.to_string(),
        arch: arch.to_string(),
        solver: parse_solver(problem, algo)?,
        arch_v: parse_arch(arch)?,
        tenant,
    })
}

/// Reference solutions through a cache-less engine, plus the per-graph
/// generation times and each target's modeled GPU ms.
struct References {
    text: Vec<String>,
    /// How a sampled solve of each target is checked.
    checks: Vec<Check>,
    gen_ms: Vec<f64>,
    gpu_model_ms: f64,
    graphs: HashMap<String, Arc<Graph>>,
}

fn references(targets: &[Target], seed: u64) -> Result<References, String> {
    let mut engine = Engine::with_cap(0);
    let mut graphs: HashMap<String, Arc<Graph>> = HashMap::new();
    let mut gen_ms = Vec::new();
    let mut text = Vec::new();
    let mut checks = Vec::new();
    let mut gpu_model_ms = 0.0;
    let opts = SolveOpts::with_mode(FrontierMode::Compact);
    for t in targets {
        let src = t.source()?;
        let g = match graphs.get(&src.key()) {
            Some(g) => g.clone(),
            None => {
                let at = Instant::now();
                let (g, _, _) = engine.graph(&src)?;
                gen_ms.push(stats::ms(at.elapsed()));
                graphs.insert(src.key(), g.clone());
                g
            }
        };
        let o = engine.solve_on(&g, t.solver, t.arch_v, seed, &opts);
        o.solution
            .verify(&g)
            .map_err(|e| format!("reference INVALID: {e}"))?;
        if t.arch_v == Arch::GpuSim {
            gpu_model_ms += o.stats.modeled_gpu_ms();
        }
        checks.push(match t.problem {
            Problem::Color => Check::Graph(Problem::Color, g.clone()),
            _ => Check::Reference(text.len()),
        });
        text.push(o.solution.render());
    }
    Ok(References {
        text,
        checks,
        gen_ms,
        gpu_model_ms,
        graphs,
    })
}

/// Send `requests` one at a time and require `ok` replies.
fn warm(d: &Daemon, requests: &[String]) -> Result<(), String> {
    let mut c = d.client()?;
    for line in requests {
        let r = c.request(line)?;
        if r.status() != "ok" {
            return Err(format!(
                "warm-up request failed: {} {}",
                r.status(),
                r.str_field("detail").unwrap_or("")
            ));
        }
    }
    Ok(())
}

/// Set up `reps` times — generate the inputs and their references,
/// spawn a daemon and warm it — and keep the last set-up.
fn set_up(
    args: &Args,
    targets: &[Target],
    base_seed: u64,
    requests: &[String],
) -> Result<(Daemon, References, Vec<f64>), String> {
    let reps = if args.trace { 1 } else { spec().setup_reps };
    let mut times = Vec::new();
    let mut last: Option<(Daemon, References)> = None;
    for _ in 0..reps {
        if let Some((d, _)) = last.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let refs = references(targets, base_seed)?;
        let d = Daemon::start(!args.trace)?;
        warm(&d, requests)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((d, refs));
    }
    let (d, refs) = last.expect("at least one set-up");
    Ok((d, refs, times))
}

/// Builds the ops of successive phases of one workload.
trait OpGen {
    fn next(&mut self, n: usize) -> Vec<Op>;
}

/// Capacity: the `ok` completion rate of a saturating phase that keeps
/// `window_per_core × nproc` requests in flight. Every sampled reply is
/// checked like the nominal phase's. Returns the rate and the daemon's
/// CPU ms per op, each the median over equal slices of the reply stream.
fn capacity(d: &Daemon, gen: &mut dyn OpGen, refs: &References) -> Result<(f64, f64), String> {
    let s = &spec().serve;
    let window = s.window_per_core * crate::nproc();
    let ops = gen.next(s.saturation_ops);
    let probe = CpuProbe {
        pid: d.child.id().to_string(),
        every: ops.len() / s.saturation_slices,
    };
    let phase = run_phase(d.addr, &ops, Pace::Window(window), Some(&probe))?;
    if let Some(f) = check_phase(&phase, &ops, refs).first() {
        return Err(format!("saturation phase: {f}"));
    }
    // The median over equal slices of the reply stream, so a stall of the
    // shared host in one slice does not move the figure.
    let mut recv: Vec<f64> = phase
        .recs
        .iter()
        .flatten()
        .map(|r| r.recv.as_secs_f64())
        .collect();
    recv.sort_by(f64::total_cmp);
    let slice = recv.len() / s.saturation_slices;
    let rates: Vec<f64> = (0..s.saturation_slices)
        .map(|i| {
            let from = if i == 0 { 0.0 } else { recv[i * slice - 1] };
            slice as f64 / (recv[(i + 1) * slice - 1] - from)
        })
        .collect();
    let rate = stats::median(&rates);
    println!(
        "capacity_rps {rate:.3} 1/s = serve.saturated_rps (median of {} slices of {slice} replies, {window} in flight)",
        rates.len()
    );
    let cpu: Vec<f64> = phase
        .cpu
        .windows(2)
        .map(|w| (w[1] - w[0]) / probe.every as f64)
        .collect();
    if cpu.len() < s.saturation_slices {
        return Err(format!("{} CPU samples in the saturation phase", cpu.len()));
    }
    Ok((rate, stats::median(&cpu)))
}

/// The reply-derived serve metrics of a phase.
fn reply_metrics(out: &mut Outcome, phase: &Phase, ops: &[Op]) {
    let mut queue = Vec::new();
    let mut exec = Vec::new();
    let mut wire = Vec::new();
    let (mut g_hit, mut g_n, mut d_hit, mut d_n) = (0.0, 0.0, 0.0, 0.0);
    let (mut repaired, mut mutates, mut patched) = (0.0, 0.0, 0.0);
    for (k, rec) in phase.recs.iter().enumerate() {
        let (Some(r), Some(sent)) = (rec, phase.sent[k]) else {
            continue;
        };
        queue.push(r.queue_ms);
        exec.push(r.wall_ms);
        wire.push(stats::ms(r.recv.saturating_sub(sent)) - r.wall_ms - r.queue_ms);
        if ops[k].batch.is_some() {
            mutates += 1.0;
            repaired += f64::from(u8::from(r.repaired == Some(true)));
            patched += r.patched;
        } else {
            g_n += 1.0;
            g_hit += f64::from(u8::from(r.graph_cached));
            if let Some(hit) = r.decomp_cached {
                d_n += 1.0;
                d_hit += f64::from(u8::from(hit));
            }
        }
    }
    out.set("serve.queue_ms", stats::mean(&queue));
    out.set("serve.exec_ms", stats::mean(&exec));
    out.set("serve.wire_ms", stats::mean(&wire));
    out.set(
        "serve.overloaded_frac",
        stats::ratio(phase.count_status("overloaded") as f64, ops.len() as f64),
    );
    out.set("engine.graph_hit_frac", stats::ratio(g_hit, g_n));
    out.set("engine.decomp_hit_frac", stats::ratio(d_hit, d_n));
    out.set("core.repaired_frac", stats::ratio(repaired, mutates));
    out.set("engine.decomps_patched", stats::ratio(patched, mutates));
    if let Some(p) = percentile(&phase.lateness_ms(), 0.99) {
        out.set("bench.late_ms_p99", p.value);
    }
    out.set("bench.latency_samples", phase.latencies().len() as f64);
}

/// Run the measured (untraced) phases and fill the end-to-end metrics.
fn measure(
    args: &Args,
    out: &mut Outcome,
    d: &Daemon,
    gen: &mut dyn OpGen,
    refs: &References,
    setups: &[f64],
    nominal_rps: f64,
) -> Result<(Phase, Vec<Op>), String> {
    let s = &spec().serve;
    let n = s.min_nominal_ops.max((nominal_rps * args.seconds) as usize) / 2 * 2;
    let ops = gen.next(n);
    let cpu_before = d.cpu_ms()?;
    let phase = run_phase(d.addr, &ops, Pace::Rate(nominal_rps), None)?;
    let nominal_cpu = (d.cpu_ms()? - cpu_before) / ops.len() as f64;
    let (saturated_rps, cpu_per_op) = capacity(d, gen, refs)?;
    out.attempted = ops.len() as u64;
    let failures = check_phase(&phase, &ops, refs);
    for f in failures.iter().take(5) {
        eprintln!("perfbench: {f}");
    }
    out.failed = failures.len() as u64;
    let lat = phase.latencies();
    let late = phase.lateness_ms();
    if !args.trace {
        let p50 = percentile(&lat, 0.5).ok_or("too few replies for a median")?;
        let p99 = percentile(&lat, 0.99).ok_or("too few replies for a p99 (need 1000)")?;
        let p90 = percentile(&lat, 0.9).ok_or("too few replies for a p90")?;
        let throughput = phase.count_status("ok") as f64 / phase.span().as_secs_f64();
        out.set("setup_s", stats::median(setups));
        out.set("throughput_ops_s", throughput);
        out.set("cpu_ms_per_op", cpu_per_op);
        out.set("peak_rss_mb", d.peak_rss_mb()?);
        out.set("gpu_model_ms", refs.gpu_model_ms);
        println!(
            "setup_s {:.4} s (median of {})",
            stats::median(setups),
            setups.len()
        );
        println!("throughput_ops_s {throughput:.3} 1/s at nominal {nominal_rps} 1/s");
        println!("latency_p50_ms {:.3} ms (n={})", p50.value, p50.samples);
        println!("latency_p90_ms {:.3} ms (n={})", p90.value, p90.samples);
        println!("latency_p99_ms {:.3} ms (n={})", p99.value, p99.samples);
        println!(
            "cpu_ms_per_op {cpu_per_op:.4} ms (daemon CPU, median over the saturation slices; {nominal_cpu:.4} over the nominal phase)"
        );
        println!(
            "error_frac {:.4} ({} of {} ops failed, refused or timed out)",
            stats::ratio(out.failed as f64, out.attempted as f64),
            out.failed,
            out.attempted
        );
        println!("peak_rss_mb {:.2} MB (daemon VmHWM, both phases)", d.peak_rss_mb()?);
        println!(
            "gpu_model_ms {:.3} ms (modeled K40c, gpu configs)",
            refs.gpu_model_ms
        );
    }
    if let Some(p) = percentile(&late, 0.99) {
        println!("bench.late_ms_p99 {:.3} ms (n={})", p.value, p.samples);
    }
    for (name, q) in [
        ("serve.latency_p50_ms", 0.5),
        ("serve.latency_p99_ms", 0.99),
    ] {
        if let Some(p) = percentile(&lat, q) {
            out.set(name, p.value);
        }
    }
    if args.trace {
        out.set("serve.peak_rss_default_malloc_mb", d.peak_rss_mb()?);
    }
    out.set("serve.saturated_rps", saturated_rps);
    Ok((phase, ops))
}

// ---------------------------------------------------------------- serve-solve

struct SolveGen {
    rng: Rng,
    targets: Arc<Vec<Target>>,
    base_seed: u64,
    fresh_every: usize,
    want_every: usize,
    sampled: usize,
    checks: Vec<Check>,
}

impl OpGen for SolveGen {
    fn next(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|k| {
                let target = self.rng.below(self.targets.len());
                let fresh = self.rng.below(self.fresh_every) == 0;
                let seed = if fresh {
                    self.rng.next_u64() >> 16
                } else {
                    self.base_seed
                };
                let want = !fresh && {
                    self.sampled += 1;
                    self.sampled.is_multiple_of(self.want_every)
                };
                Op {
                    line: self.targets[target].params(k, seed, want).to_json() + "\n",
                    after: None,
                    check: if want {
                        self.checks[target].clone()
                    } else {
                        Check::None
                    },
                    target,
                    seed,
                    batch: None,
                }
            })
            .collect()
    }
}

fn solve_targets(seed: u64) -> Result<Vec<Target>, String> {
    let s = spec();
    let w = &s.solve;
    let mut targets = Vec::new();
    let instances = w
        .graphs
        .iter()
        .flat_map(|g| (0..w.instances.max(1)).map(move |i| (g, i)));
    for (gi, (graph, _)) in instances.enumerate() {
        for (problem, algo) in &s.problems {
            for arch in &s.archs {
                targets.push(target(
                    graph,
                    Rng::derive(seed, 200 + gi as u64),
                    w.scale,
                    problem,
                    algo,
                    arch,
                    "bench".into(),
                )?);
            }
        }
    }
    Ok(targets)
}

pub fn run_solve(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let s = spec();
    let w = &s.solve;
    let targets = Arc::new(solve_targets(args.seed)?);
    let base_seed = Rng::derive(args.seed, 2);
    let warmups: Vec<String> = targets
        .iter()
        .map(|t| t.params(0, base_seed, false).to_json())
        .collect();
    let (d, refs, setups) = set_up(args, &targets, base_seed, &warmups)?;
    let mut gen = SolveGen {
        rng: Rng::new(Rng::derive(args.seed, 3)),
        targets: targets.clone(),
        base_seed,
        fresh_every: w.fresh_seed_every.max(1),
        want_every: w.want_solution_every.max(1),
        sampled: 0,
        checks: refs.checks.clone(),
    };
    let phase = measure(args, out, &d, &mut gen, &refs, &setups, w.nominal_rps);
    let stopped = d.stop();
    let (phase, ops) = phase?;
    stopped?;
    if args.trace {
        reply_metrics(out, &phase, &ops);
        out.set("datasets.generate_ms", stats::mean(&refs.gen_ms));
        replay(args, out, &targets, &ops, &refs, base_seed, "serve-solve")?;
    }
    println!(
        "serve-solve: nproc {n}, daemon workers {n}, open loop, 1 connection, {} targets at scale {}",
        targets.len(),
        w.scale,
        n = crate::nproc()
    );
    Ok(())
}

// --------------------------------------------------------------- serve-mutate

/// The benchmark's own copy of one stream's graph, for drawing edits and
/// checking repaired solutions independently of the program's edit log.
struct StreamCopy {
    n: usize,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    mutates: usize,
    edits: usize,
}

impl StreamCopy {
    fn new(g: &Graph) -> StreamCopy {
        let edges: Vec<(u32, u32)> = g
            .edge_list()
            .iter()
            .map(|&[u, v]| (u.min(v), u.max(v)))
            .collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        StreamCopy {
            n: g.num_vertices(),
            edges,
            index,
            mutates: 0,
            edits: 0,
        }
    }

    /// Draw `size` edits: each removes a present edge or adds an absent
    /// one, with equal odds.
    fn batch(&mut self, rng: &mut Rng, size: usize) -> EditLog {
        let mut log = EditLog::new();
        for _ in 0..size {
            if rng.below(2) == 0 && !self.edges.is_empty() {
                let i = rng.below(self.edges.len());
                let e = self.edges.swap_remove(i);
                self.index.remove(&e);
                if let Some(&moved) = self.edges.get(i) {
                    self.index.insert(moved, i);
                }
                log.remove_edge(e.0, e.1);
            } else {
                let e = loop {
                    let (u, v) = (rng.below(self.n) as u32, rng.below(self.n) as u32);
                    let e = (u.min(v), u.max(v));
                    if u != v && !self.index.contains_key(&e) {
                        break e;
                    }
                };
                self.index.insert(e, self.edges.len());
                self.edges.push(e);
                log.add_edge(e.0, e.1);
            }
        }
        self.mutates += 1;
        self.edits += size;
        log
    }

    fn graph(&self) -> Graph {
        sb_graph::builder::from_edge_list(self.n, &self.edges)
    }
}

struct MutateGen {
    rng: Rng,
    streams: Vec<StreamCopy>,
    targets: Arc<Vec<Target>>,
    base_seed: u64,
    cycle: Vec<usize>,
    want_every: usize,
    pairs: usize,
    solve_checks: Vec<Check>,
}

impl OpGen for MutateGen {
    fn next(&mut self, n: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        let mut last: Vec<Option<usize>> = vec![None; self.streams.len()];
        while ops.len() < n {
            let s = self.pairs % self.streams.len();
            self.pairs += 1;
            let t = &self.targets[s];
            let st = &mut self.streams[s];
            let size = self.cycle[st.mutates % self.cycle.len()];
            let batch = st.batch(&mut self.rng, size);
            let want = self.pairs.is_multiple_of(self.want_every);
            let k = ops.len();
            let m = MutateParams {
                solve: t.params(k, self.base_seed, want),
                edits: batch.wire(),
            };
            ops.push(Op {
                line: m.to_json() + "\n",
                after: last[s],
                check: if want {
                    Check::Graph(t.problem, Arc::new(st.graph()))
                } else {
                    Check::None
                },
                target: s,
                seed: self.base_seed,
                batch: Some(batch),
            });
            last[s] = Some(k);
            let k = ops.len();
            ops.push(Op {
                line: t.params(k, self.base_seed, want).to_json() + "\n",
                after: None,
                check: if want {
                    self.solve_checks[s].clone()
                } else {
                    Check::None
                },
                target: s,
                seed: self.base_seed,
                batch: None,
            });
        }
        ops
    }
}

fn mutate_targets(seed: u64) -> Result<Vec<Target>, String> {
    let w = &spec().mutate;
    let archs = &spec().archs;
    (0..w.streams)
        .map(|i| {
            let gi = i % w.graphs.len();
            let (problem, algo) = &w.mutate_problems[i % w.mutate_problems.len()];
            target(
                &w.graphs[gi],
                Rng::derive(seed, 300 + gi as u64),
                w.scale,
                problem,
                algo,
                &archs[(i / 2) % archs.len()],
                format!("t{i}"),
            )
        })
        .collect()
}

fn mutate_gen(
    args: &Args,
    targets: &Arc<Vec<Target>>,
    refs: &References,
    base_seed: u64,
) -> Result<MutateGen, String> {
    let w = &spec().mutate;
    let streams = targets
        .iter()
        .map(|t| {
            let key = t.source()?.key();
            refs.graphs
                .get(&key)
                .map(|g| StreamCopy::new(g))
                .ok_or(format!("no graph {key}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(MutateGen {
        rng: Rng::new(Rng::derive(args.seed, 4)),
        streams,
        targets: targets.clone(),
        base_seed,
        cycle: w.batch_cycle.clone(),
        want_every: w.want_solution_every.max(1),
        pairs: 0,
        solve_checks: refs.checks.clone(),
    })
}

pub fn run_mutate(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let s = spec();
    let w = &s.mutate;
    let targets = Arc::new(mutate_targets(args.seed)?);
    let base_seed = Rng::derive(args.seed, 2);
    // Warm-up: load each stream's base and prime the stream with an empty
    // batch (a fresh solve), so every measured mutate is a repair.
    let warmups: Vec<String> = targets
        .iter()
        .flat_map(|t| {
            let p = t.params(0, base_seed, false);
            let m = MutateParams {
                solve: p.clone(),
                edits: String::new(),
            };
            [p.to_json(), m.to_json()]
        })
        .collect();
    let (d, refs, setups) = set_up(args, &targets, base_seed, &warmups)?;
    let mut gen = mutate_gen(args, &targets, &refs, base_seed)?;
    let phase = measure(args, out, &d, &mut gen, &refs, &setups, w.nominal_rps);
    let rebases = d.client().and_then(|mut c| c.stats()).map(|r| {
        r.raw
            .get("repairs")
            .and_then(|v| v.get("rebases"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    });
    let stopped = d.stop();
    let (phase, ops) = phase?;
    stopped?;
    let rebases = rebases?;
    let least = gen.streams.iter().map(|st| st.edits).min().unwrap_or(0);
    println!(
        "rebases {rebases}; fewest edits on a stream {least} (threshold {})",
        w.rebase_log_edits
    );
    if least < w.rebase_log_edits || rebases < w.streams as f64 {
        return Err(format!(
            "every stream must cross the {}-edit rebase threshold (fewest edits {least}, rebases {rebases})",
            w.rebase_log_edits
        ));
    }
    if args.trace {
        reply_metrics(out, &phase, &ops);
        out.set("datasets.generate_ms", stats::mean(&refs.gen_ms));
        replay(args, out, &targets, &ops, &refs, base_seed, "serve-mutate")?;
    }
    println!(
        "serve-mutate: nproc {n}, daemon workers {n}, open loop, 1 connection, {} streams at scale {}",
        w.streams,
        w.scale,
        n = crate::nproc()
    );
    Ok(())
}

// --------------------------------------------------------------- replay

/// Per-stream state of the in-process replay, mirroring the daemon's.
struct Mirror {
    base: Arc<Graph>,
    base_fp: u64,
    log: EditLog,
    graph: Arc<Graph>,
    prior: Solution,
}

/// Replays one op sequence in-process, through the same engine calls the
/// daemon makes, timing each call.
struct Replayer<'a> {
    engine: Engine,
    targets: &'a [Target],
    /// One per target on serve-mutate, where every target is a stream;
    /// empty on serve-solve.
    mirrors: Vec<Mirror>,
    runs: Vec<(&'static str, Arch, RunStats)>,
    repair_scanned: Vec<f64>,
}

impl<'a> Replayer<'a> {
    /// Warm an engine the way the daemon's set-up does: one solve per
    /// target, which on serve-mutate also primes each stream.
    fn new(targets: &'a [Target], streams: bool, base_seed: u64) -> Result<Replayer<'a>, String> {
        let mut engine = Engine::new(EngineConfig {
            cache_cap: spec().serve.cache_cap,
            ..EngineConfig::default()
        });
        let opts = SolveOpts::with_mode(FrontierMode::Compact);
        let mut mirrors = Vec::new();
        for t in targets {
            let (g, fp, _) = engine.graph(&t.source()?)?;
            let o = engine.solve_on_fingerprinted(&g, fp, t.solver, t.arch_v, base_seed, &opts);
            if streams {
                mirrors.push(Mirror {
                    base: g.clone(),
                    base_fp: fp,
                    log: EditLog::new(),
                    graph: g,
                    prior: o.solution,
                });
            }
        }
        Ok(Replayer {
            engine,
            targets,
            mirrors,
            runs: Vec::new(),
            repair_scanned: Vec::new(),
        })
    }

    fn solve(
        &mut self,
        l: &mut Ledger,
        k: u32,
        t: &Target,
        seed: u64,
        want: bool,
    ) -> Result<Option<String>, String> {
        let opts = SolveOpts::with_mode(FrontierMode::Compact);
        let src = t.source()?;
        let (g, fp, _) = l.time(k, "engine.graph", || self.engine.graph(&src))?;
        let t1 = Instant::now();
        let o = self
            .engine
            .solve_on_fingerprinted(&g, fp, t.solver, t.arch_v, seed, &opts);
        let call = t1.elapsed();
        let dec = o.stats.decompose_time.min(call);
        if let Some(span) = decompose_span(&t.algo).filter(|_| !dec.is_zero()) {
            l.record(k, span, t1, dec);
        }
        let solve = o.stats.solve_time.min(call - dec);
        l.record(
            k,
            &format!("core.solve.{}.{}", t.problem.name(), t.arch),
            t1 + dec,
            solve,
        );
        l.record(k, "engine.solve_on", t1 + dec + solve, call - dec - solve);
        l.time(k, "core.verify", || o.solution.verify(&g))
            .map_err(|e| format!("replay INVALID: {e}"))?;
        let text = want.then(|| l.time(k, "cli.render", || o.solution.render()));
        self.runs.push((t.problem.name(), t.arch_v, o.stats));
        Ok(text)
    }

    fn mutate(&mut self, l: &mut Ledger, k: u32, s: usize, batch: &EditLog) -> Result<(), String> {
        let opts = SolveOpts::with_mode(FrontierMode::Compact);
        let t = &self.targets[s];
        let m = &mut self.mirrors[s];
        let mut acc = m.log.clone();
        acc.extend(batch);
        let fp = l.time(k, "engine.fingerprint_edits", || {
            fingerprint_with_edits_from(m.base_fp, &acc, DEFAULT_SEED)
        });
        let engine = &mut self.engine;
        let edited = l.time(k, "engine.apply_edits", || {
            engine.apply_edits_from(&t.tenant, &m.base, m.base_fp, &acc)
        });
        if edited.fingerprint != fp {
            return Err("fingerprint_with_edits_from disagrees with apply_edits_from".into());
        }
        let span = format!("core.repair.{}", batch.len());
        let (solution, stats) = l.time(k, &span, || match &m.prior {
            Solution::Mate(mate) => {
                let r = repair::repair_matching(&m.graph, batch, mate, &opts);
                (Solution::Mate(r.mate), r.stats)
            }
            Solution::Color(color) => {
                let r = repair::repair_coloring(&m.graph, batch, color, &opts);
                (Solution::Color(r.color), r.stats)
            }
            Solution::Set(in_set) => {
                let r = repair::repair_mis(&m.graph, batch, in_set, &opts);
                (Solution::Set(r.in_set), r.stats)
            }
        });
        l.time(k, "core.verify", || solution.verify(&edited.graph))
            .map_err(|e| format!("replay repair INVALID: {e}"))?;
        self.repair_scanned
            .push(stats.counters.edges_scanned as f64);
        if acc.len() >= spec().mutate.rebase_log_edits {
            m.base = edited.graph.clone();
            m.base_fp = edited.fingerprint;
            m.log = EditLog::new();
        } else {
            m.log = acc;
        }
        m.graph = edited.graph;
        m.prior = solution;
        Ok(())
    }

    fn run(&mut self, l: &mut Ledger, ops: &[Op], refs: &References) -> Result<(), String> {
        for (k, op) in ops.iter().enumerate() {
            let id = k as u32;
            let t0 = Instant::now();
            let text = match &op.batch {
                Some(batch) => {
                    self.mutate(l, id, op.target, batch)?;
                    None
                }
                None => {
                    let t = &self.targets[op.target];
                    self.solve(l, id, t, op.seed, op.sampled())?
                }
            };
            l.op_wall(id, t0.elapsed());
            if let Some(text) = text {
                apply_check(&format!("replay {k}"), &op.check, &text, refs)?;
            }
        }
        Ok(())
    }
}

/// The in-process replay: once untraced, once traced, for the per-layer
/// ledger and the tracing overhead.
fn replay(
    args: &Args,
    out: &mut Outcome,
    targets: &[Target],
    ops: &[Op],
    refs: &References,
    base_seed: u64,
    workload: &str,
) -> Result<(), String> {
    let streams = workload == "serve-mutate";
    let mut untraced = Replayer::new(targets, streams, base_seed)?;
    let mut off = Ledger::new(false);
    let t = Instant::now();
    untraced.run(&mut off, ops, refs)?;
    let untraced_s = t.elapsed().as_secs_f64();
    drop(untraced);
    let mut r = Replayer::new(targets, streams, base_seed)?;
    let mut l = Ledger::new(true);
    let pool = PoolSnap::take();
    let t = Instant::now();
    r.run(&mut l, ops, refs)?;
    let traced_s = t.elapsed().as_secs_f64();
    for (name, v) in pool.since(ops.len()) {
        out.set(name, v);
    }
    out.set(
        "bench.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
    );
    solve_metrics(out, &l, r.runs.iter().map(|(p, a, st)| (*p, *a, st)));
    for size in [1, 10, 100] {
        out.set(
            &format!("core.repair_ms.{size}"),
            l.mean_ms(&format!("core.repair.{size}")),
        );
    }
    out.set("core.repair_edges_scanned", stats::mean(&r.repair_scanned));
    out.set("core.verify_ms", l.mean_ms("core.verify"));
    out.set("cli.render_ms", l.mean_ms("cli.render"));
    out.set("engine.apply_edits_ms", l.mean_ms("engine.apply_edits"));
    out.set(
        "engine.fingerprint_edits_ms",
        l.mean_ms("engine.fingerprint_edits"),
    );
    out.set("bench.unaccounted_frac", l.unaccounted_frac());
    let totals = crate::ledger::span_group_totals(&l);
    let largest = totals
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, _)| k.clone())
        .unwrap_or_default();
    let repairs = l.prefix("core.repair").0;
    let applies = l.span("engine.apply_edits").0;
    let failed = if workload == "serve-solve" {
        predict(
            "core.solve_ms.* is the largest layer on serve-solve",
            largest == "core.solve",
        ) + predict(
            "graph.parse has no calls on serve-solve",
            l.span("graph.parse").0 == 0,
        ) + predict(
            "no repair or apply_edits calls on serve-solve",
            repairs == 0 && applies == 0,
        )
    } else {
        predict(
            "core.repair_ms.* and engine.apply_edits_ms appear on serve-mutate",
            repairs > 0 && applies > 0,
        )
    };
    out.set("bench.predictions_failed", failed);
    report_layers(&l);
    l.write_jsonl(&spans_path(workload, args.seed)?)
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_is_cut_out_of_the_reply_line() {
        let line = r#"{"id":"7","status":"ok","solution":"0 1\n2 3\n","wall_ms":1.5}"#;
        let (rest, sol) = split_solution(line);
        assert_eq!(sol.as_deref(), Some("0 1\n2 3\n"));
        let r = Reply::parse(&rest).unwrap();
        assert_eq!((r.id(), r.num_field("wall_ms")), ("7", Some(1.5)));
        let plain = r#"{"id":"8","status":"ok","solution":null}"#;
        assert_eq!(split_solution(plain), (plain.to_string(), None));
    }
}
