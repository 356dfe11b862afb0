//! End-to-end tests of the `sbreak` binary: real process, real files,
//! real exit codes.

use std::process::{Command, Output};

fn sbreak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbreak"))
        .args(args)
        .output()
        .expect("failed to launch sbreak")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn generate_stats_solve_round_trip() {
    let dir = std::env::temp_dir().join("sbreak-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("g.edges");
    let edges_s = edges.to_str().unwrap();

    let out = sbreak(&[
        "generate", "lp1", "--scale", "0.05", "--seed", "3", "-o", edges_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote lp1"));

    let out = sbreak(&["stats", edges_s, "--bridges"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("vertices"), "{text}");
    assert!(text.contains("bridges"), "{text}");

    for (problem, algo) in [("mm", "rand:4"), ("color", "degk:2"), ("mis", "bicc")] {
        let out = sbreak(&["solve", edges_s, "--problem", problem, "--algo", algo]);
        assert!(out.status.success(), "{problem}/{algo}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("verified"),
            "{problem}/{algo} must self-verify: {}",
            stdout(&out)
        );
    }

    // Solution file output.
    let sol = dir.join("mis.txt");
    let out = sbreak(&[
        "solve",
        edges_s,
        "--problem",
        "mis",
        "-o",
        sol.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let body = std::fs::read_to_string(&sol).unwrap();
    assert!(
        body.lines().count() > 10,
        "solution file should list vertices"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decompose_methods_all_run() {
    for method in ["bridge", "rand:4", "degk:2", "metis:4", "bicc"] {
        let out = sbreak(&[
            "decompose",
            "gen:c-73",
            "--scale",
            "0.05",
            "--method",
            method,
        ]);
        assert!(out.status.success(), "{method}: {}", stderr(&out));
        assert!(stdout(&out).contains("decomposed in"), "{method}");
    }
}

#[test]
fn error_paths_are_clean() {
    // (args, expected stderr fragment)
    let cases: Vec<(&[&str], &str)> = vec![
        (&["stats", "gen:nope"], "unknown graph"),
        (&["stats", "/definitely/not/a/file"], "cannot read"),
        (
            &["solve", "gen:lp1", "--scale", "0.02", "--problem", "tsp"],
            "unknown problem",
        ),
        (
            &[
                "solve",
                "gen:lp1",
                "--scale",
                "0.02",
                "--problem",
                "mm",
                "--algo",
                "rand:0",
            ],
            "positive integer",
        ),
        (&["generate", "lp1"], "needs -o"),
        (&["stats", "gen:lp1", "--bogus"], "unknown flag"),
    ];
    for (args, fragment) in cases {
        let out = sbreak(args);
        assert!(
            !out.status.success(),
            "{args:?} should fail, stdout: {}",
            stdout(&out)
        );
        assert!(
            stderr(&out).contains(fragment),
            "{args:?}: stderr {:?} missing {fragment:?}",
            stderr(&out)
        );
        // Errors must be one-liners, not panics with backtraces.
        assert!(
            !stderr(&out).contains("panicked"),
            "{args:?} must not panic: {}",
            stderr(&out)
        );
    }
}

#[test]
fn no_args_prints_usage() {
    let out = sbreak(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

/// Three jobs on one generated graph: the standard batch smoke input.
const SMOKE_JOBS: &str = r#"
# sbreak batch smoke jobs
[defaults]
graph = "gen:lp1"
scale = 0.05
seed = 11
graph_seed = 42

[[job]]
label = "mm"
problem = "mm"
algo = "rand:4"

[[job]]
label = "color"
problem = "color"
algo = "degk:2"

[[job]]
label = "mis"
problem = "mis"
algo = "degk:2"
"#;

#[test]
fn batch_runs_jobs_and_writes_report_and_solutions() {
    let dir = std::env::temp_dir().join("sbreak-cli-batch");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.toml");
    std::fs::write(&jobs, SMOKE_JOBS).unwrap();
    let json = dir.join("BENCH_engine.json");
    let sols = dir.join("solutions");

    let out = sbreak(&[
        "batch",
        jobs.to_str().unwrap(),
        "--compare-fresh",
        "-o",
        json.to_str().unwrap(),
        "--out-dir",
        sols.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("batch: 3 job(s)"), "{text}");
    assert!(text.contains("TOTAL"), "{text}");

    let body = std::fs::read_to_string(&json).unwrap();
    for key in ["\"job\"", "\"decomp\"", "\"speedup\"", "\"records\""] {
        assert!(body.contains(key), "{key} missing from {body}");
    }
    for label in ["mm", "color", "mis"] {
        let sol = sols.join(format!("{label}.txt"));
        let got = std::fs::read_to_string(&sol).unwrap_or_else(|e| panic!("{sol:?}: {e}"));
        assert!(!got.is_empty(), "{label}.txt must list the solution");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_cache_cap_zero_output_is_byte_identical_to_cached() {
    let dir = std::env::temp_dir().join("sbreak-cli-batch-cap0");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.toml");
    std::fs::write(&jobs, SMOKE_JOBS).unwrap();

    let mut solutions = Vec::new();
    for cap in ["0", "64"] {
        let sols = dir.join(format!("sol-{cap}"));
        let json = dir.join(format!("report-{cap}.json"));
        let out = sbreak(&[
            "batch",
            jobs.to_str().unwrap(),
            "--cache-cap",
            cap,
            "-o",
            json.to_str().unwrap(),
            "--out-dir",
            sols.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "cap {cap}: {}", stderr(&out));
        let mut per_label = Vec::new();
        for label in ["mm", "color", "mis"] {
            per_label.push(std::fs::read(sols.join(format!("{label}.txt"))).unwrap());
        }
        solutions.push(per_label);
    }
    assert_eq!(
        solutions[0], solutions[1],
        "cache-cap 0 and cached runs must produce byte-identical solutions"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_malformed_jobs_files_get_positioned_diagnostics() {
    let dir = std::env::temp_dir().join("sbreak-cli-batch-bad");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // (file body, expected stderr fragments)
    let cases: Vec<(&str, Vec<&str>)> =
        vec![
        ("[[job]]\nbogus = 1\n", vec![":2:", "unknown key 'bogus'"]),
        ("[jobs]\n", vec![":1:", "unknown section"]),
        ("problem = \"mm\"\n", vec![":1:", "outside any section"]),
        ("[[job]]\nproblem = \"mm\"\n", vec!["missing required key 'graph'"]),
        (
            "[[job]]\ngraph = \"gen:lp1\"\nscale = 0.05\nproblem = \"tsp\"\nalgo = \"rand:4\"\n",
            vec!["unknown problem 'tsp'"],
        ),
    ];
    for (i, (body, fragments)) in cases.iter().enumerate() {
        let path = dir.join(format!("bad{i}.toml"));
        std::fs::write(&path, body).unwrap();
        let out = sbreak(&["batch", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "case {i} should exit 1");
        for fragment in fragments {
            assert!(
                stderr(&out).contains(fragment),
                "case {i}: stderr {:?} missing {fragment:?}",
                stderr(&out)
            );
        }
        assert!(!stderr(&out).contains("panicked"), "case {i}");
    }

    // Unreadable path and missing operand.
    let out = sbreak(&["batch", "/definitely/not/a/jobs.toml"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));
    let out = sbreak(&["batch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("batch needs a jobs file"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_timeout_fails_the_run_and_names_the_job() {
    let dir = std::env::temp_dir().join("sbreak-cli-batch-timeout");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.toml");
    std::fs::write(
        &jobs,
        // Full-scale so the job cannot finish inside the parent's
        // scheduling quantum and beat the 0 ms watchdog (seen on
        // single-core hosts with small graphs).
        "[[job]]\nlabel = \"slow\"\ngraph = \"gen:lp1\"\nscale = 1.0\n\
         problem = \"mm\"\nalgo = \"rand:4\"\ntimeout_ms = 0\n",
    )
    .unwrap();
    let json = dir.join("report.json");
    let out = sbreak(&[
        "batch",
        jobs.to_str().unwrap(),
        "-o",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("slow") && err.contains("timeout"), "{err}");
    // An explicit -o report is still written for a failed run.
    assert!(json.exists(), "explicit -o report missing for failed run");

    // Without -o, a failed run must refuse to touch the default
    // results/BENCH_engine.json artifact (run from a scratch cwd so a
    // regression can't clobber the repo's checked-in benchmark).
    let out = Command::new(env!("CARGO_BIN_EXE_sbreak"))
        .args(["batch", jobs.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .expect("failed to launch sbreak");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("not overwriting default"),
        "{}",
        stderr(&out)
    );
    assert!(
        !dir.join("results").exists(),
        "failed run without -o must not create results/"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_replay_round_trips_a_case_file() {
    let dir = std::env::temp_dir().join("sbreak-cli-replay");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let case = dir.join("case.txt");
    std::fs::write(
        &case,
        "# sb-fuzz counterexample\n# config: mm-baseline@cpu\n# seed: 7\n\
         # threads: 2\n# failure: validity: synthetic\n# n: 2\n0 1\n",
    )
    .unwrap();

    // The clean solvers pass this case, so the replay reports it fixed.
    let out = sbreak(&["fuzz", "--replay", case.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("case passes"), "{}", stdout(&out));

    // A corrupt case file is a clean one-line error.
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "# sb-fuzz counterexample\n0 1\n").unwrap();
    let out = sbreak(&["fuzz", "--replay", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("config"), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seed_determinism_through_the_cli() {
    let a = sbreak(&[
        "solve",
        "gen:webbase-1M",
        "--scale",
        "0.05",
        "--problem",
        "mis",
        "--seed",
        "9",
    ]);
    let b = sbreak(&[
        "solve",
        "gen:webbase-1M",
        "--scale",
        "0.05",
        "--problem",
        "mis",
        "--seed",
        "9",
    ]);
    assert!(a.status.success() && b.status.success());
    // Same size and rounds; only wall-clock may differ.
    let strip_ms = |s: String| -> String { s.split(" in ").next().unwrap_or_default().to_string() };
    assert_eq!(strip_ms(stdout(&a)), strip_ms(stdout(&b)));
}

#[test]
fn bad_algo_labels_get_one_message_on_every_surface() {
    use symmetry_breaking::engine::protocol::SolveParams;
    use symmetry_breaking::engine::{Client, ServeConfig, Server};
    use symmetry_breaking::prelude::Solver;

    let dir = std::env::temp_dir().join("sbreak-cli-bad-algo");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::spawn(ServeConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).unwrap();

    // (algo, fragment the shared message must carry)
    let cases = [
        ("rand:0", "positive integer"),
        ("rand:x", "positive integer"),
        ("degk:0", "positive integer"),
        ("rand:", "positive integer"),
        ("quux", "unknown algo"),
    ];
    for (i, (algo, fragment)) in cases.into_iter().enumerate() {
        let message = Solver::parse("mm", algo).unwrap_err();
        assert!(message.contains(fragment), "{algo}: {message}");

        let out = sbreak(&[
            "solve",
            "gen:lp1",
            "--scale",
            "0.02",
            "--problem",
            "mm",
            "--algo",
            algo,
        ]);
        assert_eq!(out.status.code(), Some(1), "solve --algo {algo}");
        assert!(
            stderr(&out).contains(&message),
            "solve --algo {algo}: {}",
            stderr(&out)
        );

        let jobs = dir.join(format!("bad{i}.toml"));
        std::fs::write(
            &jobs,
            format!("[[job]]\ngraph = \"gen:lp1\"\nproblem = \"mm\"\nalgo = \"{algo}\"\n"),
        )
        .unwrap();
        let out = sbreak(&["batch", jobs.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "jobs file algo {algo}");
        assert!(stderr(&out).contains(":4:"), "{}", stderr(&out));
        assert!(
            stderr(&out).contains(&message),
            "jobs file algo {algo}: {}",
            stderr(&out)
        );

        let reply = client
            .solve(&SolveParams::new("gen:lp1", "mm", algo))
            .unwrap();
        assert_eq!(reply.status(), "error", "serve algo {algo}");
        assert_eq!(reply.str_field("code"), Some("bad_request"));
        assert_eq!(
            reply.str_field("detail"),
            Some(message.as_str()),
            "serve algo {algo}"
        );
    }
    server.shutdown();
    drop(client);
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
