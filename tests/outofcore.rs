//! Out-of-core integration: the `.sbg` loader's typed rejections, the
//! mapped-vs-heap solver-output identity the format promises, the
//! `sbreak convert` CLI round trip, and the engine's mapped-graph cache
//! behavior (identity fingerprints, header-only weights, one shared
//! mapping per source).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use symmetry_breaking::graph::sbg::{self, SbgError};
use symmetry_breaking::prelude::*;

/// Fresh per-test scratch directory (tests run concurrently; names must
/// not collide across the binary).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbreak-outofcore-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_graph() -> Graph {
    generate(GraphId::Lp1, Scale::Tiny, 11)
}

fn write_test_sbg(dir: &Path, g: &Graph) -> PathBuf {
    let path = dir.join("g.sbg");
    write_sbg(g, None, &path).unwrap();
    path
}

// ---------------------------------------------------------------- loader

#[test]
fn truncated_files_are_rejected_with_typed_errors() {
    let dir = scratch("trunc");
    let g = test_graph();
    let path = write_test_sbg(&dir, &g);
    let full = fs::read(&path).unwrap();

    // Shorter than the header, mid-section, and one byte short: all
    // Truncated, never a panic or a partial graph.
    for cut in [0, 7, 63, 64, full.len() / 2, full.len() - 1] {
        fs::write(&path, &full[..cut]).unwrap();
        match map_sbg(&path) {
            Err(SbgError::Truncated { expected, found }) => {
                assert_eq!(found, cut as u64);
                assert!(expected > found, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_version_and_endianness_are_distinguished() {
    let dir = scratch("hdr");
    let g = test_graph();
    let path = write_test_sbg(&dir, &g);
    let full = fs::read(&path).unwrap();

    let mut bad = full.clone();
    bad[0] = b'X';
    fs::write(&path, &bad).unwrap();
    assert!(matches!(map_sbg(&path), Err(SbgError::BadMagic)));

    let mut bad = full.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    fs::write(&path, &bad).unwrap();
    assert!(matches!(
        map_sbg(&path),
        Err(SbgError::Version { found: 99 })
    ));

    // The BOM written by the opposite endianness reads back byte-swapped.
    let mut bad = full.clone();
    bad[12..16].copy_from_slice(&sbg::BOM.to_be_bytes());
    fs::write(&path, &bad).unwrap();
    assert!(matches!(
        map_sbg(&path),
        Err(SbgError::Endianness { found }) if found == sbg::BOM.swap_bytes()
    ));

    let mut bad = full.clone();
    bad[32..40].copy_from_slice(&0x80u64.to_le_bytes()); // unknown flag bit
    fs::write(&path, &bad).unwrap();
    assert!(matches!(map_sbg(&path), Err(SbgError::Corrupt(_))));
}

#[test]
fn corrupt_offsets_are_rejected() {
    let dir = scratch("offs");
    let g = test_graph();
    let path = write_test_sbg(&dir, &g);
    let full = fs::read(&path).unwrap();
    let m2 = 2 * g.num_edges() as u64;

    // Non-monotone offsets (decreasing run).
    let mut bad = full.clone();
    bad[sbg::HEADER_LEN + 8..sbg::HEADER_LEN + 16].copy_from_slice(&m2.to_le_bytes());
    fs::write(&path, &bad).unwrap();
    match map_sbg(&path) {
        Err(SbgError::Corrupt(msg)) => assert!(msg.contains("offset"), "got: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Final offset points past the neighbor section.
    let mut bad = full.clone();
    let last = sbg::HEADER_LEN + 8 * g.num_vertices();
    bad[last..last + 8].copy_from_slice(&(m2 + 1).to_le_bytes());
    fs::write(&path, &bad).unwrap();
    assert!(matches!(map_sbg(&path), Err(SbgError::Corrupt(_))));

    // Trailing garbage after the last section.
    let mut bad = full.clone();
    bad.extend_from_slice(&[0u8; 16]);
    fs::write(&path, &bad).unwrap();
    match map_sbg(&path) {
        Err(SbgError::Corrupt(msg)) => assert!(msg.contains("trailing"), "got: {msg}"),
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

#[test]
fn empty_and_non_sbg_files_are_rejected() {
    let dir = scratch("empty");
    let path = dir.join("not.sbg");
    fs::write(&path, b"").unwrap();
    assert!(matches!(map_sbg(&path), Err(SbgError::Truncated { .. })));
    fs::write(&path, b"1 2\n3 4\n").unwrap();
    assert!(matches!(
        map_sbg(&path),
        Err(SbgError::BadMagic) | Err(SbgError::Truncated { .. })
    ));
    assert!(matches!(
        map_sbg(&dir.join("missing.sbg")),
        Err(SbgError::Io(_))
    ));
}

// ------------------------------------------------- mapped/heap identity

/// The core property of the format: a solver cannot observe whether the
/// CSR arrays live on the heap or in a read-only mapping. Every family,
/// thread count, and frontier mode must produce byte-identical labels.
#[test]
fn mapped_solver_outputs_are_byte_identical_to_heap() {
    let dir = scratch("ident");
    let heap = test_graph();
    let path = write_test_sbg(&dir, &heap);
    let mapped = map_sbg(&path).unwrap();
    assert_eq!(mapped, heap, "round trip must be lossless");
    assert!(mapped.mapped_ident().is_some() || std::env::var_os("SBREAK_NO_MMAP").is_some());

    for threads in [1usize, 4] {
        for mode in [
            FrontierMode::Dense,
            FrontierMode::Compact,
            FrontierMode::Bitset,
        ] {
            let opts = SolveOpts::with_mode(mode);
            symmetry_breaking::par::exec::with_threads(threads, || {
                let a = maximal_matching_opts(&heap, Algo::Baseline, Arch::Cpu, 3, &opts);
                let b = maximal_matching_opts(&mapped, Algo::Baseline, Arch::Cpu, 3, &opts);
                assert_eq!(a.mate, b.mate, "GM t={threads} mode={mode:?}");

                let a = maximal_independent_set_opts(&heap, Algo::Baseline, Arch::Cpu, 3, &opts);
                let b = maximal_independent_set_opts(&mapped, Algo::Baseline, Arch::Cpu, 3, &opts);
                assert_eq!(a.in_set, b.in_set, "Luby t={threads} mode={mode:?}");

                let a = vertex_coloring_opts(&heap, Algo::Baseline, Arch::Cpu, 3, &opts);
                let b = vertex_coloring_opts(&mapped, Algo::Baseline, Arch::Cpu, 3, &opts);
                assert_eq!(a.color, b.color, "JP t={threads} mode={mode:?}");
            });
        }
    }
}

#[test]
fn renumber_permutation_round_trips_through_the_file() {
    let dir = scratch("perm");
    let g = test_graph();
    let (renum, perm) = renumber_by_degree(&g);
    let path = dir.join("r.sbg");
    write_sbg(&renum, Some(&perm), &path).unwrap();

    let mapped = map_sbg(&path).unwrap();
    assert_eq!(mapped, renum);
    let stored: Vec<u32> = read_sbg_perm(&path).unwrap().expect("perm must be stored");
    assert_eq!(stored, perm);
    if let Some(attached) = mapped.renumber_perm() {
        assert_eq!(attached, &perm[..]);
    }

    // Labels computed on the renumbered graph map back to original ids.
    let run = vertex_coloring_opts(&mapped, Algo::Baseline, Arch::Cpu, 3, &SolveOpts::default());
    let back = unpermute_labels(&run.color, &stored);
    check_coloring(&g, &back).unwrap();
}

// ------------------------------------------------------------------ CLI

fn sbreak(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sbreak"))
        .args(args)
        .output()
        .expect("sbreak must run")
}

fn expect_ok(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn cli_convert_round_trip_solves_byte_identically() {
    let dir = scratch("cli");
    let edges = dir.join("g.edges");
    let bin = dir.join("g.sbg");
    let sol_heap = dir.join("heap.txt");
    let sol_mapped = dir.join("mapped.txt");

    expect_ok(&sbreak(&[
        "generate",
        "lp1",
        "--scale",
        "0.1",
        "--seed",
        "5",
        "-o",
        edges.to_str().unwrap(),
    ]));
    let out = expect_ok(&sbreak(&[
        "convert",
        edges.to_str().unwrap(),
        bin.to_str().unwrap(),
    ]));
    assert!(out.contains("wrote"), "got: {out}");

    for (input, sol) in [(&edges, &sol_heap), (&bin, &sol_mapped)] {
        expect_ok(&sbreak(&[
            "solve",
            input.to_str().unwrap(),
            "--problem",
            "mm",
            "--seed",
            "1",
            "-o",
            sol.to_str().unwrap(),
        ]));
    }
    assert_eq!(
        fs::read(&sol_heap).unwrap(),
        fs::read(&sol_mapped).unwrap(),
        "mapped solve must render byte-identically to heap solve"
    );
}

#[test]
fn cli_convert_renumber_stores_a_bijection() {
    let dir = scratch("clir");
    let bin = dir.join("r.sbg");
    let out = expect_ok(&sbreak(&[
        "convert",
        "gen:lp1",
        bin.to_str().unwrap(),
        "--scale",
        "0.1",
        "--seed",
        "5",
        "--renumber",
        "degree",
    ]));
    assert!(out.contains("degree-renumbered"), "got: {out}");

    let g = map_sbg(&bin).unwrap();
    let perm = read_sbg_perm(&bin).unwrap().expect("perm stored");
    assert_eq!(perm.len(), g.num_vertices());
    let mut seen = vec![false; perm.len()];
    for &old in &perm {
        assert!(!std::mem::replace(&mut seen[old as usize], true));
    }
    // Degree order: new id 0 has the maximum degree.
    let d0 = g.degree(0);
    assert!((0..g.num_vertices() as u32).all(|v| g.degree(v) <= d0));

    // Unknown modes are rejected, not silently ignored.
    let bad = sbreak(&[
        "convert",
        "gen:lp1",
        bin.to_str().unwrap(),
        "--renumber",
        "banana",
    ]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("banana"));
}

// --------------------------------------------------------------- engine

#[test]
fn engine_shares_one_mapping_and_charges_header_weight() {
    let dir = scratch("engine");
    let heap = test_graph();
    let path = write_test_sbg(&dir, &heap);
    let src = GraphSource::File(path.clone());

    let mut engine = Engine::with_cap(4);
    let (g1, fp1, cached1) = engine.graph(&src).unwrap();
    let (g2, fp2, cached2) = engine.graph(&src).unwrap();
    assert!(!cached1);
    assert!(cached2, "second load of the same source must hit the cache");
    assert!(std::sync::Arc::ptr_eq(&g1, &g2), "one shared mapping");
    assert_eq!(fp1, fp2);

    // A mapped graph charges the cache its struct header, not the array
    // payload: the bytes belong to the page cache.
    if g1.mapped_ident().is_some() {
        assert!(
            g1.resident_bytes() < 4096,
            "mapped resident_bytes = {} — should be header-only",
            g1.resident_bytes()
        );
        assert!(heap.resident_bytes() > g1.resident_bytes());
        // Identity fingerprints are domain-separated from content hashes.
        assert_ne!(
            fp1,
            symmetry_breaking::engine::fingerprint_graph(
                &heap,
                symmetry_breaking::engine::fingerprint::DEFAULT_SEED
            )
        );
    }

    // Rewriting the file changes its identity, so a fresh engine keys the
    // new contents away from the old fingerprint.
    let sub = from_edge_list(3, &[(0, 1), (1, 2)]);
    write_sbg(&sub, None, &path).unwrap();
    let mut fresh = Engine::with_cap(4);
    let (g3, fp3, _) = fresh.graph(&src).unwrap();
    assert_ne!(*g3, *g1);
    assert_ne!(fp3, fp1, "rewritten file must not reuse the old key");
}

#[test]
fn edit_fingerprints_on_mapped_graphs_are_identity_keyed() {
    use symmetry_breaking::engine::fingerprint::DEFAULT_SEED;
    use symmetry_breaking::engine::{fingerprint_graph, fingerprint_with_edits};

    let dir = scratch("editfp");
    let heap = test_graph();
    let path = write_test_sbg(&dir, &heap);
    let mapped = map_sbg(&path).unwrap();
    if mapped.mapped_ident().is_none() {
        return; // identity metadata unavailable on this platform
    }

    let mut log = EditLog::new();
    log.add_edge(0, 1).remove_edge(1, 2).add_vertex(99);

    // Deterministic across independent mappings of the same file.
    let fp = fingerprint_with_edits(&mapped, &log, DEFAULT_SEED);
    let remapped = map_sbg(&path).unwrap();
    assert_eq!(fp, fingerprint_with_edits(&remapped, &log, DEFAULT_SEED));

    // Domain-separated from the heap twin with identical content, and
    // from the unedited base / other logs.
    assert_ne!(fp, fingerprint_with_edits(&heap, &log, DEFAULT_SEED));
    assert_ne!(fp, fingerprint_graph(&mapped, DEFAULT_SEED));
    assert_eq!(
        fingerprint_with_edits(&mapped, &EditLog::new(), DEFAULT_SEED),
        fingerprint_graph(&mapped, DEFAULT_SEED),
        "an empty log must degenerate to the base fingerprint"
    );

    // O(1) pin: the mapped branch hashes file identity (dev, ino, size,
    // mtime) plus (n, m) — never the multi-GB payload. Rewrite the
    // payload in place with a different same-shape graph and restore the
    // recorded mtime: every identity word is unchanged, so the
    // fingerprint must not move — proof the edge arrays are never read.
    let mtime = fs::metadata(&path).unwrap().modified().unwrap();
    let mut twisted: Vec<(u32, u32)> = heap
        .edge_list()
        .iter()
        .map(|&[u, v]| (u.min(v), u.max(v)))
        .collect();
    let spare = (0..heap.num_vertices() as u32)
        .flat_map(|a| ((a + 1)..heap.num_vertices() as u32).map(move |b| (a, b)))
        .find(|&(a, b)| !heap.has_edge(a, b))
        .expect("test graph is not complete");
    twisted[0] = spare;
    let twin = from_edge_list(heap.num_vertices(), &twisted);
    assert_eq!(twin.num_edges(), heap.num_edges(), "same-shape rewrite");
    assert_ne!(twin, heap, "content must actually differ");
    let old_size = fs::metadata(&path).unwrap().len();
    write_sbg(&twin, None, &path).unwrap();
    assert_eq!(fs::metadata(&path).unwrap().len(), old_size);
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(mtime)
        .unwrap();
    let rewritten = map_sbg(&path).unwrap();
    assert_eq!(rewritten, twin, "payload really changed on disk");
    assert_eq!(
        fp,
        fingerprint_with_edits(&rewritten, &log, DEFAULT_SEED),
        "identity unchanged -> fingerprint unchanged (payload never hashed)"
    );
}
