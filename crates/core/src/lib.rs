//! Decomposition-based parallel symmetry breaking.
//!
//! This crate is the reproduction of the paper's contribution: for each of
//! the three symmetry-breaking problems it provides the published baseline
//! algorithms and the three decomposition-based composites built on top of
//! them, on both execution models (multicore-CPU via rayon, GPU-sim via the
//! bulk-synchronous executor in `sb_par::bsp`).
//!
//! | Problem | Baselines | Decomposition composites |
//! |---------|-----------|--------------------------|
//! | Maximal matching ([`matching`]) | GM (greedy proposal), LMAX (local-max), Israeli–Itai | MM-Bridge, MM-Rand, MM-Degk, MM-Bicc† |
//! | Vertex coloring ([`coloring`]) | VB (vertex-based), EB (edge-based), JP with LF/SL orderings | COLOR-Bridge, COLOR-Rand, COLOR-Degk, COLOR-Bicc† |
//! | Maximal independent set ([`mis`]) | LubyMIS (classic 1986), greedy (static priorities) | MIS-Bridge, MIS-Rand, MIS-Deg2, MIS-Bicc† |
//!
//! † `*-Bicc` are extensions beyond the paper's evaluated set, after the
//! Hochbaum-style block decomposition its related work builds on.
//!
//! Every solver *extends* a partial solution over a vertex mask, which is
//! how the composites (Algorithms 4–12 of the paper) chain phases without
//! remapping vertex ids: decomposition pieces share the parent graph's id
//! space (see `sb_graph::subgraph`), phase 1 fills part of the solution
//! array, and phase 2 continues on the rest.
//!
//! [`Algo`] and [`Solver`] name a configuration; [`solve`] is the one
//! dispatch table from a solver (and optionally a precomputed
//! [`Decomposition`]) to its composite, and [`decompose`] the one
//! dispatch from an [`Algo`] to its decomposition. Each problem module
//! keeps one entry point over it (`maximal_matching_opts`,
//! `vertex_coloring_opts`, `maximal_independent_set_opts`).
//!
//! Use [`verify`] (or [`Solution::verify`]) to check any produced solution
//! against an independent implementation of the problem definition.

pub mod coloring;
pub mod common;
pub mod matching;
pub mod mis;
pub mod repair;
pub mod solver;
pub mod verify;

pub use common::{Arch, RunStats};
pub use solver::{decompose, solve, Algo, Decomposition, Solution, Solver};
