//! Reproducible counterexample files.
//!
//! A case file is a plain edge list with `#` header comments, so the body
//! loads through `sb_graph::io::read_edge_list` unchanged while the
//! header carries everything needed to replay the exact failing
//! configuration (`sbreak fuzz --replay <file>`):
//!
//! ```text
//! # sb-fuzz counterexample
//! # config: mm-rand:3@gpu
//! # seed: 1234
//! # threads: 4
//! # failure: validity: dense@1t: matching not maximal ...
//! # n: 2
//! 0 1
//! ```

use std::io;
use std::path::{Path, PathBuf};

/// One replayable counterexample: failing configuration plus the
/// (usually shrunk) graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseFile {
    /// Configuration label (`SolverConfig::parse` accepts it).
    pub config: String,
    /// Solver seed the failure was observed with.
    pub seed: u64,
    /// Wide thread count of the failing matrix.
    pub threads: usize,
    /// The oracle failure, kind-prefixed.
    pub failure: String,
    /// Vertex count.
    pub n: usize,
    /// Raw edge list.
    pub edges: Vec<(u32, u32)>,
    /// Edit-axis failures only: the minimized edit sequence, batches in
    /// `EditLog` wire form joined with `;` (replay with
    /// `oracle::check_edit_chain`).
    pub edits: Option<String>,
}

impl CaseFile {
    /// Serialize to the case-file format.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("# sb-fuzz counterexample\n");
        s.push_str(&format!("# config: {}\n", self.config));
        s.push_str(&format!("# seed: {}\n", self.seed));
        s.push_str(&format!("# threads: {}\n", self.threads));
        // Header values are line-oriented; keep multi-line failure text on
        // one comment line.
        s.push_str(&format!(
            "# failure: {}\n",
            self.failure.replace('\n', " | ")
        ));
        if let Some(edits) = &self.edits {
            s.push_str(&format!("# edits: {edits}\n"));
        }
        s.push_str(&format!("# n: {}\n", self.n));
        for &(u, v) in &self.edges {
            s.push_str(&format!("{u} {v}\n"));
        }
        s
    }

    /// Parse a rendered case file back.
    pub fn parse(text: &str) -> Result<CaseFile, String> {
        let mut config = None;
        let mut seed = None;
        let mut threads = None;
        let mut failure = String::new();
        let mut n = None;
        let mut edges = Vec::new();
        let mut edits = None;
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("config:") {
                    config = Some(v.trim().to_string());
                } else if let Some(v) = rest.strip_prefix("seed:") {
                    seed = Some(v.trim().parse::<u64>().map_err(|e| format!("seed: {e}"))?);
                } else if let Some(v) = rest.strip_prefix("threads:") {
                    threads = Some(
                        v.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("threads: {e}"))?,
                    );
                } else if let Some(v) = rest.strip_prefix("failure:") {
                    failure = v.trim().to_string();
                } else if let Some(v) = rest.strip_prefix("edits:") {
                    edits = Some(v.trim().to_string());
                } else if let Some(v) = rest.strip_prefix("n:") {
                    n = Some(v.trim().parse::<usize>().map_err(|e| format!("n: {e}"))?);
                }
                continue;
            }
            let mut it = line.split_whitespace();
            let (u, v) = (it.next(), it.next());
            match (u, v) {
                (Some(u), Some(v)) => {
                    let u = u
                        .parse::<u32>()
                        .map_err(|e| format!("line {}: {e}", idx + 1))?;
                    let v = v
                        .parse::<u32>()
                        .map_err(|e| format!("line {}: {e}", idx + 1))?;
                    edges.push((u, v));
                }
                _ => return Err(format!("line {}: expected 'u v'", idx + 1)),
            }
        }
        Ok(CaseFile {
            config: config.ok_or("missing '# config:' header")?,
            seed: seed.ok_or("missing '# seed:' header")?,
            threads: threads.unwrap_or(4),
            failure,
            n: n.ok_or("missing '# n:' header")?,
            edges,
            edits,
        })
    }

    /// Load a case file from disk.
    pub fn load(path: &Path) -> Result<CaseFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CaseFile::parse(&text)
    }

    /// Write under `dir` as `case-<config>-<seed>.txt` (config label
    /// sanitized for filenames); creates `dir` if needed.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let safe = self.config.replace(['@', ':'], "-");
        let path = dir.join(format!("case-{}-{}.txt", safe, self.seed));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// A ready-to-paste regression test exercising this case through the
    /// oracle (drop into `tests/fuzz.rs` or a crate test module). Edit-axis
    /// cases replay their minimized edit sequence through
    /// `check_edit_chain`; everything else replays the mode × thread
    /// matrix through `check_case`.
    pub fn regression_skeleton(&self) -> String {
        let name = self.config.replace(['-', '@', ':'], "_");
        let edges = self
            .edges
            .iter()
            .map(|&(u, v)| format!("({u}, {v})"))
            .collect::<Vec<_>>()
            .join(", ");
        let check = match &self.edits {
            Some(wire) => format!(
                "\x20   let seq: Vec<_> = \"{wire}\"\n\
                 \x20       .split(';')\n\
                 \x20       .map(|w| sb_graph::editlog::EditLog::parse(w).unwrap())\n\
                 \x20       .collect();\n\
                 \x20   sb_fuzz::oracle::check_edit_chain(&g, &cfg, {seed}, {threads}, \
                 sb_fuzz::Mutation::None, &seq)\n",
                wire = wire,
                seed = self.seed,
                threads = self.threads,
            ),
            None => format!(
                "\x20   sb_fuzz::oracle::check_case(&g, &cfg, {seed}, {threads}, \
                 sb_fuzz::Mutation::None)\n",
                seed = self.seed,
                threads = self.threads,
            ),
        };
        format!(
            "#[test]\n\
             fn fuzz_regression_{name}_{seed}() {{\n\
            \x20   // {failure}\n\
            \x20   let g = sb_graph::builder::from_edge_list({n}, &[{edges}]);\n\
            \x20   let cfg = sb_fuzz::SolverConfig::parse(\"{config}\").unwrap();\n\
             {check}\
            \x20       .unwrap_or_else(|f| panic!(\"still failing: {{f}}\"));\n\
             }}\n",
            name = name,
            seed = self.seed,
            failure = self.failure.replace('\n', " | "),
            n = self.n,
            edges = edges,
            config = self.config,
            check = check,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> CaseFile {
        CaseFile {
            config: "mm-rand:3@gpu".to_string(),
            seed: 42,
            threads: 4,
            failure: "equality: compact@4t differs from dense@1t".to_string(),
            n: 3,
            edges: vec![(0, 1), (1, 2)],
            edits: None,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let c = case();
        assert_eq!(CaseFile::parse(&c.render()).unwrap(), c);
    }

    #[test]
    fn body_loads_through_graph_io() {
        let c = case();
        let g = sb_graph::io::read_edge_list(c.render().as_bytes(), Some(c.n)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn skeleton_names_the_config_and_edges() {
        let skel = case().regression_skeleton();
        assert!(skel.contains("fuzz_regression_mm_rand_3_gpu_42"));
        assert!(skel.contains("(0, 1), (1, 2)"));
        assert!(skel.contains("mm-rand:3@gpu"));
        assert!(skel.contains("check_case"));
    }

    #[test]
    fn edit_case_round_trips_and_replays_through_the_chain() {
        let mut c = case();
        c.failure = "edit-validity: dense batch 0 [-0-1]: ...".to_string();
        c.edits = Some("-0-1;+1-2".to_string());
        let parsed = CaseFile::parse(&c.render()).unwrap();
        assert_eq!(parsed, c);
        let skel = c.regression_skeleton();
        assert!(skel.contains("check_edit_chain"), "{skel}");
        assert!(skel.contains("-0-1;+1-2"), "{skel}");
    }
}
