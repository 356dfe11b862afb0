//! Output checks. Every solution the benchmark times is checked: cold
//! solves and sampled mutate replies with the sequential `check_*`
//! oracles, sampled serve replies byte-for-byte against a reference. A
//! failed check fails the run.

use sb_core::verify::{check_coloring, check_maximal_independent_set, check_maximal_matching};
use sb_graph::csr::{Graph, INVALID};

/// The three problem families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    Mm,
    Color,
    Mis,
}

impl Problem {
    pub fn parse(s: &str) -> Result<Problem, String> {
        match s {
            "mm" => Ok(Problem::Mm),
            "color" => Ok(Problem::Color),
            "mis" => Ok(Problem::Mis),
            other => Err(format!("unknown problem '{other}'")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Problem::Mm => "mm",
            Problem::Color => "color",
            Problem::Mis => "mis",
        }
    }
}

/// Check a solution in its rendered text form (the format `sbreak solve
/// -o` writes and serve replies carry) against `g`.
pub fn check_rendered(problem: Problem, g: &Graph, text: &str) -> Result<(), String> {
    let n = g.num_vertices();
    let pairs = |line: &str| -> Result<(usize, u32), String> {
        let mut it = line.split_whitespace();
        let a = it.next().and_then(|t| t.parse::<usize>().ok());
        let b = it.next().and_then(|t| t.parse::<u32>().ok());
        match (a, b) {
            (Some(a), Some(b)) if a < n => Ok((a, b)),
            _ => Err(format!("malformed solution line '{line}'")),
        }
    };
    match problem {
        Problem::Mm => {
            let mut mate = vec![INVALID; n];
            for line in text.lines() {
                let (u, v) = pairs(line)?;
                if v as usize >= n || mate[u] != INVALID || mate[v as usize] != INVALID {
                    return Err(format!("bad matched pair '{line}'"));
                }
                mate[u] = v;
                mate[v as usize] = u as u32;
            }
            check_maximal_matching(g, &mate)
        }
        Problem::Color => {
            let mut color = vec![INVALID; n];
            for line in text.lines() {
                let (v, c) = pairs(line)?;
                color[v] = c;
            }
            check_coloring(g, &color)
        }
        Problem::Mis => {
            let mut in_set = vec![false; n];
            for line in text.lines() {
                match line.trim().parse::<usize>() {
                    Ok(v) if v < n => in_set[v] = true,
                    _ => return Err(format!("malformed solution line '{line}'")),
                }
            }
            check_maximal_independent_set(g, &in_set)
        }
    }
}

/// Byte-for-byte comparison of a reply's solution with its reference.
pub fn check_identical(what: &str, got: &str, reference: &str) -> Result<(), String> {
    if got == reference {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(reference.len()));
    Err(format!(
        "{what}: solution differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        reference.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_graph::builder::from_edge_list;

    fn path4() -> Graph {
        from_edge_list(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn correct_solutions_pass() {
        let g = path4();
        check_rendered(Problem::Mm, &g, "0 1\n2 3\n").unwrap();
        check_rendered(Problem::Color, &g, "0 0\n1 1\n2 0\n3 1\n").unwrap();
        check_rendered(Problem::Mis, &g, "0\n2\n").unwrap();
    }

    #[test]
    fn planted_wrong_solutions_are_caught() {
        let g = path4();
        // Not maximal: edge 2-3 has both ends free.
        assert!(check_rendered(Problem::Mm, &g, "0 1\n").is_err());
        // Vertex 1 matched twice.
        assert!(check_rendered(Problem::Mm, &g, "0 1\n1 2\n").is_err());
        // Adjacent vertices 1 and 2 share a color.
        assert!(check_rendered(Problem::Color, &g, "0 0\n1 1\n2 1\n3 0\n").is_err());
        // Vertex 3 uncolored.
        assert!(check_rendered(Problem::Color, &g, "0 0\n1 1\n2 0\n").is_err());
        // Adjacent vertices in the set.
        assert!(check_rendered(Problem::Mis, &g, "0\n1\n3\n").is_err());
        // Not maximal: 3 could join.
        assert!(check_rendered(Problem::Mis, &g, "1\n").is_err());
        // Out-of-range vertex and garbage.
        assert!(check_rendered(Problem::Mis, &g, "9\n").is_err());
        assert!(check_rendered(Problem::Color, &g, "zero one\n").is_err());
    }

    #[test]
    fn a_flipped_byte_fails_the_reference_comparison() {
        check_identical("r", "0 1\n2 3\n", "0 1\n2 3\n").unwrap();
        let err = check_identical("r", "0 1\n2 4\n", "0 1\n2 3\n").unwrap_err();
        assert!(err.contains("byte 6"), "{err}");
        assert!(check_identical("r", "0 1\n", "0 1\n2 3\n").is_err());
    }
}
