//! Graph I/O: whitespace edge lists and Matrix Market files.
//!
//! The paper's dataset comes from the SuiteSparse (University of Florida)
//! collection, distributed as Matrix Market. These readers apply the same
//! preprocessing the paper describes: symmetrize, drop self-loops, dedup.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Largest usable vertex id: `id + 1` vertices must stay below the
/// `u32::MAX` sentinel (`sb_graph::csr::INVALID`) that every solver uses
/// for "no vertex".
pub const MAX_VERTEX_ID: u64 = u32::MAX as u64 - 2;

/// Errors from the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed `.sbg` binary file (dispatched through [`read_path`]).
    Sbg(crate::sbg::SbgError),
    /// Malformed content with a line number and message.
    Parse { line: usize, msg: String },
    /// A vertex id at or beyond the declared vertex count (the edge-list
    /// `n_hint`, or a Matrix Market dimension). Rejected rather than
    /// silently growing the graph: a caller that declared a size wants
    /// ids outside it treated as corruption.
    VertexOutOfRange {
        /// 1-based input line.
        line: usize,
        /// The offending (0-based) vertex id.
        id: u64,
        /// Ids must be `< limit`.
        limit: u64,
    },
    /// A vertex id too large to represent: ids above [`MAX_VERTEX_ID`]
    /// would collide with the `u32::MAX` INVALID sentinel or overflow the
    /// `u32` vertex-count domain.
    IdOverflow {
        /// 1-based input line.
        line: usize,
        /// The offending (0-based) vertex id.
        id: u64,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Sbg(e) => write!(f, "{e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::VertexOutOfRange { line, id, limit } => write!(
                f,
                "vertex id {id} at line {line} is outside the declared vertex count {limit}"
            ),
            IoError::IdOverflow { line, id } => write!(
                f,
                "vertex id {id} at line {line} exceeds the maximum representable id {MAX_VERTEX_ID}"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Edges per parse-buffer flush in the streaming edge-list reader. At 8
/// bytes per parsed edge this bounds the reader's own staging memory at
/// 8 MiB regardless of input size; the builder it feeds is the only O(m)
/// consumer.
const CHUNK_EDGES: usize = 1 << 20;

/// Read-block size of the [`LineScanner`].
const BLOCK_BYTES: usize = 1 << 16;

/// Whole milliseconds in `d`, rounded to nearest, for the ingest
/// histograms.
pub(crate) fn round_ms(d: std::time::Duration) -> u64 {
    ((d.as_micros() + 500) / 1000) as u64
}

/// Splits a byte stream into lines at `\n`, the way [`BufRead::lines`]
/// numbers them (a last line without `\n` still counts), but without a
/// `String` or UTF-8 check per line. Lines are borrowed straight from the
/// read block; only a line that straddles two blocks is copied.
struct LineScanner<R> {
    inner: BufReader<R>,
    /// The line being assembled across block refills.
    carry: Vec<u8>,
    /// Bytes of the current block that the last returned line used.
    used: usize,
    /// 1-based number of the last returned line.
    line: usize,
}

impl<R: Read> LineScanner<R> {
    fn new(reader: R) -> Self {
        Self {
            inner: BufReader::with_capacity(BLOCK_BYTES, reader),
            carry: Vec::new(),
            used: 0,
            line: 0,
        }
    }

    /// The next line (without its `\n`) and its 1-based number, or `None`
    /// at end of input.
    fn next_line(&mut self) -> Result<Option<(usize, &[u8])>, IoError> {
        self.inner.consume(std::mem::take(&mut self.used));
        self.carry.clear();
        loop {
            let block = match self.inner.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if block.is_empty() {
                if self.carry.is_empty() {
                    return Ok(None);
                }
                self.line += 1;
                return Ok(Some((self.line, &self.carry)));
            }
            match block.iter().position(|&b| b == b'\n') {
                Some(i) if self.carry.is_empty() => {
                    self.used = i + 1;
                    self.line += 1;
                    return Ok(Some((self.line, &self.inner.buffer()[..i])));
                }
                Some(i) => {
                    self.carry.extend_from_slice(&block[..i]);
                    self.inner.consume(i + 1);
                    self.line += 1;
                    return Ok(Some((self.line, &self.carry)));
                }
                None => {
                    let len = block.len();
                    self.carry.extend_from_slice(block);
                    self.inner.consume(len);
                }
            }
        }
    }
}

/// The common line shape, parsed straight from bytes: `[ \t]*` then two
/// runs of at most 19 ASCII digits separated by `[ \t]+`, then either the
/// end of the line or an ASCII tail that starts with `' '`, `'\t'` or
/// `'\r'`. Both readers ignore whatever follows the second id, and an ASCII
/// tail is valid UTF-8, so on every line this accepts, the `str` path
/// (trim, `split_whitespace`, `u64::parse`) reads the same two ids. Any
/// other line returns `None` and takes that `str` path instead.
fn scan_pair(line: &[u8]) -> Option<(u64, u64)> {
    fn skip_blanks(line: &[u8], mut i: usize) -> usize {
        while i < line.len() && matches!(line[i], b' ' | b'\t') {
            i += 1;
        }
        i
    }
    fn digits(line: &[u8], start: usize) -> Option<(u64, usize)> {
        let mut i = start;
        let mut v = 0u64;
        while i < line.len() && line[i].is_ascii_digit() && i - start < 19 {
            v = v * 10 + (line[i] - b'0') as u64;
            i += 1;
        }
        // Twenty or more digits may overflow u64: leave them to `parse`.
        let longer = i < line.len() && line[i].is_ascii_digit();
        (i > start && !longer).then_some((v, i))
    }
    let (u, i) = digits(line, skip_blanks(line, 0))?;
    // Without a blank after `u`, the byte there is no digit either, so
    // the second `digits` fails: the separator needs no check of its own.
    let (v, k) = digits(line, skip_blanks(line, i))?;
    let tail = &line[k..];
    let clean = match tail.first() {
        None => true,
        Some(b' ' | b'\t' | b'\r') => tail.is_ascii(),
        Some(_) => false,
    };
    clean.then_some((u, v))
}

/// A line as `&str`, with the error `BufRead::lines` gives for invalid
/// UTF-8.
fn utf8(line: &[u8]) -> Result<&str, IoError> {
    std::str::from_utf8(line).map_err(|_| {
        IoError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// The `str` path of the edge-list reader: every line [`scan_pair`] does
/// not take, and every id it took that fails a range check. `Ok(None)` for
/// blank and comment lines.
fn parse_edge_str(
    line: usize,
    bytes: &[u8],
    n_hint: Option<usize>,
) -> Result<Option<(u32, u32)>, IoError> {
    let t = utf8(bytes)?.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let mut parse = || -> Result<u32, IoError> {
        let id = it
            .next()
            .ok_or_else(|| IoError::Parse {
                line,
                msg: "expected two vertex ids".into(),
            })?
            .parse::<u64>()
            .map_err(|e| IoError::Parse {
                line,
                msg: e.to_string(),
            })?;
        if id > MAX_VERTEX_ID {
            return Err(IoError::IdOverflow { line, id });
        }
        if let Some(limit) = n_hint {
            if id >= limit as u64 {
                return Err(IoError::VertexOutOfRange {
                    line,
                    id,
                    limit: limit as u64,
                });
            }
        }
        Ok(id as u32)
    };
    let u = parse()?;
    let v = parse()?;
    Ok(Some((u, v)))
}

/// Read a whitespace-separated edge list (`u v` per line, 0-based ids,
/// `#`/`%` comments).
///
/// Without a hint the vertex count is `max id + 1`. With `n_hint` the
/// count is exactly the hint, and any id `≥ n_hint` is rejected with
/// [`IoError::VertexOutOfRange`] — the graph never silently outgrows a
/// declared size. Ids above [`MAX_VERTEX_ID`] are rejected with
/// [`IoError::IdOverflow`] in either mode.
///
/// Lines come from a [`LineScanner`]; the common `u v` shape is parsed
/// from bytes ([`scan_pair`]) and every other line takes the `str` path,
/// which alone decides what is an error. Parsed edges stream through a
/// bounded chunk buffer ([`CHUNK_EDGES`]) flushed into the
/// [`GraphBuilder`] as it fills, so ingesting a 100M+ edge list holds one
/// copy of the edges (the builder's), not two, and never the whole file.
/// The `sb_graph_io_parse_buffer_peak_bytes` gauge records the staging
/// buffer's peak occupancy so tests can pin the bound; the
/// `sb_graph_io_parse_ms` and `sb_graph_build_ms` histograms split the
/// call's time between reading and CSR build.
pub fn read_edge_list<R: Read>(reader: R, n_hint: Option<usize>) -> Result<Graph, IoError> {
    read_edge_list_chunked(reader, n_hint, CHUNK_EDGES).map(|(g, _)| g)
}

/// Streaming core of [`read_edge_list`]; returns the graph together with
/// the staging buffer's peak byte occupancy (also exported through the
/// `sb_graph_io_parse_buffer_peak_bytes` gauge) so tests can assert the
/// memory bound without racing on the process-global registry.
pub(crate) fn read_edge_list_chunked<R: Read>(
    reader: R,
    n_hint: Option<usize>,
    chunk_edges: usize,
) -> Result<(Graph, usize), IoError> {
    assert!(chunk_edges > 0);
    let t = std::time::Instant::now();
    let mut lines = LineScanner::new(reader);
    let mut b = GraphBuilder::new(n_hint.unwrap_or(0));
    let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(chunk_edges);
    // Ids below `limit` pass both range checks.
    let limit = n_hint.map_or(MAX_VERTEX_ID + 1, |h| (h as u64).min(MAX_VERTEX_ID + 1));
    let mut max_id = 0u32;
    let mut any = false;
    let mut peak_bytes = 0usize;
    let mut flush = |b: &mut GraphBuilder, chunk: &mut Vec<(u32, u32)>, max_id: u32| {
        peak_bytes = peak_bytes.max(chunk.len() * std::mem::size_of::<(u32, u32)>());
        // Ids were range-checked against the hint on parse; without a hint
        // the vertex set grows to cover what this chunk saw.
        b.ensure_vertices(max_id as usize + 1);
        b.reserve(chunk.len());
        for &(u, v) in chunk.iter() {
            b.push(u, v);
        }
        chunk.clear();
    };
    while let Some((line, bytes)) = lines.next_line()? {
        let (u, v) = match scan_pair(bytes) {
            Some((u, v)) if u < limit && v < limit => (u as u32, v as u32),
            _ => match parse_edge_str(line, bytes, n_hint)? {
                Some(e) => e,
                None => continue,
            },
        };
        max_id = max_id.max(u).max(v);
        any = true;
        chunk.push((u, v));
        if chunk.len() == chunk_edges {
            flush(&mut b, &mut chunk, max_id);
        }
    }
    if !chunk.is_empty() || (any && b.num_vertices() <= max_id as usize) {
        flush(&mut b, &mut chunk, max_id);
    }
    // The staging buffer is dead now; free it before the build peaks.
    drop(chunk);
    let m = sb_metrics::global();
    m.gauge(
        "sb_graph_io_parse_buffer_peak_bytes",
        sb_metrics::Class::Runtime,
    )
    .set(peak_bytes as u64);
    m.histogram("sb_graph_io_parse_ms", sb_metrics::Class::Runtime)
        .observe(round_ms(t.elapsed()));
    Ok((b.build(), peak_bytes))
}

/// Write a graph as a 0-based edge list, one `u v` per line.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    for &[u, v] in g.edge_list() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// The `str` path of a Matrix Market entry line: the 1-based row and
/// column, or `Ok(None)` for a blank or comment line.
fn parse_entry_str(line: usize, bytes: &[u8]) -> Result<Option<(u64, u64)>, IoError> {
    let t = utf8(bytes)?.trim();
    if t.is_empty() || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let mut p = || -> Result<u64, IoError> {
        it.next()
            .ok_or(IoError::Parse {
                line,
                msg: "entry needs row and column".into(),
            })?
            .parse()
            .map_err(|_| IoError::Parse {
                line,
                msg: "bad index".into(),
            })
    };
    let r = p()?;
    let c = p()?;
    Ok(Some((r, c)))
}

/// Read a Matrix Market coordinate file as an undirected graph.
///
/// Accepts `pattern`/`real`/`integer` fields and `general`/`symmetric`
/// symmetry; numeric values are ignored (the study treats all graphs as
/// unweighted). Entries are 1-based per the format. Lines come from the
/// same [`LineScanner`] and [`scan_pair`] fast path as the edge-list
/// reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Graph, IoError> {
    let t = std::time::Instant::now();
    let mut lines = LineScanner::new(reader);

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (hline, head) = loop {
        match lines.next_line()? {
            Some((i, l)) => {
                let l = utf8(l)?;
                if !l.trim().is_empty() {
                    let head: Vec<String> =
                        l.split_whitespace().map(|s| s.to_lowercase()).collect();
                    break (i, head);
                }
            }
            None => {
                // Absolute-line contract: the header was expected on the
                // first line of the file.
                return Err(IoError::Parse {
                    line: 1,
                    msg: "empty file".into(),
                });
            }
        }
    };
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[2] != "coordinate" {
        return Err(IoError::Parse {
            line: hline,
            msg: "expected '%%MatrixMarket matrix coordinate ...'".into(),
        });
    }

    // Size line: rows cols nnz (skipping comments). Errors carry absolute
    // file lines: a missing size line points one past the last line that
    // exists (header and comments counted), not at the header.
    let mut last_line = hline;
    let (rows, cols, nnz, size_line) = loop {
        let (i, l) = lines.next_line()?.ok_or(IoError::Parse {
            line: last_line + 1,
            msg: "missing size line".into(),
        })?;
        last_line = i;
        let t = utf8(l)?.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(IoError::Parse {
                line: i,
                msg: "size line must have three fields".into(),
            });
        }
        let p = |s: &str| -> Result<usize, IoError> {
            s.parse().map_err(|_| IoError::Parse {
                line: i,
                msg: format!("bad size value '{s}'"),
            })
        };
        break (p(parts[0])?, p(parts[1])?, p(parts[2])?, i);
    };
    // Dimensions bound the 0-based ids below, so they must themselves fit
    // the id domain (dimension d admits ids up to d - 1).
    let max_dim = rows.max(cols);
    if max_dim as u64 > MAX_VERTEX_ID + 1 {
        return Err(IoError::IdOverflow {
            line: size_line,
            id: max_dim as u64 - 1,
        });
    }

    let mut b = GraphBuilder::new(max_dim);
    // `nnz` is the file's claim, not a measurement: reserve no more than
    // one staging chunk up front and let the vector grow past that.
    b.reserve(nnz.min(CHUNK_EDGES));
    let (rows, cols) = (rows as u64, cols as u64);
    let mut read = 0usize;
    while let Some((i, l)) = lines.next_line()? {
        let (r, c) = match scan_pair(l) {
            Some((r, c)) if (1..=rows).contains(&r) && (1..=cols).contains(&c) => (r, c),
            _ => match parse_entry_str(i, l)? {
                Some(e) => e,
                None => continue,
            },
        };
        if r == 0 || c == 0 {
            return Err(IoError::Parse {
                line: i,
                msg: "matrix market indices are 1-based (found a 0 index)".into(),
            });
        }
        // Entries beyond the declared dimensions are corruption, not a
        // request to grow the matrix.
        if r > rows {
            return Err(IoError::VertexOutOfRange {
                line: i,
                id: r - 1,
                limit: rows,
            });
        }
        if c > cols {
            return Err(IoError::VertexOutOfRange {
                line: i,
                id: c - 1,
                limit: cols,
            });
        }
        // Value field (if any) ignored.
        b.push((r - 1) as u32, (c - 1) as u32);
        read += 1;
    }
    if read != nnz {
        return Err(IoError::Parse {
            line: size_line,
            msg: format!("size line promised {nnz} entries, found {read}"),
        });
    }
    sb_metrics::global()
        .histogram("sb_graph_io_parse_ms", sb_metrics::Class::Runtime)
        .observe(round_ms(t.elapsed()));
    Ok(b.build())
}

/// Read a graph from a path, dispatching on extension (`.mtx` → Matrix
/// Market, `.sbg` → zero-copy mapped binary CSR, anything else → edge
/// list).
pub fn read_path(path: &Path) -> Result<Graph, IoError> {
    if path.extension().is_some_and(|e| e == "sbg") {
        return crate::sbg::map_sbg(path).map_err(|e| match e {
            crate::sbg::SbgError::Io(io) => IoError::Io(io),
            other => IoError::Sbg(other),
        });
    }
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "mtx") {
        read_matrix_market(f)
    } else {
        read_edge_list(f, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// The edge-list reader as it was before the byte scanner: one
    /// `String` per line from `BufRead::lines`, then trim,
    /// `split_whitespace` and `u64::parse`. Kept as the differential
    /// oracle for [`read_edge_list_chunked`].
    fn read_edge_list_lines<R: Read>(reader: R, n_hint: Option<usize>) -> Result<Graph, IoError> {
        let br = BufReader::new(reader);
        let mut edges = Vec::new();
        let mut max_id = 0u32;
        for (lineno, line) in br.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let parse = |s: Option<&str>| -> Result<u32, IoError> {
                let id = s
                    .ok_or_else(|| IoError::Parse {
                        line: lineno + 1,
                        msg: "expected two vertex ids".into(),
                    })?
                    .parse::<u64>()
                    .map_err(|e| IoError::Parse {
                        line: lineno + 1,
                        msg: e.to_string(),
                    })?;
                if id > MAX_VERTEX_ID {
                    return Err(IoError::IdOverflow {
                        line: lineno + 1,
                        id,
                    });
                }
                if let Some(limit) = n_hint {
                    if id >= limit as u64 {
                        return Err(IoError::VertexOutOfRange {
                            line: lineno + 1,
                            id,
                            limit: limit as u64,
                        });
                    }
                }
                Ok(id as u32)
            };
            let u = parse(it.next())?;
            let v = parse(it.next())?;
            max_id = max_id.max(u).max(v);
            edges.push((u, v));
        }
        let mut b = GraphBuilder::new(n_hint.unwrap_or(0));
        if !edges.is_empty() {
            b.ensure_vertices(max_id as usize + 1);
        }
        Ok(b.edges(edges).build())
    }

    /// A reader that hands out its bytes a few at a time (sizes cycle
    /// through `steps`), so lines straddle the scanner's block refills.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        steps: Vec<usize>,
        calls: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let step = self.steps[self.calls % self.steps.len()];
            self.calls += 1;
            let k = step.min(buf.len()).min(self.data.len() - self.pos);
            buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
            self.pos += k;
            Ok(k)
        }
    }

    /// What a reader returned, with errors reduced to their variant and
    /// fields (`Io` errors to their kind) so two readers can be compared.
    fn outcome(r: Result<Graph, IoError>) -> Result<Graph, String> {
        r.map_err(|e| match e {
            IoError::Io(e) => format!("Io({:?})", e.kind()),
            other => format!("{other:?}"),
        })
    }

    /// Pieces of edge-list text the soups below are made of: ids (at the
    /// `n_hint` choices' boundaries, at and past `MAX_VERTEX_ID`, 20
    /// digits, with `+`), separators (tabs, CRLF, U+00A0, U+3000),
    /// comments, stray tokens and invalid UTF-8.
    const PIECES: &[&[u8]] = &[
        b"0",
        b"1",
        b"2",
        b"3",
        b"7",
        b"8",
        b"12",
        b"13",
        b"007",
        b"+7",
        b"4294967293",
        b"4294967294",
        b"4294967295",
        b"9999999999999999999",
        b"12345678901234567890",
        b"99999999999999999999",
        b" ",
        b" ",
        b" ",
        b"\t",
        b"  \t",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        "\u{a0}".as_bytes(),
        "\u{3000}".as_bytes(),
        b"#",
        b"% c",
        b"x",
        b"-1",
        b"\xff",
        b"\xc3",
        b"\x0b",
    ];

    /// A line in the common shape, or (one time in ten) a soup of pieces.
    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        let id = || {
            let mut ids = ["0", "1", "2", "3", "4", "5", "6", "7"].repeat(4);
            ids.extend(["8", "12", "13", "4294967293"]);
            proptest::sample::select(ids)
        };
        let sep = proptest::sample::select(vec![" ", "\t", " \t "]);
        let end = proptest::sample::select(vec![
            &b"\n"[..],
            b"\r\n",
            b" \n",
            b" 5\n",
            b"",
            b" \xff\n",
            " \u{a0}x\n".as_bytes(),
        ]);
        let shaped = ((id(), sep, id()), end, 0usize..10);
        let soup = proptest::collection::vec(proptest::sample::select(PIECES.to_vec()), 0..8);
        (shaped, soup).prop_map(|(((u, s, v), end, kind), soup)| {
            if kind == 0 {
                soup.concat()
            } else {
                [format!("{u}{s}{v}").as_bytes(), end].concat()
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_scanner_matches_lines_oracle(
            input in (
                proptest::collection::vec(arb_line(), 0..12),
                proptest::sample::select(vec![None, None, None, Some(8), Some(13), Some(14)]),
                (proptest::collection::vec(1usize..8, 1..6), 1usize..4),
            )
        ) {
            let (lines, n_hint, (steps, chunk)) = input;
            let data = lines.concat();
            // Without a hint the vertex count is `max id + 1`, and soups
            // can spell ids up to `MAX_VERTEX_ID`: read those under a
            // 1000-vertex hint rather than allocate billions of vertices.
            let n_hint = n_hint.or_else(|| {
                let big = read_edge_list_lines(Cursor::new(&data), Some(1000));
                matches!(big, Err(IoError::VertexOutOfRange { .. })).then_some(1000)
            });
            let want = outcome(read_edge_list_lines(Cursor::new(&data), n_hint));
            let trickle = Trickle { data: data.clone(), pos: 0, steps, calls: 0 };
            let got = outcome(read_edge_list_chunked(trickle, n_hint, chunk).map(|(g, _)| g));
            prop_assert_eq!(&got, &want, "input {:?} hint {:?}", String::from_utf8_lossy(&data), n_hint);
        }
    }

    #[test]
    fn line_scanner_numbers_lines_like_buf_read_lines() {
        for text in ["", "\n", "a", "a\n", "a\nb", "a\r\n\nb\n\n", "\n\n\n"] {
            let trickle = Trickle {
                data: text.as_bytes().to_vec(),
                pos: 0,
                steps: vec![1, 2, 3],
                calls: 0,
            };
            let mut scanner = LineScanner::new(trickle);
            let mut got = Vec::new();
            while let Some((i, l)) = scanner.next_line().unwrap() {
                got.push((i, String::from_utf8(l.to_vec()).unwrap()));
            }
            let want: Vec<(usize, String)> = Cursor::new(text)
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.unwrap()))
                .collect();
            // `lines` strips a `\r` before `\n`; the scanner leaves it for
            // the callers' trim.
            let got: Vec<(usize, String)> = got
                .into_iter()
                .map(|(i, l)| (i, l.trim_end_matches('\r').to_string()))
                .collect();
            assert_eq!(got, want, "{text:?}");
        }
    }

    #[test]
    fn matrix_market_huge_nnz_claim_is_a_parse_error_not_an_abort() {
        // The size line is untrusted input: a promise of 10^12 entries must
        // not become a 10^12-entry allocation.
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    3 3 1000000000000\n1 2\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        let IoError::Parse { line, msg } = &err else {
            panic!("{err}")
        };
        assert_eq!(*line, 2, "{err}");
        assert!(
            msg.contains("size line promised 1000000000000 entries, found 1"),
            "{err}"
        );
    }

    #[test]
    fn matrix_market_entry_shapes_take_both_paths_alike() {
        // Values, tabs, CRLF, a vertical tab and a `+` sign: some lines
        // take the byte fast path, some the `str` path; all must read.
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    4 4 6\n1 2 0.5\n2\t3\r\n3 4\x0b9\n+1 4\n 4  2 \n2 1 1e3\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_list(), &[[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]);
        let err = read_matrix_market(Cursor::new(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2x\n",
        ))
        .unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn edge_list_round_trip() {
        let g = crate::builder::from_edge_list(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), Some(5)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n% other comment\n1 2\n";
        let g = read_edge_list(Cursor::new(text), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list(Cursor::new("0 x\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
        let err = read_edge_list(Cursor::new("5\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn matrix_market_symmetric_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    4 4 3\n1 2\n2 3\n4 4\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 4);
        // Self-loop (4,4) dropped.
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn matrix_market_general_with_values_symmetrizes() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 4\n1 2 1.5\n2 1 2.5\n2 3 0.1\n3 3 9.0\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        // (1,2) and (2,1) merge, (3,3) self-loop drops.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn matrix_market_entry_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 2\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn matrix_market_bad_header() {
        let text = "%%NotMatrixMarket nope\n1 1 0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn matrix_market_header_case_and_whitespace_tolerant() {
        let text =
            "%%MATRIXMARKET MATRIX COORDINATE PATTERN SYMMETRIC\n  3   3   2 \n 1  2 \n2\t3\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn matrix_market_crlf_line_endings() {
        let text = "%%MatrixMarket matrix coordinate pattern general\r\n2 2 1\r\n1 2\r\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn matrix_market_rectangular_uses_max_dimension() {
        // Bipartite-style rectangular matrices appear in the UFL set; the
        // reader sizes the vertex set by max(rows, cols).
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 5 1\n1 5\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn matrix_market_rejects_zero_index() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn edge_list_rejects_ids_beyond_hint() {
        // A declared size is a contract, not a lower bound: ids past it
        // are corruption, never silent growth.
        let err = read_edge_list(Cursor::new("0 1\n2 5\n"), Some(3)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 2,
                    id: 5,
                    limit: 3
                }
            ),
            "{err}"
        );
        // Equal to the hint is already out of range (ids are 0-based).
        let err = read_edge_list(Cursor::new("0 3\n"), Some(3)).unwrap_err();
        assert!(
            matches!(err, IoError::VertexOutOfRange { id: 3, .. }),
            "{err}"
        );
        // The same input reads fine without the hint.
        let g = read_edge_list(Cursor::new("0 1\n2 5\n"), None).unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn edge_list_rejects_ids_near_u32_boundary() {
        // u32::MAX is the INVALID sentinel and u32::MAX - 1 would need a
        // vertex count of u32::MAX; both are typed errors instead of a
        // builder panic (or a sentinel-colliding graph).
        for id in [u32::MAX as u64, u32::MAX as u64 - 1] {
            let err = read_edge_list(Cursor::new(format!("0 {id}\n")), None).unwrap_err();
            assert!(
                matches!(err, IoError::IdOverflow { line: 1, id: got } if got == id),
                "{err}"
            );
        }
        // The largest representable id is accepted by the parser (the
        // range check fires before any allocation).
        let err = read_edge_list(Cursor::new(format!("0 {MAX_VERTEX_ID}\n")), Some(4)).unwrap_err();
        assert!(matches!(err, IoError::VertexOutOfRange { .. }), "{err}");
        // Ids past u64 remain plain parse errors.
        let err = read_edge_list(Cursor::new("0 99999999999999999999999\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }), "{err}");
    }

    #[test]
    fn matrix_market_rejects_entries_beyond_declared_dims() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 3,
                    id: 2,
                    limit: 2
                }
            ),
            "{err}"
        );
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(matches!(
            read_matrix_market(Cursor::new(text)).unwrap_err(),
            IoError::VertexOutOfRange { line: 3, id: 2, .. }
        ));
    }

    #[test]
    fn matrix_market_rejects_overflowing_dimensions() {
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{} 2 0\n",
            u32::MAX
        );
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::IdOverflow { line: 2, .. }), "{err}");
    }

    #[test]
    fn matrix_market_line_numbers_are_absolute_file_lines() {
        // Comments and the header count: the bad entry below sits on
        // physical line 7, and that is the line the error must name, not
        // its rank within the data section (which would be 2).
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % comment line 2\n\
                    % comment line 3\n\
                    3 3 3\n\
                    1 2\n\
                    % comment line 6\n\
                    0 3\n\
                    2 3\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 7, .. }), "{err}");

        // Same file shape, out-of-range entry instead: still line 7.
        let text = text.replace("0 3", "9 3");
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 7,
                    id: 8,
                    limit: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn matrix_market_size_line_errors_are_absolute() {
        // The malformed size line is physical line 4 (header + 2 comments).
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % c\n% c\nnot a size line\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 4, .. }), "{err}");

        // A file that ends before any size line points one past its last
        // physical line (line 4 here), not at the header.
        let text = "%%MatrixMarket matrix coordinate pattern general\n% c\n% c\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        let IoError::Parse { line, msg } = &err else {
            panic!("{err}")
        };
        assert_eq!(*line, 4, "{err}");
        assert!(msg.contains("missing size line"));
    }

    #[test]
    fn matrix_market_empty_file_reports_line_one() {
        let err = read_matrix_market(Cursor::new("")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        let err = read_matrix_market(Cursor::new("\n\n  \n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn matrix_market_count_mismatch_points_at_size_line() {
        // Size line is physical line 3 after one comment; the mismatch is
        // reported against the promise made there.
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % c\n2 2 3\n1 2\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn edge_list_streaming_chunks_match_buffered_read() {
        // 1000 edges through a 7-edge chunk buffer must build the same
        // graph as one big buffer, with peak staging bounded by the chunk.
        let mut text = String::new();
        let n = 200u32;
        for i in 0..1000u32 {
            text.push_str(&format!("{} {}\n", i % n, (i * 7 + 3) % n));
        }
        let (small, small_peak) = read_edge_list_chunked(Cursor::new(&text), None, 7).unwrap();
        let (big, big_peak) = read_edge_list_chunked(Cursor::new(&text), None, 1 << 20).unwrap();
        assert_eq!(small, big);
        assert!(
            small_peak <= 7 * 8,
            "staging peak {small_peak} exceeds the 7-edge chunk bound"
        );
        // The wide-chunk path stages everything; the bounded path must not.
        assert_eq!(big_peak, 1000 * 8);
        assert!(small_peak < big_peak);
    }

    #[test]
    fn edge_list_streaming_grows_vertex_set_across_chunks() {
        // Max id appears in the last chunk; earlier flushes must not have
        // frozen the vertex count.
        let text = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n90 91\n";
        let (g, _) = read_edge_list_chunked(Cursor::new(text), None, 2).unwrap();
        assert_eq!(g.num_vertices(), 92);
        assert_eq!(g.num_edges(), 7);
        g.validate().unwrap();
    }

    #[test]
    fn edge_list_fuzz_case_duplicate_selfloop_heavy_with_hint() {
        // Minimized from a fuzzed raw edge list: duplicates, self-loops,
        // comments interleaved, and an id exactly at the hint boundary on
        // the last line. The reader must dedup/drop-loops for the valid
        // prefix and still flag the trailing violation with its line.
        let text = "3 3\n0 1\n1 0\n# dup\n0 1\n2 2\n\n1 4\n";
        let err = read_edge_list(Cursor::new(text), Some(4)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 8,
                    id: 4,
                    limit: 4
                }
            ),
            "{err}"
        );
        // One more vertex of headroom and the same input is clean.
        let ok = read_edge_list(Cursor::new(text), Some(5)).unwrap();
        assert_eq!(ok.num_vertices(), 5);
        assert_eq!(
            ok.num_edges(),
            2,
            "(0,1) survives dedup, (1,4) stays, loops drop"
        );
    }
}
