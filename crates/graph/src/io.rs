//! Parallel graph IO — the PIGO substitute.
//!
//! The paper uses PIGO (Gabert & Çatalyürek, IPDPSW '21) for parallel graph
//! ingest. We provide the same capability at the scale this reproduction
//! needs: a whitespace-separated edge-list format (one `u v [w]` per line,
//! `#`/`%` comments) parsed in parallel by splitting the input at line
//! boundaries and handing chunks to Rayon.

use mggcn_sparse::{Coo, Csr};
use rayon::prelude::*;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Errors from graph file parsing.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse { line: String, reason: &'static str },
    Empty,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, reason } => write!(f, "parse error ({reason}): {line:?}"),
            IoError::Empty => write!(f, "no edges found"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Weighted edges of one parsed chunk.
type EdgeChunk = Vec<(u32, u32, f32)>;

/// Parse an edge list from a string, in parallel. Vertex count is
/// `max id + 1` unless `n` is given.
pub fn parse_edge_list(text: &str, n: Option<usize>) -> Result<Csr, IoError> {
    // Split into ~per-core chunks at line boundaries.
    let chunks = line_chunks(text, rayon::current_num_threads().max(1) * 4);
    let parsed: Result<Vec<EdgeChunk>, IoError> = chunks
        .into_par_iter()
        .map(|chunk| {
            let mut edges = Vec::new();
            for line in chunk.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                    continue;
                }
                let mut it = line.split_whitespace();
                let u: u32 = it
                    .next()
                    .ok_or(IoError::Parse { line: line.into(), reason: "missing source" })?
                    .parse()
                    .map_err(|_| IoError::Parse { line: line.into(), reason: "bad source" })?;
                let v: u32 = it
                    .next()
                    .ok_or(IoError::Parse { line: line.into(), reason: "missing target" })?
                    .parse()
                    .map_err(|_| IoError::Parse { line: line.into(), reason: "bad target" })?;
                // `f32::from_str` takes `nan` and `inf`; an adjacency entry
                // must be a number every kernel can multiply by.
                let w: f32 = match it.next() {
                    Some(s) => s
                        .parse()
                        .ok()
                        .filter(|w: &f32| w.is_finite())
                        .ok_or(IoError::Parse { line: line.into(), reason: "bad weight" })?,
                    None => 1.0,
                };
                edges.push((u, v, w));
            }
            Ok(edges)
        })
        .collect();
    let parsed = parsed?;
    let max_id = parsed
        .iter()
        .flat_map(|c| c.iter())
        .map(|&(u, v, _)| u.max(v))
        .max()
        .ok_or(IoError::Empty)?;
    let n = n.unwrap_or(max_id as usize + 1);
    if n <= max_id as usize {
        return Err(IoError::Parse { line: format!("vertex id {max_id}"), reason: "id ≥ n" });
    }
    let mut coo = Coo::with_capacity(n, n, parsed.iter().map(Vec::len).sum());
    for chunk in parsed {
        for (u, v, w) in chunk {
            coo.push(u, v, w);
        }
    }
    Ok(coo.to_csr())
}

/// Split `text` into at most `want` chunks, each ending at a line boundary.
fn line_chunks(text: &str, want: usize) -> Vec<&str> {
    if text.is_empty() {
        return vec![];
    }
    let step = (text.len() / want).max(1);
    let mut chunks = Vec::with_capacity(want + 1);
    let mut start = 0;
    while start < text.len() {
        // Search bytes, not `text[tentative..]`: `tentative` may fall inside
        // a multi-byte character, one past a newline never does.
        let tentative = (start + step).min(text.len());
        let end = match text.as_bytes()[tentative..].iter().position(|&b| b == b'\n') {
            Some(off) => tentative + off + 1,
            None => text.len(),
        };
        chunks.push(&text[start..end]);
        start = end;
    }
    chunks
}

/// Read an edge-list file.
pub fn read_edge_list(path: &Path, n: Option<usize>) -> Result<Csr, IoError> {
    let text = fs::read_to_string(path)?;
    parse_edge_list(&text, n)
}

/// Write a CSR matrix as an edge list (unit weights are omitted).
pub fn write_edge_list(path: &Path, a: &Csr) -> Result<(), IoError> {
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "# {} vertices, {} edges", a.rows(), a.nnz())?;
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            if v == 1.0 {
                writeln!(out, "{r} {c}")?;
            } else {
                writeln!(out, "{r} {c} {v}")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_edges() {
        let g = parse_edge_list("0 1\n1 2 0.5\n2 0\n", None).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.row(1).collect::<Vec<_>>(), vec![(2, 0.5)]);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let g = parse_edge_list("# header\n\n% more\n0 1\n", None).unwrap();
        assert_eq!(g.nnz(), 1);
    }

    #[test]
    fn parse_respects_explicit_n() {
        let g = parse_edge_list("0 1\n", Some(10)).unwrap();
        assert_eq!(g.rows(), 10);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_edge_list("a b\n", None).is_err());
        assert!(parse_edge_list("1\n", None).is_err());
        assert!(parse_edge_list("", None).is_err());
    }

    #[test]
    fn parse_rejects_non_finite_weights() {
        for w in ["nan", "NaN", "inf", "-inf", "infinity", "1e99"] {
            let err = parse_edge_list(&format!("0 1 {w}\n"), None).unwrap_err();
            assert!(matches!(err, IoError::Parse { reason: "bad weight", .. }), "{w}: {err}");
        }
    }

    #[test]
    fn chunking_never_splits_a_multibyte_character() {
        let text = "# café ☕ — ünïcödé header\n0 1\n# ☕☕☕☕☕☕☕☕\n1 2\n".repeat(7);
        for want in 1..40 {
            assert_eq!(line_chunks(&text, want).concat(), text);
        }
        assert_eq!(parse_edge_list(&text, None).unwrap().nnz(), 2);
    }

    #[test]
    fn parse_rejects_id_out_of_range() {
        assert!(parse_edge_list("0 5\n", Some(3)).is_err());
    }

    #[test]
    fn roundtrip_through_file() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 2.5);
        coo.push(3, 0, 1.0);
        let orig = coo.to_csr();
        let path = std::env::temp_dir().join(format!("mggcn_io_test_{}.el", std::process::id()));
        write_edge_list(&path, &orig).unwrap();
        let back = read_edge_list(&path, Some(4)).unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(orig, back);
    }

    #[test]
    fn large_input_parallel_parse() {
        let mut text = String::new();
        for i in 0..5000u32 {
            text.push_str(&format!("{} {}\n", i, (i + 1) % 5000));
        }
        let g = parse_edge_list(&text, None).unwrap();
        assert_eq!(g.nnz(), 5000);
        assert_eq!(g.rows(), 5000);
    }

    #[test]
    fn line_chunks_cover_everything() {
        let text = "a\nbb\nccc\ndddd\n";
        let chunks = line_chunks(text, 3);
        let joined: String = chunks.concat();
        assert_eq!(joined, text);
    }
}
