//! File-based input/output for the paper's `.datalog` workflow.
//!
//! The paper's architecture (§4) reads "a .datalog file, which, along with
//! the rules of the Datalog program, provides paths for the input and
//! output tables". This module implements that workflow over the
//! prepare-once API: relations named in `.input` directives load from
//! `<facts-dir>/<name>.facts` into a [`Database`], the
//! [`PreparedProgram`] runs, and relations named in `.output` directives
//! are written to `<out-dir>/<name>.csv`. The program is compiled exactly
//! once — input arities come from the compiled plan, not a second parse.
//!
//! ## `.facts` grammar
//!
//! One fact per line (`\n` or `\r\n`; the last line needs no newline),
//! its values decimal `i64`s with an optional sign (`i64::MIN` and
//! `i64::MAX` included), separated by any run of spaces, tabs and commas.
//! Blank lines and lines whose first non-separator text is `#` or `//`
//! are skipped. Everything else is an error naming the file and the
//! 1-based line: `path:line: invalid integer '…'` for a token that is not
//! an `i64` (`2x`, `1.5`, a trailing `# comment`, a value outside `i64`),
//! `path:line: expected N values, found M` for a fact of the wrong arity.
//! A rejected file loads nothing.
//!
//! [`load_facts_file`] reads the file with one `fs::read`, splits it into
//! newline-aligned chunks of at least 1 MiB (at most one per available
//! core), parses the chunks in parallel straight into per-chunk column
//! vectors — no `String` or `Vec` per fact, no row-to-column transpose —
//! and moves the concatenated columns into the relation.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::path::Path;

use recstep_common::{Error, Result, Value};

use crate::db::Database;
use crate::prepared::PreparedProgram;
use crate::stats::EvalStats;

/// Smallest chunk a `.facts` file is split into for parallel parsing.
const MIN_CHUNK_BYTES: usize = 1 << 20;

/// Load integer facts (see the module docs for the grammar) from `path`
/// into relation `name` (created with `arity` if absent). Returns the
/// number of facts loaded; a malformed line fails the whole load with a
/// `path:line:` error.
pub fn load_facts_file(db: &mut Database, name: &str, arity: usize, path: &Path) -> Result<usize> {
    let bytes =
        fs::read(path).map_err(|e| Error::exec(format!("cannot open {}: {e}", path.display())))?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let cols = parse_facts(&bytes, arity, MIN_CHUNK_BYTES, workers)
        .map_err(|e| e.into_error(path, &bytes, arity))?;
    let n = cols.first().map_or(0, Vec::len);
    let mut tx = db.transaction();
    tx.load_columns(name, arity, cols)?;
    tx.commit()?;
    Ok(n)
}

/// Arity of the first fact in `path` — the number of values on its first
/// line that is not blank or a comment — or `None` when it holds no fact.
/// Reads line by line, so only the head of the file is touched.
pub fn sniff_facts_arity(path: &Path) -> Result<Option<usize>> {
    let file = fs::File::open(path)
        .map_err(|e| Error::exec(format!("cannot open {}: {e}", path.display())))?;
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    for lineno in 1.. {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        match scan_line(&line, 0, |_, _| {}) {
            Ok((_, 0)) => {}
            Ok((_, n)) => return Ok(Some(n)),
            Err(tok) => return Err(invalid_integer(path, lineno, &line[tok])),
        }
    }
    Ok(None)
}

/// A rejected fact line, located by the byte offset of its start.
#[derive(Debug)]
struct FactError {
    line_start: usize,
    kind: FactErrorKind,
}

#[derive(Debug)]
enum FactErrorKind {
    /// The token at this byte range is not an `i64`.
    Integer(Range<usize>),
    /// The line held this many values.
    Arity(usize),
}

impl FactError {
    /// The user-facing error, with the line's global 1-based number.
    fn into_error(self, path: &Path, bytes: &[u8], arity: usize) -> Error {
        let line = 1 + bytes[..self.line_start]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        match self.kind {
            FactErrorKind::Integer(tok) => invalid_integer(path, line, &bytes[tok]),
            FactErrorKind::Arity(found) => Error::exec(format!(
                "{}:{line}: expected {arity} values, found {found}",
                path.display()
            )),
        }
    }
}

fn invalid_integer(path: &Path, line: usize, tok: &[u8]) -> Error {
    const SHOWN: usize = 32;
    let text = String::from_utf8_lossy(&tok[..tok.len().min(SHOWN)]);
    let more = if tok.len() > SHOWN { "…" } else { "" };
    Error::exec(format!(
        "{}:{line}: invalid integer '{text}{more}'",
        path.display()
    ))
}

/// Bytes that separate values: spaces, tabs, commas, and the `\r` of a
/// CRLF line end.
#[inline]
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b',' | b'\r')
}

/// A decimal `i64` with an optional sign, or `None`.
#[inline]
fn parse_int(tok: &[u8]) -> Option<Value> {
    let (negative, digits) = match tok {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, tok),
    };
    if digits.is_empty() {
        return None;
    }
    let mut acc = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    if negative {
        // `acc as i64` is `i64::MIN` for 2^63, whose negation is itself.
        (acc <= 1 << 63).then(|| (acc as Value).wrapping_neg())
    } else {
        Value::try_from(acc).ok()
    }
}

/// Scan the line starting at byte `i` of `b`, handing each value to
/// `emit(index, value)`. Returns the offset just past the line (after its
/// `\n`, or `b.len()`) and its number of values — 0 for blank and comment
/// lines — or the byte range of the first token that is not an `i64`.
#[inline]
fn scan_line(
    b: &[u8],
    mut i: usize,
    mut emit: impl FnMut(usize, Value),
) -> std::result::Result<(usize, usize), Range<usize>> {
    let n = b.len();
    while i < n && is_separator(b[i]) {
        i += 1;
    }
    let comment = b[i..].starts_with(b"#") || b[i..].starts_with(b"//");
    let mut count = 0;
    if comment {
        while i < n && b[i] != b'\n' {
            i += 1;
        }
    }
    while i < n && b[i] != b'\n' {
        let start = i;
        while i < n && b[i] != b'\n' && !is_separator(b[i]) {
            i += 1;
        }
        emit(count, parse_int(&b[start..i]).ok_or(start..i)?);
        count += 1;
        while i < n && is_separator(b[i]) {
            i += 1;
        }
    }
    Ok(((i + 1).min(n), count))
}

/// Parse the lines in `b[start..end]` into `arity` columns.
fn parse_chunk(
    b: &[u8],
    start: usize,
    end: usize,
    arity: usize,
) -> std::result::Result<Vec<Vec<Value>>, FactError> {
    let b = &b[..end];
    // A guess of about four bytes per value: growth past it is amortized,
    // and the caller trims the excess.
    let guess = (end - start) / (4 * arity.max(1));
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(guess)).collect();
    let mut i = start;
    while i < end {
        let line_start = i;
        let scanned = scan_line(b, i, |k, v| {
            if let Some(col) = cols.get_mut(k) {
                col.push(v);
            }
        });
        let (next, count) = scanned.map_err(|tok| FactError {
            line_start,
            kind: FactErrorKind::Integer(tok),
        })?;
        if count != 0 && count != arity {
            return Err(FactError {
                line_start,
                kind: FactErrorKind::Arity(count),
            });
        }
        i = next;
    }
    Ok(cols)
}

/// Chunk boundaries of `b`: `0`, then newline-aligned cuts at least
/// `min_chunk` bytes apart (at most `max_chunks` chunks), then `b.len()`.
fn chunk_cuts(b: &[u8], min_chunk: usize, max_chunks: usize) -> Vec<usize> {
    let k = (b.len() / min_chunk.max(1)).clamp(1, max_chunks.max(1));
    let mut cuts = vec![0];
    for c in 1..k {
        let mut p = (b.len() * c / k).max(cuts[cuts.len() - 1]);
        while p < b.len() && p > 0 && b[p - 1] != b'\n' {
            p += 1;
        }
        if p > cuts[cuts.len() - 1] && p < b.len() {
            cuts.push(p);
        }
    }
    cuts.push(b.len());
    cuts
}

/// Parse a whole `.facts` buffer into `arity` columns: newline-aligned
/// chunks of at least `min_chunk` bytes, at most `max_chunks` of them
/// parsed in parallel, concatenated in file order. On error, the first
/// rejected line of the file.
fn parse_facts(
    b: &[u8],
    arity: usize,
    min_chunk: usize,
    max_chunks: usize,
) -> std::result::Result<Vec<Vec<Value>>, FactError> {
    let cuts = chunk_cuts(b, min_chunk, max_chunks);
    let mut parts = std::thread::scope(|scope| {
        let rest: Vec<_> = cuts[1..]
            .windows(2)
            .map(|w| scope.spawn(move || parse_chunk(b, w[0], w[1], arity)))
            .collect();
        let mut parts = vec![parse_chunk(b, cuts[0], cuts[1], arity)];
        parts.extend(
            rest.into_iter()
                .map(|h| h.join().expect("fact parser panicked")),
        );
        parts
    })
    .into_iter()
    .collect::<std::result::Result<Vec<_>, _>>()?;
    if parts.len() == 1 {
        let mut cols = parts.pop().expect("one part");
        for col in &mut cols {
            col.shrink_to_fit();
        }
        return Ok(cols);
    }
    let rows: usize = parts.iter().map(|p| p.first().map_or(0, Vec::len)).sum();
    Ok((0..arity)
        .map(|c| {
            let mut col = Vec::with_capacity(rows);
            for part in &parts {
                col.extend_from_slice(&part[c]);
            }
            col
        })
        .collect())
}

/// Bytes of CSV text gathered before each write to the output file.
const WRITE_BLOCK: usize = 1 << 20;

/// Write a relation as CSV to `path`: one row per line, values in decimal
/// separated by `,`. Returns the number of rows written.
///
/// Walks the column slices, formats each value into one reusable buffer
/// and writes it in blocks of about 1 MiB.
pub fn write_relation_csv(db: &Database, name: &str, path: &Path) -> Result<usize> {
    let rel = db
        .relation(name)
        .ok_or_else(|| Error::exec(format!("unknown relation '{name}'")))?;
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let cols: Vec<&[Value]> = (0..rel.arity()).map(|c| rel.col(c)).collect();
    let mut file = fs::File::create(path)?;
    let mut buf = Vec::with_capacity(WRITE_BLOCK + 32 * cols.len().max(1));
    for r in 0..rel.len() {
        for (c, col) in cols.iter().enumerate() {
            if c > 0 {
                buf.push(b',');
            }
            push_decimal(&mut buf, col[r]);
        }
        buf.push(b'\n');
        if buf.len() >= WRITE_BLOCK {
            file.write_all(&buf)?;
            buf.clear();
        }
    }
    file.write_all(&buf)?;
    Ok(rel.len())
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `v` in decimal, as `Display` would (`i64::MIN` included).
fn push_decimal(buf: &mut Vec<u8>, v: Value) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut u = v.unsigned_abs();
    while u >= 100 {
        let pair = (u % 100) as usize * 2;
        u /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if u >= 10 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[u as usize * 2..u as usize * 2 + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + u as u8;
    }
    if v < 0 {
        buf.push(b'-');
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Run the full `.datalog` file workflow over an already-prepared program:
/// load every `.input` relation from `facts_dir/<name>.facts` into `db`,
/// evaluate, and write every `.output` relation to `out_dir/<name>.csv`.
/// Returns the evaluation statistics plus `(relation, rows)` pairs written.
pub fn run_datalog_file(
    prepared: &PreparedProgram,
    db: &mut Database,
    facts_dir: &Path,
    out_dir: &Path,
) -> Result<(EvalStats, Vec<(String, usize)>)> {
    // Load .input relations before evaluation (arities from the plan).
    for name in prepared.inputs() {
        let arity = prepared
            .compiled()
            .arity_of(name)
            .ok_or_else(|| Error::exec(format!("unknown input relation '{name}'")))?;
        load_facts_file(db, name, arity, &facts_dir.join(format!("{name}.facts")))?;
    }
    let stats = prepared.run(db)?;
    // Write .output relations (default: every IDB when none declared).
    let outputs: Vec<String> = if prepared.outputs().is_empty() {
        prepared
            .compiled()
            .idb_names()
            .map(str::to_string)
            .collect()
    } else {
        prepared.outputs().to_vec()
    };
    let mut written = Vec::with_capacity(outputs.len());
    for name in outputs {
        let rows = write_relation_csv(db, &name, &out_dir.join(format!("{name}.csv")))?;
        written.push((name, rows));
    }
    Ok((stats, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("recstep-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn facts_file_roundtrip() {
        let dir = tmpdir("roundtrip");
        fs::write(dir.join("arc.facts"), "# graph\n0 1\n1,2\n\n2\t3\n").unwrap();
        let mut db = Database::new().unwrap();
        let n = load_facts_file(&mut db, "arc", 2, &dir.join("arc.facts")).unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.row_count("arc"), 3);
        let written = write_relation_csv(&db, "arc", &dir.join("out/arc.csv")).unwrap();
        assert_eq!(written, 3);
        let text = fs::read_to_string(dir.join("out/arc.csv")).unwrap();
        assert_eq!(text, "0,1\n1,2\n2,3\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_writer_matches_display_and_round_trips() {
        let dir = tmpdir("csv");
        let edge = [0, 7, -1, 9, 10, 99, 100, -100, 12_345, -987_654_321];
        let extremes = [Value::MIN, Value::MAX, Value::MIN + 1, Value::MAX - 1];
        let values: Vec<Value> = edge
            .iter()
            .chain(&extremes)
            .copied()
            .chain((0..18).map(|p| 10i64.pow(p)))
            .chain((1..19).map(|p| -(10i64.pow(p)) + 1))
            .collect();
        let mut db = Database::new().unwrap();
        for arity in [1usize, 2, 3] {
            let name = format!("r{arity}");
            let cols: Vec<Vec<Value>> = (0..arity)
                .map(|c| {
                    values
                        .iter()
                        .cycle()
                        .skip(c * 5)
                        .take(values.len())
                        .copied()
                        .collect()
                })
                .collect();
            let mut tx = db.transaction();
            tx.load_columns(&name, arity, cols.clone()).unwrap();
            tx.commit().unwrap();
            let path = dir.join(format!("{name}.csv"));
            assert_eq!(write_relation_csv(&db, &name, &path).unwrap(), values.len());
            // The formatting `write!` per value produced.
            let mut expect = String::new();
            for r in 0..values.len() {
                let row: Vec<String> = cols.iter().map(|c| c[r].to_string()).collect();
                expect.push_str(&row.join(","));
                expect.push('\n');
            }
            assert_eq!(fs::read_to_string(&path).unwrap(), expect, "arity {arity}");
            let back = format!("{name}_back");
            assert_eq!(
                load_facts_file(&mut db, &back, arity, &path).unwrap(),
                values.len()
            );
            let loaded = db.relation(&back).unwrap();
            for (c, col) in cols.iter().enumerate() {
                assert_eq!(loaded.col(c), col.as_slice(), "arity {arity} col {c}");
            }
        }
        // Rows spanning several write blocks.
        let big: Vec<Value> = (0..WRITE_BLOCK as Value / 4)
            .map(|i| i * 7919 - 1)
            .collect();
        let mut tx = db.transaction();
        tx.load_columns("big", 1, vec![big.clone()]).unwrap();
        tx.commit().unwrap();
        let path = dir.join("big.csv");
        write_relation_csv(&db, "big", &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.len() > 2 * WRITE_BLOCK);
        assert!(text.lines().map(|l| l.parse::<Value>().unwrap()).eq(big));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn arity_mismatch_in_facts_file_is_reported_with_position() {
        let dir = tmpdir("arity");
        fs::write(dir.join("arc.facts"), "0 1\n2 3 4\n").unwrap();
        let mut db = Database::new().unwrap();
        let err = load_facts_file(&mut db, "arc", 2, &dir.join("arc.facts")).unwrap_err();
        assert!(err.to_string().contains(":2:"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn parse(text: &str, arity: usize, min_chunk: usize, chunks: usize) -> Vec<Vec<Value>> {
        parse_facts(text.as_bytes(), arity, min_chunk, chunks).unwrap()
    }

    /// The `path:line:` message of the error a malformed buffer produces.
    fn parse_err(text: &str, arity: usize, min_chunk: usize, chunks: usize) -> String {
        let err = parse_facts(text.as_bytes(), arity, min_chunk, chunks)
            .unwrap_err()
            .into_error(Path::new("f.facts"), text.as_bytes(), arity)
            .to_string();
        err[err.find("f.facts:").expect("path in message")..].to_string()
    }

    #[test]
    fn mixed_format_is_accepted() {
        let text = "# header\r\n\r\n// note\n1 2\r\n3,4\n\t5\t\t6 \n, -7 ,, +8,\n\
                    -9223372036854775808 9223372036854775807\n  # indented comment\n10 11";
        let cols = parse(text, 2, 1 << 20, 4);
        assert_eq!(
            cols,
            vec![
                vec![1, 3, 5, -7, Value::MIN, 10],
                vec![2, 4, 6, 8, Value::MAX, 11]
            ]
        );
        assert_eq!(parse("", 2, 1 << 20, 4), vec![Vec::<Value>::new(); 2]);
        assert_eq!(parse("# only a comment", 1, 1 << 20, 4), vec![vec![]]);
    }

    #[test]
    fn malformed_lines_are_errors_not_dropped() {
        for (text, expect) in [
            ("1 2\n1 2x\n", "f.facts:2: invalid integer '2x'"),
            (
                "1 2\n\n3 9223372036854775808\n",
                "f.facts:3: invalid integer '9223372036854775808'",
            ),
            (
                "-9223372036854775809 0",
                "f.facts:1: invalid integer '-9223372036854775809'",
            ),
            ("1 2 # trailing\n", "f.facts:1: invalid integer '#'"),
            ("1 - 2\n", "f.facts:1: invalid integer '-'"),
            ("1.5 2\n", "f.facts:1: invalid integer '1.5'"),
            ("1 2\n3\n", "f.facts:2: expected 2 values, found 1"),
            ("1 2\r\n3 4 5", "f.facts:2: expected 2 values, found 3"),
        ] {
            assert_eq!(parse_err(text, 2, 1 << 20, 4), expect, "{text:?}");
        }
    }

    #[test]
    fn chunk_cuts_are_newline_aligned_and_bounded() {
        let text = b"1 2\n33 44\n555 666\n7 8";
        for chunks in 1..8 {
            let cuts = chunk_cuts(text, 1, chunks);
            assert_eq!((cuts[0], *cuts.last().unwrap()), (0, text.len()));
            assert!(cuts.len() - 1 <= chunks);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
            assert!(cuts[1..cuts.len() - 1]
                .iter()
                .all(|&p| text[p - 1] == b'\n'));
        }
        // At least `min_chunk` bytes per chunk.
        assert_eq!(chunk_cuts(text, 1 << 20, 8), vec![0, text.len()]);
    }

    #[test]
    fn chunk_boundaries_never_change_the_parse() {
        // Shifting the text by 0..40 pad bytes moves every cut across
        // every byte of the facts around it.
        let facts: String = (0..40)
            .map(|i: i64| format!("{} {}\n", i * 37 - 500, i * i))
            .collect();
        let expect = parse(&facts, 2, 1 << 20, 1);
        assert_eq!(expect[0].len(), 40);
        for pad in 0..40 {
            for tail in ["", "\n", "\r\n"] {
                let text = format!("{}\n{}{tail}", "#".repeat(pad), facts.trim_end());
                for chunks in [2, 3, 5, 8] {
                    assert_eq!(parse(&text, 2, 7, chunks), expect, "pad {pad} x{chunks}");
                }
            }
        }
    }

    #[test]
    fn errors_report_the_global_line_in_every_chunk() {
        // A malformed token on each line in turn, the file split into
        // several chunks: the line number is the file's, not the chunk's.
        let lines: Vec<String> = (0..30).map(|i| format!("{i},{}", i + 1)).collect();
        for bad in 0..lines.len() {
            let mut broken = lines.clone();
            broken[bad] = format!("{bad} 1x");
            for tail in ["", "\n"] {
                let text = format!("{}{tail}", broken.join("\n"));
                for chunks in [1, 2, 4, 7] {
                    assert_eq!(
                        parse_err(&text, 2, 5, chunks),
                        format!("f.facts:{}: invalid integer '1x'", bad + 1),
                        "bad line {bad} x{chunks}"
                    );
                }
            }
        }
    }

    #[test]
    fn sniffed_arity_comes_from_the_first_fact_line() {
        let dir = tmpdir("sniff");
        let path = dir.join("t.facts");
        fs::write(&path, "# c\n\n1, 2, 3\n4 5\n").unwrap();
        assert_eq!(sniff_facts_arity(&path).unwrap(), Some(3));
        fs::write(&path, "// nothing\n\n").unwrap();
        assert_eq!(sniff_facts_arity(&path).unwrap(), None);
        fs::write(&path, "\n1 x\n").unwrap();
        let err = sniff_facts_arity(&path).unwrap_err().to_string();
        assert!(err.ends_with("t.facts:2: invalid integer 'x'"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_file_loads_nothing() {
        let dir = tmpdir("malformed");
        let path = dir.join("arc.facts");
        fs::write(&path, "0 1\n1 2x\n").unwrap();
        let mut db = Database::new().unwrap();
        let err = load_facts_file(&mut db, "arc", 2, &path).unwrap_err();
        assert!(
            err.to_string().contains("arc.facts:2: invalid integer"),
            "{err}"
        );
        assert_eq!(db.row_count("arc"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_datalog_file_workflow() {
        let dir = tmpdir("workflow");
        fs::write(
            dir.join("tc.datalog"),
            ".input arc\n.output tc\n\
             tc(x, y) :- arc(x, y).\n\
             tc(x, y) :- tc(x, z), arc(z, y).\n",
        )
        .unwrap();
        fs::write(dir.join("arc.facts"), "0 1\n1 2\n").unwrap();
        let engine = Engine::builder().threads(2).build().unwrap();
        let src = fs::read_to_string(dir.join("tc.datalog")).unwrap();
        let prepared = engine.prepare(&src).unwrap();
        let mut db = Database::new().unwrap();
        let (stats, written) =
            run_datalog_file(&prepared, &mut db, &dir, &dir.join("out")).unwrap();
        assert!(stats.iterations >= 2);
        assert_eq!(written, vec![("tc".to_string(), 3)]);
        let text = fs::read_to_string(dir.join("out/tc.csv")).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["0,1", "0,2", "1,2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_input_file_errors() {
        let dir = tmpdir("missing");
        let engine = Engine::builder().threads(1).build().unwrap();
        let prepared = engine
            .prepare(".input arc\ntc(x, y) :- arc(x, y).\n")
            .unwrap();
        let mut db = Database::new().unwrap();
        let err = run_datalog_file(&prepared, &mut db, &dir, &dir.join("out")).unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
