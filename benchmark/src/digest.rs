//! Result digests and the recorded expectations under `benchmark/expected/`.
//!
//! A query's result is reduced to its row count and a 64-bit FNV-1a digest of
//! the rendered rows. Without ORDER BY the digest ignores row order (the row
//! hashes are summed), with ORDER BY it does not (they are chained).

use reopt_storage::{Row, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a; `fmt::Write` lets values render straight into the hash.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Hash of one rendered row. Each value carries a type tag, so NULL and the
/// text `NULL` (or `1` and `'1'`) differ.
fn row_hash(row: &Row) -> u64 {
    let mut hash = Fnv::new();
    for value in row.values() {
        let tag = match value {
            Value::Null => b'n',
            Value::Int(_) => b'i',
            Value::Float(_) => b'f',
            Value::Text(_) => b't',
            Value::Bool(_) => b'b',
        };
        hash.bytes(&[tag]);
        write!(hash, "{value}").expect("hashing cannot fail");
        hash.bytes(&[0x1f]);
    }
    hash.finish()
}

/// What a correct result reduces to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultDigest {
    pub rows: u64,
    pub digest: u64,
}

/// Digest a result; `ordered` is whether the query has an ORDER BY.
pub fn digest_rows(rows: &[Row], ordered: bool) -> ResultDigest {
    let digest = if ordered {
        let mut chain = Fnv::new();
        for row in rows {
            chain.bytes(&row_hash(row).to_le_bytes());
        }
        chain.finish()
    } else {
        rows.iter()
            .fold(0u64, |sum, row| sum.wrapping_add(row_hash(row)))
    };
    ResultDigest {
        rows: rows.len() as u64,
        digest,
    }
}

/// Digest of arbitrary text (plan-only workloads digest the plan's output schema).
pub fn digest_text(text: &str) -> u64 {
    let mut hash = Fnv::new();
    hash.bytes(text.as_bytes());
    hash.finish()
}

/// Where a workload's recorded expectations live, relative to the checkout root.
pub fn expected_path(workload: &str, data_seed: u64) -> PathBuf {
    Path::new("benchmark/expected").join(format!("{workload}.seed{data_seed}.tsv"))
}

/// Parse an expectations file: `query <TAB> rows <TAB> digest(hex)` per line,
/// `#` starts a comment.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, ResultDigest>, String> {
    let mut expected = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let parsed = match fields.as_slice() {
            [query, rows, digest] => rows
                .parse::<u64>()
                .ok()
                .zip(u64::from_str_radix(digest, 16).ok())
                .map(|(rows, digest)| (query.to_string(), ResultDigest { rows, digest })),
            _ => None,
        };
        let (query, digest) =
            parsed.ok_or_else(|| format!("line {}: malformed entry {line:?}", number + 1))?;
        expected.insert(query, digest);
    }
    Ok(expected)
}

/// Render an expectations file (queries in id order).
pub fn render_expected(header: &str, expected: &BTreeMap<String, ResultDigest>) -> String {
    let mut out = format!("# {header}\n# query\trows\tdigest\n");
    for (query, digest) in expected {
        out.push_str(&format!(
            "{query}\t{}\t{:016x}\n",
            digest.rows, digest.digest
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: Vec<Value>) -> Row {
        Row::from_values(values)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(digest_text(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_text("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_text("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn unordered_digest_ignores_row_order_and_ordered_does_not() {
        let a = row(vec![Value::Int(1), Value::from("x")]);
        let b = row(vec![Value::Int(2), Value::Null]);
        let forward = [a.clone(), b.clone()];
        let backward = [b, a];
        assert_eq!(digest_rows(&forward, false), digest_rows(&backward, false));
        assert_ne!(digest_rows(&forward, true), digest_rows(&backward, true));
        assert_eq!(digest_rows(&forward, true), digest_rows(&forward, true));
        assert_eq!(digest_rows(&forward, true).rows, 2);
    }

    #[test]
    fn digest_separates_values_types_and_multiplicity() {
        let null = [row(vec![Value::Null])];
        let text = [row(vec![Value::from("NULL")])];
        assert_ne!(digest_rows(&null, false), digest_rows(&text, false));
        let split = [row(vec![Value::from("ab"), Value::from("c")])];
        let joined = [row(vec![Value::from("a"), Value::from("bc")])];
        assert_ne!(digest_rows(&split, false), digest_rows(&joined, false));
        let once = [row(vec![Value::Int(7)])];
        let twice = [row(vec![Value::Int(7)]), row(vec![Value::Int(7)])];
        assert_ne!(digest_rows(&once, false), digest_rows(&twice, false));
    }

    #[test]
    fn expected_file_round_trips_and_rejects_garbage() {
        let mut expected = BTreeMap::new();
        expected.insert(
            "1a".to_string(),
            ResultDigest {
                rows: 3,
                digest: 0xdead_beef,
            },
        );
        let text = render_expected("job-plain, data seed 42", &expected);
        assert_eq!(parse_expected(&text).unwrap(), expected);
        assert!(parse_expected("1a\tthree\tff\n").is_err());
        assert!(parse_expected("1a\t3\n").is_err());
    }
}
