//! Per-column string dictionaries.
//!
//! IMDB text columns are duplicate-heavy (genres, country codes, role names, keyword
//! text), so text columns store `u32` *codes* into an append-only [`StringDict`]
//! instead of cloning strings row by row. The dictionary is insertion-ordered: code
//! `n` is the `n`-th distinct string ever appended to the column, and codes are
//! stable for the lifetime of the table (nothing is ever deleted, matching the
//! engine's append-only heaps). Rows holding SQL NULL store the sentinel
//! [`NULL_CODE`] and no dictionary entry.
//!
//! Besides decoding, the dictionary doubles as column metadata: it knows the exact
//! distinct count (`len`) and the per-code occurrence count, which ANALYZE reads
//! directly instead of re-hashing every row (see `reopt-catalog`).

use std::collections::HashMap;
use std::sync::Arc;

/// The code stored for SQL NULL. Real codes are dense from 0, so a column would need
/// ~4.3 billion distinct strings before colliding with the sentinel.
pub const NULL_CODE: u32 = u32::MAX;

/// An append-only, insertion-ordered dictionary of distinct strings.
#[derive(Debug, Clone, Default)]
pub struct StringDict {
    /// Code -> string, dense from 0. Decoded text values share these strings.
    values: Vec<Arc<str>>,
    /// String -> code.
    intern: HashMap<Arc<str>, u32>,
    /// Code -> number of rows currently holding it (append-only, so this is exact).
    counts: Vec<u64>,
}

impl StringDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no strings.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Intern one occurrence of `s`: return its code, assigning the next dense code if
    /// the string is new, and bump its occurrence count either way.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.intern.get(s) {
            self.counts[code as usize] += 1;
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary overflow");
        assert_ne!(code, NULL_CODE, "dictionary exhausted the u32 code space");
        let shared: Arc<str> = Arc::from(s);
        self.values.push(Arc::clone(&shared));
        self.intern.insert(shared, code);
        self.counts.push(1);
        code
    }

    /// The code of `s`, if it has ever been interned. Does not touch counts.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.intern.get(s).copied()
    }

    /// The string behind a code. Panics on [`NULL_CODE`] or an unassigned code.
    pub fn get(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The shared string behind a code (a reference-count bump, no copy). Panics on
    /// [`NULL_CODE`] or an unassigned code.
    pub fn get_shared(&self, code: u32) -> Arc<str> {
        Arc::clone(&self.values[code as usize])
    }

    /// All strings in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// Occurrence count per code (same indexing as [`StringDict::values`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_codes_in_first_seen_order() {
        let mut d = StringDict::new();
        assert_eq!(d.intern("drama"), 0);
        assert_eq!(d.intern("comedy"), 1);
        assert_eq!(d.intern("drama"), 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(0), "drama");
        assert_eq!(d.get(1), "comedy");
        assert_eq!(d.counts(), &[2, 1]);
        assert!(Arc::ptr_eq(&d.get_shared(0), &d.get_shared(0)));
    }

    #[test]
    fn lookup_without_interning() {
        let mut d = StringDict::new();
        d.intern("x");
        assert_eq!(d.lookup("x"), Some(0));
        assert_eq!(d.lookup("y"), None);
        assert_eq!(d.counts(), &[1]);
    }

    #[test]
    fn empty_strings_are_ordinary_entries() {
        let mut d = StringDict::new();
        assert_eq!(d.intern(""), 0);
        assert_eq!(d.intern("a"), 1);
        assert_eq!(d.intern(""), 0);
        assert_eq!(d.get(0), "");
        assert_eq!(d.counts(), &[2, 1]);
    }

    #[test]
    fn high_cardinality_overflows_a_u16_code_space() {
        // The ISSUE's u16-overflow edge case: > 65 536 distinct strings must keep
        // round-tripping, which is why codes are u32.
        let mut d = StringDict::new();
        let n = 70_000u32;
        for i in 0..n {
            assert_eq!(d.intern(&format!("s{i}")), i);
        }
        assert_eq!(d.len(), n as usize);
        assert_eq!(d.get(65_536), "s65536");
        assert_eq!(d.lookup("s69999"), Some(69_999));
        assert!(d.counts().iter().all(|&c| c == 1));
    }
}
