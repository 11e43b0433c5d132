//! Secondary indexes.
//!
//! The paper adds foreign-key indexes to every join column "making access path selection
//! more challenging" (Section III-A): the optimizer must choose between sequential scans,
//! index scans and index-nested-loop joins. Two index kinds are provided:
//!
//! * [`IndexKind::Hash`] — equality lookups (`col = const`, index-nested-loop join probes).
//! * [`IndexKind::BTree`] — equality *and* range lookups (`col > const`, `BETWEEN`).
//!
//! Both map a key value to the [`RowId`]s holding it, ascending. NULL keys are not
//! indexed, which matches SQL semantics for equality predicates (NULL never matches).
//!
//! # Storage forms
//!
//! The kind fixes what an index answers; the form it is stored in is chosen when it is
//! built, from the keys it actually holds:
//!
//! * **Int keys (CSR).** When every non-NULL key is a [`Value::Int`] (every JOB join
//!   column), one array holds the row ids ordered by `(key, row id)` and an offsets
//!   array delimits each key's run, compressed-sparse-row style. The offsets are
//!   addressed directly by `key - min` when the key span is at most
//!   [`DIRECT_SPAN_FACTOR`] times the entry count (dense ids such as every IMDB `id`),
//!   and through a sorted array of the distinct keys with binary search otherwise.
//!   An int probe ([`Index::lookup_int`]) is then an array read or a binary search over
//!   `i64`s; no `Value` is hashed or compared. Both kinds use this form: equality and
//!   range lookups alike are contiguous slices of the row-id array.
//! * **Value maps.** Any other key column (text, floats, booleans, or mixed values)
//!   keeps a `HashMap<Value, Vec<RowId>>` (hash kind) or a `BTreeMap` (B-tree kind).
//!
//! Both forms answer every lookup with the same meaning: keys compare by
//! [`Value::total_cmp`], so `Float(2.0)` finds the rows of `Int(2)`, and range bounds
//! of any type order against int keys exactly as a `BTreeMap<Value, _>` would order
//! them. Rows appended after the build keep the form while their keys stay ints: each
//! row ([`Index::insert`]) shifts the arrays, `O(entries)`. The first non-int key
//! converts the index to the map of its kind.

use crate::column::ColumnData;
use crate::row::RowId;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// An int index uses direct offsets (indexed by `key - min`) when its key span is at
/// most this many times its entry count, and sorted distinct keys otherwise.
///
/// Measured on 2 vCPUs with 100 000 distinct keys drawn at random from a span of
/// `f × entries`, each probed once in random order: a direct probe costs 2.4, 4.9, 5.7,
/// 7.1 and 8.8 ns at `f` = 1, 2, 4, 8 and 16 (its offsets outgrow the cache), a
/// binary-search probe 75–78 ns at every `f`. The direct offsets take `8 × f` bytes per
/// entry against the sorted form's 16. At 4 they stay within twice the sorted form's
/// size and a probe is still 13× faster; beyond it each doubling of the span doubles
/// the memory and slows the probe. (The row-id array is the same in both forms.)
pub const DIRECT_SPAN_FACTOR: u64 = 4;

/// The physical shape of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Hash index: equality lookups only.
    Hash,
    /// B-tree index: equality and range lookups.
    BTree,
}

/// A secondary index over a single column of a table.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    column: usize,
    kind: IndexKind,
    store: Store,
}

/// The storage form of an index (see the module docs).
#[derive(Debug, Clone)]
enum Store {
    /// Every key is an int: the CSR form, whatever the kind.
    Int(IntIndex),
    /// Hash kind over other keys.
    Hash {
        map: HashMap<Value, Vec<RowId>>,
        entries: usize,
    },
    /// B-tree kind over other keys.
    BTree {
        map: BTreeMap<Value, Vec<RowId>>,
        entries: usize,
    },
}

impl Index {
    /// Build an index of the requested kind over `column` from that column's values
    /// in row-id order. An all-int key column takes the CSR form.
    pub fn build(
        kind: IndexKind,
        name: impl Into<String>,
        column: usize,
        keys: impl Iterator<Item = Value>,
    ) -> Self {
        let mut ints = Vec::new();
        let mut keys = keys.enumerate();
        let store = loop {
            match keys.next() {
                None => break Store::Int(IntIndex::build(ints)),
                Some((_, Value::Null)) => {}
                Some((row_id, Value::Int(key))) => ints.push((key, row_id)),
                Some((row_id, key)) => {
                    // A non-int key: fall back to the map, replaying the ints so far.
                    let replay = ints.into_iter().map(|(key, id)| (Value::Int(key), id));
                    let rest = std::iter::once((row_id, key))
                        .chain(keys)
                        .map(|(id, key)| (key, id));
                    break Store::map(kind, replay.chain(rest));
                }
            }
        };
        Self {
            name: name.into(),
            column,
            kind,
            store,
        }
    }

    /// Build an index over a stored column. A native int column builds the CSR form
    /// straight from its values, without one `Value` per key.
    pub fn from_column(
        kind: IndexKind,
        name: impl Into<String>,
        column: usize,
        data: &ColumnData,
    ) -> Self {
        match data {
            ColumnData::Int { values, validity } => Self {
                name: name.into(),
                column,
                kind,
                store: Store::Int(IntIndex::build(
                    values
                        .iter()
                        .enumerate()
                        .filter(|&(row_id, _)| validity.get(row_id))
                        .map(|(row_id, &key)| (key, row_id))
                        .collect(),
                )),
            },
            data => Self::build(kind, name, column, (0..data.len()).map(|id| data.value_at(id))),
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column ordinal.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The index kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Whether this index can serve range predicates.
    pub fn supports_range(&self) -> bool {
        self.kind == IndexKind::BTree
    }

    /// Whether the index is stored in the int-keyed CSR form.
    pub fn is_int_keyed(&self) -> bool {
        matches!(self.store, Store::Int(_))
    }

    /// Equality lookup: all row ids whose key equals `key` (by [`Value::total_cmp`]),
    /// ascending within each key.
    pub fn lookup(&self, key: &Value) -> &[RowId] {
        if key.is_null() {
            return &[];
        }
        match &self.store {
            Store::Int(index) => match key {
                Value::Int(key) => index.lookup(*key),
                key => index.between(Bound::Included(key), Bound::Included(key)),
            },
            Store::Hash { map, .. } => map.get(key).map(Vec::as_slice).unwrap_or(&[]),
            Store::BTree { map, .. } => map.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// Equality lookup of an int key: [`Index::lookup`] of `Value::Int(key)`, without
    /// building the value on the CSR form.
    pub fn lookup_int(&self, key: i64) -> &[RowId] {
        match &self.store {
            Store::Int(index) => index.lookup(key),
            _ => self.lookup(&Value::Int(key)),
        }
    }

    /// Range lookup (B-tree kind only; hash indexes return an empty result): the row
    /// ids of every key within the bounds, in key order and ascending within a key.
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        if self.kind != IndexKind::BTree || empty_range(low, high) {
            return Vec::new();
        }
        match &self.store {
            Store::Int(index) => index.between(low, high).to_vec(),
            Store::BTree { map, .. } => map
                .range((low.cloned(), high.cloned()))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
            Store::Hash { .. } => Vec::new(),
        }
    }

    /// Number of distinct keys in the index.
    pub fn distinct_keys(&self) -> usize {
        match &self.store {
            Store::Int(index) => index.distinct,
            Store::Hash { map, .. } => map.len(),
            Store::BTree { map, .. } => map.len(),
        }
    }

    /// Total number of indexed entries (rows with non-NULL keys).
    pub fn entry_count(&self) -> usize {
        match &self.store {
            Store::Int(index) => index.ids.len(),
            Store::Hash { entries, .. } | Store::BTree { entries, .. } => *entries,
        }
    }

    /// Register a newly appended row in the index.
    pub fn insert(&mut self, key: &Value, row_id: RowId) {
        match (&mut self.store, key) {
            (_, Value::Null) => {}
            (Store::Int(index), Value::Int(key)) => index.insert(*key, row_id),
            (Store::Int(index), key) => {
                // The first non-int key: the index moves to the map of its kind.
                let replay = index.entries().map(|(key, id)| (Value::Int(key), id));
                let store = Store::map(self.kind, replay.chain([(key.clone(), row_id)]));
                self.store = store;
            }
            (Store::Hash { map, entries }, key) => {
                map.entry(key.clone()).or_default().push(row_id);
                *entries += 1;
            }
            (Store::BTree { map, entries }, key) => {
                map.entry(key.clone()).or_default().push(row_id);
                *entries += 1;
            }
        }
    }
}

impl Store {
    /// The map form of `kind` over `(key, row id)` pairs (NULL keys skipped). Each
    /// key's row ids stay in arrival order, so pairs in row-id order keep them
    /// ascending.
    fn map(kind: IndexKind, pairs: impl Iterator<Item = (Value, RowId)>) -> Store {
        let pairs = pairs.filter(|(key, _)| !key.is_null());
        let mut entries = 0;
        match kind {
            IndexKind::Hash => {
                let mut map: HashMap<Value, Vec<RowId>> = HashMap::new();
                for (key, id) in pairs {
                    map.entry(key).or_default().push(id);
                    entries += 1;
                }
                Store::Hash { map, entries }
            }
            IndexKind::BTree => {
                let mut map: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
                for (key, id) in pairs {
                    map.entry(key).or_default().push(id);
                    entries += 1;
                }
                Store::BTree { map, entries }
            }
        }
    }
}

/// Whether `(low, high)` can hold no value: the low bound lies above the high one, or
/// they meet at a point one of them excludes.
fn empty_range(low: Bound<&Value>, high: Bound<&Value>) -> bool {
    let (Bound::Included(lo) | Bound::Excluded(lo), Bound::Included(hi) | Bound::Excluded(hi)) =
        (low, high)
    else {
        return false;
    };
    match lo.total_cmp(hi) {
        Ordering::Greater => true,
        Ordering::Equal => !matches!((low, high), (Bound::Included(_), Bound::Included(_))),
        Ordering::Less => false,
    }
}

/// The CSR form: row ids ordered by `(key, row id)`, delimited per key.
#[derive(Debug, Clone)]
struct IntIndex {
    ids: Vec<RowId>,
    keys: IntKeys,
    /// Number of distinct keys.
    distinct: usize,
}

/// How an int index finds a key's run of row ids. Slot `i` covers
/// `ids[offsets[i]..offsets[i + 1]]`, so `offsets` holds one more entry than there
/// are slots.
#[derive(Debug, Clone)]
enum IntKeys {
    /// Slot `i` is key `min + i`; keys absent from the column have empty slots.
    Direct { min: i64, offsets: Vec<usize> },
    /// Slot `i` is `keys[i]`, the distinct keys ascending.
    Sorted { keys: Vec<i64>, offsets: Vec<usize> },
}

impl IntIndex {
    /// Build from `(key, row id)` pairs given in ascending row-id order.
    fn build(mut pairs: Vec<(i64, RowId)>) -> Self {
        let (Some(min), Some(max)) = (
            pairs.iter().map(|p| p.0).min(),
            pairs.iter().map(|p| p.0).max(),
        ) else {
            return Self {
                ids: Vec::new(),
                keys: IntKeys::Sorted {
                    keys: Vec::new(),
                    offsets: vec![0],
                },
                distinct: 0,
            };
        };
        let span = (max as i128 - min as i128) as u128 + 1;
        if span <= u128::from(DIRECT_SPAN_FACTOR) * pairs.len() as u128 {
            // Counting placement: one pass counts each key, a prefix sum turns the
            // counts into run starts, and a second pass drops the ids (still in
            // row-id order) into their runs. No sort.
            let slot = |key: i64| (key as i128 - min as i128) as usize;
            let mut offsets = vec![0usize; span as usize + 1];
            for &(key, _) in &pairs {
                offsets[slot(key) + 1] += 1;
            }
            let distinct = offsets.iter().filter(|&&count| count > 0).count();
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut next = offsets.clone();
            let mut ids = vec![0; pairs.len()];
            for &(key, id) in &pairs {
                let at = &mut next[slot(key)];
                ids[*at] = id;
                *at += 1;
            }
            return Self {
                ids,
                keys: IntKeys::Direct { min, offsets },
                distinct,
            };
        }
        // A stable sort keeps each key's row ids ascending.
        pairs.sort_by_key(|&(key, _)| key);
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (at, &(key, _)) in pairs.iter().enumerate() {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(at);
            }
        }
        offsets.push(pairs.len());
        Self {
            distinct: keys.len(),
            ids: pairs.into_iter().map(|(_, id)| id).collect(),
            keys: IntKeys::Sorted { keys, offsets },
        }
    }

    fn offsets(&self) -> &[usize] {
        match &self.keys {
            IntKeys::Direct { offsets, .. } | IntKeys::Sorted { offsets, .. } => offsets,
        }
    }

    /// Number of key slots.
    fn slots(&self) -> usize {
        self.offsets().len() - 1
    }

    /// The key of slot `i`.
    fn key_at(&self, i: usize) -> i64 {
        match &self.keys {
            IntKeys::Direct { min, .. } => min.wrapping_add(i as i64),
            IntKeys::Sorted { keys, .. } => keys[i],
        }
    }

    /// The slot holding `key`, if the key is in range of the slots.
    fn slot_of(&self, key: i64) -> Option<usize> {
        match &self.keys {
            IntKeys::Direct { min, offsets } => {
                let slot = usize::try_from(key as i128 - *min as i128).ok()?;
                (slot + 1 < offsets.len()).then_some(slot)
            }
            IntKeys::Sorted { keys, .. } => keys.binary_search(&key).ok(),
        }
    }

    fn lookup(&self, key: i64) -> &[RowId] {
        match self.slot_of(key) {
            Some(slot) => {
                let offsets = self.offsets();
                &self.ids[offsets[slot]..offsets[slot + 1]]
            }
            None => &[],
        }
    }

    /// The first slot whose key does not satisfy `before` (which must hold for a
    /// prefix of the slots, as an order comparison against a bound does).
    fn partition(&self, before: impl Fn(&Value) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.slots());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(&Value::Int(self.key_at(mid))) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The row ids of every key within the bounds, compared by [`Value::total_cmp`]:
    /// one contiguous run of the row-id array.
    fn between(&self, low: Bound<&Value>, high: Bound<&Value>) -> &[RowId] {
        let start = match low {
            Bound::Included(v) => self.partition(|key| key.total_cmp(v) == Ordering::Less),
            Bound::Excluded(v) => self.partition(|key| key.total_cmp(v) != Ordering::Greater),
            Bound::Unbounded => 0,
        };
        let end = match high {
            Bound::Included(v) => self.partition(|key| key.total_cmp(v) != Ordering::Greater),
            Bound::Excluded(v) => self.partition(|key| key.total_cmp(v) == Ordering::Less),
            Bound::Unbounded => self.slots(),
        };
        if start >= end {
            return &[];
        }
        let offsets = self.offsets();
        &self.ids[offsets[start]..offsets[end]]
    }

    /// Every `(key, row id)` entry in key order.
    fn entries(&self) -> impl Iterator<Item = (i64, RowId)> + '_ {
        let offsets = self.offsets();
        (0..self.slots()).flat_map(move |slot| {
            let key = self.key_at(slot);
            self.ids[offsets[slot]..offsets[slot + 1]]
                .iter()
                .map(move |&id| (key, id))
        })
    }

    /// Add one entry, keeping each key's row ids ascending.
    fn insert(&mut self, key: i64, row_id: RowId) {
        let slot = match (self.slot_of(key), &mut self.keys) {
            (Some(slot), _) => slot,
            (None, IntKeys::Sorted { keys, offsets }) => {
                // A new key: an empty slot at its sorted position.
                let slot = keys.partition_point(|&k| k < key);
                keys.insert(slot, key);
                offsets.insert(slot, offsets[slot]);
                slot
            }
            (None, IntKeys::Direct { .. }) => {
                // Outside the direct span: rebuild, which picks the form anew.
                let mut pairs: Vec<(i64, RowId)> = self.entries().collect();
                pairs.push((key, row_id));
                pairs.sort_by_key(|&(_, id)| id);
                *self = Self::build(pairs);
                return;
            }
        };
        let (start, end) = (self.offsets()[slot], self.offsets()[slot + 1]);
        if start == end {
            self.distinct += 1;
        }
        let at = start + self.ids[start..end].partition_point(|&id| id < row_id);
        self.ids.insert(at, row_id);
        let offsets = match &mut self.keys {
            IntKeys::Direct { offsets, .. } | IntKeys::Sorted { offsets, .. } => offsets,
        };
        for offset in &mut offsets[slot + 1..] {
            *offset += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn rows() -> Vec<Row> {
        vec![
            Row::from_values(vec![Value::Int(1), Value::from("a")]),
            Row::from_values(vec![Value::Int(2), Value::from("b")]),
            Row::from_values(vec![Value::Int(2), Value::from("c")]),
            Row::from_values(vec![Value::Null, Value::from("d")]),
            Row::from_values(vec![Value::Int(5), Value::from("e")]),
        ]
    }

    #[test]
    fn hash_index_equality_lookup() {
        let rows = rows();
        let idx = Index::build(IndexKind::Hash, "ix", 0, rows.iter().map(|r| r.value(0).clone()));
        assert_eq!(idx.lookup(&Value::Int(2)), &[1, 2]);
        assert_eq!(idx.lookup(&Value::Int(42)), &[] as &[RowId]);
        assert_eq!(idx.lookup(&Value::Null), &[] as &[RowId]);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.entry_count(), 4);
        assert!(!idx.supports_range());
    }

    #[test]
    fn btree_index_range_lookup() {
        let rows = rows();
        let idx = Index::build(IndexKind::BTree, "ix", 0, rows.iter().map(|r| r.value(0).clone()));
        let hits = idx.range(Bound::Included(&Value::Int(2)), Bound::Unbounded);
        assert_eq!(hits, vec![1, 2, 4]);
        let hits = idx.range(Bound::Excluded(&Value::Int(2)), Bound::Excluded(&Value::Int(5)));
        assert!(hits.is_empty());
        assert!(idx.supports_range());
        assert_eq!(idx.kind(), IndexKind::BTree);
    }

    #[test]
    fn hash_index_range_is_empty() {
        let rows = rows();
        let idx = Index::build(IndexKind::Hash, "ix", 0, rows.iter().map(|r| r.value(0).clone()));
        assert!(idx
            .range(Bound::Unbounded, Bound::Unbounded)
            .is_empty());
    }

    #[test]
    fn insert_updates_index() {
        let rows = rows();
        let mut idx = Index::build(IndexKind::Hash, "ix", 0, rows.iter().map(|r| r.value(0).clone()));
        idx.insert(&Value::Int(1), 5);
        assert_eq!(idx.lookup(&Value::Int(1)), &[0, 5]);
        // NULL inserts are ignored.
        idx.insert(&Value::Null, 6);
        assert_eq!(idx.entry_count(), 5);
    }

    #[test]
    fn index_metadata() {
        let rows = rows();
        let idx = Index::build(IndexKind::BTree, "title_id_btree", 0, rows.iter().map(|r| r.value(0).clone()));
        assert_eq!(idx.name(), "title_id_btree");
        assert_eq!(idx.column(), 0);
    }

    /// The map an index must agree with: `Value`-keyed, NULLs skipped.
    fn reference(keys: &[Value]) -> BTreeMap<Value, Vec<RowId>> {
        let mut map: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
        for (id, key) in keys.iter().enumerate() {
            if !key.is_null() {
                map.entry(key.clone()).or_default().push(id);
            }
        }
        map
    }

    fn probes() -> Vec<Value> {
        let mut probes = vec![
            Value::Null,
            Value::Bool(true),
            Value::from("7"),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        ];
        for k in -12..=12 {
            probes.push(Value::Int(k));
            probes.push(Value::Float(k as f64));
            probes.push(Value::Float(k as f64 + 0.5));
        }
        for k in [1i64 << 40, -(1i64 << 40), (1i64 << 40) + 3] {
            probes.push(Value::Int(k));
            probes.push(Value::Float(k as f64));
        }
        probes
    }

    /// Every lookup and range of `index` over `keys` against the reference map.
    fn check_against_reference(index: &Index, keys: &[Value]) {
        let map = reference(keys);
        for probe in probes() {
            let expected: Vec<RowId> = if probe.is_null() {
                Vec::new()
            } else {
                map.range(&probe..=&probe).flat_map(|(_, ids)| ids.clone()).collect()
            };
            assert_eq!(index.lookup(&probe), expected.as_slice(), "lookup {probe:?}");
            if let Value::Int(key) = probe {
                assert_eq!(index.lookup_int(key), expected.as_slice(), "lookup_int {key}");
            }
        }
        assert_eq!(index.distinct_keys(), map.len());
        assert_eq!(index.entry_count(), map.values().map(Vec::len).sum::<usize>());
        if index.kind() != IndexKind::BTree {
            return;
        }
        let bounds = |v: &Value| [Bound::Included(v.clone()), Bound::Excluded(v.clone())];
        for low in probes() {
            for high in probes() {
                for lo in bounds(&low).into_iter().chain([Bound::Unbounded]) {
                    for hi in bounds(&high).into_iter().chain([Bound::Unbounded]) {
                        let got = index.range(lo.as_ref(), hi.as_ref());
                        let expected: Vec<RowId> = if empty_range(lo.as_ref(), hi.as_ref()) {
                            Vec::new()
                        } else {
                            map.range((lo.clone(), hi.clone()))
                                .flat_map(|(_, ids)| ids.clone())
                                .collect()
                        };
                        assert_eq!(got, expected, "range {lo:?} .. {hi:?}");
                    }
                }
            }
        }
    }

    fn int_keys(keys: &[Option<i64>]) -> Vec<Value> {
        keys.iter().map(|k| Value::from(*k)).collect()
    }

    #[test]
    fn int_indexes_take_the_direct_or_the_sorted_form_and_answer_like_the_maps() {
        let dense = int_keys(&[Some(3), Some(-2), None, Some(3), Some(0), Some(-2), Some(1)]);
        let sparse = int_keys(&[Some(1i64 << 40), Some(-7), None, Some(-(1i64 << 40)), Some(-7), Some(5)]);
        for (keys, direct) in [(&dense, true), (&sparse, false)] {
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let index = Index::build(kind, "ix", 0, keys.iter().cloned());
                assert!(index.is_int_keyed());
                match &index.store {
                    Store::Int(int) => {
                        assert_eq!(matches!(int.keys, IntKeys::Direct { .. }), direct)
                    }
                    _ => unreachable!("int keys build the CSR form"),
                }
                check_against_reference(&index, keys);
            }
        }
    }

    #[test]
    fn a_native_int_column_builds_the_same_index_as_its_values() {
        let keys = int_keys(&[Some(9), None, Some(4), Some(9), Some(-1)]);
        let mut column = ColumnData::new_for(crate::value::DataType::Int);
        for key in &keys {
            column.push(key.clone());
        }
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let index = Index::from_column(kind, "ix", 0, &column);
            assert!(index.is_int_keyed());
            check_against_reference(&index, &keys);
        }
    }

    #[test]
    fn non_int_keys_keep_the_maps() {
        let keys = vec![Value::from("b"), Value::Null, Value::from("a"), Value::from("b")];
        let mixed = vec![Value::Int(2), Value::Float(2.5), Value::Int(-1), Value::Null];
        for keys in [&keys, &mixed] {
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let index = Index::build(kind, "ix", 0, keys.iter().cloned());
                assert!(!index.is_int_keyed());
                check_against_reference(&index, keys);
            }
        }
    }

    #[test]
    fn appends_keep_int_indexes_exact_and_a_non_int_key_moves_to_the_map() {
        let mut keys = int_keys(&[Some(4), Some(6), None, Some(4)]);
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut index = Index::build(kind, "ix", 0, keys.iter().cloned());
            let mut all = keys.clone();
            // Existing keys, new keys inside and outside the direct span, NULL.
            for key in [Some(6), Some(5), None, Some(4), Some(-30), Some(1i64 << 50), Some(5)] {
                let key = Value::from(key);
                index.insert(&key, all.len());
                all.push(key);
                assert!(index.is_int_keyed());
                check_against_reference(&index, &all);
            }
            index.insert(&Value::Float(4.0), all.len());
            all.push(Value::Float(4.0));
            assert!(!index.is_int_keyed());
            check_against_reference(&index, &all);
        }
        keys.clear();
        let empty = Index::build(IndexKind::BTree, "ix", 0, keys.into_iter());
        assert!(empty.is_int_keyed());
        assert!(empty.lookup_int(0).is_empty());
        assert!(empty.range(Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
