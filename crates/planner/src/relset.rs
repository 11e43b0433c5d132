//! Bitset representation of sets of relations.
//!
//! Every relation in a query gets an index (its position in the FROM list); a [`RelSet`]
//! is a `u64` bitmask over those indexes. JOB queries join at most 17 relations, so 64
//! bits is ample. The DP enumerator, the cardinality estimator (and its override table),
//! and the re-optimization controller all key their state by `RelSet`.
//!
//! The planner's hot maps are [`RelSetMap`]s: hashed by [`RelSetHasher`], one
//! multiply per key instead of SipHash.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A set of relation indexes, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RelSet(u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// A set containing a single relation index.
    pub fn single(index: usize) -> Self {
        debug_assert!(index < 64, "relation index out of range");
        RelSet(1u64 << index)
    }

    /// A set from an iterator of indexes.
    pub fn from_indexes(indexes: impl IntoIterator<Item = usize>) -> Self {
        let mut set = RelSet::EMPTY;
        for i in indexes {
            set = set.insert(i);
        }
        set
    }

    /// A set containing all relations `0..n`.
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n == 64 {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// The raw mask.
    pub fn mask(self) -> u64 {
        self.0
    }

    /// A set from a raw mask.
    pub fn from_mask(mask: u64) -> Self {
        RelSet(mask)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of relations in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set contains relation `index`.
    pub fn contains(self, index: usize) -> bool {
        index < 64 && (self.0 >> index) & 1 == 1
    }

    /// The set with `index` added.
    #[must_use]
    pub fn insert(self, index: usize) -> Self {
        RelSet(self.0 | (1u64 << index))
    }

    /// The set with `index` removed.
    #[must_use]
    pub fn remove(self, index: usize) -> Self {
        RelSet(self.0 & !(1u64 << index))
    }

    /// Union.
    #[must_use]
    pub fn union(self, other: RelSet) -> Self {
        RelSet(self.0 | other.0)
    }

    /// Intersection.
    #[must_use]
    pub fn intersect(self, other: RelSet) -> Self {
        RelSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(self, other: RelSet) -> Self {
        RelSet(self.0 & !other.0)
    }

    /// Whether `self` and `other` share no relations.
    pub fn is_disjoint(self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Whether every relation of `self` is in `other`.
    pub fn is_subset_of(self, other: RelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `self` is a proper subset of `other`.
    pub fn is_proper_subset_of(self, other: RelSet) -> bool {
        self.is_subset_of(other) && self != other
    }

    /// The smallest relation index in the set, if any.
    pub fn min_index(self) -> Option<usize> {
        if self.is_empty() {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Iterate over the relation indexes in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        RelSetIter(self.0)
    }

    /// Iterate over the relation indexes in descending order (allocation-free; the
    /// DPccp enumerator visits neighborhoods highest-index-first).
    pub fn iter_descending(self) -> impl Iterator<Item = usize> {
        RelSetIterDesc(self.0)
    }

    /// Iterate over every non-empty subset of this set.
    ///
    /// Uses the standard `(sub - 1) & mask` trick; the number of subsets is
    /// `2^len - 1`, so callers should only use this for small sets (the DPccp
    /// enumerator only applies it to neighborhoods, which are small in sparse graphs).
    pub fn nonempty_subsets(self) -> impl Iterator<Item = RelSet> {
        SubsetIter {
            mask: self.0,
            current: self.0,
            done: self.0 == 0,
        }
    }
}

/// A multiplicative hasher for [`RelSet`] keys: the 128-bit product of the mask and
/// an odd 64-bit constant, its two halves xor-folded, so the table's bucket index (low
/// bits) and control byte (high bits) both depend on every relation in the set.
///
/// SipHash's keyed hashing defends a map against keys an adversary picks to collide.
/// A `RelSet` is made by the planner (subsets of one query's FROM list), never read
/// from input, so that defense buys nothing here, and SipHash's rounds would be most
/// of the cost of a DP-table lookup. The hasher is deterministic; nothing depends on
/// the iteration order of the maps that use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelSetHasher(u64);

impl RelSetHasher {
    /// `2^64 / φ`, the Fibonacci-hashing multiplier.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for RelSetHasher {
    fn write_u64(&mut self, mask: u64) {
        let product = u128::from(self.0 ^ mask) * u128::from(Self::K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached through `RelSet`'s `Hash`; any other key is
        // folded in eight bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by relation set, hashed by [`RelSetHasher`]: the DP table, the
/// estimator's per-subset cache and the cardinality override table.
pub type RelSetMap<V> = HashMap<RelSet, V, BuildHasherDefault<RelSetHasher>>;

struct RelSetIter(u64);

impl Iterator for RelSetIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let index = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(index)
        }
    }
}

struct RelSetIterDesc(u64);

impl Iterator for RelSetIterDesc {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let index = 63 - self.0.leading_zeros() as usize;
            self.0 &= !(1u64 << index);
            Some(index)
        }
    }
}

struct SubsetIter {
    mask: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = RelSet;

    fn next(&mut self) -> Option<RelSet> {
        if self.done {
            return None;
        }
        let result = RelSet(self.current);
        if self.current == 0 {
            // Should not happen because we start at mask != 0 and stop before revisiting.
            self.done = true;
            return None;
        }
        self.current = (self.current - 1) & self.mask;
        if self.current == 0 {
            self.done = true;
        }
        Some(result)
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<String> = self.iter().map(|i| i.to_string()).collect();
        write!(f, "{{{}}}", items.join(","))
    }
}

impl FromIterator<usize> for RelSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        RelSet::from_indexes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_operations() {
        let a = RelSet::from_indexes([0, 2, 5]);
        let b = RelSet::from_indexes([2, 3]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(1));
        assert_eq!(a.union(b), RelSet::from_indexes([0, 2, 3, 5]));
        assert_eq!(a.intersect(b), RelSet::single(2));
        assert_eq!(a.difference(b), RelSet::from_indexes([0, 5]));
        assert!(!a.is_disjoint(b));
        assert!(a.is_disjoint(RelSet::single(7)));
        assert_eq!(a.min_index(), Some(0));
        assert_eq!(RelSet::EMPTY.min_index(), None);
    }

    #[test]
    fn subset_relations() {
        let a = RelSet::from_indexes([1, 2]);
        let b = RelSet::from_indexes([1, 2, 3]);
        assert!(a.is_subset_of(b));
        assert!(a.is_proper_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert!(b.is_subset_of(b));
        assert!(!b.is_proper_subset_of(b));
    }

    #[test]
    fn all_and_mask_roundtrip() {
        let s = RelSet::all(5);
        assert_eq!(s.len(), 5);
        assert_eq!(RelSet::from_mask(s.mask()), s);
        assert_eq!(RelSet::all(64).len(), 64);
    }

    #[test]
    fn insert_remove() {
        let s = RelSet::EMPTY.insert(3).insert(7).remove(3);
        assert_eq!(s, RelSet::single(7));
        assert!(s.remove(9).contains(7));
    }

    #[test]
    fn iteration_is_ascending() {
        let s = RelSet::from_indexes([9, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
        assert_eq!(s.to_string(), "{1,4,9}");
    }

    #[test]
    fn descending_iteration_mirrors_ascending() {
        let s = RelSet::from_indexes([9, 1, 4, 63, 0]);
        assert_eq!(s.iter_descending().collect::<Vec<_>>(), vec![63, 9, 4, 1, 0]);
        assert_eq!(RelSet::EMPTY.iter_descending().count(), 0);
    }

    #[test]
    fn nonempty_subsets_enumerates_all() {
        let s = RelSet::from_indexes([0, 1, 3]);
        let subsets: Vec<RelSet> = s.nonempty_subsets().collect();
        assert_eq!(subsets.len(), 7);
        assert!(subsets.contains(&s));
        assert!(subsets.contains(&RelSet::single(3)));
        assert!(!subsets.contains(&RelSet::EMPTY));
        // Empty set has no nonempty subsets.
        assert_eq!(RelSet::EMPTY.nonempty_subsets().count(), 0);
        // Singleton has exactly one.
        assert_eq!(RelSet::single(2).nonempty_subsets().count(), 1);
    }

    #[test]
    fn relset_hasher_spreads_single_bits_over_low_and_high_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<RelSetHasher>::default();
        let hash = |set: RelSet| build.hash_one(set);
        // Every single-relation set lands in its own bucket of a 64-slot table and
        // carries its own 7-bit control byte: neither end of the hash is constant.
        let low: std::collections::HashSet<u64> =
            (0..64).map(|i| hash(RelSet::single(i)) & 63).collect();
        let high: std::collections::HashSet<u64> =
            (0..64).map(|i| hash(RelSet::single(i)) >> 57).collect();
        assert!(low.len() > 32, "low bits: {} distinct", low.len());
        assert!(high.len() > 32, "high bits: {} distinct", high.len());
        assert_eq!(hash(RelSet::all(5)), hash(RelSet::from_indexes(0..5)));

        let mut map: RelSetMap<usize> = RelSetMap::default();
        for mask in 1..1u64 << 10 {
            map.insert(RelSet::from_mask(mask), mask as usize);
        }
        assert!((1..1u64 << 10).all(|m| map[&RelSet::from_mask(m)] == m as usize));
    }

    #[test]
    fn from_iterator() {
        let s: RelSet = vec![2usize, 4, 2].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
