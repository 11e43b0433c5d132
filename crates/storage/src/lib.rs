//! # reopt-storage
//!
//! In-memory storage substrate for the re-optimization reproduction.
//!
//! The paper runs all of the Join Order Benchmark with every table and index cached in
//! memory ("all tables and indexes are cached in memory", Section III-A), so the storage
//! layer here is an in-memory **columnar** store:
//!
//! * [`Value`] / [`DataType`] — the scalar type system (64-bit integers, 64-bit floats,
//!   UTF-8 text, booleans, NULL).
//! * [`Schema`] / [`Column`] — table and intermediate-result schemas with qualified
//!   column lookup.
//! * [`Row`] — a materialized tuple (the decoded form handed to breakers and results).
//! * [`ColumnData`] / [`ColumnBatch`] — typed column vectors with validity
//!   [`Bitmap`]s, dictionary-coded text ([`StringDict`]) and the columnar batch that
//!   scans produce and filter/project/hash-key kernels consume.
//! * [`Table`] — one column chunk per schema column plus secondary indexes;
//!   per-column [`ColumnMeta`] (NULL count, min/max, byte width) is maintained on
//!   append for ANALYZE and the cost model.
//! * [`Index`] — secondary indexes (hash or B-tree kind) used by the optimizer for
//!   index-nested-loop access paths (the paper adds foreign-key indexes to make access
//!   path selection harder, Section III-A); int key columns are stored as sorted row-id
//!   runs (CSR) probed by [`Index::lookup_int`].
//! * [`Storage`] — the collection of named tables, including temporary tables created by
//!   the re-optimization controller.

pub mod column;
pub mod dict;
pub mod error;
pub mod index;
pub mod row;
pub mod schema;
pub mod spill_file;
pub mod table;
pub mod value;

pub use column::{Bitmap, ColumnBatch, ColumnData, ColumnMeta};
pub use dict::{StringDict, NULL_CODE};
pub use error::StorageError;
pub use index::{Index, IndexKind};
pub use row::{Row, RowId};
pub use schema::{Column, Schema};
pub use spill_file::{live_spill_files, SpillDir, SpillReader, SpillRun, SpillWriter};
pub use table::Table;
pub use value::{DataType, Value};

use std::collections::BTreeMap;
use std::sync::Arc;

/// The set of all tables known to the engine, addressed by (case-insensitive) name.
///
/// Tables are reference-counted so a `Storage` clone is a cheap copy-on-write
/// snapshot: concurrent sessions share the same immutable table chunks, and the
/// parallel executor can hand `'static` scan jobs to a resident worker pool
/// without borrowing from the storage map. Mutation goes through
/// [`Storage::table_mut`], which unshares the one table being written.
///
/// Temporary tables created by the re-optimization controller live here too; they are
/// flagged so they can be dropped when a re-optimized query finishes.
#[derive(Debug, Default, Clone)]
pub struct Storage {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Storage {
    /// Create an empty storage area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new table. Fails if a table with the same name already exists.
    pub fn create_table(&mut self, table: Table) -> Result<(), StorageError> {
        let key = normalize(table.name());
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    /// Register or replace a table (used for temporary tables during re-optimization).
    pub fn create_or_replace_table(&mut self, table: Table) {
        self.tables.insert(normalize(table.name()), Arc::new(table));
    }

    /// Remove a table. Fails if it does not exist.
    pub fn drop_table(&mut self, name: &str) -> Result<Table, StorageError> {
        self.tables
            .remove(&normalize(name))
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(&normalize(name))
            .map(|arc| arc.as_ref())
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Look up the shared handle for a table, for executors that need to keep the
    /// chunk alive beyond the borrow (e.g. `'static` worker-pool jobs).
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.tables
            .get(&normalize(name))
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Look up a table mutably by name, unsharing it if other snapshots hold it.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        self.tables
            .get_mut(&normalize(name))
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Whether a table with this name exists.
    pub fn contains_table(&self, name: &str) -> bool {
        self.tables.contains_key(&normalize(name))
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|arc| arc.as_ref())
    }

    /// Names of all tables in name order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// Total number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all tables (useful for memory accounting in tests).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Drop every table flagged as temporary. Returns the names of dropped tables.
    pub fn drop_temporary_tables(&mut self) -> Vec<String> {
        let names: Vec<String> = self
            .tables
            .values()
            .filter(|t| t.is_temporary())
            .map(|t| t.name().to_string())
            .collect();
        for name in &names {
            self.tables.remove(&normalize(name));
        }
        names
    }
}

fn normalize(name: &str) -> String {
    name.to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table(name: &str) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ]);
        Table::new(name, schema)
    }

    #[test]
    fn create_and_lookup_table() {
        let mut storage = Storage::new();
        storage.create_table(sample_table("title")).unwrap();
        assert!(storage.contains_table("title"));
        assert!(storage.contains_table("TITLE"));
        assert_eq!(storage.table("title").unwrap().name(), "title");
        assert_eq!(storage.table_count(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut storage = Storage::new();
        storage.create_table(sample_table("title")).unwrap();
        let err = storage.create_table(sample_table("TITLE")).unwrap_err();
        assert!(matches!(err, StorageError::TableExists(_)));
    }

    #[test]
    fn drop_table_removes_it() {
        let mut storage = Storage::new();
        storage.create_table(sample_table("name")).unwrap();
        storage.drop_table("name").unwrap();
        assert!(!storage.contains_table("name"));
        assert!(matches!(
            storage.table("name"),
            Err(StorageError::TableNotFound(_))
        ));
    }

    #[test]
    fn missing_table_errors() {
        let storage = Storage::new();
        assert!(matches!(
            storage.table("nope"),
            Err(StorageError::TableNotFound(_))
        ));
    }

    #[test]
    fn drop_temporary_tables_only_drops_temps() {
        let mut storage = Storage::new();
        storage.create_table(sample_table("base")).unwrap();
        let mut temp = sample_table("temp1");
        temp.set_temporary(true);
        storage.create_table(temp).unwrap();
        let dropped = storage.drop_temporary_tables();
        assert_eq!(dropped, vec!["temp1".to_string()]);
        assert!(storage.contains_table("base"));
        assert!(!storage.contains_table("temp1"));
    }

    #[test]
    fn create_or_replace_overwrites() {
        let mut storage = Storage::new();
        storage.create_table(sample_table("t")).unwrap();
        let schema = Schema::new(vec![Column::new("x", DataType::Float)]);
        storage.create_or_replace_table(Table::new("t", schema));
        assert_eq!(storage.table("t").unwrap().schema().len(), 1);
    }

    #[test]
    fn total_rows_counts_all_tables() {
        let mut storage = Storage::new();
        let mut a = sample_table("a");
        a.push_row(Row::from_values(vec![Value::Int(1), Value::from("x")]))
            .unwrap();
        let mut b = sample_table("b");
        b.push_row(Row::from_values(vec![Value::Int(2), Value::from("y")]))
            .unwrap();
        b.push_row(Row::from_values(vec![Value::Int(3), Value::from("z")]))
            .unwrap();
        storage.create_table(a).unwrap();
        storage.create_table(b).unwrap();
        assert_eq!(storage.total_rows(), 3);
    }
}
