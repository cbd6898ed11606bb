//! The database catalog: named tables, with optional disk attachment.

use crate::persist;
use crate::table::{Schema, Table};
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::RwLock;

/// An embedded database: a catalog of tables, optionally backed by a
/// directory on disk (one file per table, as [`persist`] encodes them).
#[derive(Debug, Default)]
pub struct Database {
    tables: RwLock<BTreeMap<String, Table>>,
    dir: Option<PathBuf>,
}

impl Database {
    /// An in-memory database.
    pub fn in_memory() -> Self {
        Database::default()
    }

    /// A disk-backed database rooted at `dir` (created if missing). Existing
    /// table files are *not* eagerly loaded; use [`Database::load_table`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Database {
            tables: RwLock::new(BTreeMap::new()),
            dir: Some(dir),
        })
    }

    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let mut tables = self.tables.write().unwrap();
        if tables.contains_key(name) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        tables.insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let removed = self.tables.write().unwrap().remove(name);
        if removed.is_none() {
            return Err(StorageError::UnknownTable(name.to_string()));
        }
        if let Some(path) = self.table_path(name) {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Run `f` with shared access to a table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        let tables = self.tables.read().unwrap();
        let t = tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        Ok(f(t))
    }

    /// Run `f` with exclusive access to a table.
    pub fn with_table_mut<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> R) -> Result<R> {
        let mut tables = self.tables.write().unwrap();
        let t = tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        Ok(f(t))
    }

    /// Register an already-built table (replacing any same-named one).
    pub fn put_table(&self, table: Table) {
        self.tables
            .write()
            .unwrap()
            .insert(table.name.clone(), table);
    }

    fn table_path(&self, name: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{name}.tbl")))
    }

    /// Persist a table to the backing directory.
    pub fn save_table(&self, name: &str) -> Result<u64> {
        let path = self
            .table_path(name)
            .ok_or_else(|| StorageError::Io("database is in-memory".into()))?;
        self.with_table(name, |t| persist::write_table(&path, t))?
    }

    /// Load a table file from the backing directory into the catalog.
    /// Returns the number of bytes read (the I/O accounting the engine's
    /// time breakdown uses).
    pub fn load_table(&self, name: &str) -> Result<u64> {
        let path = self
            .table_path(name)
            .ok_or_else(|| StorageError::Io("database is in-memory".into()))?;
        let (table, bytes) = persist::read_table(&path)?;
        self.tables.write().unwrap().insert(name.to_string(), table);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id".into(), DataType::Int),
            ("name".into(), DataType::Str),
        ])
    }

    #[test]
    fn create_insert_query() {
        let db = Database::in_memory();
        db.create_table("t", schema()).unwrap();
        db.with_table_mut("t", |t| t.insert(vec![1.into(), "a".into()]))
            .unwrap()
            .unwrap();
        let n = db.with_table("t", |t| t.num_rows()).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn duplicate_and_missing_tables() {
        let db = Database::in_memory();
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("t", schema()),
            Err(StorageError::DuplicateTable(_))
        ));
        assert!(matches!(
            db.with_table("nope", |_| ()),
            Err(StorageError::UnknownTable(_))
        ));
        db.drop_table("t").unwrap();
        assert!(db.with_table("t", |_| ()).is_err());
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spade-cat-{}", std::process::id()));
        let db = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.with_table_mut("t", |t| {
            t.insert(vec![1.into(), "hello".into()]).unwrap();
            t.insert(vec![2.into(), Value::Null]).unwrap();
        })
        .unwrap();
        let written = db.save_table("t").unwrap();
        assert!(written > 0);

        let db2 = Database::open(&dir).unwrap();
        let read = db2.load_table("t").unwrap();
        assert_eq!(read, written);
        let rows = db2.with_table("t", |t| (t.num_rows(), t.row(1))).unwrap();
        assert_eq!(rows.0, 2);
        assert_eq!(rows.1, vec![Value::Int(2), Value::Null]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_has_no_persistence() {
        let db = Database::in_memory();
        db.create_table("t", schema()).unwrap();
        assert!(db.save_table("t").is_err());
    }
}
