//! The embedded record store: a minimal single-file database standing in
//! for the paper's SQLite repository.
//!
//! Format: an append-only log of JSON lines, one operation per line —
//! `{"t":"benchmarks","id":3,"d":{…}}`. Opening replays the log into
//! in-memory tables; every write appends and flushes, so interrupted
//! processes lose at most the unflushed tail. [`RecordStore::compact`]
//! rewrites the file to drop superseded versions.

use crate::domain::{Benchmark, ModelMetadata, SystemEntry};
use crate::error::{ChronusError, Result};
use crate::integrations::storage::publish;
use crate::interfaces::Repository;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

#[derive(Debug, Serialize, Deserialize)]
struct LogLine {
    /// Table name.
    t: String,
    /// Record id within the table.
    id: i64,
    /// The record body (`null` marks a deletion).
    d: Value,
}

/// The open database.
#[derive(Debug)]
pub struct RecordStore {
    path: PathBuf,
    tables: BTreeMap<String, BTreeMap<i64, Value>>,
}

impl RecordStore {
    /// Opens (or creates) the database file, replaying its log.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tables: BTreeMap<String, BTreeMap<i64, Value>> = BTreeMap::new();
        if path.exists() {
            let reader = BufReader::new(File::open(&path)?);
            for (lineno, line) in reader.lines().enumerate() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let entry: LogLine = serde_json::from_str(&line).map_err(|e| {
                    ChronusError::InvalidInput(format!("corrupt record store at line {}: {e}", lineno + 1))
                })?;
                let table = tables.entry(entry.t).or_default();
                if entry.d.is_null() {
                    table.remove(&entry.id);
                } else {
                    table.insert(entry.id, entry.d);
                }
            }
        }
        Ok(RecordStore { path, tables })
    }

    /// The database file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Inserts a record with a fresh id; returns the id.
    pub fn insert<T: Serialize>(&mut self, table: &str, value: &T) -> Result<i64> {
        let id = self.next_id(table);
        self.put(table, id, value)?;
        Ok(id)
    }

    /// Writes a record at a specific id (insert or replace).
    pub fn put<T: Serialize>(&mut self, table: &str, id: i64, value: &T) -> Result<()> {
        let d = serde_json::to_value(value)?;
        self.append(&LogLine { t: table.to_string(), id, d: d.clone() })?;
        self.tables.entry(table.to_string()).or_default().insert(id, d);
        Ok(())
    }

    /// Deletes a record; returns whether it existed.
    pub fn delete(&mut self, table: &str, id: i64) -> Result<bool> {
        let existed = self.tables.get_mut(table).is_some_and(|t| t.remove(&id).is_some());
        if existed {
            self.append(&LogLine { t: table.to_string(), id, d: Value::Null })?;
        }
        Ok(existed)
    }

    /// Fetches one record, deserialized.
    pub fn get<T: for<'de> Deserialize<'de>>(&self, table: &str, id: i64) -> Result<Option<T>> {
        match self.tables.get(table).and_then(|t| t.get(&id)) {
            Some(v) => Ok(Some(serde_json::from_value(v.clone())?)),
            None => Ok(None),
        }
    }

    /// All records in a table, in id order, with their ids.
    pub fn scan<T: for<'de> Deserialize<'de>>(&self, table: &str) -> Result<Vec<(i64, T)>> {
        let Some(t) = self.tables.get(table) else { return Ok(Vec::new()) };
        t.iter().map(|(&id, v)| Ok((id, serde_json::from_value(v.clone())?))).collect()
    }

    /// Number of live records in a table.
    pub fn len(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, BTreeMap::len)
    }

    /// True when a table holds no records.
    pub fn is_empty(&self, table: &str) -> bool {
        self.len(table) == 0
    }

    /// Rewrites the log keeping only live records (reclaims space after
    /// overwrites/deletes).
    pub fn compact(&self) -> Result<()> {
        let mut log = String::new();
        for (table, records) in &self.tables {
            for (&id, d) in records {
                log.push_str(&serde_json::to_string(&LogLine { t: table.clone(), id, d: d.clone() })?);
                log.push('\n');
            }
        }
        Ok(publish(&self.path, log.as_bytes(), false)?)
    }

    fn next_id(&self, table: &str) -> i64 {
        self.tables.get(table).and_then(|t| t.keys().next_back()).map_or(1, |max| max + 1)
    }

    fn append(&self, line: &LogLine) -> Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(&self.path)?;
        writeln!(f, "{}", serde_json::to_string(line)?)?;
        f.flush()?;
        Ok(())
    }
}

const T_SYSTEMS: &str = "systems";
const T_BENCHMARKS: &str = "benchmarks";
const T_MODELS: &str = "models";

impl Repository for RecordStore {
    fn save_system(&mut self, entry: &SystemEntry) -> Result<i64> {
        if let Some(existing) = self.system_by_hash(entry.system_hash)? {
            return Ok(existing.id);
        }
        let id = self.next_id(T_SYSTEMS);
        let mut stored = entry.clone();
        stored.id = id;
        self.put(T_SYSTEMS, id, &stored)?;
        Ok(id)
    }

    fn systems(&self) -> Result<Vec<SystemEntry>> {
        Ok(self.scan::<SystemEntry>(T_SYSTEMS)?.into_iter().map(|(_, s)| s).collect())
    }

    fn save_benchmark(&mut self, benchmark: &Benchmark) -> Result<i64> {
        let id = self.next_id(T_BENCHMARKS);
        let mut stored = benchmark.clone();
        stored.id = id;
        self.put(T_BENCHMARKS, id, &stored)?;
        Ok(id)
    }

    fn benchmarks(&self, system_id: i64, binary_hash: u64) -> Result<Vec<Benchmark>> {
        Ok(self
            .all_benchmarks()?
            .into_iter()
            .filter(|b| b.system_id == system_id && b.binary_hash == binary_hash)
            .collect())
    }

    fn all_benchmarks(&self) -> Result<Vec<Benchmark>> {
        Ok(self.scan::<Benchmark>(T_BENCHMARKS)?.into_iter().map(|(_, b)| b).collect())
    }

    fn save_model(&mut self, meta: &ModelMetadata) -> Result<i64> {
        let id = self.next_id(T_MODELS);
        let mut stored = meta.clone();
        stored.id = id;
        self.put(T_MODELS, id, &stored)?;
        Ok(id)
    }

    fn models(&self) -> Result<Vec<ModelMetadata>> {
        Ok(self.scan::<ModelMetadata>(T_MODELS)?.into_iter().map(|(_, m)| m).collect())
    }

    fn model(&self, id: i64) -> Result<Option<ModelMetadata>> {
        self.get(T_MODELS, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_sim_node::cpu::CpuConfig;
    use eco_sim_node::sysinfo::SystemFacts;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eco-recordstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn facts() -> SystemFacts {
        SystemFacts {
            cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
            cores: 32,
            threads_per_core: 2,
            frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
            ram_gb: 256,
        }
    }

    fn bench(system_id: i64, cores: u32) -> Benchmark {
        Benchmark {
            id: -1,
            system_id,
            binary_hash: 99,
            config: CpuConfig::new(cores, 2_200_000, 1),
            gflops: 9.0,
            runtime_s: 100.0,
            avg_system_w: 200.0,
            avg_cpu_w: 100.0,
            avg_cpu_temp_c: 55.0,
            system_energy_j: 20_000.0,
            cpu_energy_j: 10_000.0,
            sample_count: 50,
        }
    }

    #[test]
    fn crud_roundtrip() {
        let dir = tmpdir("crud");
        let mut db = RecordStore::open(dir.join("data.db")).unwrap();
        let id = db.insert("things", &serde_json::json!({"x": 1})).unwrap();
        assert_eq!(id, 1);
        let got: Option<Value> = db.get("things", id).unwrap();
        assert_eq!(got.unwrap()["x"], 1);
        assert!(db.delete("things", id).unwrap());
        assert!(!db.delete("things", id).unwrap());
        assert!(db.is_empty("things"));
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("data.db");
        {
            let mut db = RecordStore::open(&path).unwrap();
            db.insert("t", &serde_json::json!({"v": "a"})).unwrap();
            db.insert("t", &serde_json::json!({"v": "b"})).unwrap();
            db.delete("t", 1).unwrap();
        }
        let db = RecordStore::open(&path).unwrap();
        assert_eq!(db.len("t"), 1);
        let got: Option<Value> = db.get("t", 2).unwrap();
        assert_eq!(got.unwrap()["v"], "b");
    }

    #[test]
    fn ids_do_not_recycle_after_tail_delete() {
        let dir = tmpdir("ids");
        let mut db = RecordStore::open(dir.join("d.db")).unwrap();
        let a = db.insert("t", &serde_json::json!(1)).unwrap();
        let b = db.insert("t", &serde_json::json!(2)).unwrap();
        assert_eq!((a, b), (1, 2));
        // deleting the middle record keeps later ids unique
        db.delete("t", 1).unwrap();
        let c = db.insert("t", &serde_json::json!(3)).unwrap();
        assert_eq!(c, 3);
    }

    #[test]
    fn compact_preserves_state_and_shrinks() {
        let dir = tmpdir("compact");
        let path = dir.join("d.db");
        let mut db = RecordStore::open(&path).unwrap();
        for i in 0..20 {
            db.put("t", 1, &serde_json::json!({"rev": i})).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        db.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "{after} !< {before}");
        let reopened = RecordStore::open(&path).unwrap();
        let got: Option<Value> = reopened.get("t", 1).unwrap();
        assert_eq!(got.unwrap()["rev"], 19);
    }

    #[test]
    fn corrupt_file_reports_line() {
        let dir = tmpdir("corrupt");
        let path = dir.join("d.db");
        std::fs::write(&path, "{\"t\":\"x\",\"id\":1,\"d\":{}}\nnot json\n").unwrap();
        let err = RecordStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn repository_system_dedup_by_hash() {
        let dir = tmpdir("sys");
        let mut db = RecordStore::open(dir.join("d.db")).unwrap();
        let entry = SystemEntry { id: -1, facts: facts(), system_hash: 777 };
        let a = db.save_system(&entry).unwrap();
        let b = db.save_system(&entry).unwrap();
        assert_eq!(a, b, "same hash reuses the row");
        assert_eq!(db.systems().unwrap().len(), 1);
        assert_eq!(db.system_by_hash(777).unwrap().unwrap().id, a);
        assert!(db.system_by_hash(778).unwrap().is_none());
    }

    #[test]
    fn repository_benchmarks_filtering() {
        let dir = tmpdir("benchfilter");
        let mut db = RecordStore::open(dir.join("d.db")).unwrap();
        db.save_benchmark(&bench(1, 4)).unwrap();
        db.save_benchmark(&bench(1, 8)).unwrap();
        db.save_benchmark(&bench(2, 4)).unwrap();
        assert_eq!(db.all_benchmarks().unwrap().len(), 3);
        assert_eq!(db.benchmarks(1, 99).unwrap().len(), 2);
        assert_eq!(db.benchmarks(2, 99).unwrap().len(), 1);
        assert_eq!(db.benchmarks(1, 55).unwrap().len(), 0);
        // ids assigned
        assert!(db.all_benchmarks().unwrap().iter().all(|b| b.id > 0));
    }

    #[test]
    fn repository_models_roundtrip() {
        let dir = tmpdir("models");
        let mut db = RecordStore::open(dir.join("d.db")).unwrap();
        let meta = ModelMetadata {
            id: -1,
            model_type: "linear-regression".into(),
            system_id: 1,
            binary_hash: 9,
            blob_path: "models/1.json".into(),
            created_at_ms: 123,
            train_rows: 138,
            fit_r2: 0.97,
        };
        let id = db.save_model(&meta).unwrap();
        let got = db.model(id).unwrap().unwrap();
        assert_eq!(got.model_type, "linear-regression");
        assert_eq!(got.id, id);
        assert!(db.model(999).unwrap().is_none());
        assert_eq!(db.models().unwrap().len(), 1);
    }
}
