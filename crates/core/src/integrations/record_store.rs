//! The embedded record store: a single-file database standing in for the
//! paper's SQLite repository, and the campaign's write-ahead journal.
//!
//! Format: an append-only log of [`codec`] frames (length, CRC-32, payload),
//! one operation each, whose payload is `{"t":"benchmarks","id":3,"d":{…}}`.
//! [`RecordStore::open`] replays the longest valid prefix and never writes:
//! it is also the read path beside a live writer (`campaign status` beside
//! `campaign run`), whose record in flight a cut would destroy. The writer
//! cuts a torn tail instead: every write truncates the file to the length
//! its handle validated, appends one frame and flushes it (`sync_data`);
//! the append that may have created the file also syncs its directory.
//! One writer per file: ids come from the handle's own tables, so two
//! writers on one file were never supported.

use crate::domain::{Benchmark, ModelMetadata, SystemEntry};
use crate::error::{ChronusError, Result};
use crate::integrations::codec;
use crate::interfaces::Repository;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

#[derive(Debug, Serialize, Deserialize)]
struct LogLine {
    /// Table name.
    t: String,
    /// Record id within the table.
    id: i64,
    /// The record body.
    d: Value,
}

/// The open database.
#[derive(Debug)]
pub struct RecordStore {
    path: PathBuf,
    tables: BTreeMap<String, BTreeMap<i64, Value>>,
    /// File bytes this handle replayed or wrote; the next write cuts to here.
    validated: u64,
}

impl RecordStore {
    /// Opens the database file (creating its directory), replaying its
    /// longest valid prefix. A file whose first frame is oversized, such as
    /// a JSON-lines database, is refused rather than read as empty.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        if bytes.first_chunk().is_some_and(|len| u32::from_be_bytes(*len) as usize > codec::MAX_RECORD_LEN) {
            let refused = "its first frame is oversized (a JSON-lines database is refused, not read)";
            return Err(ChronusError::InvalidInput(format!("{} is not a record store: {refused}", path.display())));
        }
        let recovered = codec::recover(&bytes);
        let mut tables: BTreeMap<String, BTreeMap<i64, Value>> = BTreeMap::new();
        for payload in &recovered.records {
            let line: LogLine = serde_json::from_slice(payload)?;
            tables.entry(line.t).or_default().insert(line.id, line.d);
        }
        Ok(RecordStore { path, tables, validated: recovered.valid_len as u64 })
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

    fn next_id(&self, table: &str) -> i64 {
        self.tables.get(table).and_then(|t| t.keys().next_back()).map_or(1, |max| max + 1)
    }

    fn append(&mut self, line: &LogLine) -> Result<()> {
        let mut frame = Vec::new();
        codec::encode_record(&serde_json::to_vec(line)?, &mut frame)
            .map_err(|e| ChronusError::InvalidInput(e.to_string()))?;
        let mut file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        file.set_len(self.validated)?;
        file.write_all(&frame)?;
        file.sync_data()?;
        if self.validated == 0 {
            // the append that may have created the file: its directory
            // entry is only durable once the directory is synced too
            sync_parent_dir(&self.path)?;
        }
        self.validated += frame.len() as u64;
        Ok(())
    }
}

/// Flushes the directory holding `path`, making a file just created in it
/// survive a crash (fsync(2): the file's own sync does not cover its entry).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
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
        assert_eq!(db.len("things"), 1);
    }

    #[test]
    fn persists_across_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("data.db");
        {
            let mut db = RecordStore::open(&path).unwrap();
            db.insert("t", &serde_json::json!({"v": "a"})).unwrap();
            db.insert("t", &serde_json::json!({"v": "b"})).unwrap();
            db.put("t", 1, &serde_json::json!({"v": "c"})).unwrap();
        }
        let db = RecordStore::open(&path).unwrap();
        assert_eq!(db.len("t"), 2);
        let got: Vec<(i64, Value)> = db.scan("t").unwrap();
        assert_eq!((got[0].1["v"].as_str(), got[1].1["v"].as_str()), (Some("c"), Some("b")));
    }

    #[test]
    fn a_torn_last_frame_is_dropped_on_open_and_cut_by_the_next_write() {
        let dir = tmpdir("torn");
        let path = dir.join("d.db");
        let mut db = RecordStore::open(&path).unwrap();
        db.insert("t", &serde_json::json!({"v": "a"})).unwrap();
        db.insert("t", &serde_json::json!({"v": "b"})).unwrap();
        let two = std::fs::metadata(&path).unwrap().len() as usize;
        db.insert("t", &serde_json::json!({"v": "c"})).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let frame = whole.len() - two;
        let cut_path = dir.join("cut.db");
        for cut in two + 1..whole.len() {
            std::fs::write(&cut_path, &whole[..cut]).unwrap();
            let mut db = RecordStore::open(&cut_path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let kept: Vec<(i64, Value)> = db.scan("t").unwrap();
            let kept: Vec<_> = kept.iter().map(|(id, v)| (*id, v["v"].as_str().unwrap())).collect();
            assert_eq!(kept, [(1, "a"), (2, "b")], "cut at {cut}");
            assert_eq!(db.insert("t", &serde_json::json!({"v": "d"})).unwrap(), 3, "cut at {cut}");
            assert_eq!(RecordStore::open(&cut_path).unwrap().len("t"), 3, "cut at {cut}");
            assert_eq!(std::fs::metadata(&cut_path).unwrap().len() as usize, two + frame, "cut at {cut}");
        }
    }

    #[test]
    fn a_json_lines_file_is_refused_and_left_unchanged() {
        let dir = tmpdir("jsonl");
        let path = dir.join("d.db");
        let lines = "{\"t\":\"x\",\"id\":1,\"d\":{}}\n{\"t\":\"x\",\"id\":2,\"d\":{}}\n";
        std::fs::write(&path, lines).unwrap();
        let err = RecordStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("JSON-lines"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), lines.as_bytes());
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
