//! The [`ModelStore`]: a content-addressed blob area plus an
//! append-only, CRC-checked metadata journal, with crash-safe recovery.
//!
//! Write-ahead discipline, in commit order:
//!
//! 1. the blob is written atomically under its content address
//!    (`blobs/<hex>`) — a crash after this step leaves an *orphan
//!    blob*, which is harmless and invisible to readers;
//! 2. the metadata record is appended to `journal.wal` — a crash
//!    mid-append leaves a *torn tail*, which recovery truncates back to
//!    the longest valid prefix ([`chronus::integrations::codec::recover`]).
//!
//! Readers therefore never observe a committed record whose blob was
//! not durably written first, and reopening after any crash yields a
//! consistent prefix of history.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;

use crate::backend::{DiskBackend, StoreBackend};
use crate::ledger::{LedgerRecord, ModelBlob, ModelRecord, Provenance};
use chronus::integrations::codec::{self, EncodeError};

/// The journal's file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// The blob directory inside the store directory.
pub const BLOB_DIR: &str = "blobs";

/// The content address of a blob: the paper's `simple_hash` (djb2,
/// seed 53871) over the blob's canonical JSON encoding, rendered as 16
/// hex digits.
pub fn blob_hash(blob: &ModelBlob) -> String {
    let json = serde_json::to_string(blob).expect("a model blob always serializes");
    format!("{:016x}", chronus::hash::simple_hash(&json))
}

/// Anything that can go wrong opening or mutating a store.
#[derive(Debug)]
pub enum StoreError {
    /// The backend failed.
    Io(io::Error),
    /// A record could not be framed.
    Encode(EncodeError),
    /// A committed record references a blob the store does not hold.
    MissingBlob {
        /// The referencing generation.
        generation: u64,
        /// The absent content address.
        blob_hash: String,
    },
    /// A blob's bytes no longer hash to their address.
    HashMismatch {
        /// The referencing generation.
        generation: u64,
        /// The address the ledger recorded.
        expected: String,
        /// What the bytes actually hash to.
        actual: String,
    },
    /// A blob's bytes verified but did not parse as a model.
    CorruptBlob {
        /// The referencing generation.
        generation: u64,
        /// The parse failure.
        detail: String,
    },
    /// The requested generation was never committed.
    UnknownGeneration(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Encode(e) => write!(f, "store journal encode error: {e}"),
            StoreError::MissingBlob { generation, blob_hash } => {
                write!(f, "generation {generation}: blob {blob_hash} is missing")
            }
            StoreError::HashMismatch { generation, expected, actual } => {
                write!(f, "generation {generation}: blob hashes to {actual}, ledger says {expected}")
            }
            StoreError::CorruptBlob { generation, detail } => {
                write!(f, "generation {generation}: blob verified but failed to parse: {detail}")
            }
            StoreError::UnknownGeneration(generation) => {
                write!(f, "generation {generation} was never committed")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<EncodeError> for StoreError {
    fn from(e: EncodeError) -> Self {
        StoreError::Encode(e)
    }
}

/// One problem `models verify` found (informational, not fatal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyIssue {
    /// The generation the issue belongs to (0 for store-wide issues).
    pub generation: u64,
    /// Human-readable description.
    pub detail: String,
}

/// What a handle has validated of the journal, and its fold, kept
/// record by record. The serving state is always the state right after
/// some commit landed (or empty), so `current` names it and the chain
/// of states each commit landed on rebuilds it.
#[derive(Default)]
struct Ledger {
    records: Vec<LedgerRecord>,
    /// Journal bytes the records were decoded from.
    validated: usize,
    /// Per commit, generation `g` at index `g - 1`: its index in
    /// `records`, the generation current when it landed (the fold's own
    /// record, never the record's `parent` field) and its key.
    landed: Vec<Landed>,
    /// Which generation serves each `(system_hash, binary_hash)` key.
    serving: BTreeMap<(u64, u64), u64>,
    current: u64,
}

struct Landed {
    at: usize,
    on: u64,
    key: (u64, u64),
}

impl Ledger {
    /// Decodes and folds in `journal` past the validated offset, up to
    /// the first frame that is torn, fails its CRC, does not parse or
    /// does not extend the ledger. Returns whether that left a tail.
    fn ingest(&mut self, journal: &[u8]) -> bool {
        let tail = codec::recover(&journal[self.validated..]);
        for payload in &tail.records {
            match serde_json::from_slice::<LedgerRecord>(payload) {
                Ok(record) if self.extends(&record) => self.push(record, payload.len()),
                _ => return true,
            }
        }
        tail.truncated
    }

    /// Whether `record` is a legal next entry: a commit carries exactly
    /// high-water + 1 and refits only an earlier generation, a rollback
    /// targets a committed one. A CRC-valid record that is not is the
    /// start of a corrupt tail.
    fn extends(&self, record: &LedgerRecord) -> bool {
        let high_water = self.landed.len() as u64;
        match record {
            LedgerRecord::Commit(m) => m.generation == high_water + 1 && m.provenance.refit_of < m.generation,
            LedgerRecord::Rollback { to_generation, .. } => (1..=high_water).contains(to_generation),
        }
    }

    /// Accepts `record`, framed with `len` payload bytes, and folds it
    /// in. A rollback to `g` walks the chain `g`, what `g` landed on, …:
    /// the latest generation on it wins each key.
    fn push(&mut self, record: LedgerRecord, len: usize) {
        self.validated += codec::RECORD_HEADER_LEN + len;
        match &record {
            LedgerRecord::Commit(m) => {
                let key = (m.system_hash, m.binary_hash);
                self.landed.push(Landed { at: self.records.len(), on: self.current, key });
                self.serving.insert(key, m.generation);
                self.current = m.generation;
            }
            LedgerRecord::Rollback { to_generation, .. } => {
                self.serving.clear();
                let mut generation = *to_generation;
                while generation > 0 {
                    let landed = &self.landed[generation as usize - 1];
                    self.serving.entry(landed.key).or_insert(generation);
                    generation = landed.on;
                }
                self.current = *to_generation;
            }
        }
        self.records.push(record);
    }
}

/// The durable model store. See the module docs for the write
/// discipline; all mutation is `&mut self`, callers that share a store
/// across threads wrap it in a mutex.
pub struct ModelStore {
    backend: Box<dyn StoreBackend>,
    ledger: Ledger,
    recovered_truncation: bool,
}

impl ModelStore {
    /// Opens a store over any backend, recovering the journal: a torn
    /// or junk tail is truncated (durably, via an atomic rewrite) so
    /// subsequent appends land after the last valid record.
    pub fn open(backend: Box<dyn StoreBackend>) -> Result<Self, StoreError> {
        let bytes = backend.read(JOURNAL_FILE)?.unwrap_or_default();
        let mut store = ModelStore { backend, ledger: Ledger::default(), recovered_truncation: false };
        if store.ledger.ingest(&bytes) {
            store.backend.write_atomic(JOURNAL_FILE, &bytes[..store.ledger.validated])?;
            store.recovered_truncation = true;
        }
        Ok(store)
    }

    /// Opens a disk-backed store rooted at `dir`.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        ModelStore::open(Box::new(DiskBackend::open(dir)?))
    }

    /// Whether the last open had to discard a torn or corrupt tail.
    pub fn recovered_truncation(&self) -> bool {
        self.recovered_truncation
    }

    /// Commits a model: blob first (atomic, content-addressed), then
    /// the metadata record. Returns the committed record, whose
    /// generation is the previous high-water mark + 1 and whose parent
    /// is the generation that was serving at commit time. A refit of a
    /// generation not yet committed is refused before any write.
    pub fn commit(
        &mut self,
        blob: &ModelBlob,
        model_id: i64,
        provenance: Provenance,
    ) -> Result<ModelRecord, StoreError> {
        let generation = self.high_water() + 1;
        if provenance.refit_of >= generation {
            return Err(StoreError::UnknownGeneration(provenance.refit_of));
        }
        let hash = blob_hash(blob);
        let bytes = serde_json::to_vec(blob).expect("a model blob always serializes");
        self.backend.write_atomic(&format!("{BLOB_DIR}/{hash}"), &bytes)?;
        let record = ModelRecord {
            generation,
            parent: self.current_generation(),
            model_id,
            model_type: blob.model_type.clone(),
            system_hash: blob.system_hash,
            binary_hash: blob.binary_hash,
            config: blob.config,
            blob_hash: hash,
            provenance,
        };
        self.append(LedgerRecord::Commit(record.clone()))?;
        Ok(record)
    }

    /// Appends a rollback record targeting an earlier committed
    /// generation. History is never rewritten — the ledger grows by one
    /// record and the fold now resolves to `generation`. Returns the
    /// record that is serving after the rollback.
    pub fn rollback_to(&mut self, generation: u64, reason: &str) -> Result<ModelRecord, StoreError> {
        let target = self.record(generation).ok_or(StoreError::UnknownGeneration(generation))?.clone();
        self.append(LedgerRecord::Rollback { to_generation: generation, reason: reason.to_string() })?;
        Ok(target)
    }

    /// Appends one frame: with one writer, it lands at the validated offset.
    fn append(&mut self, record: LedgerRecord) -> Result<(), StoreError> {
        let payload = serde_json::to_vec(&record).expect("a ledger record always serializes");
        let mut frame = Vec::with_capacity(payload.len() + codec::RECORD_HEADER_LEN);
        codec::encode_record(&payload, &mut frame)?;
        self.backend.append(JOURNAL_FILE, &frame)?;
        self.ledger.push(record, payload.len());
        Ok(())
    }

    /// Picks up records another writer (the campaign CLI on the same
    /// store directory) appended, decoding only the journal past what
    /// this handle validated. Unlike [`ModelStore::open`], refresh
    /// **never truncates**: a torn tail may be a live writer mid-append,
    /// so it is ignored until a later read. A journal shorter than what
    /// was validated is an error, since only `open` truncates. Returns
    /// how many new records became visible.
    pub fn refresh(&mut self) -> Result<usize, StoreError> {
        let bytes = self.backend.read(JOURNAL_FILE)?.unwrap_or_default();
        if bytes.len() < self.ledger.validated {
            let cut =
                format!("{JOURNAL_FILE} is {} bytes, below the {} validated", bytes.len(), self.ledger.validated);
            return Err(StoreError::Io(io::Error::new(io::ErrorKind::InvalidData, cut)));
        }
        let known = self.ledger.records.len();
        self.ledger.ingest(&bytes);
        Ok(self.ledger.records.len() - known)
    }

    /// The records a freshly booted replica should install, folded with
    /// rollback-rewind semantics: the state after `Rollback { to_generation: g }`
    /// is exactly the state right after commit `g` landed, and within
    /// that state each `(system_hash, binary_hash)` key serves its
    /// latest record. Sorted by generation so installation replays
    /// lineage order.
    pub fn serving(&self) -> Vec<&ModelRecord> {
        let mut generations: Vec<u64> = self.ledger.serving.values().copied().collect();
        generations.sort_unstable();
        generations.into_iter().filter_map(|g| self.record(g)).collect()
    }

    /// The record [`ModelStore::serving`] holds for one key, if any.
    pub fn serving_for(&self, system_hash: u64, binary_hash: u64) -> Option<&ModelRecord> {
        self.ledger.serving.get(&(system_hash, binary_hash)).and_then(|&g| self.record(g))
    }

    /// The full ledger, in append order.
    pub fn ledger(&self) -> &[LedgerRecord] {
        &self.ledger.records
    }

    /// Every committed record, in commit (= generation) order.
    pub fn commits(&self) -> impl Iterator<Item = &ModelRecord> {
        (1..=self.high_water()).filter_map(|g| self.record(g))
    }

    /// The committed record for `generation`, if any.
    pub fn record(&self, generation: u64) -> Option<&ModelRecord> {
        let landed = self.ledger.landed.get(usize::try_from(generation).ok()?.checked_sub(1)?)?;
        match &self.ledger.records[landed.at] {
            LedgerRecord::Commit(m) => Some(m),
            LedgerRecord::Rollback { .. } => None,
        }
    }

    /// The generation the ledger folds to — a commit moves it forward, a
    /// rollback to its target (0 on an empty store).
    pub fn current_generation(&self) -> u64 {
        self.ledger.current
    }

    /// The highest generation ever committed (0 on an empty store) —
    /// rollbacks never lower it.
    pub fn high_water(&self) -> u64 {
        self.ledger.landed.len() as u64
    }

    /// Loads and verifies a committed record's blob: the bytes must
    /// hash back to the recorded content address and parse as a model.
    pub fn load_blob(&self, record: &ModelRecord) -> Result<ModelBlob, StoreError> {
        let name = format!("{BLOB_DIR}/{}", record.blob_hash);
        let bytes = self.backend.read(&name)?.ok_or_else(|| StoreError::MissingBlob {
            generation: record.generation,
            blob_hash: record.blob_hash.clone(),
        })?;
        let text = String::from_utf8_lossy(&bytes);
        let actual = format!("{:016x}", chronus::hash::simple_hash(&text));
        if actual != record.blob_hash {
            return Err(StoreError::HashMismatch {
                generation: record.generation,
                expected: record.blob_hash.clone(),
                actual,
            });
        }
        serde_json::from_slice(&bytes)
            .map_err(|e| StoreError::CorruptBlob { generation: record.generation, detail: e.to_string() })
    }

    /// Audits every committed generation: blob present, bytes hash to
    /// their address, payload parses. Returns the issues found (empty =
    /// clean); orphan blobs (written but never committed — the residue
    /// of a crash between blob write and metadata append) are reported
    /// informationally, never fatally.
    pub fn verify(&self) -> Vec<VerifyIssue> {
        let mut issues = Vec::new();
        for record in self.commits() {
            if let Err(e) = self.load_blob(record) {
                issues.push(VerifyIssue { generation: record.generation, detail: e.to_string() });
            }
        }
        if let Ok(names) = self.backend.list(BLOB_DIR) {
            let committed: HashSet<&str> = self.commits().map(|m| m.blob_hash.as_str()).collect();
            for name in names.iter().filter(|name| !committed.contains(name.as_str())) {
                issues.push(VerifyIssue {
                    generation: 0,
                    detail: format!("orphan blob {name} (no ledger record references it)"),
                });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::ledger::ProvenanceSource;
    use eco_sim_node::cpu::CpuConfig;

    fn blob(binary_hash: u64, cores: u32) -> ModelBlob {
        ModelBlob {
            model_type: "brute-force".into(),
            system_hash: 42,
            binary_hash,
            config: CpuConfig::new(cores, 2_200_000, 1),
            benchmarks: Vec::new(),
        }
    }

    fn open_mem(mem: &MemBackend) -> ModelStore {
        ModelStore::open(Box::new(mem.clone())).unwrap()
    }

    #[test]
    fn commit_then_reopen_preserves_history() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        assert!(store.record(store.current_generation()).is_none());
        let first = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        assert_eq!(first.generation, 1);
        assert_eq!(first.parent, 0);
        let second = store.commit(&blob(2, 16), 11, Provenance::default()).unwrap();
        assert_eq!(second.generation, 2);
        assert_eq!(second.parent, 1);

        let reopened = open_mem(&mem);
        assert!(!reopened.recovered_truncation());
        assert_eq!(reopened.record(reopened.current_generation()), Some(&second));
        assert_eq!(reopened.high_water(), 2);
        assert_eq!(reopened.commits().count(), 2);
        assert_eq!(reopened.load_blob(&first).unwrap(), blob(1, 32));
    }

    #[test]
    fn rollback_appends_and_refolds_without_rewriting() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        let first = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        store.commit(&blob(2, 16), 11, Provenance::default()).unwrap();
        let ledger_before = store.ledger().len();

        let restored = store.rollback_to(1, "regression").unwrap();
        assert_eq!(restored, first);
        assert_eq!(store.current_generation(), 1);
        assert_eq!(store.high_water(), 2, "rollback never lowers the high-water mark");
        assert_eq!(store.ledger().len(), ledger_before + 1, "rollback appends, never rewrites");

        // The next commit is a child of the *rolled-back-to* generation
        // and still takes a fresh generation number.
        let third = store.commit(&blob(3, 8), 12, Provenance::default()).unwrap();
        assert_eq!(third.generation, 3);
        assert_eq!(third.parent, 1);

        let reopened = open_mem(&mem);
        assert_eq!(reopened.current_generation(), 3);
    }

    #[test]
    fn rollback_to_unknown_generation_errors() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        assert!(matches!(store.rollback_to(9, "nope"), Err(StoreError::UnknownGeneration(9))));
        assert!(matches!(store.rollback_to(0, "nope"), Err(StoreError::UnknownGeneration(0))));
    }

    #[test]
    fn torn_journal_tail_recovers_to_prefix_and_truncates_durably() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        store.commit(&blob(2, 16), 11, Provenance::default()).unwrap();

        // Tear the last append mid-frame, as a crash would.
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        let torn = bytes.len() - 7;
        bytes.truncate(torn);
        mem.put_raw(JOURNAL_FILE, bytes);

        let recovered = open_mem(&mem);
        assert!(recovered.recovered_truncation());
        assert_eq!(recovered.current_generation(), 1);

        // The truncation is durable: a second open sees a clean journal
        // and appends land after the surviving record.
        let mut again = open_mem(&mem);
        assert!(!again.recovered_truncation());
        let next = again.commit(&blob(3, 8), 12, Provenance::default()).unwrap();
        assert_eq!(next.generation, 2);
        assert_eq!(next.parent, 1);
    }

    #[test]
    fn crash_between_blob_and_metadata_leaves_harmless_orphan() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        // Simulate the crash: blob written, record never appended.
        let orphan = blob(2, 16);
        let hash = blob_hash(&orphan);
        mem.put_raw(&format!("{BLOB_DIR}/{hash}"), serde_json::to_vec(&orphan).unwrap());

        let recovered = open_mem(&mem);
        assert_eq!(recovered.current_generation(), 1, "orphan blob must stay invisible");
        let issues = recovered.verify();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("orphan blob"), "{}", issues[0].detail);
        assert_eq!(issues[0].generation, 0);
    }

    #[test]
    fn verify_detects_corrupted_and_missing_blobs() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        let first = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        let second = store.commit(&blob(2, 16), 11, Provenance::default()).unwrap();
        assert!(store.verify().is_empty());

        // Flip a byte in the first blob; delete the second outright.
        let name = format!("{BLOB_DIR}/{}", first.blob_hash);
        let mut bytes = mem.get_raw(&name).unwrap();
        bytes[0] ^= 0x01;
        mem.put_raw(&name, bytes);
        mem.put_raw(&format!("{BLOB_DIR}/{}", second.blob_hash), Vec::new());

        let issues = store.verify();
        assert_eq!(issues.len(), 2);
        assert!(issues.iter().any(|i| i.generation == 1 && i.detail.contains("hashes to")));
        assert!(issues.iter().any(|i| i.generation == 2));
        assert!(matches!(store.load_blob(&first), Err(StoreError::HashMismatch { .. })));
    }

    #[test]
    fn identical_blobs_share_one_content_address() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        let a = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        let b = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        assert_eq!(a.blob_hash, b.blob_hash);
        assert_ne!(a.generation, b.generation);
        assert_eq!(mem.list(BLOB_DIR).unwrap().len(), 1);
    }

    #[test]
    fn refresh_picks_up_foreign_appends_without_truncating() {
        let mem = MemBackend::new();
        let mut reader = open_mem(&mem);
        let mut writer = open_mem(&mem);
        writer.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        assert_eq!(reader.current_generation(), 0);
        assert_eq!(reader.refresh().unwrap(), 1);
        assert_eq!(reader.current_generation(), 1);

        // A torn tail (a live writer mid-append) must NOT be truncated
        // by refresh — only ignored.
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        let clean = bytes.clone();
        bytes.extend_from_slice(&[4, 4, 4]);
        mem.put_raw(JOURNAL_FILE, bytes.clone());
        assert_eq!(reader.refresh().unwrap(), 0);
        assert_eq!(mem.get_raw(JOURNAL_FILE).unwrap(), bytes, "refresh must never write");
        mem.put_raw(JOURNAL_FILE, clean);
    }

    #[test]
    fn serving_rewinds_through_rollbacks_per_key() {
        let mem = MemBackend::new();
        let mut store = open_mem(&mem);
        // Two keys: binary 1 and binary 2.
        let g1 = store.commit(&blob(1, 32), 10, Provenance::default()).unwrap();
        let g2 = store.commit(&blob(2, 16), 11, Provenance::default()).unwrap();
        let g3 = store.commit(&blob(1, 8), 12, Provenance::default()).unwrap();
        // Serving now: key 1 → gen 3, key 2 → gen 2.
        let serving: Vec<u64> = store.serving().iter().map(|m| m.generation).collect();
        assert_eq!(serving, vec![g2.generation, g3.generation]);

        // Rollback to generation 1: the state right after g1 committed
        // had only key 1 — key 2 disappears from the serving set.
        store.rollback_to(1, "regression").unwrap();
        let serving: Vec<u64> = store.serving().iter().map(|m| m.generation).collect();
        assert_eq!(serving, vec![g1.generation]);

        // A fresh commit lands on the rewound state.
        let g4 = store.commit(&blob(2, 4), 13, Provenance::default()).unwrap();
        let serving: Vec<u64> = store.serving().iter().map(|m| m.generation).collect();
        assert_eq!(serving, vec![g1.generation, g4.generation]);
    }

    #[test]
    fn junk_journal_never_panics_open() {
        let mem = MemBackend::new();
        mem.put_raw(JOURNAL_FILE, vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3]);
        let store = open_mem(&mem);
        assert!(store.recovered_truncation());
        assert_eq!(store.current_generation(), 0);
    }

    #[test]
    fn crc_valid_but_semantically_impossible_record_is_a_corrupt_tail() {
        let refit = |refit_of| {
            let mut m = open_mem(&MemBackend::new()).commit(&blob(1, 16), 11, Provenance::default()).unwrap();
            m.generation = 2;
            m.provenance = Provenance { source: ProvenanceSource::Adaptation, refit_of, ..Provenance::default() };
            LedgerRecord::Commit(m)
        };
        // A rollback to a generation that was never committed, a refit of
        // itself (which `models show` would walk forever) and a refit of
        // a later generation: recovery must refuse each and cut there.
        let forgeries = [LedgerRecord::Rollback { to_generation: 99, reason: "forged".into() }, refit(2), refit(5)];
        for forged in forgeries {
            let mem = MemBackend::new();
            open_mem(&mem).commit(&blob(1, 32), 10, Provenance::default()).unwrap();
            let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
            codec::encode_record(&serde_json::to_vec(&forged).unwrap(), &mut bytes).unwrap();
            mem.put_raw(JOURNAL_FILE, bytes);

            let recovered = open_mem(&mem);
            assert!(recovered.recovered_truncation(), "{forged:?}");
            assert_eq!((recovered.current_generation(), recovered.high_water()), (1, 1));
            assert!(recovered.record(2).is_none());
        }
        // and the writer refuses to append what recovery would cut
        let mut store = open_mem(&MemBackend::new());
        let refit_of_itself =
            Provenance { source: ProvenanceSource::Adaptation, refit_of: 1, ..Provenance::default() };
        assert!(matches!(store.commit(&blob(1, 32), 10, refit_of_itself), Err(StoreError::UnknownGeneration(1))));
        assert!(store.ledger().is_empty());
    }

    #[test]
    fn a_live_reader_keeps_what_it_validated() {
        let mem = MemBackend::new();
        let mut writer = open_mem(&mem);
        for binary in 1..=5 {
            writer.commit(&blob(binary, 32), binary as i64, Provenance::default()).unwrap();
        }
        let mut reader = open_mem(&mem);
        // A flipped byte inside record 1, which both handles validated,
        // then a sixth commit from the writer: the reader decodes only
        // the new frame and keeps the five it held.
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        bytes[codec::RECORD_HEADER_LEN + 4] ^= 0x01;
        mem.put_raw(JOURNAL_FILE, bytes);
        writer.commit(&blob(6, 32), 6, Provenance::default()).unwrap();
        assert_eq!(reader.refresh().unwrap(), 1);
        let held = |s: &ModelStore| (s.ledger().len(), s.serving().len(), s.current_generation(), s.high_water());
        assert_eq!(held(&reader), (6, 6, 6, 6));

        // A journal cut below what the reader validated was truncated
        // behind its back: an error naming the journal, and nothing lost.
        let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap();
        bytes.pop();
        mem.put_raw(JOURNAL_FILE, bytes);
        let refused = reader.refresh().unwrap_err().to_string();
        assert!(refused.contains(JOURNAL_FILE), "{refused}");
        assert_eq!(held(&reader), (6, 6, 6, 6));
    }
}
