//! Where the daemon's models come from: a durable model store, always.
//! In production it is the store `chronus serve` opens (the home's
//! `$CHRONUS_HOME/store`, where `load-model` and campaigns commit,
//! unless `--store` names another). A [`ModelBackend`] hands a daemon
//! started without `store_dir` its store instead: [`StaticBackend`]
//! commits a fixed set of models to an in-memory one, for tests and
//! benchmarks. Either way the daemon answers from that store's serving
//! fold, every record hash-verified by [`verified`] first.

use std::sync::Arc;

use chronus::error::{ChronusError, Result};
use eco_sim_node::cpu::CpuConfig;
use eco_store::{MemBackend, ModelBlob, ModelRecord, ModelStore, Provenance, StoreBackend, StoreError};
use parking_lot::Mutex;

use crate::registry::Resident;

/// A model as a test or benchmark describes it: identity plus the
/// pre-computed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedModel {
    pub model_id: i64,
    pub model_type: String,
    pub system_hash: u64,
    pub binary_hash: u64,
    pub config: CpuConfig,
}

/// What hands a daemon started without `store_dir` its store.
pub trait ModelBackend: Send + Sync {
    /// The store this source serves and its directory label. A source
    /// that is no store serves an empty in-memory one.
    fn store(&self) -> (Arc<Mutex<ModelStore>>, String) {
        (Arc::new(Mutex::new(memory_store(MemBackend::new(), &[]))), MEMORY.to_string())
    }

    /// Never called by the daemon; the default body stays because
    /// `benchmark/src/layers.rs` implements it.
    fn load(&self, model_id: i64) -> Result<PreparedModel> {
        Err(ChronusError::NotFound(format!("model {model_id}")))
    }

    /// Never called by the daemon; the default body stays because
    /// `benchmark/src/layers.rs` implements it.
    fn lookup(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel> {
        Err(ChronusError::NotFound(format!("model for ({system_hash:#x}, {binary_hash:#x})")))
    }
}

/// The directory label of an in-memory store.
const MEMORY: &str = "memory";

/// Verify, then prepare — the only place a ledger record becomes
/// something the registry may serve. The record's blob is loaded and
/// must hash back to its content address and parse
/// ([`ModelStore::load_blob`]); only then is the record's pre-computed
/// configuration handed out, at its ledger generation. No optimizer is
/// parsed or scored here.
pub fn verified(store: &ModelStore, record: &ModelRecord) -> std::result::Result<Resident, StoreError> {
    store.load_blob(record)?;
    Ok(Resident { generation: record.generation, model_id: record.model_id, config: record.config })
}

/// A store over `files` with `models` committed to it, in order: model
/// `i` (from 0) lands at generation `i + 1`, and a later model for the
/// same key supersedes an earlier one.
pub fn memory_store(files: impl StoreBackend + 'static, models: &[PreparedModel]) -> ModelStore {
    let mut store = ModelStore::open(Box::new(files)).expect("a fresh store opens");
    for m in models {
        let blob = ModelBlob {
            model_type: m.model_type.clone(),
            system_hash: m.system_hash,
            binary_hash: m.binary_hash,
            config: m.config,
            benchmarks: Vec::new(),
        };
        store.commit(&blob, m.model_id, Provenance::default()).expect("a fresh store takes a commit");
    }
    store
}

/// A fixed set of models for tests and benchmarks, committed in order to
/// an in-memory store.
pub struct StaticBackend {
    store: Arc<Mutex<ModelStore>>,
}

impl StaticBackend {
    pub fn new(models: Vec<PreparedModel>) -> StaticBackend {
        StaticBackend { store: Arc::new(Mutex::new(memory_store(MemBackend::new(), &models))) }
    }
}

impl ModelBackend for StaticBackend {
    fn store(&self) -> (Arc<Mutex<ModelStore>>, String) {
        (Arc::clone(&self.store), MEMORY.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(id: i64, sys: u64, bin: u64, cores: u32) -> PreparedModel {
        PreparedModel {
            model_id: id,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: bin,
            config: CpuConfig::new(cores, 2_200_000, 1),
        }
    }

    #[test]
    fn static_backend_commits_its_models_in_order() {
        let (store, dir) =
            StaticBackend::new(vec![model(1, 10, 20, 8), model(2, 30, 40, 16), model(3, 10, 20, 32)]).store();
        let store = store.lock();
        assert_eq!((store.high_water(), dir.as_str()), (3, MEMORY));
        let serving = store.serving_for(10, 20).expect("a later model for a key supersedes an earlier one");
        assert_eq!((serving.generation, serving.model_id), (3, 3));
        let answer = verified(&store, serving).unwrap();
        assert_eq!(answer, Resident { generation: 3, model_id: 3, config: CpuConfig::new(32, 2_200_000, 1) });
        assert_eq!(store.serving_for(30, 40).map(|r| r.generation), Some(2));
    }
}
