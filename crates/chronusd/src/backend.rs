//! Where the daemon gets models from. A [`ModelBackend`] resolves a
//! preload (by model id) or a cold lookup (by identity hashes) into a
//! [`PreparedModel`] whose best configuration the registry then serves
//! from memory. A daemon has exactly one: the durable store
//! ([`StoreModelBackend`]) when it was started with one, the staged
//! `settings.json` model ([`StorageBackend`]) in the paper's store-less
//! configuration. Whatever else the daemon reads from a store (boot
//! catch-up, the `Stats` gauges, drift calibration) it reaches through
//! [`ModelBackend::store`], so a store is never a second source beside
//! another backend.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use chronus::application::predict_from_settings;
use chronus::error::{ChronusError, Result};
use chronus::interfaces::LocalStorage;
use eco_sim_node::cpu::CpuConfig;
use eco_store::{ModelRecord, ModelStore, StoreError};
use parking_lot::Mutex;

/// A model resolved by a backend, ready to be cached: identity plus
/// the pre-computed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedModel {
    pub model_id: i64,
    pub model_type: String,
    pub system_hash: u64,
    pub binary_hash: u64,
    pub config: CpuConfig,
}

/// The daemon's model source.
pub trait ModelBackend: Send + Sync {
    /// Resolves a `Preload { model_id }` RPC.
    fn load(&self, model_id: i64) -> Result<PreparedModel>;

    /// Resolves a registry miss for `(system_hash, binary_hash)`.
    fn lookup(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel>;

    /// The durable store this source reads and its directory label, if
    /// the source is one ([`StoreModelBackend`]); `None` for every other.
    fn store(&self) -> Option<(&Mutex<ModelStore>, &str)> {
        None
    }
}

/// Verify, then prepare — the only place a ledger record becomes
/// something the registry may serve. The record's blob is loaded and
/// must hash back to its content address and parse
/// ([`ModelStore::load_blob`]); only then is the record's pre-computed
/// configuration handed out. No optimizer is parsed or scored here.
/// Boot catch-up, `Preload` and a registry miss all come through this.
pub fn verified(store: &ModelStore, record: &ModelRecord) -> std::result::Result<PreparedModel, StoreError> {
    store.load_blob(record)?;
    Ok(PreparedModel {
        model_id: record.model_id,
        model_type: record.model_type.clone(),
        system_hash: record.system_hash,
        binary_hash: record.binary_hash,
        config: record.config,
    })
}

/// The backend of a store-backed daemon: the durable model store is
/// the model source. A `Preload` and a registry miss refresh the ledger
/// (the campaign CLI may have appended since boot), pick the *serving*
/// record — by key ([`ModelStore::serving_for`]), or the latest serving
/// match of a `Preload`'s id — and hand it out through [`verified`]. A
/// model the serving set does not hold is `NotFound` naming the store,
/// so what the registry serves is always what the ledger says.
pub struct StoreModelBackend {
    store: Arc<Mutex<ModelStore>>,
    dir: String,
}

impl StoreModelBackend {
    /// A backend over the daemon's one open store; `dir` labels it in
    /// error messages.
    pub fn new(store: Arc<Mutex<ModelStore>>, dir: impl Into<String>) -> StoreModelBackend {
        StoreModelBackend { store, dir: dir.into() }
    }

    fn resolve(&self, what: &str, find: impl FnOnce(&ModelStore) -> Option<&ModelRecord>) -> Result<PreparedModel> {
        let dir = &self.dir;
        // a blob that does not verify is "no answer for this key" (the
        // service answers Miss, as after a boot that rejected it); a
        // store that cannot be read, or whose journal was cut below what
        // this handle validated, is the daemon's own problem
        let refused = |e: StoreError| match e {
            StoreError::Io(e) => ChronusError::Io(io::Error::new(e.kind(), format!("model store at {dir}: {e}"))),
            e => ChronusError::Model(format!("model store at {dir}: {e}")),
        };
        let mut store = self.store.lock();
        store.refresh().map_err(refused)?;
        let record = find(&store)
            .ok_or_else(|| ChronusError::NotFound(format!("{what} is not serving in the model store at {dir}")))?;
        verified(&store, record).map_err(refused)
    }
}

impl ModelBackend for StoreModelBackend {
    fn load(&self, model_id: i64) -> Result<PreparedModel> {
        self.resolve(&format!("model {model_id}"), |store| {
            store.serving().into_iter().rfind(|r| r.model_id == model_id)
        })
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel> {
        self.resolve(&format!("a model for ({system_hash:#x}, {binary_hash:#x})"), |store| {
            store.serving_for(system_hash, binary_hash)
        })
    }

    fn store(&self) -> Option<(&Mutex<ModelStore>, &str)> {
        Some((&self.store, &self.dir))
    }
}

/// The backend of a store-less daemon, the paper's configuration: the
/// same staged-model layout the CLI's `load-model` writes
/// (`settings.json` pointing at a serialized optimizer on local disk).
/// Prediction runs the optimizer's argmax over the staged system facts
/// once; the registry caches the result.
pub struct StorageBackend {
    storage: Box<dyn LocalStorage + Send + Sync>,
}

impl StorageBackend {
    pub fn new(storage: Box<dyn LocalStorage + Send + Sync>) -> StorageBackend {
        StorageBackend { storage }
    }

    fn prepare(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel> {
        let settings = self.storage.load_settings()?;
        let loaded = settings
            .loaded_model
            .as_ref()
            .ok_or_else(|| ChronusError::NotFound("no model pre-loaded".into()))?
            .clone();
        let config = predict_from_settings(&settings, system_hash, binary_hash)?;
        Ok(PreparedModel {
            model_id: loaded.model_id,
            model_type: loaded.model_type,
            system_hash: loaded.system_hash,
            binary_hash: loaded.binary_hash,
            config,
        })
    }
}

impl ModelBackend for StorageBackend {
    fn load(&self, model_id: i64) -> Result<PreparedModel> {
        let settings = self.storage.load_settings()?;
        let loaded = settings
            .loaded_model
            .as_ref()
            .filter(|m| m.model_id == model_id)
            .ok_or_else(|| ChronusError::NotFound(format!("model {model_id} is not staged on this node")))?;
        let (system_hash, binary_hash) = (loaded.system_hash, loaded.binary_hash);
        self.prepare(system_hash, binary_hash)
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel> {
        self.prepare(system_hash, binary_hash)
    }
}

/// A fixed in-memory backend for tests and benchmarks; optionally
/// injects latency to simulate a slow model source.
pub struct StaticBackend {
    models: Vec<PreparedModel>,
    delay: Duration,
}

impl StaticBackend {
    pub fn new(models: Vec<PreparedModel>) -> StaticBackend {
        StaticBackend { models, delay: Duration::ZERO }
    }

    /// Every resolution sleeps `delay` first.
    pub fn with_delay(models: Vec<PreparedModel>, delay: Duration) -> StaticBackend {
        StaticBackend { models, delay }
    }
}

impl ModelBackend for StaticBackend {
    fn load(&self, model_id: i64) -> Result<PreparedModel> {
        std::thread::sleep(self.delay);
        self.models
            .iter()
            .find(|m| m.model_id == model_id)
            .cloned()
            .ok_or_else(|| ChronusError::NotFound(format!("model {model_id}")))
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> Result<PreparedModel> {
        std::thread::sleep(self.delay);
        self.models
            .iter()
            .find(|m| m.system_hash == system_hash && m.binary_hash == binary_hash)
            .cloned()
            .ok_or_else(|| ChronusError::NotFound(format!("model for ({system_hash:#x}, {binary_hash:#x})")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(id: i64, sys: u64, bin: u64) -> PreparedModel {
        PreparedModel {
            model_id: id,
            model_type: "brute-force".into(),
            system_hash: sys,
            binary_hash: bin,
            config: CpuConfig::new(32, 2_200_000, 1),
        }
    }

    #[test]
    fn static_backend_resolves_by_id_and_by_key() {
        let be = StaticBackend::new(vec![model(1, 10, 20), model(2, 30, 40)]);
        assert_eq!(be.load(2).unwrap().system_hash, 30);
        assert_eq!(be.lookup(10, 20).unwrap().model_id, 1);
        assert!(matches!(be.load(9).unwrap_err(), ChronusError::NotFound(_)));
        assert!(matches!(be.lookup(1, 1).unwrap_err(), ChronusError::NotFound(_)));
    }

    #[test]
    fn static_backend_delay_is_observable() {
        let be = StaticBackend::with_delay(vec![model(1, 10, 20)], Duration::from_millis(30));
        let start = std::time::Instant::now();
        be.lookup(10, 20).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
    }
}
