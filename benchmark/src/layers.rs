//! Decorators over the program's public traits: the only way the
//! benchmark looks inside the pipeline. Each forwards to the real
//! implementation and, around the call, bumps a counter (always) and
//! records a span (traced runs only). Nothing here changes what the
//! program does.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use chronus::domain::Settings;
use chronus::interfaces::LocalStorage;
use chronus::remote::{Connection, ObservedOutcome, PredictionSource, Transport};
use chronus::telemetry::TraceContext;
use chronus::ChronusError;
use chronusd::{ModelBackend, PreparedModel};
use eco_plugin::JobSubmitEco;
use eco_sim_node::cpu::CpuConfig;
use eco_slurm_sim::plugin::{JobSubmitPlugin, PluginRejection};
use eco_slurm_sim::JobDescriptor;
use eco_store::{ModelStore, StoreBackend};
use parking_lot::Mutex;

use crate::probe::{bump, Probe, SpanName, Wire};

/// `JobSubmitPlugin` decorator. The cluster owns its plugins, so the real
/// plugin sits behind a shared handle the benchmark keeps too (it calls
/// `prefetch_predictions` and `report_outcome` on it between rounds).
pub struct TimedPlugin {
    pub inner: Arc<Mutex<JobSubmitEco>>,
    pub probe: Arc<Probe>,
}

impl JobSubmitPlugin for TimedPlugin {
    fn name(&self) -> &'static str {
        "eco"
    }

    fn job_submit(&mut self, job: &mut JobDescriptor, submit_uid: u32) -> Result<(), PluginRejection> {
        self.job_submit_traced(job, submit_uid, None)
    }

    fn job_submit_traced(
        &mut self,
        job: &mut JobDescriptor,
        submit_uid: u32,
        ctx: Option<TraceContext>,
    ) -> Result<(), PluginRejection> {
        self.probe.span(SpanName::PluginJobSubmit, || self.inner.lock().job_submit_traced(job, submit_uid, ctx))
    }
}

/// `LocalStorage` decorator: one `settings.json` read per call today.
pub struct TimedStorage<S> {
    pub inner: S,
    pub probe: Arc<Probe>,
}

impl<S: LocalStorage> LocalStorage for TimedStorage<S> {
    fn load_settings(&self) -> chronus::Result<Settings> {
        bump(&self.probe.counters.load_settings, 1);
        self.probe.span(SpanName::StorageLoadSettings, || self.inner.load_settings())
    }

    fn save_settings(&self, settings: &Settings) -> chronus::Result<()> {
        self.inner.save_settings(settings)
    }

    fn resolve(&self, path: &str) -> PathBuf {
        self.inner.resolve(path)
    }
}

/// `PredictionSource` decorator over the local or the remote source.
pub struct TimedSource {
    pub inner: Arc<dyn PredictionSource>,
    pub probe: Arc<Probe>,
}

impl PredictionSource for TimedSource {
    fn predict(&self, system_hash: u64, binary_hash: u64) -> chronus::Result<CpuConfig> {
        self.predict_traced(system_hash, binary_hash, None)
    }

    fn predict_traced(
        &self,
        system_hash: u64,
        binary_hash: u64,
        ctx: Option<TraceContext>,
    ) -> chronus::Result<CpuConfig> {
        bump(&self.probe.counters.predicts, 1);
        self.probe.span(SpanName::SourcePredict, || self.inner.predict_traced(system_hash, binary_hash, ctx))
    }

    fn predict_many(&self, keys: &[(u64, u64)]) -> Vec<chronus::Result<CpuConfig>> {
        self.inner.predict_many(keys)
    }

    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> chronus::Result<bool> {
        self.inner.report_outcome(system_hash, binary_hash, outcome)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// `Transport` decorator: counts dials and wraps every connection.
pub struct TimedTransport {
    pub inner: Box<dyn Transport>,
    pub wire: Wire,
    pub probe: Arc<Probe>,
}

impl Transport for TimedTransport {
    fn connect(&mut self) -> io::Result<Box<dyn Connection>> {
        let conn = self.inner.connect()?;
        bump(&self.probe.counters.connects[self.wire as usize], 1);
        Ok(Box::new(TimedConnection { inner: conn, wire: self.wire, probe: Arc::clone(&self.probe) }))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn sleep(&mut self, d: Duration) {
        self.inner.sleep(d)
    }

    fn is_local(&self) -> bool {
        self.inner.is_local()
    }
}

/// `Connection` decorator. From outside the daemon, `recv_frame` is wire
/// + queue + service + wire back; it cannot be split from here.
struct TimedConnection {
    inner: Box<dyn Connection>,
    wire: Wire,
    probe: Arc<Probe>,
}

impl Connection for TimedConnection {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        bump(&self.probe.counters.frames[self.wire as usize], 1);
        bump(&self.probe.counters.bytes_out, payload.len() as u64);
        self.probe.capture(payload);
        self.probe.span(SpanName::TransportSend, || self.inner.send_frame(payload))
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let reply = self.probe.span(SpanName::TransportRecvWait, || self.inner.recv_frame())?;
        bump(&self.probe.counters.bytes_in, reply.len() as u64);
        Ok(reply)
    }

    fn fast_batch(&self) -> bool {
        self.inner.fast_batch()
    }
}

/// `StoreBackend` decorator: what a commit costs in file operations.
/// Sync latency belongs to the disk; the number of syncs belongs to the
/// program, and this counts them.
pub struct CountingStore<B> {
    pub inner: B,
    pub probe: Arc<Probe>,
}

impl<B: StoreBackend> StoreBackend for CountingStore<B> {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        bump(&self.probe.counters.store_appends, 1);
        bump(&self.probe.counters.store_bytes, bytes.len() as u64);
        self.inner.append(name, bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        bump(&self.probe.counters.store_atomic_writes, 1);
        bump(&self.probe.counters.store_bytes, bytes.len() as u64);
        self.inner.write_atomic(name, bytes)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// The daemon's model source for the benchmark: resolves `Preload` and
/// cold lookups from the durable store, blob hash-verified first. The
/// repo's production backend (`StorageBackend`) serves the one model
/// `settings.json` stages; a 64-key fleet rolled out through
/// `ModelStore::commit` + `roll_into` needs a store-backed one, and this
/// adapter is the thinnest: every step is a public `ModelStore` call.
pub struct StoreModelBackend {
    store: Mutex<ModelStore>,
}

impl StoreModelBackend {
    pub fn open(dir: &std::path::Path) -> Result<StoreModelBackend, eco_store::StoreError> {
        Ok(StoreModelBackend { store: Mutex::new(ModelStore::open_dir(dir)?) })
    }

    fn resolve(
        &self,
        pick: impl Fn(&eco_store::ModelRecord) -> bool,
        what: String,
    ) -> chronus::Result<PreparedModel> {
        let mut store = self.store.lock();
        store.refresh().map_err(|e| ChronusError::Model(format!("store refresh: {e}")))?;
        let record = store.serving().into_iter().rfind(|r| pick(r)).ok_or(ChronusError::NotFound(what))?.clone();
        store.load_blob(&record).map_err(|e| ChronusError::Model(format!("store blob: {e}")))?;
        Ok(PreparedModel {
            model_id: record.model_id,
            model_type: record.model_type,
            system_hash: record.system_hash,
            binary_hash: record.binary_hash,
            config: record.config,
        })
    }
}

impl ModelBackend for StoreModelBackend {
    fn load(&self, model_id: i64) -> chronus::Result<PreparedModel> {
        self.resolve(|r| r.model_id == model_id, format!("model {model_id} is not in the store"))
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> chronus::Result<PreparedModel> {
        self.resolve(
            |r| r.system_hash == system_hash && r.binary_hash == binary_hash,
            format!("model for ({system_hash:#x}, {binary_hash:#x})"),
        )
    }
}
