//! The store world: one seeded run of writer crashes, blob corruption
//! and rollbacks against a shared in-memory model store, with a replica
//! restart-catch-up after every mutation.
//!
//! Where [`crate::fleet`] injects faults into the *network* between a
//! client and a daemon fleet, this world injects them into the *storage*
//! underneath [`chronusd::store::ModelStore`]: a [`CrashingBackend`]
//! wraps [`MemBackend`] and can be armed to tear the next journal append
//! (the writer "crashes" after any prefix of the frame — including zero
//! bytes, which models a crash between the blob write and the metadata
//! append). After every writer action the daemon side is restarted: a
//! fresh [`chronusd::PredictService`] opens the same backend — its model
//! source is that store ([`chronusd::StoreModelBackend`]), as in a
//! daemon started with `--store` — runs
//! [`chronusd::PredictService::catch_up_from_store`] and answers real
//! Predict frames. Its registry holds [`REGISTRY_CAP`] models, fewer than
//! there are keys, so whenever every key serves a verifiable model the
//! replica evicts while it serves and the same audits run over answers
//! that came through the miss path.
//!
//! Checked invariants, per seeded run:
//!
//! * **acked writes are durable, unacked writes vanish cleanly** — the
//!   recovered ledger holds exactly the commits and rollbacks whose
//!   writer call returned `Ok`, in order; a torn tail never invents or
//!   reorders records;
//! * **never serve a bad blob** — a restarted replica answers `Config`
//!   only for serving records whose blob still hash-verifies; a
//!   corrupted blob's key answers `Miss`, and the catch-up report names
//!   the rejected generation; a blob corrupted *after* boot verified it
//!   is refused the next time its key has to come from the store, and
//!   served again once its bytes are back;
//! * **rollback is generation-monotonic in the ledger sense** — the
//!   ledger only grows, `high_water` never decreases, and after a
//!   rollback the serving generation is exactly the rollback target;
//! * **zero Preload traffic** — catch-up is self-served: the restarted
//!   replica's `preloads` counter stays 0 while `store_catchups` and
//!   `model_generation` account for every installed model — a miss
//!   resolved from the store moves neither;
//! * **live-reader safety** — a long-lived reader handle that only ever
//!   calls `refresh()` converges to the writer's acked state each round
//!   and never observes a torn record.
//!
//! Any violation panics with the seed and a replay command
//! ([`crate::sweep::fail`]).

use std::io;
use std::sync::Arc;

use chronus::remote::{Request, RequestFrame, Response};
use chronusd::store::{MemBackend, ModelBlob, ModelStore, Provenance, StoreBackend, BLOB_DIR};
use chronusd::{PredictService, QueueGauges, StoreModelBackend};
use eco_sim_node::cpu::CpuConfig;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};

/// Writer actions per seeded run.
pub const STORE_ROUNDS: usize = 40;

/// Models the restarted replica's registry holds: one fewer than there
/// are keys, so a fully verifiable serving set does not fit.
pub const REGISTRY_CAP: usize = 2;

/// A [`StoreBackend`] that can be armed to crash the writer on its next
/// journal append: the append persists only a prefix of the frame and
/// the call fails, exactly as a process death between `write()` and
/// durability would look to the next reader. Reads, atomic writes and
/// listing pass through untouched, so "the disk" survives every crash.
#[derive(Clone)]
pub struct CrashingBackend {
    inner: MemBackend,
    /// Fraction of the next append to keep before "crashing" (0.0 =
    /// nothing lands: the crash fell between the blob write and the
    /// metadata append).
    torn: Arc<Mutex<Option<f64>>>,
}

impl CrashingBackend {
    /// Wraps a shared in-memory backend.
    pub fn new(inner: MemBackend) -> Self {
        CrashingBackend { inner, torn: Arc::new(Mutex::new(None)) }
    }

    /// Arms the next append to tear after `fraction` of the frame.
    pub fn arm_torn(&self, fraction: f64) {
        *self.torn.lock() = Some(fraction);
    }

    /// The wrapped backend (test hooks: raw reads and corruption).
    pub fn mem(&self) -> &MemBackend {
        &self.inner
    }
}

impl StoreBackend for CrashingBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if let Some(fraction) = self.torn.lock().take() {
            let keep = ((bytes.len() as f64 * fraction) as usize).min(bytes.len().saturating_sub(1));
            if keep > 0 {
                self.inner.append(name, &bytes[..keep])?;
            }
            return Err(io::Error::other("simulated writer crash mid-append"));
        }
        self.inner.append(name, bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, bytes)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

/// What one seeded store run produced (for assertions in tests).
#[derive(Debug)]
pub struct StoreReport {
    pub seed: u64,
    /// The event log (byte-identical across replays of the same seed).
    pub log: Vec<String>,
    /// Commits the writer got an `Ok` for.
    pub commits_acked: usize,
    /// Writer calls that crashed mid-append (torn or pre-append).
    pub crashes: usize,
    /// Blobs deliberately corrupted behind the store's back.
    pub corruptions: usize,
    /// Rollback records appended.
    pub rollbacks: usize,
    /// Models installed across all restart catch-ups.
    pub catchup_installs: usize,
    /// Serving records rejected (bad blob) across all catch-ups.
    pub catchup_rejections: usize,
    /// Answers refused on the miss path, two per restart that evicted
    /// while it served: a blob corrupted after boot verified it, its key
    /// asked for once it was no longer resident.
    pub miss_path_refusals: usize,
}

const KEYS: [(u64, u64); 3] = [(0xa1, 0x51), (0xa1, 0x52), (0xb2, 0x51)];

fn arb_blob(rng: &mut StdRng, key: (u64, u64)) -> ModelBlob {
    let cores = [8u32, 16, 32][rng.gen_range(0..3usize)];
    let freq = [1_500_000u64, 2_200_000, 2_500_000][rng.gen_range(0..3usize)];
    ModelBlob {
        model_type: "brute-force".into(),
        system_hash: key.0,
        binary_hash: key.1,
        config: CpuConfig::new(cores, freq, 1 + rng.gen_range(0..2) as u32),
        benchmarks: Vec::new(),
    }
}

fn predict(service: &PredictService, system_hash: u64, binary_hash: u64) -> Response {
    let frame = RequestFrame::new(Request::Predict { system_hash, binary_hash });
    let payload = serde_json::to_vec(&frame).expect("request frames always serialize");
    service.handle_frame(&payload, QueueGauges { depth: 0, capacity: 1, workers: 1 })
}

/// One serving record as the harness resolved it from the ledger, and
/// whether its blob verifies right now.
struct Serving {
    generation: u64,
    key: (u64, u64),
    config: CpuConfig,
    blob: String,
    blob_ok: bool,
}

/// One lap over the serving keys: `Config` — the ledger's — exactly for
/// the records whose blob verifies, `Miss` for the others. Returns how
/// many were refused.
fn audit_answers(service: &PredictService, serving: &[Serving], at: &str, violations: &mut Vec<String>) -> usize {
    let mut refused = 0;
    for Serving { generation, key, config, blob_ok, .. } in serving {
        match predict(service, key.0, key.1) {
            Response::Config(answer) if *blob_ok => {
                if answer != *config {
                    violations.push(format!("{at}: gen {generation} serves {answer:?}, ledger says {config:?}"));
                }
            }
            Response::Miss { .. } if !*blob_ok => refused += 1, // corrupt blob: correctly refused
            Response::Config(answer) => violations
                .push(format!("{at}: gen {generation} served {answer:?} from a blob that fails hash verification")),
            other => violations.push(format!("{at}: gen {generation} (blob_ok={blob_ok}) answered {other:?}")),
        }
    }
    refused
}

/// Runs the store choreography once with every random choice derived
/// from `seed`. Panics (with a replay command) on any invariant
/// violation; returns a report otherwise.
pub fn run_store_seed(seed: u64) -> StoreReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_D00D);
    let mem = MemBackend::new();
    let backend = CrashingBackend::new(mem.clone());

    let mut log: Vec<String> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    // The harness's own ledger of acked writer calls: `(generation,
    // blob_hash)` per commit, plus the expected fold state.
    let mut acked_commits: Vec<(u64, String)> = Vec::new();
    let mut acked_ledger_len = 0usize;
    let mut expected_current = 0u64;
    let mut next_model_id = 1i64;

    let mut report = StoreReport {
        seed,
        log: Vec::new(),
        commits_acked: 0,
        crashes: 0,
        corruptions: 0,
        rollbacks: 0,
        catchup_installs: 0,
        catchup_rejections: 0,
        miss_path_refusals: 0,
    };

    // The long-lived reader: a daemon's store handle across the whole
    // run, only ever refresh()ed — it must track the writer without
    // ever truncating under it.
    let mut reader = ModelStore::open(Box::new(backend.clone())).expect("open empty store");

    for round in 0..STORE_ROUNDS {
        // --- one writer action (a fresh CLI-style open each time) ---
        let roll = rng.gen_range(0..100u32);
        if roll < 50 || acked_commits.is_empty() {
            // clean commit
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            let blob = arb_blob(&mut rng, key);
            let mut store = ModelStore::open(Box::new(backend.clone())).expect("reopen after any crash");
            match store.commit(&blob, next_model_id, Provenance { seed, ..Provenance::default() }) {
                Ok(record) => {
                    log.push(format!(
                        "round {round}: commit gen {} key {key:?} blob {}",
                        record.generation, record.blob_hash
                    ));
                    acked_commits.push((record.generation, record.blob_hash.clone()));
                    acked_ledger_len += 1;
                    expected_current = record.generation;
                    report.commits_acked += 1;
                    next_model_id += 1;
                }
                Err(e) => violations.push(format!("round {round}: clean commit failed: {e}")),
            }
        } else if roll < 70 {
            // writer crash: torn append (fraction > 0) or a crash
            // between the blob write and the metadata append (0.0)
            let fraction = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.1..0.95) };
            backend.arm_torn(fraction);
            let key = KEYS[rng.gen_range(0..KEYS.len())];
            let blob = arb_blob(&mut rng, key);
            let mut store = ModelStore::open(Box::new(backend.clone())).expect("reopen after any crash");
            match store.commit(&blob, next_model_id, Provenance { seed, ..Provenance::default() }) {
                Err(_) => {
                    log.push(format!("round {round}: writer crash (kept {fraction:.2} of the append)"));
                    report.crashes += 1;
                }
                Ok(record) => violations.push(format!(
                    "round {round}: commit acked generation {} through a crashed append",
                    record.generation
                )),
            }
        } else if roll < 85 {
            // corrupt a committed blob behind the store's back
            let (generation, hash) = acked_commits[rng.gen_range(0..acked_commits.len())].clone();
            let name = format!("{BLOB_DIR}/{hash}");
            if let Some(mut bytes) = mem.get_raw(&name) {
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= 0x40;
                    mem.put_raw(&name, bytes);
                    log.push(format!("round {round}: corrupt blob {hash} (gen {generation})"));
                    report.corruptions += 1;
                }
            }
        } else {
            // rollback to a random acked generation
            let (generation, _) = acked_commits[rng.gen_range(0..acked_commits.len())].clone();
            let mut store = ModelStore::open(Box::new(backend.clone())).expect("reopen after any crash");
            match store.rollback_to(generation, "simtest rollback") {
                Ok(_) => {
                    log.push(format!("round {round}: rollback -> gen {generation}"));
                    acked_ledger_len += 1;
                    expected_current = generation;
                    report.rollbacks += 1;
                }
                Err(e) => violations.push(format!("round {round}: rollback to acked gen {generation} failed: {e}")),
            }
        }

        // --- live-reader race: refresh must converge without writes ---
        let journal_before = mem.get_raw(chronusd::store::JOURNAL_FILE);
        let _ = reader.refresh();
        if mem.get_raw(chronusd::store::JOURNAL_FILE) != journal_before {
            violations.push(format!("round {round}: reader refresh() mutated the journal"));
        }
        if reader.current_generation() != expected_current {
            violations.push(format!(
                "round {round}: reader sees generation {} after refresh, writer acked {}",
                reader.current_generation(),
                expected_current
            ));
        }

        // --- replica restart: recover, catch up, serve ---
        let store = ModelStore::open(Box::new(backend.clone())).expect("reopen after any crash");
        let recovered: Vec<(u64, String)> = store.commits().map(|m| (m.generation, m.blob_hash.clone())).collect();
        if recovered != acked_commits {
            violations.push(format!(
                "round {round}: recovered commits {recovered:?} != acked {acked_commits:?} (torn tail invented or \
                 dropped an acked record)"
            ));
        }
        if store.ledger().len() != acked_ledger_len {
            violations.push(format!(
                "round {round}: recovered ledger has {} records, writer acked {acked_ledger_len}",
                store.ledger().len()
            ));
        }
        let high_water = store.high_water();
        if high_water != acked_commits.last().map(|(g, _)| *g).unwrap_or(0) {
            violations.push(format!("round {round}: high-water {high_water} disagrees with the acked ledger"));
        }
        if store.current_generation() != expected_current {
            violations.push(format!(
                "round {round}: serving generation {} after recovery, expected {expected_current}",
                store.current_generation()
            ));
        }

        // What should the restarted replica serve? Resolve before the
        // store moves into the service.
        let mut serving: Vec<Serving> = store
            .serving()
            .iter()
            .map(|m| Serving {
                generation: m.generation,
                key: (m.system_hash, m.binary_hash),
                config: m.config,
                blob: format!("{BLOB_DIR}/{}", m.blob_hash),
                blob_ok: store.load_blob(m).is_ok(),
            })
            .collect();

        let store = Arc::new(Mutex::new(store));
        let source = Arc::new(StoreModelBackend::new(Arc::clone(&store), "/sim/store"));
        let service = PredictService::new(2, REGISTRY_CAP, source).with_store(store, "/sim/store");
        let outcome = service.catch_up_from_store();
        let good = serving.iter().filter(|m| m.blob_ok).count();
        let bad = serving.len() - good;
        report.catchup_installs += outcome.installed;
        report.catchup_rejections += outcome.rejected.len();
        if outcome.installed != good || outcome.rejected.len() != bad {
            violations.push(format!(
                "round {round}: catch-up installed {} / rejected {} but the ledger serves {good} verifiable and \
                 {bad} corrupt record(s)",
                outcome.installed,
                outcome.rejected.len()
            ));
        }
        audit_answers(&service, &serving, &format!("round {round}"), &mut violations);

        // --- evict-while-serving: the same audits over the miss path ---
        // More verifiable records than the registry holds, asked for in
        // laps: every answer evicts and is resolved from the store again.
        // Corrupt one blob boot has verified: its key must be refused
        // from now on (twice over — a refusal is never cached either),
        // and served again once the bytes are back.
        if good > REGISTRY_CAP {
            let victim = serving.iter().position(|m| m.blob_ok).expect("good > 0");
            let pristine = mem.get_raw(&serving[victim].blob).expect("a verified blob exists");
            let mut bytes = pristine.clone();
            bytes[0] ^= 0x40;
            mem.put_raw(&serving[victim].blob, bytes);
            serving[victim].blob_ok = false;
            for lap in 0..2 {
                let at = format!("round {round}, corrupted after boot, lap {lap}");
                report.miss_path_refusals += audit_answers(&service, &serving, &at, &mut violations);
            }
            mem.put_raw(&serving[victim].blob, pristine);
            serving[victim].blob_ok = true;
            audit_answers(&service, &serving, &format!("round {round}, blob restored"), &mut violations);
            if service.registry().evictions() == 0 {
                violations
                    .push(format!("round {round}: {good} models through {REGISTRY_CAP} slots without an eviction"));
            }
        }

        let snap = service.snapshot(QueueGauges { depth: 0, capacity: 1, workers: 1 });
        if snap.preloads != 0 {
            violations.push(format!(
                "round {round}: restart catch-up consumed {} Preload RPCs (must be self-served)",
                snap.preloads
            ));
        }
        if snap.store_catchups != outcome.installed as u64 || snap.model_generation != outcome.installed as u64 {
            violations.push(format!(
                "round {round}: counters disagree with catch-up (catchups {}, generation {}, installed {})",
                snap.store_catchups, snap.model_generation, outcome.installed
            ));
        }
        if snap.store_generation != high_water {
            violations.push(format!(
                "round {round}: stats gauge reports store generation {}, ledger high-water is {high_water}",
                snap.store_generation
            ));
        }
    }

    if !violations.is_empty() {
        crate::sweep::fail("store", seed, "", &violations, &log.join("\n"));
    }

    report.log = log;
    report
}
