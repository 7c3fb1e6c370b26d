//! Durable-model E2E over real TCP: replicas booted with `--store`
//! self-serve catch-up from the shared ledger (zero Preload RPCs), hold
//! every key it serves, keep refreshing from it — hash-verified — on
//! `Preload`s and misses, and a ledger rollback restores the prior
//! generation fleet-wide under quorum.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronus::remote::{CallOptions, PredictClient, RemoteError, Request, RequestFrame, Response};
use chronusd::store::{ModelBlob, ModelRecord, ModelStore, Provenance};
use chronusd::{ModelBackend, PredictServer, PredictService, QueueGauges, ServerConfig, WallClock};
use eco_campaign::roll_into_fleet;
use eco_sim_node::cpu::CpuConfig;

const OPTS: &CallOptions = &CallOptions { trace: None };

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn blob(config: CpuConfig) -> ModelBlob {
    ModelBlob { model_type: "brute-force".into(), system_hash: 10, binary_hash: 20, config, benchmarks: Vec::new() }
}

/// The backend every store-backed replica here is handed: with
/// `store_dir` set that store is the model source, so asking this one
/// for its store fails the test.
struct Unconsulted;

impl ModelBackend for Unconsulted {
    fn store(&self) -> (Arc<parking_lot::Mutex<ModelStore>>, String) {
        panic!("a store-backed daemon served the store of the backend it was passed")
    }
}

fn store_replica(id: &str, dir: &Path) -> PredictServer {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        replica_id: id.into(),
        store_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    };
    PredictServer::start(cfg, Arc::new(Unconsulted)).expect("bind ephemeral port")
}

/// A fleet-sized store: 64 models under well-mixed keys (a splitmix64
/// stream, as identity hashes of real binaries are), each with its own
/// configuration so an answer names the record it came from.
fn commit_fleet(dir: &Path) -> Vec<ModelRecord> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut mix = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
    (0..64u32)
        .map(|k| {
            let blob = ModelBlob {
                system_hash: mix(),
                binary_hash: mix(),
                ..blob(CpuConfig::new(1 + k % 32, 1_500_000 + 10_000 * k as u64, 1 + k / 32))
            };
            store.commit(&blob, 1 + k as i64, Provenance::default()).unwrap()
        })
        .collect()
}

/// Three rounds over every key: each must be answered, and with the
/// configuration the ledger recorded for it.
fn every_key_answers_its_ledger_config(client: &mut PredictClient, fleet: &[ModelRecord]) {
    for round in 0..3 {
        for m in fleet {
            match client.predict(m.system_hash, m.binary_hash, OPTS) {
                Ok(config) => assert_eq!(config, m.config, "round {round}: model {} answered", m.model_id),
                Err(e) => panic!("round {round}: model {} not answered: {e}", m.model_id),
            }
        }
    }
}

/// The ISSUE's headline scenario: campaign commits land in the store,
/// the fleet boots warm from it, and a killed replica restarts
/// still-warm with **zero** Preload traffic — catch-up is self-served.
#[test]
fn restarted_replica_self_serves_current_generation_with_zero_preloads() {
    let dir = temp_store("catchup");
    let gen1 = CpuConfig::new(32, 2_200_000, 1);
    let gen2 = CpuConfig::new(16, 1_500_000, 2);
    {
        let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
        store.commit(&blob(gen1), 1, Provenance::default()).unwrap();
    }

    // Both replicas boot from the shared store: one model installed,
    // nothing rejected, no Preload RPC ever sent.
    let r0 = store_replica("r0", &dir);
    let r1 = store_replica("r1", &dir);
    for server in [&r0, &r1] {
        assert_eq!(server.boot_recovery().store.installed, 1, "boot catch-up installs the serving ledger");
        assert!(server.boot_recovery().store.rejected.is_empty());
    }
    let mut client =
        PredictClient::builder().endpoints([r0.addr().to_string(), r1.addr().to_string()]).build().unwrap();
    for _ in 0..8 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), gen1);
    }
    let snap = r0.snapshot();
    assert_eq!(snap.preloads, 0, "catch-up must not ride the Preload RPC");
    assert_eq!(snap.store_catchups, 1);
    assert_eq!(snap.model_generation, 1);
    assert_eq!(snap.store_dir, dir.to_str().unwrap());

    // A new campaign generation lands in the store while r1 is down.
    drop(client);
    r1.shutdown();
    {
        let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
        store.commit(&blob(gen2), 2, Provenance::default()).unwrap();
        assert_eq!(store.current_generation(), 2);
    }

    // r1 restarts with NO client traffic at all: its local store alone
    // must bring it to the current generation.
    let reborn = store_replica("r1", &dir);
    assert_eq!(reborn.boot_recovery().store.installed, 1);
    let snap = reborn.snapshot();
    assert_eq!(snap.preloads, 0, "restart must be self-served, not re-preloaded");
    assert_eq!(snap.store_generation, 2, "the ledger high-water is visible in stats");

    // And it answers the current generation's config straight away.
    let mut direct = PredictClient::builder().endpoint(reborn.addr().to_string()).build().unwrap();
    assert_eq!(direct.predict(10, 20, OPTS).unwrap(), gen2);
    assert_eq!(reborn.snapshot().preloads, 0);

    r0.shutdown();
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet-sized store: the daemon holds every key the ledger serves,
/// so every key is a hit from the first request on.
#[test]
fn every_key_of_a_fleet_sized_store_is_held_from_boot() {
    let dir = temp_store("fleet64");
    let fleet = commit_fleet(&dir);
    let server = store_replica("r0", &dir);
    assert_eq!(server.boot_recovery().store.installed, 64);
    assert!(server.boot_recovery().store.rejected.is_empty());

    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    every_key_answers_its_ledger_config(&mut client, &fleet);
    let snap = server.snapshot();
    assert_eq!(snap.models_resident, 64, "the table holds all 64");
    assert_eq!((snap.cache_hits, snap.cache_misses), (3 * 64, 0));
    assert_eq!((snap.model_generation, snap.store_generation), (64, 64));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key the ledger rolled back past stops answering: the rollout that
/// follows the rollback refreshes each replica's table to the fold, and
/// the fold no longer serves the key.
#[test]
fn a_key_the_ledger_rolled_back_past_stops_answering() {
    let dir = temp_store("rolledpast");
    let (a, b) = (
        blob(CpuConfig::new(32, 2_200_000, 1)),
        ModelBlob { binary_hash: 21, ..blob(CpuConfig::new(16, 1_500_000, 2)) },
    );
    {
        let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
        store.commit(&a, 1, Provenance::default()).unwrap();
        store.commit(&b, 2, Provenance::default()).unwrap();
    }
    let server = store_replica("r0", &dir);
    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    assert_eq!(client.predict(10, 21, OPTS).unwrap(), b.config, "the replica boots serving B");

    ModelStore::open_dir(dir.to_str().unwrap()).unwrap().rollback_to(1, "B regressed").unwrap();
    let report = roll_into_fleet(&mut client, 1, None, 1).expect("the rollout of model 1 commits");
    assert_eq!(report.acks.len(), 1);

    match client.predict(10, 21, OPTS) {
        Err(RemoteError::Miss { .. }) => {}
        other => panic!("a key rolled back past answered {other:?}"),
    }
    assert_eq!(client.predict(10, 20, OPTS).unwrap(), a.config, "A still serves");
    let snap = server.snapshot();
    assert_eq!((snap.models_resident, snap.model_generation), (1, 2));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `chronus models rollback GEN --rollout` semantics at the library
/// layer: the ledger records the rollback first, then the prior
/// generation's model is re-preloaded fleet-wide under quorum.
#[test]
fn ledger_rollback_restores_prior_generation_fleet_wide() {
    let dir = temp_store("rollback");
    let gen1 = CpuConfig::new(32, 2_200_000, 1);
    let gen2 = CpuConfig::new(16, 1_500_000, 2);
    {
        let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
        store.commit(&blob(gen1), 1, Provenance::default()).unwrap();
        store.commit(&blob(gen2), 2, Provenance::default()).unwrap();
    }

    let r0 = store_replica("r0", &dir);
    let r1 = store_replica("r1", &dir);
    let mut client =
        PredictClient::builder().endpoints([r0.addr().to_string(), r1.addr().to_string()]).build().unwrap();
    for _ in 0..8 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), gen2, "fleet boots at the current generation");
    }

    // Operator decision: generation 2 regressed. The ledger append is
    // the source of truth; the fleet push follows it.
    let record = {
        let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
        let record = store.rollback_to(1, "regression").unwrap();
        assert_eq!(store.current_generation(), 1);
        assert_eq!(store.high_water(), 2, "rollback never lowers the high-water mark");
        record
    };
    // The push is a Preload by id, which each replica resolves from the
    // ledger it shares: after the rollback, model 1 is what serves there.
    let report = roll_into_fleet(&mut client, record.model_id, None, 2).expect("quorum rollout of the prior model");
    assert_eq!(report.acks.len(), 2);

    // What the ledger does not serve cannot be preloaded: model 2 was
    // rolled back, model 9 never existed; the refusal names the store.
    for absent in [2, 9] {
        let refusal = client.preload(absent, OPTS).expect_err("not in the serving set").to_string();
        assert!(refusal.contains(dir.to_str().unwrap()), "{refusal}");
    }

    for _ in 0..8 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), gen1, "both replicas serve the rolled-back generation");
    }

    // A replica restarted after the rollback lands on generation 1
    // straight from its store — the ledger fold, not the fleet push, is
    // what it trusts.
    r1.shutdown();
    let reborn = store_replica("r1", &dir);
    assert_eq!(reborn.boot_recovery().store.installed, 1);
    let mut direct = PredictClient::builder().endpoint(reborn.addr().to_string()).build().unwrap();
    assert_eq!(direct.predict(10, 20, OPTS).unwrap(), gen1);

    r0.shutdown();
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a miss costs the daemon once the ledger is long: a service over
/// a disk store of 1 000 generations over 64 keys, caught up, answering
/// a key no model serves — one table lookup, one refresh with nothing new
/// to decode and a walk of the fold, and a second lookup. Timing, so
/// ignored by default:
///   cargo test -q -p chronusd --release --test store_durability a_miss_at -- --ignored --nocapture
#[test]
#[ignore]
fn a_miss_at_1000_generations_costs_at_most_100us() {
    let dir = temp_store("misscost");
    let mut store = ModelStore::open_dir(dir.to_str().unwrap()).unwrap();
    for generation in 0..1_000u32 {
        let key = u64::from(generation % 64);
        let blob = ModelBlob { binary_hash: key, ..blob(CpuConfig::new(1 + generation % 32, 2_200_000, 1)) };
        store.commit(&blob, i64::from(generation), Provenance::default()).unwrap();
    }
    let dir_label = dir.to_string_lossy().into_owned();
    let service =
        PredictService::with_clock(Arc::new(parking_lot::Mutex::new(store)), dir_label, Arc::new(WallClock::new()));
    assert_eq!(service.catch_up_from_store().installed, 64);
    let frame = serde_json::to_vec(&RequestFrame::new(Request::Predict { system_hash: 11, binary_hash: 0 })).unwrap();
    let mut samples: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let answer = service.handle_frame(&frame, QueueGauges::default());
            let elapsed = started.elapsed();
            assert_eq!(answer, Response::Miss { system_hash: 11, binary_hash: 0 });
            elapsed
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    println!("a miss at 1 000 generations: median {median:?} of 50");
    assert!(median <= Duration::from_micros(100), "a miss at 1 000 generations took {median:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
