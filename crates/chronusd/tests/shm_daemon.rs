//! Integration tests of the daemon's shared-memory listener: a real
//! `PredictServer` with `shm_path` set, dialed by a real client over
//! `shm://` — singles, batches (the binary fast path), the same answers
//! whichever listener and framing carried the question, fallback to TCP
//! when the ring is gone, and ring-file cleanup at shutdown.

// The ring is Linux-only (raw mmap/futex); elsewhere the transport
// reports Unsupported and these tests have nothing to exercise.
#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use std::sync::Arc;
use std::time::Duration;

use chronus::remote::{CallOptions, PredictClient, RemoteError};
use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use eco_sim_node::cpu::CpuConfig;

fn model(id: i64, sys: u64, bin: u64, cores: u32) -> PreparedModel {
    PreparedModel {
        model_id: id,
        model_type: "brute-force".into(),
        system_hash: sys,
        binary_hash: bin,
        config: CpuConfig::new(cores, 2_200_000, 1),
    }
}

fn ring_path(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("chronus-shm-test-{tag}-{}.ring", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

fn shm_server(tag: &str, backend: StaticBackend) -> PredictServer {
    let cfg =
        ServerConfig { addr: "127.0.0.1:0".to_string(), shm_path: Some(ring_path(tag)), ..ServerConfig::default() };
    PredictServer::start(cfg, Arc::new(backend)).expect("bind ephemeral port + shm ring")
}

const OPTS: &CallOptions = &CallOptions { trace: None };

#[test]
fn shm_singles_and_stats_round_trip() {
    let server = shm_server("singles", StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let endpoint = format!("shm://{}", server.shm_path().unwrap());
    let mut c = PredictClient::builder().endpoint(&endpoint).build().unwrap();

    assert!(c.ping().unwrap() < Duration::from_secs(1));
    assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
    match c.predict(99, 99, OPTS).unwrap_err() {
        RemoteError::Miss { system_hash, binary_hash } => assert_eq!((system_hash, binary_hash), (99, 99)),
        other => panic!("expected Miss, got {other}"),
    }

    let stats = c.stats().unwrap();
    assert_eq!(stats.predictions, 2);
    assert!(stats.requests_total >= 4, "{stats:?}");
}

#[test]
fn shm_batches_ride_the_binary_fast_path() {
    let models = [model(1, 10, 20, 32), model(2, 30, 40, 16), model(3, 50, 60, 8)];
    let server = shm_server("batch", StaticBackend::new(models.to_vec()));
    let endpoint = format!("shm://{}", server.shm_path().unwrap());
    let mut c = PredictClient::builder().endpoint(&endpoint).build().unwrap();

    // three frames' worth; 3 does not divide the 1024-key frame cap, so swapped frames would misalign
    let keys: Vec<(u64, u64)> = (0..2500).map(|i| (models[i % 3].system_hash, models[i % 3].binary_hash)).collect();
    let results = c.predict_many(&keys, OPTS);
    assert_eq!(results.len(), keys.len());
    for (i, res) in results.iter().enumerate() {
        assert_eq!(res.as_ref().unwrap(), &models[i % 3].config, "key {i}");
    }
    let stats = c.stats().unwrap();
    assert_eq!((stats.batches, stats.predictions), (3, 2500), "{stats:?}");

    // a miss inside a batch stays a per-key miss, not a batch failure
    let mixed = c.predict_many(&[(10, 20), (5, 5)], OPTS);
    assert!(mixed[0].is_ok());
    assert!(matches!(mixed[1], Err(RemoteError::Miss { .. })), "{:?}", mixed[1]);

    let stats = c.stats().unwrap();
    assert_eq!(stats.predictions, 2502, "both batches counted per key: {stats:?}");
}

#[test]
fn tcp_and_shm_singles_and_batches_give_one_answer_stream() {
    let models: Vec<PreparedModel> = (0..5).map(|i| model(i, 100 + i as u64, 200, 8 + i as u32)).collect();
    let server = shm_server("differential", StaticBackend::new(models));
    // a seeded key list: resident keys (each with its own answer) and misses, repeated and out of order
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let keys: Vec<(u64, u64)> = (0..1500)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (100 + (state >> 33) % 7, 200)
        })
        .collect();

    let mut streams = Vec::new();
    for endpoint in [format!("tcp://{}", server.addr()), format!("shm://{}", server.shm_path().unwrap())] {
        // one client per cell: the ring seats one session at a time
        let singles = {
            let mut c = PredictClient::builder().endpoint(&endpoint).build().unwrap();
            keys.iter().map(|&(s, b)| c.predict(s, b, OPTS).map_err(|e| e.to_string())).collect::<Vec<_>>()
        };
        let mut c = PredictClient::builder().endpoint(&endpoint).build().unwrap();
        let batch: Vec<_> = c.predict_many(&keys, OPTS).into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
        streams.push((format!("{endpoint} single"), singles));
        streams.push((format!("{endpoint} batch"), batch));
    }
    let (_, reference) = &streams[0];
    assert!(reference.iter().any(Result::is_ok) && reference.iter().any(Result::is_err), "hits and misses both");
    for (cell, stream) in &streams[1..] {
        assert_eq!(stream, reference, "{cell} answers differently from {}", streams[0].0);
    }
    let stats = server.snapshot();
    assert_eq!(stats.predictions, 4 * keys.len() as u64);
    assert_eq!(stats.batches, 2 * 2, "1500 keys are two frames, on each listener");
}

#[test]
fn dead_ring_falls_back_to_tcp() {
    let server = shm_server("fallback", StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let missing = ring_path("fallback-missing"); // never created
    let mut c = PredictClient::builder()
        .endpoints([format!("shm://{missing}"), format!("tcp://{}", server.addr())])
        .build()
        .unwrap();

    // shm dial fails fast (no ring file) and the fleet fails over to TCP
    assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
}

#[test]
fn shutdown_removes_the_ring_file_and_serves_new_sessions_until_then() {
    let server = shm_server("turnover", StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let path = server.shm_path().unwrap().to_string();
    let endpoint = format!("shm://{path}");

    // sessions turn over: each client takes and releases the one seat
    for _ in 0..3 {
        let mut c = PredictClient::builder().endpoint(&endpoint).build().unwrap();
        assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
    }

    assert!(std::path::Path::new(&path).exists());
    server.shutdown();
    assert!(!std::path::Path::new(&path).exists(), "ring file must be unlinked at shutdown");
}
