//! Throughput/latency benchmark of the prediction service: N
//! concurrent clients hammering a warm-cache daemon over loopback TCP.
//!
//! Run with `cargo bench -p chronusd`. Throughput is reported in
//! requests/second (criterion `elem/s`); the daemon's own latency
//! histogram (p50/p99) is printed at the end via the `stats` RPC.
//! Acceptance floor for this repo: ≥ 10k predict req/s warm-cache with
//! p99 under 100 ms.

use std::sync::Arc;
use std::time::Duration;

use chronus::remote::{CallOptions, PredictClient};
use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eco_sim_node::cpu::CpuConfig;

const SYSTEM_HASH: u64 = 0x5eed_cafe;
const BINARY_HASH: u64 = 0xb1a5_ed15;

fn start_server() -> PredictServer {
    let model = PreparedModel {
        model_id: 1,
        model_type: "brute-force".into(),
        system_hash: SYSTEM_HASH,
        binary_hash: BINARY_HASH,
        config: CpuConfig::new(32, 2_200_000, 1),
    };
    let cfg = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    PredictServer::start(cfg, Arc::new(StaticBackend::new(vec![model]))).expect("bind ephemeral port")
}

fn predict_service(c: &mut Criterion) {
    let server = start_server();
    let addr = server.addr().to_string();

    // warm the registry so every benched request is a cache hit
    let opts = CallOptions::default();
    PredictClient::builder().endpoint(&addr).build().unwrap().predict(SYSTEM_HASH, BINARY_HASH, &opts).unwrap();

    const BATCH: u64 = 512;
    let mut group = c.benchmark_group("predict_service");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(BATCH));

    for &clients in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("warm_predict", clients), &clients, |b, &clients| {
            b.iter(|| {
                // each iteration: BATCH requests split across N
                // persistent connections
                crossbeam::scope(|s| {
                    for _ in 0..clients {
                        let addr = addr.clone();
                        let per_client = BATCH / clients as u64;
                        s.spawn(move |_| {
                            let mut client = PredictClient::builder().endpoint(addr).build().unwrap();
                            let opts = CallOptions::default();
                            for _ in 0..per_client {
                                let cfg = client.predict(SYSTEM_HASH, BINARY_HASH, &opts).expect("warm predict");
                                criterion::black_box(cfg);
                            }
                        });
                    }
                })
                .unwrap();
            });
        });
    }
    group.finish();

    let stats = PredictClient::builder().endpoint(addr).build().unwrap().stats().unwrap();
    println!(
        "daemon after bench: {} requests, {} hits / {} misses, latency p50 {} µs, p99 {} µs, max {} µs",
        stats.requests_total,
        stats.cache_hits,
        stats.cache_misses,
        stats.latency_p50_us,
        stats.latency_p99_us,
        stats.latency_max_us
    );
    assert!(stats.latency_p99_us < 100_000, "p99 {} µs blows the 100 ms acceptance bar", stats.latency_p99_us);
}

criterion_group!(benches, predict_service);
criterion_main!(benches);
