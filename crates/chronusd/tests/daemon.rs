//! Integration tests of the daemon over real TCP: the RPC surface,
//! explicit back-pressure (`Busy`), per-request deadlines, protocol
//! errors, LRU pressure, concurrent and idle clients, and shutdown.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronus::remote::{
    fastpath, read_frame, wire, write_frame, CallOptions, Connection, KeyOutcome, PredictClient, RemoteError,
    Request, RequestFrame, Response,
};
use chronusd::server::{MAX_CONNECTIONS, READ_TICK, RETRY_AFTER_MS};
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

fn ephemeral(cfg: ServerConfig, backend: StaticBackend) -> PredictServer {
    let cfg = ServerConfig { addr: "127.0.0.1:0".to_string(), ..cfg };
    PredictServer::start(cfg, Arc::new(backend)).expect("bind ephemeral port")
}

fn client(server: &PredictServer) -> PredictClient {
    PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap()
}

/// Shorthand for the common untraced call.
const OPTS: &CallOptions = &CallOptions { trace: None };

#[test]
fn ping_predict_and_stats_round_trip() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut c = client(&server);

    assert!(c.ping().unwrap() < Duration::from_secs(1));

    // first predict resolves through the backend, second hits the cache
    assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
    assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));

    let stats = c.stats().unwrap();
    assert_eq!(stats.predictions, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.models_resident, 1);
    assert_eq!(stats.max_connections, 64);
    assert_eq!(stats.connections, 1, "this client's one connection");
    assert!(stats.requests_total >= 4, "{stats:?}");
    assert!(stats.latency_p50_us > 0, "latency histogram must be populated");
    assert!(stats.latency_p99_us >= stats.latency_p50_us);
}

#[test]
fn preload_stages_the_answer_ahead_of_submissions() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(7, 11, 22, 16)]));
    let mut c = client(&server);

    let ack = c.preload(7, OPTS).unwrap();
    assert_eq!(ack.model_type, "brute-force");
    assert_eq!((ack.system_hash, ack.binary_hash), (11, 22));
    assert_eq!(ack.model_id, 7);

    assert_eq!(c.predict(11, 22, OPTS).unwrap(), CpuConfig::new(16, 2_200_000, 1));
    let stats = c.stats().unwrap();
    assert_eq!(stats.cache_hits, 1, "preloaded model answers without a backend trip");
    assert_eq!(stats.cache_misses, 0);

    // preloading an unknown model is a server-side error, not a hang
    assert!(matches!(c.preload(99, OPTS).unwrap_err(), RemoteError::Server(_)));
}

#[test]
fn unknown_key_is_an_explicit_miss() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut c = client(&server);
    match c.predict(123, 456, OPTS).unwrap_err() {
        RemoteError::Miss { system_hash, binary_hash } => assert_eq!((system_hash, binary_hash), (123, 456)),
        other => panic!("expected Miss, got {other}"),
    }
}

#[test]
fn saturated_daemon_answers_busy_with_a_retry_hint() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let addr = server.addr();

    // hold every connection the daemon will keep open, one of them with
    // a prediction in flight …
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).unwrap()).collect();
    held[0].set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut held[0], &RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 })).unwrap();

    // … and the next connection must bounce with Busy (the accept thread
    // takes connections in order, so every held one is counted first).
    let mut bounced = PredictClient::builder().endpoint(addr.to_string()).max_retries(0).build().unwrap();
    match bounced.ping().unwrap_err() {
        RemoteError::Busy { retry_after_ms, attempts } => {
            assert_eq!(retry_after_ms, RETRY_AFTER_MS, "the server's hint travels back");
            assert_eq!(attempts, 1);
        }
        other => panic!("expected Busy, got {other}"),
    }

    // the held connections are still served
    let resolved: Response = read_frame(&mut held[0]).unwrap();
    assert_eq!(resolved, Response::Config(CpuConfig::new(32, 2_200_000, 1)));
    drop(held);

    // a client WITH retries rides out the burst: once the held
    // connections are gone, a retry gets through.
    let mut patient = PredictClient::builder().endpoint(addr.to_string()).max_retries(16).build().unwrap();
    assert_eq!(patient.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));

    assert!(server.snapshot().busy_rejections >= 1);
}

#[test]
fn idle_clients_do_not_lock_out_the_next_one() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));

    // eight clients each complete a prediction and stay connected, idle
    let _idle: Vec<PredictClient> = (0..8)
        .map(|_| {
            let mut c = client(&server);
            assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
            c
        })
        .collect();

    let mut ninth = PredictClient::builder()
        .endpoint(server.addr().to_string())
        .budget(Duration::from_millis(500))
        .build()
        .unwrap();
    let started = Instant::now();
    let stats = ninth.stats().expect("an idle connection holds no other client's turn");
    let took = started.elapsed();
    assert!(took < Duration::from_millis(250), "stats took {took:?}");
    assert_eq!(stats.connections, 9, "{stats:?}");
}

#[test]
fn shutdown_joins_every_connection_thread() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut idle: Vec<PredictClient> = (0..8)
        .map(|_| {
            let mut c = client(&server);
            c.ping().unwrap();
            c
        })
        .collect();
    assert_eq!(server.snapshot().connections, 8);

    // every connection thread notices the flag within one read tick
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < 4 * READ_TICK, "shutdown took {took:?} with eight idle clients connected");

    for c in &mut idle {
        let started = Instant::now();
        match c.ping() {
            Err(RemoteError::Connect(_) | RemoteError::Io(_)) => {}
            other => panic!("expected a connect or I/O failure, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(1), "a call to a stopped daemon hung");
    }
}

#[test]
fn deadline_overrun_is_reported_not_hidden() {
    // every cold prediction costs the backend 120 ms
    let slow =
        StaticBackend::with_delay(vec![model(1, 10, 20, 32), model(2, 11, 21, 16)], Duration::from_millis(120));
    let server = ephemeral(ServerConfig::default(), slow);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let cold = |system_hash, binary_hash| Request::Predict { system_hash, binary_hash };
    write_frame(&mut stream, &RequestFrame::with_deadline(cold(10, 20), 10)).unwrap();
    let resp: Response = read_frame(&mut stream).unwrap();
    assert_eq!(resp, Response::DeadlineExceeded);

    // a comfortable deadline leaves the result intact
    write_frame(&mut stream, &RequestFrame::with_deadline(cold(11, 21), 5_000)).unwrap();
    let resp: Response = read_frame(&mut stream).unwrap();
    assert_eq!(resp, Response::Config(CpuConfig::new(16, 2_200_000, 1)));

    assert_eq!(server.snapshot().deadline_exceeded, 1);
}

#[test]
fn malformed_request_gets_an_error_and_the_connection_survives() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![]));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let garbage = br#"{"neither": "request", "nor": "frame"}"#;
    let mut framed = Vec::new();
    framed.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    framed.extend_from_slice(garbage);
    use std::io::Write;
    stream.write_all(&framed).unwrap();

    let resp: Response = read_frame(&mut stream).unwrap();
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");

    // same connection, valid request: still served
    write_frame(&mut stream, &RequestFrame::new(Request::Ping)).unwrap();
    let resp: Response = read_frame(&mut stream).unwrap();
    assert_eq!(resp, Response::Pong);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    write_frame(&mut stream, &RequestFrame::new(Request::Ping)).unwrap();
    write_frame(&mut stream, &RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 })).unwrap();
    write_frame(&mut stream, &RequestFrame::new(Request::Ping)).unwrap();

    assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Response::Pong);
    assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Response::Config(CpuConfig::new(32, 2_200_000, 1)));
    assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Response::Pong);
}

#[test]
fn every_frame_on_a_tcp_socket_is_answered_in_its_own_encoding() {
    // the codec is a property of the frame, not of the listener
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let config = CpuConfig::new(32, 2_200_000, 1);

    stream.send_frame(&fastpath::encode_request(77, None, &[(10, 20), (9, 9)])).unwrap();
    let reply = stream.recv_frame().unwrap();
    assert!(fastpath::is_binary(&reply), "{:?}", String::from_utf8_lossy(&reply));
    let (tag, response) = fastpath::decode_reply(&reply).unwrap();
    assert_eq!(tag, 77, "the tag is echoed");
    assert_eq!(response, Response::ManyConfigs { results: vec![KeyOutcome::Config(config), KeyOutcome::Miss] });

    // the client's single: binary, answered in binary under its tag
    let single = RequestFrame::new(Request::Predict { system_hash: 10, binary_hash: 20 });
    stream.send_frame(&wire::encode_request(&single.clone().with_corr(78)).unwrap()).unwrap();
    let reply = stream.recv_frame().unwrap();
    assert_eq!(fastpath::decode_reply(&reply).unwrap(), (78, Response::Config(config)));

    // a hand-written JSON single: still served, and answered in JSON
    write_frame(&mut stream, &single).unwrap();
    assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Response::Config(config));

    // same connection, a JSON control-plane verb: answered in JSON
    write_frame(&mut stream, &RequestFrame::new(Request::Ping)).unwrap();
    assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Response::Pong);
    let stats = server.snapshot();
    assert_eq!((stats.batches, stats.predictions, stats.errors), (1, 4, 0), "{stats:?}");
}

#[test]
fn a_batch_over_the_frame_cap_is_answered_in_order_in_three_frames() {
    let models: Vec<PreparedModel> = (0..7).map(|i| model(i, 100 + i as u64, 200, 8 + i as u32)).collect();
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(models));
    let mut c = client(&server);

    // 7 does not divide the 1024-key frame cap: swapped frames misalign
    let keys: Vec<(u64, u64)> = (0..2500).map(|i| (100 + i % 7, 200)).collect();
    let results = c.predict_many(&keys, OPTS);
    assert_eq!(results.len(), keys.len());
    for (i, res) in results.iter().enumerate() {
        assert_eq!(res.as_ref().unwrap().cores, 8 + (i % 7) as u32, "key {i}");
    }
    let stats = c.stats().unwrap();
    assert_eq!((stats.batches, stats.predictions), (3, 2500), "{stats:?}");
}

#[test]
fn registry_pressure_evicts_but_keeps_answering() {
    let cfg = ServerConfig { cache_cap: 2, ..ServerConfig::default() };
    let models: Vec<PreparedModel> = (0..4).map(|i| model(i, 100 + i as u64, 200, 32)).collect();
    let server = ephemeral(cfg, StaticBackend::new(models));
    let mut c = client(&server);

    for i in 0..4u64 {
        assert_eq!(c.predict(100 + i, 200, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
    }
    let stats = c.stats().unwrap();
    assert!(stats.evictions >= 2, "{stats:?}");
    assert!(stats.models_resident <= 2, "{stats:?}");
    // evicted keys still answer (via the backend) rather than missing
    assert_eq!(c.predict(100, 200, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let server =
        ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32), model(2, 30, 40, 16)]));
    let addr = server.addr().to_string();

    crossbeam::scope(|s| {
        for t in 0..8usize {
            let addr = addr.clone();
            s.spawn(move |_| {
                let mut c = PredictClient::builder().endpoint(addr).build().unwrap();
                for i in 0..50usize {
                    let (sys, bin, cores) = if (t + i) % 2 == 0 { (10, 20, 32) } else { (30, 40, 16) };
                    let cfg = c.predict(sys, bin, OPTS).expect("concurrent predict");
                    assert_eq!(cfg.cores, cores);
                }
            });
        }
    })
    .unwrap();

    // Cold misses are not single-flighted: connections that meet a key
    // before the first insert of it lands each resolve it through the
    // backend (same answer, one more miss). Each client has its own
    // connection thread, which misses a key at most once — after its own
    // insert the key is resident — so the bound is clients × keys, not
    // one miss per key.
    let stats = server.snapshot();
    assert_eq!(stats.predictions, 400);
    assert_eq!(stats.cache_hits + stats.cache_misses, 400, "{stats:?}");
    assert!((2..=8 * 2).contains(&stats.cache_misses), "one cold miss per key, per client at most: {stats:?}");
    assert_eq!(stats.models_resident, 2);
}

#[test]
fn warm_cache_throughput_smoke() {
    let server = ephemeral(ServerConfig::default(), StaticBackend::new(vec![model(1, 10, 20, 32)]));
    let mut c = client(&server);
    c.predict(10, 20, OPTS).unwrap(); // warm the registry

    let n = 2_000u32;
    let started = Instant::now();
    for _ in 0..n {
        c.predict(10, 20, OPTS).unwrap();
    }
    let elapsed = started.elapsed();
    let rate = f64::from(n) / elapsed.as_secs_f64();
    // soft floor: debug builds on a loaded CI box still clear this
    // easily; the criterion bench measures the real number.
    assert!(rate > 500.0, "warm-cache predict rate {rate:.0} req/s is implausibly slow");
}
