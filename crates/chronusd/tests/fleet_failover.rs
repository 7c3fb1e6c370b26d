//! Fleet failover over real TCP: a client spanning several live
//! daemons keeps answering through the loss of one replica, and a
//! restarted replica is probed back onto the ring and re-preloaded
//! with the committed model before it serves again.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use chronus::remote::{CallOptions, Connection, PredictClient, TcpTransport, Transport};
use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use eco_sim_node::cpu::CpuConfig;

const OPTS: &CallOptions = &CallOptions { trace: None };

fn models() -> Vec<PreparedModel> {
    vec![
        PreparedModel {
            model_id: 1,
            model_type: "brute-force".into(),
            system_hash: 10,
            binary_hash: 20,
            config: CpuConfig::new(32, 2_200_000, 1),
        },
        PreparedModel {
            model_id: 2,
            model_type: "brute-force".into(),
            system_hash: 30,
            binary_hash: 40,
            config: CpuConfig::new(16, 1_500_000, 2),
        },
    ]
}

fn replica(id: &str) -> PredictServer {
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), replica_id: id.into(), ..ServerConfig::default() };
    PredictServer::start(cfg, Arc::new(StaticBackend::new(models()))).expect("bind ephemeral port")
}

/// A transport whose target address can be swapped at runtime, standing
/// in for a replica that restarts on a new port (rebinding the exact
/// old port races TIME_WAIT on busy CI boxes). The description stays
/// stable so the client treats old and new processes as one replica.
struct RedirectTransport {
    label: String,
    target: Arc<Mutex<String>>,
}

impl Transport for RedirectTransport {
    fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
        let addr = self.target.lock().unwrap().clone();
        TcpTransport::new(addr, Duration::from_millis(200), Duration::from_millis(500)).connect()
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

#[test]
fn killing_a_replica_mid_load_loses_no_predictions() {
    let mut servers = vec![replica("r0"), replica("r1"), replica("r2")];
    let mut client = PredictClient::builder()
        .endpoints(servers.iter().map(|s| s.addr().to_string()))
        .max_retries(4)
        .build()
        .unwrap();

    client.preload(1, OPTS).expect("rollout to a healthy fleet");
    client.preload(2, OPTS).expect("rollout to a healthy fleet");
    for _ in 0..20 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        assert_eq!(client.predict(30, 40, OPTS).unwrap(), CpuConfig::new(16, 1_500_000, 2));
    }
    assert_eq!(client.replicas_in_ring(), 3);

    // Kill one replica in place; every in-flight key it owned must fail
    // over without a single lost prediction.
    servers.remove(1).shutdown();
    for _ in 0..40 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        assert_eq!(client.predict(30, 40, OPTS).unwrap(), CpuConfig::new(16, 1_500_000, 2));
    }
    assert_eq!(client.replicas_in_ring(), 2, "the dead replica must leave the ring");

    // The survivors answer stats under their own identities; the dead
    // one reports an error instead of hanging the sweep.
    let all = client.stats_all();
    assert_eq!(all.len(), 3);
    let mut alive: Vec<String> = Vec::new();
    let mut dead = 0;
    for (endpoint, outcome) in all {
        match outcome {
            Ok(snap) => alive.push(format!("{endpoint}={}", snap.replica)),
            Err(_) => dead += 1,
        }
    }
    assert_eq!(dead, 1, "exactly the killed replica is unreachable: {alive:?}");
    assert_eq!(alive.len(), 2);
    assert!(alive.iter().any(|s| s.ends_with("=r0")) && alive.iter().any(|s| s.ends_with("=r2")), "{alive:?}");
}

#[test]
fn restarted_replica_rejoins_and_is_repreloaded() {
    let stable = replica("r0");
    let flappy = replica("r1");
    let target = Arc::new(Mutex::new(flappy.addr().to_string()));

    let mut client = PredictClient::builder()
        .endpoint(stable.addr().to_string())
        .transport(Box::new(RedirectTransport { label: "fleet://r1".into(), target: Arc::clone(&target) }))
        .max_retries(4)
        .build()
        .unwrap();

    let ack = client.preload(1, OPTS).expect("rollout to both replicas");
    assert_eq!(ack.generation, 1);
    assert_eq!(client.replica_health().iter().filter(|r| r.generation >= 1).count(), 2);

    // Take r1 down; traffic continues and the ring shrinks to r0.
    flappy.shutdown();
    for _ in 0..40 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        if client.replicas_in_ring() == 1 {
            break;
        }
    }
    assert_eq!(client.replicas_in_ring(), 1);

    // r1 restarts as a fresh process on a new port: no cached state, no
    // committed model. The client must probe it back, re-preload the
    // rolled model, and only then route to it again.
    let reborn = replica("r1");
    *target.lock().unwrap() = reborn.addr().to_string();

    let mut rejoined = false;
    for _ in 0..200 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        if client.replicas_in_ring() == 2 {
            rejoined = true;
            break;
        }
    }
    assert!(rejoined, "restarted replica never rejoined the ring");

    // The rejoin path re-preloaded the committed model before the
    // replica re-entered the ring: the new process already holds it.
    let health = client.replica_health();
    let r1 = health.iter().find(|r| r.endpoint == "fleet://r1").expect("r1 tracked");
    assert!(r1.in_ring);
    assert!(r1.generation >= 1, "rejoined replica must have re-acknowledged the rollout: {r1:?}");
    assert!(reborn.snapshot().model_generation >= 1, "the fresh process committed the re-preloaded model");

    // And predictions against its share of the keyspace come from a
    // warm registry, not a backend trip per request.
    for _ in 0..20 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        assert_eq!(client.predict(30, 40, OPTS).unwrap(), CpuConfig::new(16, 1_500_000, 2));
    }
    stable.shutdown();
    reborn.shutdown();
}
