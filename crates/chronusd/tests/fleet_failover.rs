//! Fleet failover over real TCP: a client spanning several live
//! daemons keeps answering through the loss of one replica, and a
//! restarted replica is probed back onto the ring and answers from its
//! own backend.

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
fn restarted_replica_rejoins_and_answers_from_its_backend() {
    let stable = replica("r0");
    let flappy = replica("r1");
    let target = Arc::new(Mutex::new(flappy.addr().to_string()));

    let mut client = PredictClient::builder()
        .endpoint(stable.addr().to_string())
        .transport(Box::new(RedirectTransport { label: "fleet://r1".into(), target: Arc::clone(&target) }))
        .max_retries(4)
        .build()
        .unwrap();

    let fleet = client.preload_detailed(1, OPTS);
    assert_eq!((fleet.acks.len(), fleet.failures.len()), (2, 0), "rollout to both replicas");
    assert!(fleet.acks.iter().all(|(_, ack)| ack.generation == 1), "{:?}", fleet.acks);

    // Take r1 down; traffic continues and the ring shrinks to r0.
    flappy.shutdown();
    for _ in 0..40 {
        assert_eq!(client.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
        if client.replicas_in_ring() == 1 {
            break;
        }
    }
    assert_eq!(client.replicas_in_ring(), 1);

    // r1 restarts as a fresh process on a new port, warm from its store.
    // The client probes it back onto the ring and replays nothing into
    // it.
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

    // The fresh process answers both keys from what its boot caught up,
    // and through the fleet client as well.
    let mut direct = PredictClient::builder().endpoint(reborn.addr().to_string()).build().unwrap();
    for _ in 0..20 {
        for c in [&mut direct, &mut client] {
            assert_eq!(c.predict(10, 20, OPTS).unwrap(), CpuConfig::new(32, 2_200_000, 1));
            assert_eq!(c.predict(30, 40, OPTS).unwrap(), CpuConfig::new(16, 1_500_000, 2));
        }
    }
    let snap = reborn.snapshot();
    assert_eq!(snap.preloads, 0, "the client replayed a rollout into the rejoined replica");
    assert_eq!((snap.store_catchups, snap.cache_misses), (2, 0), "both keys were held from boot: {snap:?}");
    stable.shutdown();
    reborn.shutdown();
}
