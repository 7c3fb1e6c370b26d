//! Isolated micro-loops: public functions of one layer, called directly
//! on the inputs the end-to-end run used, a fixed number of times. They
//! answer "how much of `transport.recv_wait` can the service account
//! for" and the like — questions the client-side spans cannot, because
//! the daemon's inside is not visible from outside. Traced runs only;
//! a layer the workload leaves idle is skipped and reads zero.

use std::sync::Arc;
use std::time::Instant;

use chronus::remote::{fastpath, KeyOutcome, Request, RequestFrame, Response};
use chronus::telemetry::Telemetry;
use chronus::ModelFactory;
use chronusd::{ModelRegistry, PredictService, QueueGauges, StaticBackend};
use eco_adapt::{DriftConfig, Monitor};
use eco_sim_node::power::CpuLoad;
use eco_sim_node::SimNode;
use eco_store::ModelStore;
use parking_lot::Mutex;

use crate::gen::{self, KEYS};
use crate::report::Sheet;
use crate::setup::{Route, Stack};
use crate::stats::median;

/// Median over five batches of the mean ns per call of `f`.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn many_reply(stack: &Stack, n: usize) -> Response {
    Response::ManyConfigs {
        results: (0..n).map(|i| KeyOutcome::Config(stack.models[i % KEYS].record.config)).collect(),
    }
}

/// Wire codecs, on frames shaped like the ones the run sent.
fn codecs(stack: &Stack, sheet: &mut Sheet) {
    let keys: Vec<(u64, u64)> = (0..512).map(|i| stack.catalog.key(i % KEYS)).collect();
    let one = RequestFrame::new(Request::Predict { system_hash: keys[0].0, binary_hash: keys[0].1 });
    let one_reply = serde_json::to_vec(&Response::Config(stack.models[0].record.config)).expect("reply encodes");
    let many = RequestFrame::new(Request::PredictMany { keys: keys.clone() }).with_corr(1);
    let many_reply = many_reply(stack, 512);
    let many_reply_json = serde_json::to_vec(&many_reply).expect("reply encodes");
    sheet.set(
        "core.remote.json.encode1_ns",
        ns_per_call(2000, || drop(std::hint::black_box(serde_json::to_vec(&one)))),
    );
    sheet.set(
        "core.remote.json.decode1_ns",
        ns_per_call(2000, || drop(std::hint::black_box(serde_json::from_slice::<Response>(&one_reply)))),
    );
    sheet.set(
        "core.remote.json.encode512_ns",
        ns_per_call(20, || drop(std::hint::black_box(serde_json::to_vec(&many)))),
    );
    sheet.set(
        "core.remote.json.decode512_ns",
        ns_per_call(20, || drop(std::hint::black_box(serde_json::from_slice::<Response>(&many_reply_json)))),
    );
    if stack.route == Route::Shm {
        let fast_reply = fastpath::encode_reply(1, &many_reply);
        sheet.set(
            "core.remote.fastpath.encode512_ns",
            ns_per_call(200, || drop(std::hint::black_box(fastpath::encode_request(1, None, &keys)))),
        );
        sheet.set(
            "core.remote.fastpath.decode512_ns",
            ns_per_call(200, || drop(std::hint::black_box(fastpath::decode_reply(&fast_reply)))),
        );
    }
}

/// The captured wire payloads, replayed straight into a `PredictService`
/// caught up from the same store: what one request costs the daemon with
/// no wire, no queue and no thread hand-off around it.
fn service(stack: &Stack, sheet: &mut Sheet) {
    let dir = stack.tmp.0.join("store");
    let Ok(store) = ModelStore::open_dir(&dir) else { return };
    let service = PredictService::new(8, 4 * KEYS, Arc::new(StaticBackend::new(Vec::new())))
        .with_store(Arc::new(Mutex::new(store)), dir.to_string_lossy().into_owned());
    service.catch_up_from_store();
    let gauges = QueueGauges::default();
    let captured = stack.probe.captured();
    if let Some(p) = &captured.single {
        sheet.set(
            "chronusd.service.handle1_ns",
            ns_per_call(2000, || drop(std::hint::black_box(service.handle_frame(p, gauges)))),
        );
    }
    if let Some(p) = &captured.many_json {
        sheet.set(
            "chronusd.service.handle_many512_ns",
            ns_per_call(20, || drop(std::hint::black_box(service.handle_frame(p, gauges)))),
        );
    }
    if let Some(p) = &captured.many_fast {
        sheet.set(
            "chronusd.service.handle_fast512_ns",
            ns_per_call(100, || drop(std::hint::black_box(service.handle_fast_frame(p, gauges)))),
        );
    }
}

fn registry(stack: &Stack, sheet: &mut Sheet) {
    let registry = ModelRegistry::new(8, 4 * KEYS);
    let keys: Vec<(u64, u64)> = (0..KEYS).map(|k| stack.catalog.key(k)).collect();
    for (k, key) in keys.iter().enumerate() {
        registry.insert(*key, 1 + k as i64, "random-tree".to_string(), stack.models[k].record.config);
    }
    let mut i = 0;
    sheet.set(
        "chronusd.registry.lookup_ns",
        ns_per_call(20_000, || {
            i = (i + 1) % KEYS;
            std::hint::black_box(registry.lookup(&keys[i]));
        }),
    );
    sheet.set(
        "chronusd.registry.rollout_ns",
        ns_per_call(2000, || {
            i = (i + 1) % KEYS;
            let gen = registry.begin_rollout();
            registry.insert_at(keys[i], 1 + i as i64, "random-tree".to_string(), stack.models[i].record.config, gen);
            registry.commit_rollout(gen);
        }),
    );
}

fn store(stack: &Stack, sheet: &mut Sheet) {
    let mut k = 0;
    sheet.set(
        "store.load_blob_ns",
        ns_per_call(64, || {
            k = (k + 1) % KEYS;
            drop(std::hint::black_box(stack.store.load_blob(&stack.models[k].record)));
        }),
    );
    let commits = stack.store.commits().count().max(1);
    let t = Instant::now();
    let issues = stack.store.verify();
    sheet.set("store.verify_ns", t.elapsed().as_nanos() as f64 / commits as f64);
    debug_assert!(issues.is_empty(), "{issues:?}");
}

fn adapt_and_fit(stack: &Stack, seed: u64, sheet: &mut Sheet) {
    let monitor = Monitor::new(eco_adapt::DEFAULT_RESERVOIR_CAP, DriftConfig::default());
    let key = stack.catalog.key(0);
    let feed = gen::outcome_feed(seed, 0, 0, stack.catalog.key_class(0), &stack.models[0].record.config);
    let mut i = 0;
    sheet.set(
        "adapt.monitor_ingest_ns",
        ns_per_call(5000, || {
            i = (i + 1) % feed.len();
            std::hint::black_box(monitor.ingest(key, &feed[i]));
        }),
    );
    let rows = &stack.models[1].blob.benchmarks;
    let mut forest =
        ModelFactory::create(chronus::optimizers::RANDOM_TREE).expect("the forest is a known model type");
    sheet.set("core.optimizers.forest_fit_ns", ns_per_call(3, || drop(std::hint::black_box(forest.fit(rows)))));
    sheet.set(
        "core.optimizers.best_config_ns",
        ns_per_call(10, || drop(std::hint::black_box(forest.best_config(&stack.candidates)))),
    );
}

fn telemetry_and_node(sheet: &mut Sheet) {
    let telemetry = Telemetry::wall();
    let root = telemetry.root_span("bench", "root");
    let ctx = root.context();
    sheet.set(
        "telemetry.span_ns",
        ns_per_call(20_000, || {
            let mut s = telemetry.span_under(ctx, "bench", "child");
            s.attr("k", 1);
        }),
    );
    let histogram = telemetry.histogram("bench.h");
    let mut v = 0u64;
    sheet.set(
        "telemetry.histogram_record_ns",
        ns_per_call(100_000, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            histogram.record_us(v >> 44);
        }),
    );
    let mut node = SimNode::sr650();
    node.set_load(CpuLoad::busy(eco_sim_node::cpu::CpuConfig::new(32, 2_200_000, 1)));
    sheet.set("sim-node.step_ns", ns_per_call(5000, || node.advance(eco_sim_node::clock::SimDuration::from_secs(1))));
}

/// Runs the micro-loops of every layer the workload exercised.
pub fn run(stack: &Stack, seed: u64, sheet: &mut Sheet) {
    if stack.server.is_some() {
        codecs(stack, sheet);
        service(stack, sheet);
        registry(stack, sheet);
    }
    store(stack, sheet);
    adapt_and_fit(stack, seed, sheet);
    telemetry_and_node(sheet);
}
