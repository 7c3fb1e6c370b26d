//! Allocation census of the submit path: how many heap allocations one
//! `sbatch` parse, one remote TCP prediction (through a one- and a
//! three-endpoint client) and one opted-in `sbatch` end to end make — over a staged model and over the daemon — pinned
//! exactly.
//! Timing on a shared two-vCPU host moves by 10–20 % between runs;
//! these counts do not move at all, so a change that adds a copy to the
//! submit path shows here first.
//!
//! The test has this binary to itself and counts process-wide: the
//! daemon's connection thread answers the prediction, and its
//! allocations are part of what a submission costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use eco_hpc::chronus::domain::{Benchmark, LoadedModel, Settings};
use eco_hpc::chronus::hash::{binary_hash, system_hash};
use eco_hpc::chronus::integrations::storage::EtcStorage;
use eco_hpc::chronus::interfaces::{LocalStorage, Optimizer};
use eco_hpc::chronus::optimizers::BruteForceOptimizer;
use eco_hpc::chronus::remote::{CallOptions, PredictClient, RemotePrediction};
use eco_hpc::eco_plugin::JobSubmitEco;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::{HpcgWorkload, Workload};
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::sysinfo::SystemFacts;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::{generate_hpcg_script, parse_submission, Cluster};

mod support;
use support::TempRoot;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a static atomic, so counting never allocates or re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, via `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The least of three rounds of `round`. Another thread of the process
/// can allocate during a round (the test harness's main thread does,
/// once, while it settles into waiting for the test), never in all three,
/// and only ever adds to a count.
fn least_of_three(mut round: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| round()).fold(f64::INFINITY, f64::min)
}

/// Allocations per call of `op`, over `n` calls after as many warm-up
/// calls: exact when every call allocates alike.
fn per_call(n: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..n {
        op();
    }
    least_of_three(|| {
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..n {
            op();
        }
        (ALLOCS.load(Ordering::SeqCst) - before) as f64 / n as f64
    })
}

/// The benchmark's batch script (`benchmark/src/gen.rs`), opted in or not.
fn benchmark_script(opt_in: bool) -> String {
    let comment = if opt_in { "#SBATCH --comment \"chronus\"\n" } else { "" };
    format!(
        "#!/bin/bash\n#SBATCH --job-name=u3\n#SBATCH --partition=sr650\n#SBATCH --nodes=1\n\
         #SBATCH --ntasks=32\n{comment}\nsrun --mpi=pmix_v4 /opt/hpcg/bin/xhpcg\n"
    )
}

const BINARY: &str = "/opt/hpcg/bin/xhpcg";
const BEST: CpuConfig = CpuConfig { cores: 32, frequency_khz: 2_200_000, threads_per_core: 1 };

/// Allocations per opted-in `sbatch` of the benchmark's script on a
/// one-node cluster whose only plugin `plugin` builds, each plugin
/// asking its source for `BEST`: the parse, the plugin host,
/// `job_submit_eco`, the rewrite and the queue. Only the `sbatch` is
/// counted; each job is cancelled outside the count, so the queue stays
/// empty. The job table keeps every job and grows a node now and then,
/// so a round is the mean over a fixed number of calls on a fresh
/// cluster.
fn allocations_per_opted_in_sbatch(workload: &Arc<HpcgWorkload>, mut plugin: impl FnMut() -> JobSubmitEco) -> f64 {
    // the single-node cluster has no `sr650` partition: its default serves
    let script = benchmark_script(true).replace("#SBATCH --partition=sr650\n", "");
    least_of_three(|| {
        let mut cluster = Cluster::single_node(SimNode::sr650());
        cluster.register_binary(BINARY, Arc::clone(workload) as _);
        cluster.register_plugin(Box::new(plugin()));
        let mut sbatch = || {
            let before = ALLOCS.load(Ordering::SeqCst);
            let id = cluster.sbatch(black_box(&script), "alice").unwrap();
            let made = ALLOCS.load(Ordering::SeqCst) - before;
            let job = &cluster.job(id).unwrap().descriptor;
            assert_eq!(job.max_frequency_khz, Some(BEST.frequency_khz), "the plugin rewrote the job");
            cluster.cancel(id).unwrap();
            made
        };
        for _ in 0..100 {
            sbatch();
        }
        (0..1_000).map(|_| sbatch()).sum::<u64>() as f64 / 1_000.0
    })
}

/// Workload (a): `job_submit_eco` over a staged model
/// (`LocalPrediction`), staged as `chronus load-model` does.
fn allocations_per_local_sbatch(workload: &Arc<HpcgWorkload>) -> f64 {
    let root = TempRoot::new("census");
    let binary_id = workload.binary_id().to_string();

    // stage a two-row model, as `chronus load-model` does
    let row = |config, gflops| Benchmark {
        id: -1,
        system_id: 1,
        binary_hash: 0,
        config,
        gflops,
        runtime_s: 100.0,
        avg_system_w: 200.0,
        avg_cpu_w: 100.0,
        avg_cpu_temp_c: 55.0,
        system_energy_j: 20_000.0,
        cpu_energy_j: 10_000.0,
        sample_count: 50,
    };
    let mut model = BruteForceOptimizer::new();
    model.fit(&[row(BEST, 8.0), row(CpuConfig::new(16, 1_500_000, 2), 4.0)]).unwrap();
    let path = root.join("model-1.json");
    std::fs::write(&path, model.to_bytes().unwrap()).unwrap();
    let node = SimNode::sr650();
    let staged = LoadedModel {
        model_id: 1,
        model_type: "brute-force".into(),
        local_path: path.to_string_lossy().into_owned(),
        system_hash: system_hash(node.spec(), node.ram_gb()),
        binary_hash: binary_hash(&binary_id),
        facts: SystemFacts::from_node(&node),
        benchmarks_path: None,
    };
    let settings = Settings { loaded_model: Some(staged), ..Settings::default() };
    EtcStorage::new(&root).save_settings(&settings).unwrap();

    allocations_per_opted_in_sbatch(workload, || {
        let mut plugin = JobSubmitEco::new(Arc::new(EtcStorage::new(&root)), node.spec(), node.ram_gb());
        plugin.register_binary(BINARY, &binary_id);
        plugin
    })
}

/// Workload (b): `job_submit_eco` over `RemotePrediction`, asking an
/// in-process daemon over TCP whose backend holds the staged key; the
/// plugin state is the default, `user`.
fn allocations_per_remote_sbatch(workload: &Arc<HpcgWorkload>) -> f64 {
    let root = TempRoot::new("census-remote");
    let binary_id = workload.binary_id().to_string();
    let node = SimNode::sr650();
    let model = PreparedModel {
        model_id: 1,
        model_type: "brute-force".into(),
        system_hash: system_hash(node.spec(), node.ram_gb()),
        binary_hash: binary_hash(&binary_id),
        config: BEST,
    };
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
    let server = PredictServer::start(cfg, Arc::new(StaticBackend::new(vec![model]))).unwrap();
    let remote = Arc::new(RemotePrediction::from_endpoints(&server.addr().to_string()).unwrap());
    let made = allocations_per_opted_in_sbatch(workload, || {
        let mut plugin = JobSubmitEco::new(Arc::new(EtcStorage::new(&root)), node.spec(), node.ram_gb());
        plugin.register_binary(BINARY, &binary_id);
        plugin.set_source(Arc::clone(&remote) as _);
        plugin
    });
    server.shutdown();
    made
}

#[test]
fn allocations_per_parse_and_per_remote_predict_are_pinned() {
    // one parse allocates exactly the strings the descriptor keeps: name,
    // user and binary, plus the partition and comment a script names
    let parse = |script: String| per_call(1_000, || drop(black_box(parse_submission(black_box(&script), "alice"))));
    let listing_6 = parse(generate_hpcg_script(32, 2_200_000, 2, "/opt/hpcg/bin/xhpcg"));
    let plain = parse(benchmark_script(false));
    let opted_in = parse(benchmark_script(true));
    assert_eq!(
        (listing_6, plain, opted_in),
        (3.0, 4.0, 5.0),
        "allocations per parse: Listing 6, benchmark, opted in"
    );

    // one remote prediction over a warm TCP connection: the client's
    // request payload and its copy of the reply, the daemon's reply
    let model = PreparedModel {
        model_id: 1,
        model_type: "brute-force".into(),
        system_hash: 10,
        binary_hash: 20,
        config: CpuConfig::new(32, 2_200_000, 1),
    };
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
    let server = PredictServer::start(cfg, Arc::new(StaticBackend::new(vec![model]))).unwrap();
    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    let opts = CallOptions::default();
    let predict = per_call(2_000, || {
        assert_eq!(client.predict(10, 20, &opts).unwrap().cores, 32);
    });
    // the same through a three-endpoint client: routing a warm fleet
    // request allocates nothing, so the count is the single endpoint's
    let endpoint = format!("tcp://{}", server.addr());
    let mut fleet = PredictClient::builder().endpoints([&endpoint, &endpoint, &endpoint]).build().unwrap();
    let fleet_predict = per_call(2_000, || {
        assert_eq!(fleet.predict(10, 20, &opts).unwrap().cores, 32);
    });
    server.shutdown();
    assert_eq!(predict, 3.0, "allocations per remote TCP predict, client and daemon");
    assert_eq!(fleet_predict, 3.0, "allocations per remote TCP predict through a three-endpoint client");

    let workload = Arc::new(HpcgWorkload::paper_default(Arc::new(PerfModel::sr650())));
    assert_eq!(
        allocations_per_local_sbatch(&workload),
        19.166,
        "allocations per opted-in local sbatch, mean of 1 000"
    );
    assert_eq!(
        allocations_per_remote_sbatch(&workload),
        12.166,
        "allocations per opted-in sbatch over the daemon, mean of 1 000"
    );
}
