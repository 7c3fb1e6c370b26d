//! Allocation census of the submit path: how many heap allocations one
//! `sbatch` parse and one remote TCP prediction make, pinned exactly.
//! Timing on a shared two-vCPU host moves by 10–20 % between runs;
//! these counts do not move at all, so a change that adds a copy to the
//! submit path shows here first.
//!
//! The test has this binary to itself and counts process-wide: the
//! daemon's worker thread answers the prediction, and its allocations
//! are part of what a submission costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chronusd::{PredictServer, PreparedModel, ServerConfig, StaticBackend};
use eco_hpc::chronus::remote::{CallOptions, PredictClient};
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::slurm::{generate_hpcg_script, parse_submission};

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

/// Allocations per call of `op`, over `n` calls after as many warm-up
/// calls: exact when every call allocates alike.
fn per_call(n: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..n {
        op();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..n {
        op();
    }
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / n as f64
}

/// The benchmark's batch script (`benchmark/src/gen.rs`), opted in or not.
fn benchmark_script(opt_in: bool) -> String {
    let comment = if opt_in { "#SBATCH --comment \"chronus\"\n" } else { "" };
    format!(
        "#!/bin/bash\n#SBATCH --job-name=u3\n#SBATCH --partition=sr650\n#SBATCH --nodes=1\n\
         #SBATCH --ntasks=32\n{comment}\nsrun --mpi=pmix_v4 /opt/hpcg/bin/xhpcg\n"
    )
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
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServerConfig::default() };
    let server = PredictServer::start(cfg, Arc::new(StaticBackend::new(vec![model]))).unwrap();
    let mut client = PredictClient::builder().endpoint(server.addr().to_string()).build().unwrap();
    let opts = CallOptions::default();
    let predict = per_call(2_000, || {
        assert_eq!(client.predict(10, 20, &opts).unwrap().cores, 32);
    });
    server.shutdown();
    assert_eq!(predict, 3.0, "allocations per remote TCP predict, client and daemon");
}
