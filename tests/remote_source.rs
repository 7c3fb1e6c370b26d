//! The daemon-backed submit path without a daemon: `Cluster::sbatch` →
//! `job_submit_eco` → `RemotePrediction` → `PredictClient` over an
//! in-memory transport. Covers the three things a submission can do
//! with a remote source: be rewritten, never ask, or ask and get no
//! answer (which must never fail the submission).

use eco_hpc::chronus::integrations::storage::EtcStorage;
use eco_hpc::chronus::remote::{
    Connection, PredictClient, RemotePrediction, Request, RequestFrame, Response, Transport,
};
use eco_hpc::eco_plugin::JobSubmitEco;
use eco_hpc::hpcg::perf_model::PerfModel;
use eco_hpc::hpcg::workload::HpcgWorkload;
use eco_hpc::node::cpu::CpuConfig;
use eco_hpc::node::SimNode;
use eco_hpc::slurm::{Cluster, JobDescriptor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SCRIPT_OPTED_IN: &str = "#!/bin/bash\n\
    #SBATCH --nodes=1\n\
    #SBATCH --ntasks=32\n\
    #SBATCH --comment \"chronus\"\n\
    \n\
    srun --mpi=pmix_v4 --ntasks-per-core=1 /opt/hpcg/bin/xhpcg\n";

/// What the in-memory daemon answers every `Predict` with — not the
/// paper's optimum, so a rewrite can only have come over the wire.
const ANSWER: CpuConfig = CpuConfig { cores: 16, frequency_khz: 1_500_000, threads_per_core: 2 };

/// The daemon end, in memory, both ends of its connections: keeps every
/// request frame it is sent and answers `Predict` with [`ANSWER`] — or
/// refuses every dial.
#[derive(Clone, Default)]
struct Daemon {
    refuse: bool,
    dials: Arc<AtomicUsize>,
    sent: Arc<Mutex<Vec<RequestFrame>>>,
    inbox: VecDeque<Vec<u8>>,
}

impl Transport for Daemon {
    fn connect(&mut self) -> std::io::Result<Box<dyn Connection>> {
        self.dials.fetch_add(1, Ordering::SeqCst);
        if self.refuse {
            return Err(std::io::ErrorKind::ConnectionRefused.into());
        }
        Ok(Box::new(self.clone()))
    }

    fn describe(&self) -> String {
        "in-memory daemon".to_string()
    }

    fn sleep(&mut self, _: Duration) {}
}

impl Connection for Daemon {
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let frame: RequestFrame = serde_json::from_slice(payload).expect("the client writes well-formed frames");
        assert!(matches!(frame.body, Request::Predict { .. }), "the submit path only predicts: {frame:?}");
        self.sent.lock().unwrap().push(frame);
        self.inbox.push_back(serde_json::to_vec(&Response::Config(ANSWER)).unwrap());
        Ok(())
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        self.inbox.pop_front().ok_or_else(|| std::io::ErrorKind::TimedOut.into())
    }
}

/// A one-node cluster whose eco plugin predicts through `daemon`.
fn cluster_with(tag: &str, daemon: Daemon) -> Cluster {
    let root = std::env::temp_dir().join(format!("eco-remote-source-{tag}-{}", std::process::id()));
    // no settings file: the plugin runs on defaults (opt-in by comment)
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let workload = HpcgWorkload::paper_default(Arc::new(PerfModel::sr650()));
    cluster.register_binary("/opt/hpcg/bin/xhpcg", Arc::new(workload));
    let mut plugin =
        JobSubmitEco::new(Arc::new(EtcStorage::new(&root)), cluster.node(0).spec(), cluster.node(0).ram_gb());
    let client = PredictClient::builder().transport(Box::new(daemon)).build().unwrap();
    plugin.set_source(Arc::new(RemotePrediction::from_client(client)));
    assert!(plugin.source_description().contains("in-memory daemon"));
    cluster.register_plugin(Box::new(plugin));
    cluster
}

fn submit(cluster: &mut Cluster, script: &str) -> JobDescriptor {
    let job = cluster.sbatch(script, "alice").expect("a plugin failure never fails a submission");
    cluster.job(job).unwrap().descriptor.clone()
}

#[test]
fn opted_in_job_is_rewritten_to_the_remote_answer() {
    let daemon = Daemon::default();
    let sent = Arc::clone(&daemon.sent);
    let mut cluster = cluster_with("rewritten", daemon);

    let desc = submit(&mut cluster, SCRIPT_OPTED_IN);
    assert_eq!(desc.num_tasks, ANSWER.cores);
    assert_eq!(desc.threads_per_cpu, ANSWER.threads_per_core);
    assert_eq!(desc.min_frequency_khz, Some(ANSWER.frequency_khz));
    assert_eq!(desc.max_frequency_khz, Some(ANSWER.frequency_khz));

    let sent = sent.lock().unwrap();
    assert_eq!(sent.len(), 1, "one submission, one frame: {sent:?}");
    assert_eq!(sent[0].corr, None, "a single prediction goes out untagged");
}

#[test]
fn job_that_did_not_opt_in_sends_no_frame() {
    let daemon = Daemon::default();
    let (dials, sent) = (Arc::clone(&daemon.dials), Arc::clone(&daemon.sent));
    let mut cluster = cluster_with("plain", daemon);

    let desc = submit(&mut cluster, &SCRIPT_OPTED_IN.replace("#SBATCH --comment \"chronus\"\n", ""));
    assert_eq!((desc.num_tasks, desc.max_frequency_khz), (32, None), "descriptor left as submitted");
    assert_eq!(dials.load(Ordering::SeqCst), 0, "the daemon is not even dialed");
    assert!(sent.lock().unwrap().is_empty());
}

#[test]
fn refused_connection_leaves_the_job_untouched_and_accepted() {
    let daemon = Daemon { refuse: true, ..Daemon::default() };
    let dials = Arc::clone(&daemon.dials);
    let mut cluster = cluster_with("refused", daemon);

    let desc = submit(&mut cluster, SCRIPT_OPTED_IN);
    assert_eq!((desc.num_tasks, desc.max_frequency_khz), (32, None), "no prediction, no rewrite");
    assert_eq!(desc.min_frequency_khz, None);
    assert!(dials.load(Ordering::SeqCst) >= 1, "the plugin did try the daemon");
}
