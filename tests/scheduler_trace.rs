//! Behaviour oracles for the scheduler pass (`eco_slurm_sim`'s
//! `Cluster::schedule`), each a seeded run whose every dispatch decision
//! is pinned to a literal:
//! - a job mix on a capped two-class cluster, the repo benchmark's
//!   `sched-deep` shape at a size Tier-1 can afford;
//! - 32-job segments on an uncapped four-class cluster of 16 nodes each,
//!   the shape of the benchmark's daemon workloads (`submit-tcp`), with a
//!   node drained and resumed, a two-node job and an overlapping
//!   partition added mid-run.
//!
//! A change that restructures the pass without changing what it decides
//! reproduces the literals exactly; a change that means to move a
//! decision edits the literal in the same diff and says which job moved
//! and why. `TRACE` and `ENERGY_J` were taken at commit `1be3c84`, before
//! the pass was split into `admit`/`place`; `COUNTERS` says on its own
//! when and why it was last re-pinned. `SEGMENT_TRACE` was taken before
//! the cluster held its idle-node and partition-member sets.

use std::sync::Arc;

use chronus::telemetry::Telemetry;
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};
use eco_sim_node::class::NodeClass;
use eco_sim_node::clock::SimDuration;
use eco_slurm_sim::{Cluster, CoSchedulePolicy, JobDescriptor, JobId, JobState, Partition, Qos};
use rand::{Rng, SeedableRng, StdRng};

const JOBS: usize = 64;
const USERS: [&str; 3] = ["alice", "bob", "carol"];

/// `(start_time ms, job id, first node)` of every job, by start time.
#[rustfmt::skip]
const TRACE: [(u64, u64, usize); JOBS] = [
    (0, 2, 4), (0, 3, 5), (0, 4, 4), (0, 5, 0),
    (3000, 6, 2), (3000, 7, 5), (3000, 8, 6), (8000, 9, 7),
    (13000, 10, 0), (13000, 11, 3), (19000, 16, 1), (24000, 20, 7),
    (24000, 28, 2), (24000, 30, 3), (24000, 32, 6), (26077, 12, 2),
    (34722, 36, 5), (40393, 46, 7), (43485, 13, 5), (44733, 53, 6),
    (48701, 15, 0), (48701, 48, 1), (51020, 63, 4), (55929, 34, 0),
    (56575, 37, 4), (59353, 29, 5), (65667, 56, 6), (66546, 57, 1),
    (76360, 33, 5), (78525, 44, 7), (83789, 26, 6), (88438, 35, 2),
    (94000, 40, 7), (94000, 49, 5), (94464, 58, 2), (94675, 62, 5),
    (98635, 1, 0), (100074, 52, 3), (110146, 31, 1), (115083, 45, 4),
    (124470, 38, 6), (125624, 51, 0), (130516, 27, 5), (133000, 42, 3),
    (137798, 25, 7), (150841, 64, 4), (159148, 18, 2), (187545, 50, 2),
    (191558, 21, 1), (203170, 59, 2), (219404, 47, 2), (229593, 17, 4),
    (229593, 22, 1), (229593, 23, 3), (229593, 60, 7), (229593, 61, 5),
    (258297, 19, 0), (270865, 43, 1), (276834, 54, 0), (295773, 24, 0),
    (295773, 41, 4), (295773, 55, 3), (333932, 14, 1), (341228, 39, 0),
];

/// Total DC-side energy `accounting()` billed, to the millijoule.
const ENERGY_J: &str = "389895.571";

/// The six `slurm.sched_*` counters at the end of the run: dispatched,
/// packed, backfilled, power_blocked, head_blocked, starvation_stall.
///
/// Re-pinned once, deliberately, when `Cluster::advance` stopped running
/// its trailing pass after an in-loop pass that placed nothing (that pass
/// would have decided the same): `[64, 33, 8, 72, 742, 418]` became this.
/// The three placement counters did not move, and `TRACE` and `ENERGY_J`
/// did not change; only the hold tallies fell, because they count the
/// decisions of passes that ran.
const COUNTERS: [u64; 6] = [64, 33, 8, 39, 429, 223];

/// 4 × sr650 + 4 × dense64 under a cap halfway up the fleet's dynamic
/// range, fan-drift headroom held back, complementary jobs packed,
/// backfill on, a 120 s starvation guard.
fn capped_two_class_cluster(telemetry: &Arc<Telemetry>) -> (Cluster, Vec<NodeClass>) {
    let classes = [(NodeClass::sr650(), 4), (NodeClass::dense64(), 4)];
    let (mut idle_w, mut max_w, mut headroom_w) = (0.0, 0.0, 0.0);
    for (class, count) in &classes {
        idle_w += class.idle_system_w() * *count as f64;
        max_w += class.max_system_w() * *count as f64;
        headroom_w += class.max_fan_w() * *count as f64;
    }
    let mut cluster = Cluster::heterogeneous(&classes);
    cluster.set_telemetry(Arc::clone(telemetry));
    cluster.register_binary(
        "/bin/dgemm",
        Arc::new(SyntheticWorkload::new("dgemm", ScalingKind::ComputeBound, 1500.0, 1.0)),
    );
    cluster.register_binary(
        "/bin/stream",
        Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 300.0, 1.0)),
    );
    cluster.set_power_cap(Some(idle_w + headroom_w + 0.5 * (max_w - idle_w)));
    cluster.set_power_headroom(headroom_w);
    cluster.set_co_schedule(CoSchedulePolicy::Pack);
    cluster.set_backfill(true);
    cluster.set_starvation_guard(Some(SimDuration::from_secs(120)));
    (cluster, classes.into_iter().map(|(class, _)| class).collect())
}

/// One seeded job: both partitions (the default one also implicitly),
/// both sides of the roofline ridge, any width and DVFS step, three
/// users and the occasional high QOS so fair-share and priority reorder
/// the queue, a few two-node jobs and a few `--begin` deferrals.
fn job(i: usize, rng: &mut StdRng, classes: &[NodeClass], cluster: &Cluster) -> JobDescriptor {
    let class_idx = rng.gen_range(0..classes.len());
    let class = &classes[class_idx];
    let binary = if i.is_multiple_of(3) || rng.gen_bool(0.3) { "/bin/stream" } else { "/bin/dgemm" };
    let mut d = JobDescriptor::new(&format!("j{i}"), USERS[rng.gen_range(0..USERS.len())], binary);
    d.partition = if class_idx == 0 && rng.gen_bool(0.3) { None } else { Some(class.name.clone()) };
    d.num_tasks = rng.gen_range(4..=class.spec.cores);
    d.max_frequency_khz = Some(class.spec.frequencies_khz[rng.gen_range(0..class.spec.frequencies_khz.len())]);
    if rng.gen_bool(0.12) {
        d.num_nodes = 2;
    }
    if rng.gen_bool(0.1) {
        d.qos = Qos::High;
    }
    if rng.gen_bool(0.08) {
        d.begin_time = Some(cluster.now() + SimDuration::from_secs(rng.gen_range(20..90u64)));
    }
    d
}

#[test]
fn the_dispatch_sequence_of_a_capped_two_class_run_is_pinned() {
    let telemetry = Arc::new(Telemetry::wall());
    let (mut cluster, classes) = capped_two_class_cluster(&telemetry);
    let mut rng = StdRng::seed_from_u64(0x5c4e_d0c1);
    let mut ids: Vec<JobId> = Vec::with_capacity(JOBS);
    // arrivals come in bursts, so the queue gets deep and every submit
    // runs a pass over it
    let held = || -> u64 {
        ["begin_time", "resources", "priority", "power_cap"]
            .iter()
            .map(|reason| telemetry.counter(&format!("slurm.sched_hold.{reason}")).get())
            .sum()
    };
    for i in 0..JOBS {
        let d = job(i, &mut rng, &classes, &cluster);
        let held_before = held();
        ids.push(cluster.submit(d).expect("every generated job is satisfiable"));
        // a submission runs one pass, and a pass holds every job it
        // leaves pending for exactly one reason
        let pending = ids.iter().filter(|&&id| cluster.job(id).expect("tracked").state == JobState::Pending).count();
        assert_eq!(held() - held_before, pending as u64, "slurm.sched_hold.* after job {i}'s pass");
        if rng.gen_bool(0.25) {
            for _ in 0..rng.gen_range(1..6u32) {
                cluster.advance(SimDuration::from_secs(1));
            }
        }
    }
    let mut ticks = 0;
    while !cluster.is_idle() {
        cluster.advance(SimDuration::from_secs(1));
        ticks += 1;
        assert!(ticks < 7200, "the run did not drain in two simulated hours");
    }

    let mut trace: Vec<(u64, u64, usize)> = ids
        .iter()
        .map(|&id| {
            let job = cluster.job(id).expect("submitted job is tracked");
            assert_eq!(job.state, JobState::Completed, "job {id}");
            (job.start_time.expect("a completed job started").as_millis(), id.0, job.node.expect("and ran on a node"))
        })
        .collect();
    trace.sort_unstable();
    let energy_j: f64 = cluster.accounting().records().iter().map(|r| r.system_energy_j).sum();
    let counters = ["dispatched", "packed", "backfilled", "power_blocked", "head_blocked", "starvation_stall"]
        .map(|name| telemetry.counter(&format!("slurm.sched_{name}")).get());

    if trace != TRACE || format!("{energy_j:.3}") != ENERGY_J || counters != COUNTERS {
        // the observed run as literals, ready to diff against the pinned ones
        let rows: Vec<String> =
            trace.chunks(4).map(|row| format!("    {row:?}").replace(['[', ']'], "") + ",").collect();
        panic!(
            "the scheduler's decisions moved\nTRACE = [\n{}\n];\nENERGY_J = \"{energy_j:.3}\";\nCOUNTERS = {counters:?};",
            rows.join("\n")
        );
    }
}

/// Segments of [`SEGMENT`] submissions in the daemon-shaped run.
const SEGMENTS: usize = 6;
const SEGMENT: usize = 32;

/// `(start_time ms, job id, first node)` of every job of the daemon-shaped
/// run, by start time.
#[rustfmt::skip]
const SEGMENT_TRACE: [(u64, u64, usize); SEGMENTS * SEGMENT] = [
    (0, 1, 32), (0, 2, 16), (0, 3, 0), (0, 4, 1), (0, 5, 2), (0, 6, 17),
    (0, 7, 3), (0, 8, 48), (0, 9, 49), (0, 10, 4), (0, 11, 5), (0, 12, 6),
    (0, 13, 7), (0, 14, 8), (0, 15, 33), (0, 16, 18), (0, 17, 9), (0, 18, 34),
    (0, 19, 10), (0, 20, 11), (0, 21, 50), (0, 22, 51), (0, 23, 12), (0, 24, 52),
    (0, 25, 53), (0, 26, 13), (0, 27, 14), (0, 28, 15), (0, 29, 54), (0, 30, 55),
    (1000, 31, 2), (1000, 32, 1), (1000, 33, 32), (1000, 34, 3), (1000, 35, 16), (1000, 36, 6),
    (1000, 37, 9), (1000, 38, 48), (1000, 39, 10), (1000, 40, 11), (1000, 41, 12), (1000, 42, 34),
    (1000, 43, 14), (1000, 44, 49), (1000, 45, 15), (1000, 47, 17), (1000, 48, 35), (1000, 52, 36),
    (1000, 54, 50), (1000, 57, 19), (1000, 59, 20), (1000, 60, 37), (1000, 61, 21), (1000, 62, 51),
    (1000, 63, 53), (2000, 46, 1), (2000, 49, 6), (2000, 50, 10), (2000, 51, 15), (2000, 53, 14),
    (2000, 55, 3), (2000, 56, 11), (2000, 58, 12), (2000, 64, 9), (2000, 65, 32), (2000, 66, 34),
    (2000, 68, 16), (2000, 72, 35), (2000, 75, 38), (2000, 76, 48), (2000, 77, 17), (2000, 80, 39),
    (2000, 82, 19), (2000, 84, 20), (2000, 86, 21), (2000, 87, 40), (2000, 88, 41), (2000, 89, 42),
    (2000, 90, 49), (2000, 91, 50), (2000, 92, 43), (2000, 96, 44), (3000, 67, 11), (3000, 70, 9),
    (3000, 71, 12), (3000, 74, 14), (3000, 78, 1), (3000, 79, 15), (3000, 81, 10), (3000, 85, 3),
    (3000, 93, 6), (3000, 94, 5), (3000, 97, 16), (3000, 98, 17), (3000, 99, 19), (3000, 101, 20),
    (3000, 102, 32), (3000, 103, 48), (3000, 104, 21), (3000, 107, 34), (3000, 113, 35), (3000, 116, 37),
    (3000, 117, 22), (3000, 118, 23), (3000, 119, 38), (3000, 122, 49), (3000, 123, 24), (3000, 124, 25),
    (3000, 126, 26), (3000, 127, 27), (4000, 105, 9), (4000, 106, 12), (4000, 108, 10), (4000, 109, 14),
    (4000, 114, 6), (4000, 115, 3), (4000, 121, 15), (4000, 125, 1), (4000, 128, 11), (4000, 129, 16),
    (4000, 130, 17), (4000, 133, 19), (4000, 134, 48), (4000, 136, 49), (4000, 138, 20), (4000, 141, 50),
    (4000, 146, 21), (4000, 148, 53), (4000, 149, 54), (4000, 150, 32), (4000, 151, 22), (4000, 153, 55),
    (4000, 154, 23), (4000, 155, 56), (4000, 156, 24), (4000, 157, 34), (4000, 158, 27), (4000, 160, 28),
    (5000, 131, 6), (5000, 132, 12), (5000, 135, 3), (5000, 137, 10), (5000, 144, 1), (5000, 147, 11),
    (5000, 152, 15), (5000, 161, 16), (5000, 162, 17), (5000, 164, 19), (5000, 165, 34), (5000, 166, 20),
    (5000, 167, 21), (5000, 168, 22), (5000, 169, 37), (5000, 171, 24), (5000, 172, 48), (5000, 173, 27),
    (5000, 175, 28), (5000, 177, 49), (5000, 178, 29), (5000, 180, 30), (5000, 181, 31), (5000, 183, 38),
    (5000, 184, 39), (5000, 189, 53), (5000, 192, 41), (6000, 176, 11), (6000, 179, 12), (6000, 182, 17),
    (6000, 185, 1), (6000, 186, 6), (6000, 187, 3), (6000, 188, 15), (6000, 190, 19), (6000, 191, 10),
    (7000, 139, 1), (7000, 140, 11), (7000, 143, 15), (7000, 159, 3), (7000, 163, 10), (7000, 170, 12),
    (8000, 73, 11), (8000, 120, 12), (8000, 145, 3), (8000, 174, 10), (9000, 83, 11), (9000, 142, 3),
    (10000, 111, 3), (11000, 69, 3), (12000, 95, 3), (13000, 100, 3), (14000, 110, 3), (15000, 112, 3),
];

/// The benchmark's daemon workloads run 32-job segments on four classes
/// of 16 nodes, uncapped and spread, each segment submitted at one
/// instant and then given a simulated second to drain. Here most jobs
/// last milliseconds, as there, and one in five runs for tens of
/// seconds, so later segments find busy nodes inside a partition, and
/// the first class, which gets over half the jobs, fills and queues.
/// Node 5 is drained before segment 1 and resumed in segment 3, segment
/// 2 submits a two-node job, and from segment 3 on some jobs ask for a
/// partition added then, which overlaps three classes.
#[test]
fn the_dispatch_sequence_of_a_daemon_shaped_run_is_pinned() {
    let mut sr650_hm = NodeClass::sr650();
    sr650_hm.name = "sr650-hm".to_string();
    sr650_hm.ram_gb = 512;
    let mut dense64_lp = NodeClass::dense64();
    dense64_lp.name = "dense64-lp".to_string();
    dense64_lp.power.platform_w = 84.0;
    let classes = [NodeClass::sr650(), NodeClass::dense64(), sr650_hm, dense64_lp];
    let mut cluster = Cluster::heterogeneous(&classes.clone().map(|class| (class, 16)));
    cluster.register_binary(
        "/bin/quick",
        Arc::new(SyntheticWorkload::new("quick", ScalingKind::ComputeBound, 0.001, 1.0)),
    );
    cluster.register_binary(
        "/bin/slow",
        Arc::new(SyntheticWorkload::new("slow", ScalingKind::ComputeBound, 1500.0, 1.0)),
    );
    let mut rng = StdRng::seed_from_u64(0x5e9_3e47);
    let mut ids: Vec<JobId> = Vec::with_capacity(SEGMENTS * SEGMENT);
    for segment in 0..SEGMENTS {
        match segment {
            1 => cluster.set_drained(5, true),
            3 => {
                cluster.set_drained(5, false);
                cluster.add_partition(Partition::over("mixed", (8..40).collect()));
            }
            _ => {}
        }
        for i in 0..SEGMENT {
            // the first class gets over half the jobs, so it fills up
            let class = &classes[if rng.gen_bool(0.4) { 0 } else { rng.gen_range(0..classes.len()) }];
            let binary = if rng.gen_bool(0.2) { "/bin/slow" } else { "/bin/quick" };
            let mut d = JobDescriptor::new(&format!("s{segment}j{i}"), "alice", binary);
            d.partition = Some(class.name.clone());
            d.num_tasks = rng.gen_range(4..=class.spec.cores);
            if segment >= 3 && rng.gen_bool(0.25) {
                // the mixed partition's first node is an sr650
                d.partition = Some("mixed".to_string());
                d.num_tasks = d.num_tasks.min(32);
            }
            if segment == 2 && i == 7 {
                d.num_nodes = 2;
            }
            ids.push(cluster.submit(d).expect("every generated job is satisfiable"));
        }
        cluster.advance(SimDuration::from_secs(1));
    }
    let mut ticks = 0;
    while !cluster.is_idle() {
        cluster.advance(SimDuration::from_secs(1));
        ticks += 1;
        assert!(ticks < 3600, "the run did not drain in a simulated hour");
    }

    let mut trace: Vec<(u64, u64, usize)> = ids
        .iter()
        .map(|&id| {
            let job = cluster.job(id).expect("submitted job is tracked");
            assert_eq!(job.state, JobState::Completed, "job {id}");
            (job.start_time.expect("a completed job started").as_millis(), id.0, job.node.expect("and ran on a node"))
        })
        .collect();
    trace.sort_unstable();
    if trace != SEGMENT_TRACE {
        let rows: Vec<String> =
            trace.chunks(6).map(|row| format!("    {row:?}").replace(['[', ']'], "") + ",").collect();
        panic!("the scheduler's decisions moved\nSEGMENT_TRACE = [\n{}\n];", rows.join("\n"));
    }
}
