//! Behaviour oracle for the scheduler pass (`eco_slurm_sim`'s
//! `Cluster::schedule`): one seeded job mix on a capped two-class
//! cluster — the repo benchmark's `sched-deep` shape at a size Tier-1
//! can afford — whose every dispatch decision is pinned to a literal.
//!
//! A change that restructures the pass without changing what it decides
//! reproduces `TRACE`, `ENERGY_J` and `COUNTERS` exactly; a change that
//! means to move a decision edits the literal in the same diff and says
//! which job moved and why. `TRACE` and `ENERGY_J` were taken at commit
//! `1be3c84`, before the pass was split into `admit`/`place`; `COUNTERS`
//! says on its own when and why it was last re-pinned.

use std::sync::Arc;

use chronus::telemetry::Telemetry;
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};
use eco_sim_node::class::NodeClass;
use eco_sim_node::clock::SimDuration;
use eco_slurm_sim::{Cluster, CoSchedulePolicy, JobDescriptor, JobId, JobState, Qos};
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
