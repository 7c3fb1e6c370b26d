//! Property-based tests for the Slurm simulator: scheduler safety and
//! liveness invariants under random job mixes, and script round-trips.

use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};
use eco_sim_node::clock::{SimDuration, SimTime};
use eco_sim_node::SimNode;
use eco_slurm_sim::script::{generate_hpcg_script, parse_script};
use eco_slurm_sim::{Cluster, CoSchedulePolicy, HoldReason, JobDescriptor, JobId, JobState, Partition, Qos};
use proptest::prelude::*;
use std::sync::Arc;

/// A random single- or multi-node job request.
#[derive(Debug, Clone)]
struct JobReq {
    tasks: u32,
    nodes: u32,
    tpc: u32,
    freq: Option<u64>,
    qos: Qos,
    gflop: f64,
    limit_s: Option<u64>,
}

fn arb_job(max_nodes: u32) -> impl Strategy<Value = JobReq> {
    (
        1u32..=32,
        1u32..=max_nodes,
        1u32..=2,
        prop::option::of(prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000])),
        prop::sample::select(vec![Qos::Low, Qos::Normal, Qos::High]),
        10.0f64..2000.0,
        prop::option::of(1u64..60),
    )
        .prop_map(|(tasks, nodes, tpc, freq, qos, gflop, limit_s)| JobReq {
            tasks,
            nodes,
            tpc,
            freq,
            qos,
            gflop,
            limit_s,
        })
}

fn build_cluster(nodes: usize) -> Cluster {
    let mut c = Cluster::new((0..nodes).map(|_| SimNode::sr650()).collect());
    c.register_binary("/bin/app", Arc::new(SyntheticWorkload::new("app", ScalingKind::ComputeBound, 1.0, 1.0)));
    c
}

/// What the EASY property knows about a job it submitted.
struct Submitted {
    id: JobId,
    nodes: usize,
    runtime: SimDuration,
    begin: Option<SimTime>,
}

/// Records what the job that has just taken the EASY reservation was
/// promised: the instant enough nodes are free for it, going by the end
/// times of the jobs running at its turn in the pass.
fn note_reservation(cluster: &Cluster, jobs: &[Submitted], promised: &mut Vec<(JobId, SimTime)>) {
    let holds = |j: &&Submitted| cluster.job(j.id).unwrap().reason == Some(HoldReason::Resources);
    let Some(holder) = jobs.iter().find(holds).filter(|h| promised.iter().all(|(id, _)| *id != h.id)) else { return };
    let mut busy_until: Vec<SimTime> = Vec::new();
    for j in jobs {
        let job = cluster.job(j.id).unwrap();
        // what the same pass backfilled behind the holder had not started at its turn
        let behind = j.id > holder.id && job.start_time == Some(cluster.now());
        if job.state == JobState::Running && !behind {
            busy_until.extend(std::iter::repeat_n(job.start_time.unwrap() + j.runtime, j.nodes));
        }
    }
    busy_until.sort_unstable();
    let free = cluster.node_count() - busy_until.len();
    let start = busy_until[holder.nodes - free - 1];
    // an older job still waiting for its `--begin` outranks the holder the
    // moment it wakes: the promise binds only if that is after `start`
    let outranked = |j: &Submitted| {
        j.id < holder.id
            && cluster.job(j.id).unwrap().state == JobState::Pending
            && j.begin.is_none_or(|b| b <= start)
    };
    if !jobs.iter().any(outranked) {
        promised.push((holder.id, start));
    }
}

/// One step of the interleaving in `idle_and_partition_sets_follow_every_change`.
#[derive(Debug, Clone)]
enum Op {
    /// `(nodes, tasks, binary, partition)`: the binary indexes the test's
    /// list, the partition the configured ones, modulo their count.
    Submit(u32, u32, usize, usize),
    /// The `n`th accepted job, modulo how many there are.
    Cancel(usize),
    /// Drain (`true`) or resume a node, modulo the node count.
    Drain(usize, bool),
    Advance(u64),
    /// Adds or replaces `p{k}` over `len` nodes from `start`, wrapping
    /// round the node count, so the ranges overlap `batch` and each other.
    AddPartition(usize, usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..9, 1u32..=3, 1u32..=32, 0usize..3, 0usize..8, 1usize..=8, any::<bool>()).prop_map(
        |(kind, width, tasks, k, pick, len, on)| match kind {
            0..=3 => Op::Submit(width, tasks, k, pick % 4),
            4 => Op::Cancel(pick),
            5 => Op::Drain(pick, on),
            6 | 7 => Op::Advance(width.into()),
            _ => Op::AddPartition(k, pick, len),
        },
    )
}

/// The jobs `sinfo` lists on each node, by node index.
fn residents(cluster: &Cluster) -> Vec<Vec<JobId>> {
    let ids = |field: &str| field.split('+').filter(|&id| id != "-").map(|id| JobId(id.parse().unwrap())).collect();
    cluster.sinfo().lines().skip(1).map(|line| ids(line.split_whitespace().last().unwrap())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Submissions (multi-node ones too), cancellations, drains and
    /// resumes, time and overlapping partitions added or replaced, in any
    /// order, with packing on and off. After every step, a job the step
    /// started sits on as many nodes as it asked for, every one of them in
    /// its partition and none drained, and without packing no node holds
    /// two jobs; at the end, with every node resumed, the cluster drains. In a
    /// debug build every pass also compares the cluster's idle set with a
    /// fresh count.
    #[test]
    fn idle_and_partition_sets_follow_every_change(
        nodes in 2usize..=6,
        pack in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut cluster = build_cluster(nodes);
        if pack {
            cluster.set_co_schedule(CoSchedulePolicy::Pack);
        }
        let binaries = ["/bin/app", "/bin/long", "/bin/stream"];
        cluster.register_binary(binaries[1], Arc::new(SyntheticWorkload::new("long", ScalingKind::ComputeBound, 400.0, 1.0)));
        cluster.register_binary(binaries[2], Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 100.0, 1.0)));
        let partitions = ["p0", "p1", "p2"];
        let mut ids: Vec<JobId> = Vec::new();
        for op in ops {
            // the jobs this step may start: those pending before it, and
            // any it submits
            let mut waiting: Vec<JobId> =
                ids.iter().copied().filter(|&id| cluster.job(id).unwrap().state == JobState::Pending).collect();
            let known = ids.len();
            match op {
                Op::Submit(width, tasks, binary, partition) => {
                    let mut d = JobDescriptor::new(&format!("j{}", ids.len()), "u", binaries[binary]);
                    d.num_nodes = width;
                    d.num_tasks = tasks;
                    let configured = cluster.partitions().all();
                    d.partition = Some(configured[partition % configured.len()].name.clone());
                    // a job wider than its partition is refused
                    if let Ok(id) = cluster.submit(d) {
                        ids.push(id);
                    }
                }
                Op::Cancel(n) if !ids.is_empty() => {
                    let _ = cluster.cancel(ids[n % ids.len()]);
                }
                Op::Cancel(_) => {}
                Op::Drain(node, on) => cluster.set_drained(node % nodes, on),
                Op::Advance(s) => cluster.advance(SimDuration::from_secs(s)),
                Op::AddPartition(k, start, len) => {
                    // a replacement may move the range but never shrink it
                    // below a job it has accepted
                    let accepted = cluster.partitions().resolve(Some(partitions[k])).map_or(0, |p| p.nodes.len());
                    let range = (0..len.min(nodes).max(accepted)).map(|i| (start + i) % nodes).collect();
                    cluster.add_partition(Partition::over(partitions[k], range));
                }
            }
            let on = residents(&cluster);
            for (node, jobs) in on.iter().enumerate() {
                prop_assert!(jobs.len() <= 1 || pack, "node {node} holds {jobs:?}");
            }
            waiting.extend(&ids[known..]);
            for id in waiting.into_iter().filter(|&id| cluster.job(id).unwrap().state == JobState::Running) {
                let job = cluster.job(id).unwrap();
                let partition = cluster.partitions().resolve(job.descriptor.partition.as_deref()).unwrap();
                let placed: Vec<usize> = (0..nodes).filter(|&n| on[n].contains(&id)).collect();
                prop_assert_eq!(placed.len(), job.descriptor.num_nodes as usize, "job {} on {:?}", id, placed);
                for n in placed {
                    prop_assert!(partition.contains(n) && !cluster.is_drained(n), "job {id} started on node {n}");
                }
            }
        }
        (0..nodes).for_each(|n| cluster.set_drained(n, false));
        prop_assert!(cluster.run_until_idle(SimDuration::from_secs(7200)), "{}", cluster.squeue());
        for &id in &ids {
            prop_assert!(cluster.job(id).unwrap().state.is_terminal(), "job {id}");
        }
        prop_assert_eq!(cluster.accounting().records().len(), ids.len());
    }

    /// EASY's promise: backfill never delays the job that holds the
    /// reservation. One user, one QOS, one job size, no cap, so priority
    /// order is submission order and nobody who arrives later outranks a
    /// holder; whenever a job takes the reservation, it starts no later
    /// than the instant it was promised.
    #[test]
    fn backfill_never_delays_the_reservation_holder(
        nodes in 2usize..=4,
        // (nodes wanted, runtime s, idle seconds before the next arrival,
        //  `--begin`: 0 = far beyond the run, 1 = in 15 s, otherwise none)
        mix in prop::collection::vec((1usize..=4, 1u64..=40, 0u64..4, 0u32..10), 3..10),
    ) {
        let mut cluster = build_cluster(nodes);
        let second = SimDuration::from_secs(1);
        let (mut jobs, mut promised): (Vec<Submitted>, Vec<(JobId, SimTime)>) = (Vec::new(), Vec::new());
        for (i, &(want, runtime_s, gap_s, begin)) in mix.iter().enumerate() {
            let width = want.min(nodes);
            // its own binary, sized to run `runtime_s` whatever the width:
            // 32 cores at 2.5 GHz sustain 80 GFLOP/s per node
            let binary = format!("/bin/j{i}");
            let gflop = 80.0 * runtime_s as f64 * width as f64;
            cluster.register_binary(&binary, Arc::new(SyntheticWorkload::new("j", ScalingKind::ComputeBound, gflop, 1.0)));
            let mut d = JobDescriptor::new(&format!("j{i}"), "u", &binary);
            d.num_tasks = 32;
            d.num_nodes = width as u32;
            d.begin_time = match begin {
                0 => Some(cluster.now() + SimDuration::from_secs(10_000)),
                1 => Some(cluster.now() + SimDuration::from_secs(15)),
                _ => None,
            };
            let begin = d.begin_time;
            let id = cluster.submit(d).unwrap();
            jobs.push(Submitted { id, nodes: width, runtime: SimDuration::from_secs(runtime_s), begin });
            note_reservation(&cluster, &jobs, &mut promised);
            for _ in 0..gap_s {
                cluster.advance(second);
                note_reservation(&cluster, &jobs, &mut promised);
            }
        }
        // everything not deferred beyond the run drains within the sum of
        // the runtimes (≤ 9 × 40 s) plus the near deferral
        for _ in 0..400 {
            cluster.advance(second);
            note_reservation(&cluster, &jobs, &mut promised);
        }
        for (id, start) in promised {
            let job = cluster.job(id).unwrap();
            prop_assert!(job.start_time.is_some_and(|s| s <= start),
                "job {id} took the reservation for t={start} and started at {:?}", job.start_time);
        }
    }

    /// Liveness + safety: every submitted job reaches a terminal state,
    /// every completion has an accounting record with consistent times,
    /// and no node ever runs two jobs at once (enforced structurally, but
    /// verified through sinfo counts).
    #[test]
    fn random_job_mixes_drain(jobs in prop::collection::vec(arb_job(3), 1..12), nodes in 1usize..4) {
        let mut cluster = build_cluster(nodes);
        let mut ids = Vec::new();
        for (i, j) in jobs.iter().enumerate() {
            let mut d = JobDescriptor::new(&format!("j{i}"), if i % 2 == 0 { "alice" } else { "bob" }, "/bin/app");
            d.num_tasks = j.tasks;
            d.num_nodes = j.nodes.min(nodes as u32);
            d.threads_per_cpu = j.tpc;
            d.max_frequency_khz = j.freq;
            d.qos = j.qos;
            d.time_limit = j.limit_s.map(SimDuration::from_secs);
            // rescale work so every job finishes within minutes
            let _ = j.gflop;
            ids.push(cluster.submit(d).unwrap());
        }
        // allocated nodes never exceed node count while draining
        for _ in 0..200 {
            if cluster.is_idle() {
                break;
            }
            cluster.advance(SimDuration::from_secs(5));
            let alloc = cluster.sinfo().matches("alloc").count();
            prop_assert!(alloc <= nodes, "{alloc} allocations on {nodes} nodes");
        }
        prop_assert!(cluster.run_until_idle(SimDuration::from_secs(3600)), "cluster failed to drain");
        for id in ids {
            let job = cluster.job(id).unwrap();
            prop_assert!(job.state.is_terminal(), "job {id} in {:?}", job.state);
            let rec = cluster.accounting().get(id).unwrap();
            prop_assert_eq!(rec.state, job.state);
            if let (Some(s), Some(e)) = (rec.start_time, rec.end_time) {
                prop_assert!(s <= e);
                prop_assert!(rec.submit_time <= s);
                prop_assert!(rec.system_energy_j >= 0.0);
                prop_assert!(rec.cpu_energy_j <= rec.system_energy_j);
            }
            // timeout only if a limit existed
            if rec.state == JobState::Timeout {
                prop_assert!(job.descriptor.time_limit.is_some());
            }
        }
        // exactly one record per job
        prop_assert_eq!(cluster.accounting().records().len(), jobs.len());
    }

    /// The Chronus-generated sbatch script round-trips every configuration.
    #[test]
    fn script_roundtrip(cores in 1u32..=32,
                        freq in prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]),
                        tpc in 1u32..=2) {
        let script = generate_hpcg_script(cores, freq, tpc, "/opt/hpcg/bin/xhpcg");
        let d = parse_script(&script, "user").unwrap();
        prop_assert_eq!(d.num_tasks, cores);
        prop_assert_eq!(d.min_frequency_khz, Some(freq));
        prop_assert_eq!(d.max_frequency_khz, Some(freq));
        prop_assert_eq!(d.threads_per_cpu, tpc);
        prop_assert_eq!(d.num_nodes, 1);
        prop_assert_eq!(d.binary_path.as_str(), "/opt/hpcg/bin/xhpcg");
    }

    /// Resolve + apply round-trip: applying a config to a descriptor makes
    /// it resolve to exactly that config.
    #[test]
    fn apply_resolve_roundtrip(cores in 1u32..=32,
                               freq in prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]),
                               tpc in 1u32..=2) {
        use eco_sim_node::cpu::{CpuConfig, CpuSpec};
        let config = CpuConfig::new(cores, freq, tpc);
        let mut d = JobDescriptor::new("j", "u", "/bin/app");
        d.apply_config(&config);
        prop_assert_eq!(d.resolve_config(&CpuSpec::epyc_7502p()), config);
    }

    /// Power-cap admission invariant: right after any scheduling decision,
    /// the estimated aggregate draw respects the cap (with slack for the
    /// fan-power drift that accrues after admission).
    #[test]
    fn power_cap_respected_at_admission(jobs in prop::collection::vec(arb_job(1), 1..10),
                                        nodes in 1usize..4,
                                        headroom_w in 100.0f64..700.0) {
        let mut cluster = build_cluster(nodes);
        // idle nodes draw power regardless; the cap constrains admissions
        // above that floor, so express it as idle + head-room (a cap below
        // idle would rightly starve everything)
        let idle_floor = cluster.estimated_power_w();
        let cap_w = idle_floor + headroom_w;
        cluster.set_power_cap(Some(cap_w));
        let limit = cap_w + 30.0; // slack for fan drift after admission
        for (i, j) in jobs.iter().enumerate() {
            let mut d = JobDescriptor::new(&format!("j{i}"), "u", "/bin/app");
            d.num_tasks = j.tasks;
            d.threads_per_cpu = j.tpc;
            d.max_frequency_khz = j.freq;
            let _ = cluster.submit(d);
            prop_assert!(cluster.estimated_power_w() <= limit,
                "estimate {} over limit {limit}", cluster.estimated_power_w());
        }
        // the head-room admits at least one job at a time, so the cap
        // delays but never deadlocks and the cluster drains
        prop_assert!(cluster.run_until_idle(SimDuration::from_secs(7200)));
    }

    /// Facility-cap conservation on heterogeneous clusters: for any class
    /// mix, cap tightness and job mix, the *instantaneous* (telemetry)
    /// cluster draw never exceeds the cap at any simulation tick, as long
    /// as admission holds back the classes' published fan-drift headroom —
    /// and the starvation guard still drains every job to a terminal
    /// state. Packing is enabled so the invariant also covers shared-node
    /// marginal-power accounting.
    #[test]
    fn instantaneous_power_never_crosses_the_cap(
        sr_count in 1usize..=2,
        dense_count in 1usize..=2,
        cap_fraction in 0.5f64..=0.9,
        jobs in prop::collection::vec(
            // (class pick, tasks, DVFS step, memory-bound?)
            (0usize..2, 1u32..=64, 0usize..3, any::<bool>()), 1..10),
    ) {
        use eco_sim_node::class::NodeClass;
        use eco_slurm_sim::CoSchedulePolicy;

        let classes = vec![(NodeClass::sr650(), sr_count), (NodeClass::dense64(), dense_count)];
        let mut idle_w = 0.0;
        let mut max_w = 0.0;
        let mut headroom_w = 0.0;
        for (class, count) in &classes {
            idle_w += class.idle_system_w() * *count as f64;
            max_w += class.max_system_w() * *count as f64;
            headroom_w += class.max_fan_w() * *count as f64;
        }
        let cap_w = idle_w + headroom_w + cap_fraction * (max_w - idle_w);

        let mut cluster = Cluster::heterogeneous(&classes);
        cluster.register_binary("/bin/dgemm",
            Arc::new(SyntheticWorkload::new("dgemm", ScalingKind::ComputeBound, 400.0, 1.0)));
        cluster.register_binary("/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 60.0, 1.0)));
        cluster.set_power_cap(Some(cap_w));
        cluster.set_power_headroom(headroom_w);
        cluster.set_co_schedule(CoSchedulePolicy::Pack);
        cluster.set_starvation_guard(Some(SimDuration::from_secs(600)));

        let mut ids = Vec::new();
        for (i, &(class_idx, tasks, step, memory_bound)) in jobs.iter().enumerate() {
            let (class, _) = &classes[class_idx];
            let mut d = JobDescriptor::new(
                &format!("j{i}"), "u", if memory_bound { "/bin/stream" } else { "/bin/dgemm" });
            d.partition = Some(class.name.clone());
            d.num_tasks = tasks.min(class.spec.cores);
            d.max_frequency_khz = Some(class.spec.frequencies_khz[step % class.spec.frequencies_khz.len()]);
            ids.push(cluster.submit(d).unwrap());
            prop_assert!(cluster.instantaneous_power_w() <= cap_w,
                "draw {} over cap {cap_w} right after submit #{i}", cluster.instantaneous_power_w());
        }
        for _ in 0..1800 {
            if cluster.is_idle() {
                break;
            }
            cluster.advance(SimDuration::from_secs(2));
            prop_assert!(cluster.instantaneous_power_w() <= cap_w,
                "draw {} over cap {cap_w} at t={}", cluster.instantaneous_power_w(), cluster.now());
        }
        prop_assert!(cluster.is_idle(), "capped heterogeneous cluster failed to drain");
        // every dispatched job ran inside its own partition's node range
        for (&id, &(class_idx, ..)) in ids.iter().zip(jobs.iter()) {
            let job = cluster.job(id).unwrap();
            prop_assert!(job.state.is_terminal(), "job {id} in {:?}", job.state);
            if let Some(node) = job.node {
                let partition = cluster.partitions().resolve(Some(&classes[class_idx].0.name)).unwrap();
                prop_assert!(partition.contains(node),
                    "job {id} of class '{}' ran on node {node} outside its partition", classes[class_idx].0.name);
            }
        }
    }

    /// Cancelling a random subset still leaves the cluster consistent.
    #[test]
    fn cancel_subset_consistent(n in 2usize..8, cancel_mask in 0u32..256) {
        let mut cluster = build_cluster(1);
        let mut ids = Vec::new();
        for i in 0..n {
            let mut d = JobDescriptor::new(&format!("j{i}"), "u", "/bin/app");
            d.num_tasks = 32;
            ids.push(cluster.submit(d).unwrap());
        }
        for (i, &id) in ids.iter().enumerate() {
            if cancel_mask & (1 << i) != 0 {
                // job may already have completed; both outcomes are legal
                let _ = cluster.cancel(id);
            }
        }
        prop_assert!(cluster.run_until_idle(SimDuration::from_secs(3600)));
        for &id in &ids {
            prop_assert!(cluster.job(id).unwrap().state.is_terminal());
        }
        prop_assert_eq!(cluster.accounting().records().len(), n);
    }
}
