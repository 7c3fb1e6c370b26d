//! The scheduler pass: pending jobs in priority order, one admission
//! decision each (DESIGN.md §13).
//!
//! [`Cluster::schedule`] walks the queue and acts on what
//! [`Cluster::admit`] — the only function that knows the policy stages
//! and their order — answers: `Start`, `Pack`, or `Hold` with a typed
//! [`HoldReason`]; [`Cluster::place`] is the only way a job starts
//! running. Priorities are read once per job, before the sort. Under a
//! power cap the pass prices each node once, re-prices only the nodes a
//! placement takes, and holds their in-node-order sum — the float
//! `estimated_power_w()` returns — for every budget comparison; an
//! uncapped pass prices nothing.
//!
//! What the cluster holds across passes is membership, never a price: the
//! idle, undrained nodes and each partition's members as [`NodeSet`]s,
//! kept by the only functions that change them, so a job's free nodes
//! are one intersection and no pass visits every node to find them.
//!
//! Two traps, both measured. Prices are good for one pass and no longer:
//! they read each node's *current* package temperature, which
//! `step_nodes` moves, so none is kept on the `Cluster`. And
//! `Cluster::advance` skips its trailing pass only after a pass that
//! placed nothing, with nothing run since: after a placement, a job held
//! before it may pack onto the host it made busy. Still re-derived: the
//! `pack_host` scan of the partition per candidate, the power-blocked
//! classes, and a pass on every `sbatch`.

use crate::cluster::{Cluster, CoSchedulePolicy, RunningJob};
use crate::job::{Job, JobId, JobState};
use crate::partition::Partition;
use crate::priority::multifactor_priority;
use eco_sim_node::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Why a pending job is still pending, in Slurm's own vocabulary — what
/// `squeue` prints in its `NODELIST(REASON)` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HoldReason {
    /// The job's `--begin` time has not been reached.
    BeginTime,
    /// Not enough free nodes in the job's partition: the job holds the
    /// pass's EASY reservation, whose start no backfill may delay.
    Resources,
    /// Held behind a higher-priority job: it does not fit beside the
    /// reservation, or the pass ended before reaching it.
    Priority,
    /// The nodes are free, but starting the job would push the estimated
    /// facility draw over the power budget.
    PowerCap,
}

/// What [`Cluster::admit`] decides for one job.
enum Admission {
    /// Start on these idle nodes, exclusively.
    Start(Vec<usize>),
    /// Share this already-busy host with its complementary residents.
    Pack(usize),
    /// Stay pending; `true` ends the pass, so no later job may start.
    Hold(HoldReason, bool),
}

/// The EASY reservation of a pass, taken by the first node-blocked job.
struct Reservation {
    /// When the holder's nodes are expected to be free.
    start: SimTime,
    /// How many nodes the holder needs.
    need: usize,
}

/// A set of node indices, one bit each: the cluster's idle nodes and
/// each partition's members, which `admit` intersects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeSet(Vec<u64>);

impl NodeSet {
    /// The set of `nodes`, each below `node_count`.
    pub(crate) fn of(nodes: impl IntoIterator<Item = usize>, node_count: usize) -> Self {
        let mut set = NodeSet(vec![0; node_count.div_ceil(64)]);
        nodes.into_iter().for_each(|n| set.set(n, true));
        set
    }

    pub(crate) fn set(&mut self, node: usize, member: bool) {
        let (word, bit) = (&mut self.0[node / 64], 1 << (node % 64));
        *word = if member { *word | bit } else { *word & !bit };
    }

    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// How many nodes are in both sets.
    fn count_and(&self, other: &NodeSet) -> usize {
        self.0.iter().zip(&other.0).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// The nodes in the set, in ascending index order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.and(self)
    }

    /// The nodes in both sets, in ascending index order.
    fn and<'a>(&'a self, other: &'a NodeSet) -> impl Iterator<Item = usize> + 'a {
        self.0.iter().zip(&other.0).enumerate().flat_map(|(i, (a, b))| {
            let mut word = a & b;
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
                word &= word - 1;
                Some(i * 64 + bit)
            })
        })
    }
}

/// What one pass knows besides the cluster itself. Its free nodes are
/// the cluster's `idle` set: `place`, the only thing in a pass that
/// changes it, takes the nodes it starts a job on out of it.
struct Pass {
    reservation: Option<Reservation>,
    /// `planned_power_w(i, None)` of each node `i`, re-priced where this
    /// pass places, the only thing that moves it; empty when uncapped.
    node_w: Vec<f64>,
    /// `node_w` summed in node order: `estimated_power_w()`, held. `None`
    /// on an uncapped cluster, which compares nothing against it.
    estimate_w: Option<f64>,
    /// Jobs this pass leaves pending, by `HoldReason as usize`.
    held: [u32; 4],
}

/// Jobs whose arithmetic intensities fall on opposite sides of this
/// FLOP/byte ridge are considered roofline-complementary for packing.
const PACK_AI_RIDGE: f64 = 1.0;

impl Cluster {
    /// One scheduling pass: priority-ordered dispatch with EASY backfill.
    /// Returns whether it placed a job.
    pub(crate) fn schedule(&mut self) -> bool {
        let n = self.daemons.len();
        // compared member by member: the check allocates nothing, so a
        // debug build's allocation count is a release build's
        debug_assert!(self.idle.iter().eq((0..n).filter(|&i| self.daemons[i].is_free())), "the idle set went stale");
        // multifactor priority (desc), submit order as tie-break
        let priority = |job: &Job| {
            multifactor_priority(job, self.now(), self.total_cores, &self.weights, &self.fairshare)
                + self.partition_of(job).priority_bonus
        };
        let mut order: Vec<(f64, JobId)> = self.pending.iter().map(|&id| (priority(&self.jobs[&id]), id)).collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("priorities are finite").then(a.1.cmp(&b.1)));

        let priced = if self.power_cap_w.is_some() { n } else { 0 };
        let node_w: Vec<f64> = (0..priced).map(|i| self.planned_power_w(i, None)).collect();
        let mut pass = Pass {
            reservation: None,
            estimate_w: self.power_cap_w.map(|_| node_w.iter().sum()),
            node_w,
            held: [0; 4],
        };
        let queued = self.pending.len();
        let mut queue = order.into_iter().map(|(_, id)| id);
        for id in queue.by_ref() {
            let admission = self.admit(id, &mut pass);
            self.count(&admission, &pass);
            let nodes = match admission {
                Admission::Start(nodes) => nodes,
                Admission::Pack(host) => vec![host],
                Admission::Hold(reason, ends_pass) => {
                    pass.held[reason as usize] += 1;
                    self.jobs.get_mut(&id).expect("pending job is tracked").reason = Some(reason);
                    if ends_pass {
                        break;
                    }
                    continue;
                }
            };
            self.place(id, &nodes);
            // the same in-order sum, so the float every later
            // comparison reads is the one a fresh call would return
            pass.estimate_w = pass.estimate_w.map(|_| {
                nodes.iter().for_each(|&i| pass.node_w[i] = self.planned_power_w(i, None));
                pass.node_w.iter().sum()
            });
        }
        // jobs the pass ended before reaching wait behind the one that ended it
        for id in queue {
            pass.held[HoldReason::Priority as usize] += 1;
            self.jobs.get_mut(&id).expect("pending job is tracked").reason = Some(HoldReason::Priority);
        }
        if let Some(tel) = &self.tel {
            for (counter, n) in tel.sched_hold.iter().zip(pass.held).filter(|&(_, n)| n > 0) {
                counter.add(n.into());
            }
        }
        self.pending.retain(|id| self.jobs[id].state == JobState::Pending);
        debug_assert_eq!(pass.held.iter().sum::<u32>() as usize, self.pending.len(), "one reason per pending job");
        self.pending.len() < queued
    }

    /// The admission decision for one job, stage by stage: begin time →
    /// partition eligibility → co-schedule (Zheng et al.'s roofline ridge
    /// rule) → EASY backfill window → facility power cap (Kiselev et al.)
    /// → starvation guard. Its one effect on the pass is that the first
    /// node-blocked job takes the reservation. A power-blocked job is
    /// passed over *without* one — a cheaper job may still start
    /// (work-conserving power cap; the starvation trade-off is the
    /// operator's, as in value-oriented power-constrained scheduling) —
    /// until it has aged past the starvation guard, when nothing younger
    /// may jump it and the queue drains to fit it.
    fn admit(&self, id: JobId, pass: &mut Pass) -> Admission {
        let (job, now) = (&self.jobs[&id], self.now());
        if job.descriptor.begin_time.is_some_and(|b| b > now) {
            return Admission::Hold(HoldReason::BeginTime, false);
        }
        let partition = self.partition_of(job);
        let need = job.descriptor.num_nodes as usize;
        // a packed job consumes no free node, so it can never delay the
        // reservation and is tried before the window
        if need == 1 && self.co_schedule == CoSchedulePolicy::Pack {
            if let Some(host) = self.pack_host(job, pass) {
                return Admission::Pack(host);
            }
        }
        // only free nodes of the job's partition are eligible
        let members = &self.members[job.partition];
        let eligible = self.idle.count_and(members);
        let reason = if eligible < need || !self.fits_window(job, need, pass) {
            if pass.reservation.is_none() {
                pass.reservation = Some(Reservation { start: self.earliest_start(partition, need - eligible), need });
                // strict FIFO: nothing may jump the blocked head
                return Admission::Hold(HoldReason::Resources, !self.backfill_enabled);
            }
            HoldReason::Priority
        } else {
            let nodes: Vec<usize> = self.idle.and(members).take(need).collect();
            if self.within_budget(job, &nodes, pass) {
                return Admission::Start(nodes);
            }
            HoldReason::PowerCap
        };
        Admission::Hold(reason, self.starvation_guard.is_some_and(|g| now - job.submit_time >= g))
    }

    /// Bumps the `slurm.sched_*` counters of one admission decision.
    fn count(&self, admission: &Admission, pass: &Pass) {
        use {Admission::*, HoldReason::*};
        let Some(tel) = &self.tel else { return };
        match admission {
            Start(_) | Pack(_) => tel.sched_dispatched.bump(),
            Hold(PowerCap, _) => tel.sched_power_blocked.bump(),
            Hold(Resources, _) => tel.sched_head_blocked.bump(),
            Hold(..) => {}
        }
        match admission {
            Pack(_) => tel.sched_packed.bump(),
            Start(_) if pass.reservation.is_some() => tel.sched_backfilled.bump(),
            // only the starvation guard ends a pass on a job that does
            // not hold the reservation
            Hold(PowerCap | Priority, true) => tel.sched_starvation_stall.bump(),
            _ => {}
        }
    }

    /// Power-cap admission: starting the job on these nodes must not push
    /// the cluster's estimated aggregate draw over the budget. Each node
    /// is charged what it would *additionally* draw — its planned power
    /// with the new job minus without (busy-minus-idle on an empty node)
    /// — with the configuration resolved against *that node's* spec, so
    /// mixed-class partitions are charged correctly. The aggregate and the
    /// "without" are the pass's held prices, not re-evaluated per call.
    fn within_budget(&self, job: &Job, nodes: &[usize], pass: &Pass) -> bool {
        let (Some(cap), Some(estimate_w)) = (self.power_cap_w, pass.estimate_w) else { return true };
        debug_assert_eq!(estimate_w.to_bits(), self.estimated_power_w().to_bits(), "the held estimate went stale");
        let fresh = |i: usize| self.planned_power_w(i, None).to_bits();
        debug_assert!(nodes.iter().all(|&i| pass.node_w[i].to_bits() == fresh(i)), "a held node price went stale");
        // the budget is the cap minus the configured drift headroom
        let budget = cap - self.power_headroom_w;
        let marginal: f64 = nodes
            .iter()
            .map(|&i| {
                let joining = job.descriptor.resolve_config(self.daemons[i].node.spec());
                self.planned_power_w(i, Some(joining)) - pass.node_w[i]
            })
            .sum();
        estimate_w + marginal <= budget
    }

    /// Finds a host node for packing `job` next to running jobs: the node
    /// must be in the job's partition, not drained, already busy, have
    /// enough uncommitted cores, hold only roofline-complementary
    /// residents (opposite side of the arithmetic-intensity ridge), and
    /// the packed marginal power must fit the budget. Returns the first
    /// such node.
    fn pack_host(&self, job: &Job, pass: &Pass) -> Option<usize> {
        let memory_bound = |ai: f64| ai < PACK_AI_RIDGE;
        let mine = memory_bound(self.registry[&job.descriptor.binary_path].arithmetic_intensity());
        self.members[job.partition].iter().find(|&idx| {
            let d = &self.daemons[idx];
            if d.drained || d.running.is_empty() {
                return false;
            }
            let config = job.descriptor.resolve_config(d.node.spec());
            d.busy_cores() + config.cores <= d.node.spec().cores
                && d.running.iter().all(|r| memory_bound(r.workload.arithmetic_intensity()) != mine)
                && self.within_budget(job, &[idx], pass)
        })
    }

    /// EASY backfill admission: a job may start now if no job holds the
    /// reservation, or if enough nodes remain free for the holder
    /// anyway, or if it finishes before the holder's reserved start.
    fn fits_window(&self, job: &Job, need: usize, pass: &Pass) -> bool {
        let Some(reservation) = &pass.reservation else { return true };
        self.idle.len() >= need + reservation.need || self.now() + self.expected_duration(job) <= reservation.start
    }

    /// Earliest instant at which `still_needed` (≥ 1) more nodes of the
    /// partition will be free, assuming running jobs vacate at their
    /// known end times.
    fn earliest_start(&self, partition: &Partition, still_needed: usize) -> SimTime {
        let mut ends: Vec<SimTime> = partition.nodes.iter().filter_map(|&i| self.daemons[i].vacate_at()).collect();
        ends.sort_unstable();
        ends.get(still_needed - 1).copied().unwrap_or_else(|| self.now() + SimDuration::from_mins(60))
    }

    fn expected_duration(&self, job: &Job) -> SimDuration {
        let workload = &self.registry[&job.descriptor.binary_path];
        // resolve against the job's own partition's hardware, not node 0 —
        // on a heterogeneous cluster those differ
        let node = self.partition_of(job).nodes[0];
        let config = job.descriptor.resolve_config(self.daemons[node].node.spec());
        let derate = self.thermal_derate(node, config.frequency_khz);
        let natural = SimDuration::from_secs_f64(workload.duration(&config).as_secs_f64() / derate);
        job.descriptor.time_limit.map_or(natural, |limit| limit.min(natural))
    }

    /// Starts a job: exclusively on the idle `nodes` of a `Start`, or
    /// stacked onto the one busy host of a `Pack`, whose electrical load
    /// becomes the combined configuration of all residents. The only
    /// place a [`RunningJob`] is made.
    fn place(&mut self, id: JobId, nodes: &[usize]) {
        let now = self.now();
        let job = &self.jobs[&id];
        let workload = self.registry[&job.descriptor.binary_path].clone();
        let config = job.descriptor.resolve_config(self.daemons[nodes[0]].node.spec());
        // multi-node jobs split the work evenly across their nodes;
        // the most aged allocated node gates the whole job
        let per_node_gflop = workload.total_gflop() / nodes.len() as f64;
        let derate = nodes.iter().map(|&i| self.thermal_derate(i, config.frequency_khz)).fold(1.0f64, f64::min);
        let duration = SimDuration::from_secs_f64(per_node_gflop / (workload.gflops(&config) * derate));
        let kill_at = job.descriptor.time_limit.map(|l| now + l);

        for &idx in nodes {
            self.idle.set(idx, false);
            self.daemons[idx].busy_s += duration.as_secs_f64();
            self.daemons[idx].running.push(RunningJob {
                id,
                config,
                workload: workload.clone(),
                start: now,
                end: now + duration,
                kill_at,
                system_j: 0.0,
                cpu_j: 0.0,
            });
            let load = self.planned_load(idx, None);
            self.daemons[idx].node.set_load(load);
        }

        let job = self.jobs.get_mut(&id).expect("job is tracked");
        job.state = JobState::Running;
        job.start_time = Some(now);
        job.node = Some(nodes[0]);
        job.reason = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{cluster, desc, quick_workload};
    use crate::job::JobDescriptor;
    use eco_hpcg::workload::{ScalingKind, SyntheticWorkload, Workload};
    use eco_sim_node::thermal::ThermalAging;
    use eco_sim_node::SimNode;
    use eco_telemetry::Telemetry;
    use std::sync::Arc;

    #[test]
    fn backfill_lets_short_job_jump_blocked_multinode_head() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        // long job on node 0 (10 s)
        let long = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(long).unwrap().state, JobState::Running);
        // head job needs 2 nodes -> blocked until long finishes (t=10)
        let mut head = desc(32);
        head.num_nodes = 2;
        let head = c.submit(head).unwrap();
        assert_eq!(c.job(head).unwrap().state, JobState::Pending);
        assert!(c.squeue().contains("(Resources)"), "the node-blocked head holds the reservation: {}", c.squeue());
        // short job (80 GFLOP -> 1 s) fits before the head's reservation
        let mut c2 = c; // rename for clarity
        c2.register_binary("/bin/short", quick_workload(80.0));
        let mut s = JobDescriptor::new("s", "bob", "/bin/short");
        s.num_tasks = 32;
        let short = c2.submit(s).unwrap();
        assert_eq!(c2.job(short).unwrap().state, JobState::Running, "backfilled onto the free node");
        c2.advance(SimDuration::from_secs(2));
        assert_eq!(c2.job(short).unwrap().state, JobState::Completed);
        assert_eq!(c2.job(head).unwrap().state, JobState::Pending);
        c2.advance(SimDuration::from_secs(10));
        assert_eq!(c2.job(head).unwrap().state, JobState::Running);
    }

    /// EASY's promise: backfill never delays the job that holds the
    /// reservation. The spare-node test must count the *holder's* nodes,
    /// not those of whatever job happens to be oldest in the queue.
    #[test]
    fn backfill_never_delays_the_reservation_holder() {
        let mut c = Cluster::new((0..4).map(|_| SimNode::sr650()).collect());
        c.register_binary("/bin/app", quick_workload(800.0));
        c.register_binary("/bin/long", quick_workload(8000.0));
        // one node busy until t=10; same user throughout, so fair-share
        // cannot reorder the queue
        let _running = c.submit(desc(32)).unwrap();
        // the oldest pending job is a deferred single-node one ...
        let mut deferred = desc(32);
        deferred.begin_time = Some(SimTime::from_secs(10_000));
        c.submit(deferred).unwrap();
        // ... ahead of the 4-node head that takes the reservation for t=10
        let mut head = desc(32);
        head.num_nodes = 4;
        let head = c.submit(head).unwrap();
        // a 100 s single-node job would hold a node far past t=10
        let mut long = JobDescriptor::new("long", "alice", "/bin/long");
        long.num_tasks = 32;
        let long = c.submit(long).unwrap();
        assert_eq!(c.job(long).unwrap().state, JobState::Pending, "three free nodes are not four to spare");
        c.advance(SimDuration::from_secs(12));
        assert_eq!(c.job(head).unwrap().state, JobState::Running, "the head starts when its reservation says");
        assert_eq!(c.job(head).unwrap().start_time, Some(SimTime::from_secs(10)));
    }

    #[test]
    fn no_backfill_means_strict_fifo() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.set_backfill(false);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.register_binary("/bin/short", quick_workload(80.0));
        let _long = c.submit(desc(32)).unwrap();
        let mut head = desc(32);
        head.num_nodes = 2;
        let head = c.submit(head).unwrap();
        let mut s = JobDescriptor::new("s", "bob", "/bin/short");
        s.num_tasks = 32;
        let short = c.submit(s).unwrap();
        assert_eq!(c.job(head).unwrap().state, JobState::Pending);
        assert_eq!(c.job(short).unwrap().state, JobState::Pending, "strict FIFO blocks the short job too");
    }

    #[test]
    fn begin_time_defers_start() {
        let mut c = cluster();
        let mut d = desc(32);
        d.begin_time = Some(SimTime::from_secs(100));
        let id = c.submit(d).unwrap();
        assert_eq!(c.job(id).unwrap().state, JobState::Pending);
        assert!(c.squeue().contains("(BeginTime)"), "{}", c.squeue());
        c.advance(SimDuration::from_secs(50));
        assert_eq!(c.job(id).unwrap().state, JobState::Pending);
        c.advance(SimDuration::from_secs(55)); // t=105: started at t=100, runs 10 s
        assert_eq!(c.job(id).unwrap().state, JobState::Running);
        assert_eq!(c.job(id).unwrap().start_time, Some(SimTime::from_secs(100)));
    }

    #[test]
    fn power_cap_serialises_jobs() {
        // two nodes, cap that fits one busy node (~217 W) plus one idle
        // (~135 W) but not two busy nodes
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.set_power_cap(Some(400.0));
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "cap blocks the second job");
        assert!(c.squeue().contains("(PowerCap)"), "{}", c.squeue());
        assert!(c.estimated_power_w() < 400.0);
        // when the first finishes, the second proceeds
        c.advance(SimDuration::from_secs(11));
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        assert!(c.run_until_idle(SimDuration::from_mins(5)));
    }

    /// The estimate a pass holds must follow its own placements: the
    /// second job fits beside two *idle* nodes and not beside the busy
    /// one the first job just made.
    #[test]
    fn a_placement_mid_pass_tightens_the_budget_for_the_next_candidate() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        // a cap nothing fits under leaves both jobs pending ...
        c.set_power_cap(Some(1.0));
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        let idle_w = c.estimated_power_w();
        // ... so that one pass, under a cap for one busy node beside one
        // idle, meets both
        c.set_power_cap(Some(400.0));
        c.advance(SimDuration(1));
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        let marginal_w = c.estimated_power_w() - idle_w;
        assert!(idle_w + marginal_w <= 400.0, "b fits under the estimate the pass began with");
        assert!(c.estimated_power_w() + marginal_w > 400.0, "and not under the one a's placement left");
        assert_eq!(c.job(b).unwrap().reason, Some(HoldReason::PowerCap), "{}", c.squeue());
    }

    fn holds(telemetry: &Telemetry) -> u64 {
        ["begin_time", "resources", "priority", "power_cap"]
            .map(|reason| telemetry.counter(&format!("slurm.sched_hold.{reason}")).get())
            .iter()
            .sum()
    }

    /// A tick whose pass places nothing ends there: the trailing pass
    /// would see the same cluster and decide the same.
    #[test]
    fn a_tick_that_places_nothing_runs_one_pass() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        let telemetry = Arc::new(Telemetry::wall());
        c.set_telemetry(Arc::clone(&telemetry));
        c.register_binary("/bin/app", quick_workload(800.0));
        // a cap nothing fits under: the queue cannot move
        c.set_power_cap(Some(1.0));
        let jobs = [c.submit(desc(32)).unwrap(), c.submit(desc(16)).unwrap()];
        let before = holds(&telemetry);
        c.advance(SimDuration::from_secs(1));
        assert!(jobs.iter().all(|&id| c.job(id).unwrap().reason == Some(HoldReason::PowerCap)), "{}", c.squeue());
        assert_eq!(holds(&telemetry) - before, jobs.len() as u64, "one pass held each pending job once");
    }

    /// The trailing pass after a placement is not redundant: the in-loop
    /// pass holds a memory-bound job outside the EASY window, then starts
    /// a compute-bound one, and only the pass after that packs the first
    /// onto the host the second just made busy.
    #[test]
    fn the_pass_after_a_placement_packs_a_job_held_before_it() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.set_co_schedule(CoSchedulePolicy::Pack);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.register_binary("/bin/long", quick_workload(8000.0));
        c.register_binary("/bin/short", quick_workload(80.0));
        c.register_binary(
            "/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 1000.0, 1.0)),
        );
        // node 0's whole package, until t=100: nothing packs beside it
        let mut long = JobDescriptor::new("long", "alice", "/bin/long");
        long.num_tasks = 32;
        let _long = c.submit(long).unwrap();
        // a two-node head reserves both nodes for t=100
        let mut head = desc(32);
        head.num_nodes = 2;
        let head = c.submit(head).unwrap();
        // wider, so ahead of the short job: ends after t=100, no window
        let mut stream = JobDescriptor::new("stream", "alice", "/bin/stream");
        stream.num_tasks = 16;
        let stream = c.submit(stream).unwrap();
        // ends by t=5, so it backfills node 1 once its begin time comes
        let mut short = JobDescriptor::new("short", "alice", "/bin/short");
        short.num_tasks = 8;
        short.begin_time = Some(SimTime::from_secs(1));
        let short = c.submit(short).unwrap();
        let reasons = [head, stream, short].map(|id| c.job(id).unwrap().reason);
        assert_eq!(reasons, [Some(HoldReason::Resources), Some(HoldReason::Priority), Some(HoldReason::BeginTime)]);
        c.advance(SimDuration::from_secs(1));
        for id in [short, stream] {
            let job = c.job(id).unwrap();
            assert_eq!(
                (job.state, job.node, job.start_time),
                (JobState::Running, Some(1), Some(SimTime::from_secs(1)))
            );
        }
        assert_eq!(c.job(head).unwrap().reason, Some(HoldReason::Resources), "{}", c.squeue());
    }

    #[test]
    fn generous_power_cap_allows_parallelism() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        c.set_power_cap(Some(1000.0));
        let a = c.submit(desc(32)).unwrap();
        let b = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
    }

    #[test]
    fn power_cap_respects_config_differences() {
        // a cap that admits a 2.2 GHz job but not a 2.5 GHz one on the
        // second node
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        let first = c.submit(desc(32)).unwrap(); // 2.5 GHz default, ~217 W
        assert_eq!(c.job(first).unwrap().state, JobState::Running);
        // idle second node ~135 W; cap at current + 60 W: 2.5 GHz marginal
        // (~80 W over idle CPU) blocked, 2.2 GHz marginal (~57 W) admitted
        let cap = c.estimated_power_w() + 60.0;
        c.set_power_cap(Some(cap));
        let mut hot = desc(32);
        hot.max_frequency_khz = Some(2_500_000);
        let hot = c.submit(hot).unwrap();
        assert_eq!(c.job(hot).unwrap().state, JobState::Pending, "2.5 GHz over cap");
        let mut cool = desc(32);
        cool.max_frequency_khz = Some(2_200_000);
        let cool = c.submit(cool).unwrap();
        assert_eq!(c.job(cool).unwrap().state, JobState::Running, "2.2 GHz under cap");
    }

    #[test]
    fn pack_stacks_complementary_jobs_on_one_node() {
        let mut c = cluster(); // single node, 32 cores
        c.set_co_schedule(CoSchedulePolicy::Pack);
        c.register_binary(
            "/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 50.0, 1.0)),
        );
        // compute-bound job on 16 cores leaves half the package free
        let a = c.submit(desc(16)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        // memory-bound 8-core job packs next to it instead of queueing
        let mut s = JobDescriptor::new("s", "bob", "/bin/stream");
        s.num_tasks = 8;
        let b = c.submit(s).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Running, "complementary job packs");
        assert_eq!(c.job(b).unwrap().node, Some(0));
        assert!(c.sinfo().contains('+'), "shared node lists both ids: {}", c.sinfo());
        assert!(c.run_until_idle(SimDuration::from_mins(30)));
        // both jobs get energy attributed
        for id in [a, b] {
            assert!(c.accounting().get(id).unwrap().system_energy_j > 0.0);
        }
    }

    /// Aging and packing meet in `place`: a packed job's runtime is its
    /// whole work over the host's *derated* rate, rounded once.
    #[test]
    fn a_job_packed_onto_an_aged_host_runs_at_the_derated_rate() {
        let mut c = cluster();
        c.set_co_schedule(CoSchedulePolicy::Pack);
        c.set_thermal_aging(Some(ThermalAging { rate_per_hour: 0.1, floor: 0.5 }));
        c.age_nodes(3.0);
        let stream: Arc<dyn Workload> =
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 50.0, 1.0));
        c.register_binary("/bin/stream", Arc::clone(&stream));
        let _a = c.submit(desc(16)).unwrap();
        // read before the packed job adds its own busy seconds to the host
        let derate = c.thermal_derate(0, 2_500_000);
        assert!(derate < 1.0, "three busy hours derate the top DVFS step: {derate}");
        let mut s = JobDescriptor::new("s", "bob", "/bin/stream");
        s.num_tasks = 8;
        let b = c.submit(s).unwrap();
        let packed = c.daemons[0].running.iter().find(|r| r.id == b).expect("packs onto the busy aged host");
        assert_eq!(packed.config.frequency_khz, 2_500_000);
        let law = SimDuration::from_secs_f64(stream.total_gflop() / (stream.gflops(&packed.config) * derate));
        assert_eq!(packed.end - packed.start, law);
        assert!(law > stream.duration(&packed.config), "slower than on a new host");
    }

    #[test]
    fn pack_refuses_same_side_of_the_ridge() {
        let mut c = cluster();
        c.set_co_schedule(CoSchedulePolicy::Pack);
        // both compute-bound: second must queue even though cores are free
        let a = c.submit(desc(16)).unwrap();
        let b = c.submit(desc(8)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Running);
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "same-side jobs never pack");
    }

    #[test]
    fn pack_refuses_when_cores_do_not_fit() {
        let mut c = cluster();
        c.set_co_schedule(CoSchedulePolicy::Pack);
        c.register_binary(
            "/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 50.0, 1.0)),
        );
        let _a = c.submit(desc(32)).unwrap(); // whole package
        let mut s = JobDescriptor::new("s", "bob", "/bin/stream");
        s.num_tasks = 8;
        let b = c.submit(s).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "no free cores to pack into");
    }

    #[test]
    fn spread_policy_never_packs() {
        let mut c = cluster();
        c.register_binary(
            "/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 50.0, 1.0)),
        );
        let _a = c.submit(desc(16)).unwrap();
        let mut s = JobDescriptor::new("s", "bob", "/bin/stream");
        s.num_tasks = 8;
        let b = c.submit(s).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "default policy is exclusive allocation");
    }

    #[test]
    fn power_headroom_tightens_admission() {
        // same setup as power_cap_respects_config_differences, but the
        // headroom eats the slack that admitted the 2.2 GHz job
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        c.register_binary("/bin/app", quick_workload(800.0));
        let _first = c.submit(desc(32)).unwrap();
        let cap = c.estimated_power_w() + 60.0;
        c.set_power_cap(Some(cap));
        c.set_power_headroom(30.0);
        let mut cool = desc(32);
        cool.max_frequency_khz = Some(2_200_000);
        let cool = c.submit(cool).unwrap();
        assert_eq!(c.job(cool).unwrap().state, JobState::Pending, "headroom blocks what the bare cap admits");
        c.set_power_headroom(0.0);
        c.advance(SimDuration(1));
        assert_eq!(c.job(cool).unwrap().state, JobState::Running, "zero headroom restores the old admission");
    }

    #[test]
    fn starvation_guard_stops_younger_jobs_jumping_a_starved_one() {
        let mut c = Cluster::new(vec![SimNode::sr650(), SimNode::sr650()]);
        let telemetry = Arc::new(Telemetry::wall());
        c.set_telemetry(Arc::clone(&telemetry));
        c.register_binary("/bin/app", quick_workload(800.0));
        c.register_binary("/bin/short", quick_workload(80.0));
        // one busy node; cap admits nothing more
        let _long = c.submit(desc(32)).unwrap();
        c.set_power_cap(Some(c.estimated_power_w() + 10.0));
        c.set_starvation_guard(Some(SimDuration::from_secs(2)));
        let blocked = c.submit(desc(32)).unwrap();
        assert_eq!(c.job(blocked).unwrap().state, JobState::Pending);
        // age the blocked job past the guard, then submit a cheap job that
        // a work-conserving cap would admit (1 core fits the +10 W? no —
        // make the cap generous enough for 1 core but not 32)
        c.set_power_cap(Some(c.estimated_power_w() + 25.0));
        c.advance(SimDuration::from_secs(3));
        let mut s = JobDescriptor::new("s", "bob", "/bin/short");
        s.num_tasks = 1;
        let young = c.submit(s).unwrap();
        assert_eq!(c.job(young).unwrap().state, JobState::Pending, "guard keeps the younger job behind");
        assert_eq!(
            (c.job(blocked).unwrap().reason, c.job(young).unwrap().reason),
            (Some(HoldReason::PowerCap), Some(HoldReason::Priority)),
            "the starved job ended the pass before it reached the young one: {}",
            c.squeue()
        );
        assert!(telemetry.counter("slurm.sched_starvation_stall").get() > 0);
        // each reason under its own name: the starved job in every pass
        // so far, the young one behind it in the last
        let held = ["begin_time", "resources", "priority", "power_cap"]
            .map(|reason| telemetry.counter(&format!("slurm.sched_hold.{reason}")).get());
        assert!(held[0] == 0 && held[1] == 0 && held[2] == 1 && held[3] > 1, "{held:?}");
        // without the guard the young job would have been admitted
        c.set_starvation_guard(None);
        c.advance(SimDuration(1));
        assert_eq!(c.job(young).unwrap().state, JobState::Running, "work-conserving again without the guard");
    }

    #[test]
    fn packed_jobs_respect_the_power_budget() {
        let mut c = cluster();
        c.set_co_schedule(CoSchedulePolicy::Pack);
        c.register_binary(
            "/bin/stream",
            Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 50.0, 1.0)),
        );
        let _a = c.submit(desc(16)).unwrap();
        // cap leaves no room for any marginal draw
        c.set_power_cap(Some(c.estimated_power_w() + 0.5));
        let mut s = JobDescriptor::new("s", "bob", "/bin/stream");
        s.num_tasks = 8;
        let b = c.submit(s).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Pending, "packing still pays its power bill");
    }
}
