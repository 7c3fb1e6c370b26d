//! The four workloads and the closed loop that drives them. One load
//! thread, fixed work: the number of rounds comes from the requested run
//! length through a constant table and nothing here reads a clock to
//! decide how much to do, so two runs with the same seed and length
//! attempt exactly the same operations.

use std::sync::Arc;
use std::time::Instant;

use chronus::remote::PredictClient;
use eco_adapt::refit_blob;
use eco_campaign::roll_into;
use eco_sim_node::clock::SimDuration;
use eco_slurm_sim::{array_directive, parse_script, Cluster, JobId, JobState};

use crate::gen::{self, RefreshOrder, Script, SubmitStream, TraceJob, SEGMENT};
use crate::probe::{read, Counters, SpanName};
use crate::setup::{Route, ServingModel, Stack};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SubmitTcp,
    SubmitShm,
    SchedDeep,
    RefreshMix,
}

pub const ALL: [Workload; 4] = [Workload::SubmitTcp, Workload::SubmitShm, Workload::SchedDeep, Workload::RefreshMix];

/// The fixed-work table: how a run length becomes rounds, and what one
/// round holds. A round of a daemon workload is `cycles` × (`windows`
/// windows of 64 submissions, then one model refresh when `refreshes`);
/// `sched-deep`'s round is one 256-job trace. Sized so a round takes about
/// 0.3 s on the reference box.
struct Shape {
    cycles: usize,
    windows: usize,
    refreshes: bool,
}

/// Segments in a window: 2 × 32 = 64 consecutive submissions with their
/// drains, about 2.5 ms — the unit a run's quiet stretches are picked in
/// (see `report::quiet_windows`). The reference box changes speed from one
/// tenth of a second to the next, so a window this short is nearly always
/// wholly at one speed where a 0.3 s round seldom is.
const WINDOW_SEGMENTS: usize = 2;

/// Submissions, and ticks, in one window of a `sched-deep` trace. Every
/// round replays the same trace, so the `n`-th window of one round asks
/// the scheduler for the same work as the `n`-th window of any other: its
/// [`Window::slot`].
const DEEP_WINDOW: usize = 16;

/// Submit rounds per second of requested run length.
const ROUNDS_PER_SECOND: f64 = 3.4;

/// Fewest submit rounds a run may have.
const MIN_ROUNDS: usize = 8;

/// Submissions (and ticks) at the head of every traced round whose full
/// span records are kept for the trace file; every span is sampled.
const KEPT_OPS_PER_ROUND: u64 = 64;

/// Slurm's submit-plugin budget: a submission slower than this is over
/// budget (and `PluginHost` itself refuses it when the plugin call alone
/// overran).
const BUDGET_NS: u64 = 100_000_000;

/// Over-budget submissions a run tolerates: one in a thousand, and never
/// fewer than two. On a shared two-core box the hypervisor now and then
/// takes the cores away for longer than the whole budget — single stalls
/// of 104–157 ms in about one 16 s run in eight while this was written,
/// five in one run during a bad quarter of an hour, each with hundreds of
/// ms of steal in that run's `/proc/stat`. That is the host's doing, so
/// they are counted (`submit.over_budget`, a `# STALL` line) without
/// failing the run; a program that really overruns the budget does so far
/// more often than one time in a thousand.
fn stall_allowance(attempted: u64) -> u64 {
    (attempted / 1000).max(2)
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SubmitTcp => "submit-tcp",
            Workload::SubmitShm => "submit-shm",
            Workload::SchedDeep => "sched-deep",
            Workload::RefreshMix => "refresh-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn route(self) -> Route {
        match self {
            Workload::SubmitTcp | Workload::RefreshMix => Route::Tcp,
            Workload::SubmitShm => Route::Shm,
            Workload::SchedDeep => Route::Staged,
        }
    }

    fn shape(self) -> Shape {
        match self {
            // identical inputs on both transports: 6144 submissions a round
            Workload::SubmitTcp | Workload::SubmitShm => Shape { cycles: 1, windows: 96, refreshes: false },
            Workload::SchedDeep => Shape { cycles: 1, windows: 0, refreshes: false },
            // one refresh every 512 submissions, six a round
            Workload::RefreshMix => Shape { cycles: 6, windows: 8, refreshes: true },
        }
    }

    /// Submit rounds of a `seconds`-long run. A traced run does a third of
    /// them (alternately untraced and traced) and spends the rest of its
    /// time in the isolated micro-loops.
    pub fn rounds(self, seconds: u64, traced: bool) -> usize {
        let full = (seconds as f64 * ROUNDS_PER_SECOND) as usize;
        let n = if traced { full / 3 } else { full };
        n.max(MIN_ROUNDS)
    }

    /// Refresh cycles a run performs: one per cycle of every round on
    /// `refresh-mix`, none on the other three.
    pub fn refreshes(self, seconds: u64, traced: bool) -> usize {
        let shape = self.shape();
        if shape.refreshes {
            self.rounds(seconds, traced) * shape.cycles
        } else {
            0
        }
    }

    /// Operations (`sbatch` calls plus refresh cycles) a run attempts:
    /// a function of the workload and the run length alone, never of the
    /// seed or the clock. Every run is checked against it.
    pub fn planned_attempts(self, seconds: u64, traced: bool) -> u64 {
        let shape = self.shape();
        let per_round = match self {
            Workload::SchedDeep => gen::TRACE_JOBS,
            _ => shape.cycles * shape.windows * WINDOW_SEGMENTS * SEGMENT,
        };
        // every refresh is followed by the one submission that proves it
        (self.rounds(seconds, traced) * per_round + 2 * self.refreshes(seconds, traced)) as u64
    }
}

/// The unit a run's quiet stretches are picked in: 64 consecutive
/// submissions with their drains on the daemon workloads; 16 consecutive
/// submissions of the burst, or 16 consecutive ticks of the drain, on
/// `sched-deep`.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub traced: bool,
    /// Which part of a round's work the window holds. Windows of one slot
    /// did the same work and compare; the daemon workloads have one slot,
    /// a `sched-deep` trace one per window of its burst and its drain.
    pub slot: usize,
    /// Wall time of every `sbatch` call, ns.
    pub submit_ns: Vec<u32>,
    /// Summed wall of the timed submission segments.
    pub submit_wall_ns: u64,
    /// Summed wall of the drains (`advance` ticks).
    pub drain_wall_ns: u64,
    pub jobs: u64,
}

/// What one `sched-deep` trace did besides its window.
#[derive(Debug, Default, Clone)]
pub struct DeepTrace {
    pub traced: bool,
    /// Wall of every one-second `advance`, ns.
    pub tick_ns: Vec<u32>,
    pub pending_depth_sum: u64,
    pub pending_depth_max: u64,
    pub jobs_completed: u64,
    pub makespan_sim_s: f64,
    pub energy_j: f64,
}

/// Boundary-counter deltas taken around every `sbatch` of a traced
/// round: what the submissions alone, not the refreshes beside them,
/// asked of the layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct InSubmit {
    pub submits: u64,
    pub load_settings: u64,
    pub predicts: u64,
    pub frames: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl InSubmit {
    fn read(c: &Counters) -> InSubmit {
        InSubmit {
            submits: 0,
            load_settings: read(&c.load_settings),
            predicts: read(&c.predicts),
            frames: read(&c.frames[0]) + read(&c.frames[1]),
            bytes_out: read(&c.bytes_out),
            bytes_in: read(&c.bytes_in),
        }
    }

    fn add_since(&mut self, before: InSubmit, c: &Counters) {
        let now = InSubmit::read(c);
        self.submits += 1;
        self.load_settings += now.load_settings - before.load_settings;
        self.predicts += now.predicts - before.predicts;
        self.frames += now.frames - before.frames;
        self.bytes_out += now.bytes_out - before.bytes_out;
        self.bytes_in += now.bytes_in - before.bytes_in;
    }
}

/// What one refresh cycle took.
#[derive(Debug, Default, Clone, Copy)]
pub struct RefreshReading {
    /// Commit → first submission served by the new generation, ns.
    pub latency_ns: u64,
    /// Keys its prefetch answered, and the wall of that call, ns.
    pub prefetch_keys: u64,
    pub prefetch_ns: u64,
    pub traced: bool,
}

/// What a whole run did.
#[derive(Debug, Default)]
pub struct Outcome {
    pub windows: Vec<Window>,
    pub refreshes: Vec<RefreshReading>,
    pub traces: Vec<DeepTrace>,
    pub in_submit: InSubmit,
    pub attempted: u64,
    pub failed: u64,
    pub over_budget: u64,
    pub refresh_count: u64,
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
}

/// The driver of one run: owns the cursors of every seeded stream.
pub struct Driver<'a> {
    pub stack: &'a mut Stack,
    workload: Workload,
    seed: u64,
    scripts: Vec<Script>,
    trace: Vec<TraceJob>,
    stream: SubmitStream,
    order: RefreshOrder,
    /// The operator's connection (`campaign --rollout ADDR`): not the
    /// plugin's, so it is neither decorated nor counted.
    control: Option<PredictClient>,
    op: u64,
    /// Operations the run will attempt (sizes the stall allowance).
    planned: u64,
    pub out: Outcome,
}

impl<'a> Driver<'a> {
    pub fn new(stack: &'a mut Stack, workload: Workload, seed: u64, planned: u64) -> Result<Driver<'a>, String> {
        let deep = workload == Workload::SchedDeep;
        let control = match &stack.server {
            Some(server) => Some(
                PredictClient::builder()
                    .endpoint(format!("tcp://{}", server.addr()))
                    .build()
                    .map_err(|e| format!("control client: {e}"))?,
            ),
            None => None,
        };
        Ok(Driver {
            scripts: gen::daemon_scripts(&stack.catalog),
            trace: if deep { gen::sched_trace(seed, &stack.catalog) } else { Vec::new() },
            stream: SubmitStream::new(seed, &stack.catalog),
            order: RefreshOrder::new(seed),
            stack,
            workload,
            seed,
            control,
            op: 0,
            planned,
            out: Outcome::default(),
        })
    }

    fn violation(&mut self, what: String) {
        if self.out.violations.len() < 20 {
            self.out.violations.push(what);
        }
        self.out.failed += 1;
    }

    /// One timed `sbatch`, its wall time pushed to `samples`. On a traced
    /// round the same script is first parsed on its own (a public
    /// function, the same input), and that time is charged to
    /// `slurm.parse` inside the `sbatch` span; `keep` says whether the
    /// span records go to the trace file.
    fn submit(
        &mut self,
        cluster: &mut Cluster,
        text: &str,
        user: &str,
        samples: &mut Vec<u32>,
        traced: bool,
        keep: bool,
    ) -> Option<JobId> {
        self.op += 1;
        self.out.attempted += 1;
        let probe = &self.stack.probe;
        let before = if traced {
            probe.begin_op(self.op, keep);
            let t = Instant::now();
            let _ = std::hint::black_box(parse_script(text, user).and_then(|d| Ok((d, array_directive(text)?))));
            Some((t.elapsed().as_nanos() as u64, InSubmit::read(&probe.counters)))
        } else {
            None
        };
        let t0 = Instant::now();
        let result = probe.span(SpanName::Sbatch, || {
            if let Some((parse_ns, _)) = before {
                probe.adopt(SpanName::SlurmParse, parse_ns);
            }
            cluster.sbatch(text, user)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some((_, counters)) = before {
            self.out.in_submit.add_since(counters, &probe.counters);
        }
        samples.push(ns.min(u32::MAX as u64) as u32);
        let stalled = ns > BUDGET_NS;
        if stalled {
            self.out.over_budget += 1;
            println!("# STALL: submission {} took {} ms, over the 100 ms plugin budget", self.op, ns / 1_000_000);
            if self.out.over_budget > stall_allowance(self.planned) {
                self.violation(format!("{} submissions over the plugin budget", self.out.over_budget));
            }
        }
        match result {
            Ok(id) => Some(id),
            // the program's own budget check refusing a stalled call
            Err(_) if stalled => None,
            Err(e) => {
                self.violation(format!("submission {} failed: {e}", self.op));
                None
            }
        }
    }

    /// The oracle for one submitted job: an opted-in job carries exactly
    /// the configuration its key's serving model yields; any other job
    /// is untouched.
    fn check(&mut self, cluster: &Cluster, id: JobId, key: Option<usize>) {
        let d = &cluster.job(id).expect("submitted job is tracked").descriptor;
        match key {
            Some(k) => {
                let want = self.stack.models[k].record.config;
                let got = (d.num_tasks, d.max_frequency_khz, d.min_frequency_khz, d.threads_per_cpu);
                if got != (want.cores, Some(want.frequency_khz), Some(want.frequency_khz), want.threads_per_core) {
                    self.violation(format!(
                        "job {id} of key {k} was rewritten to {got:?}, generation {} serves {want:?}",
                        self.stack.models[k].record.generation
                    ));
                }
            }
            None => {
                if d.max_frequency_khz.is_some() {
                    self.violation(format!("job {id} did not opt in but was rewritten"));
                }
            }
        }
    }

    /// One window of a daemon workload: [`WINDOW_SEGMENTS`] × 32
    /// submissions, each segment checked and then drained (timed as
    /// drain) so every job starts at once and the queue stays empty.
    /// `keep` says whether the head of the window goes to the trace file.
    fn submit_window(&mut self, cluster: &mut Cluster, traced: bool, keep: bool) {
        let mut window = Window { traced, ..Window::default() };
        let mut picks = [0usize; SEGMENT];
        let mut ids: Vec<(Option<JobId>, usize)> = Vec::with_capacity(SEGMENT);
        for _ in 0..WINDOW_SEGMENTS {
            self.stream.next_segment(&mut picks);
            ids.clear();
            let t = Instant::now();
            for &s in &picks {
                let text = std::mem::take(&mut self.scripts[s].text);
                let keep = keep && (window.submit_ns.len() as u64) < KEPT_OPS_PER_ROUND;
                let id = self.submit(cluster, &text, "alice", &mut window.submit_ns, traced, keep);
                self.scripts[s].text = text;
                ids.push((id, self.scripts[s].key));
            }
            window.submit_wall_ns += t.elapsed().as_nanos() as u64;
            window.jobs += SEGMENT as u64;
            for &(id, key) in &ids {
                if let Some(id) = id {
                    self.check(cluster, id, Some(key));
                }
            }
            let t = Instant::now();
            cluster.advance(SimDuration::from_secs(1));
            window.drain_wall_ns += t.elapsed().as_nanos() as u64;
            if !cluster.is_idle() {
                self.violation("a segment did not drain in one simulated second".to_string());
            }
        }
        self.out.windows.push(window);
    }

    /// One model refresh, end to end: feed outcomes back, refit, commit,
    /// roll into the daemon, re-prefetch, and submit — the first
    /// submission must already be served by the new generation. Latency
    /// runs from the start of the commit.
    fn refresh(&mut self, cluster: &mut Cluster, traced: bool) {
        self.op += 1;
        self.out.attempted += 1;
        self.out.refresh_count += 1;
        let k = self.order.next();
        let nth = self.stack.refits[k];
        self.stack.refits[k] += 1;
        let class = self.stack.catalog.key_class(k).to_string();
        let outcomes = gen::outcome_feed(self.seed, k, nth, &class, &self.stack.models[k].record.config);
        let (class_no, binary) = self.stack.catalog.key_parts(k);
        let install = self.stack.catalog.installs[binary].0.clone();
        let text = gen::script(&class, &install, self.stack.catalog.classes[class_no].spec.cores, "refreshed", true);
        let probe = Arc::clone(&self.stack.probe);
        probe.begin_op(self.op, true);
        let run = || -> Result<Option<JobId>, String> {
            let accepted = probe.span(SpanName::AdaptReportOutcome, || {
                let plugin = self.stack.plugin.lock();
                outcomes.iter().filter(|o| plugin.report_outcome(&install, Some(&class), o)).count()
            });
            if accepted != outcomes.len() {
                return Err(format!("the daemon accepted {accepted} of {} outcomes", outcomes.len()));
            }
            let refit = probe
                .span(SpanName::AdaptRefit, || {
                    refit_blob(&self.stack.models[k].blob, &outcomes, &self.stack.candidates)
                })
                .map_err(|e| format!("refit: {e}"))?;
            let previous = self.stack.models[k].record.clone();
            if refit.blob.config == previous.config {
                return Err(format!("refit {nth} did not move the optimum; the new generation cannot be told apart"));
            }

            let t0 = Instant::now();
            let record = probe
                .span(SpanName::StoreCommit, || {
                    self.stack.store.commit(&refit.blob, previous.model_id, refit.provenance(&previous))
                })
                .map_err(|e| format!("commit: {e}"))?;
            probe.span(SpanName::CampaignRollInto, || match (&self.stack.server, &mut self.control) {
                (Some(server), Some(control)) => {
                    let before = server.registry().generation();
                    roll_into(control, record.model_id, Some(before)).map(|_| ()).map_err(|e| format!("roll: {e}"))
                }
                _ => Err("no daemon to roll into".to_string()),
            })?;
            self.stack.models[k] = ServingModel { blob: refit.blob, record };

            let t = Instant::now();
            let answered = self.stack.prefetch();
            let prefetch_ns = t.elapsed().as_nanos() as u64;
            if answered != self.stack.prefetch_expected() {
                return Err(format!(
                    "prefetch answered {answered} keys, expected {}",
                    self.stack.prefetch_expected()
                ));
            }
            // its latency is part of the refresh, not a submit sample
            let id = self.submit(cluster, &text, "alice", &mut Vec::new(), traced, true);
            self.out.refreshes.push(RefreshReading {
                latency_ns: t0.elapsed().as_nanos() as u64,
                prefetch_keys: answered as u64,
                prefetch_ns,
                traced,
            });
            Ok(id)
        };
        match probe.span(SpanName::Refresh, run) {
            Ok(Some(id)) => self.check(cluster, id, Some(k)),
            Ok(None) => {}
            Err(e) => self.violation(format!("refresh of key {k}: {e}")),
        }
        if let Some(server) = &self.stack.server {
            let (registry, store) = (server.registry().generation(), self.stack.store.high_water());
            if registry != store {
                self.violation(format!("registry generation {registry} != store generation {store} after a roll"));
            }
        }
    }

    /// One submit round of a daemon workload, on a fresh cluster — built
    /// untimed, like a controller that has purged its finished jobs.
    fn daemon_round(&mut self, traced: bool) {
        let shape = self.workload.shape();
        let mut cluster = self.stack.build_cluster();
        for cycle in 0..shape.cycles {
            for w in 0..shape.windows {
                self.submit_window(&mut cluster, traced, cycle == 0 && w == 0);
            }
            if shape.refreshes {
                self.refresh(&mut cluster, traced);
                cluster.advance(SimDuration::from_secs(1));
            }
        }
    }

    /// One `sched-deep` round: a fresh capped cluster, the trace as a
    /// burst (every `sbatch` runs a scheduler pass over a deeper queue),
    /// then one-second ticks until idle, the cap audited at each. A window
    /// closes every [`DEEP_WINDOW`] submissions and every [`DEEP_WINDOW`]
    /// ticks.
    fn deep_round(&mut self, traced: bool, jobs: usize) {
        let mut deep = DeepTrace { traced, ..DeepTrace::default() };
        let mut cluster = self.stack.build_cluster();
        let (cap_w, _) = self.stack.power_budget();
        let trace = std::mem::take(&mut self.trace);
        let mut ids = Vec::with_capacity(jobs);
        let mut slot = 0;
        for burst in trace[..jobs].chunks(DEEP_WINDOW) {
            let mut window = Window { traced, slot, jobs: burst.len() as u64, ..Window::default() };
            for job in burst {
                let keep = (ids.len() as u64) < KEPT_OPS_PER_ROUND;
                if let Some(id) =
                    self.submit(&mut cluster, &job.script, job.user, &mut window.submit_ns, traced, keep)
                {
                    self.check(&cluster, id, job.opted_in_key);
                    ids.push(id);
                }
                if traced {
                    let depth =
                        ids.iter().filter(|&&id| cluster.job(id).is_ok_and(|j| j.state == JobState::Pending)).count();
                    deep.pending_depth_sum += depth as u64;
                    deep.pending_depth_max = deep.pending_depth_max.max(depth as u64);
                }
            }
            window.submit_wall_ns = window.submit_ns.iter().map(|&n| n as u64).sum();
            self.out.windows.push(window);
            slot += 1;
        }
        self.trace = trace;

        // four simulated hours bound the drain: a trace is done in minutes
        let mut ticks_left = 4 * 3600;
        let mut window = Window { traced, slot, ..Window::default() };
        while !cluster.is_idle() && ticks_left > 0 {
            ticks_left -= 1;
            if traced {
                let tick = deep.tick_ns.len() as u64;
                self.stack.probe.begin_op(tick, tick < KEPT_OPS_PER_ROUND);
            }
            let t = Instant::now();
            self.stack.probe.span(SpanName::Tick, || cluster.advance(SimDuration::from_secs(1)));
            let ns = t.elapsed().as_nanos() as u64;
            deep.tick_ns.push(ns.min(u32::MAX as u64) as u32);
            window.drain_wall_ns += ns;
            let draw = cluster.instantaneous_power_w();
            if draw > cap_w {
                self.violation(format!("facility draw {draw:.1} W over the {cap_w:.1} W cap at t={}", cluster.now()));
            }
            if deep.tick_ns.len() % DEEP_WINDOW == 0 {
                slot += 1;
                self.out.windows.push(std::mem::replace(&mut window, Window { traced, slot, ..Window::default() }));
            }
        }
        if window.drain_wall_ns > 0 {
            self.out.windows.push(window);
        }
        for &id in &ids {
            if !cluster.job(id).is_ok_and(|j| j.state.is_terminal()) {
                self.violation(format!("job {id} never reached a terminal state"));
            }
        }
        deep.jobs_completed = cluster.accounting().count_state(JobState::Completed) as u64;
        deep.makespan_sim_s = cluster.now().as_secs_f64();
        deep.energy_j = cluster.accounting().records().iter().map(|r| r.system_energy_j).sum();
        self.out.traces.push(deep);
    }

    /// One round, kept in the outcome.
    pub fn round(&mut self, traced: bool) {
        self.stack.probe.set_tracing(traced);
        match self.workload {
            Workload::SchedDeep => self.deep_round(traced, gen::TRACE_JOBS),
            _ => self.daemon_round(traced),
        }
        self.stack.probe.set_tracing(false);
    }

    /// The warm-up every cold start ends with: a fixed, small slice of
    /// the workload (1024 submissions, and a refresh where the workload
    /// has them; a 64-job trace on `sched-deep`).
    pub fn warm_up(&mut self) {
        if self.workload == Workload::SchedDeep {
            return self.deep_round(false, 64);
        }
        let mut cluster = self.stack.build_cluster();
        for _ in 0..1024 / (WINDOW_SEGMENTS * SEGMENT) {
            self.submit_window(&mut cluster, false, false);
        }
        if self.workload.shape().refreshes {
            self.refresh(&mut cluster, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_depends_on_the_run_length_alone() {
        // 54 rounds of 96 windows of 64
        assert_eq!(Workload::SubmitTcp.planned_attempts(16, false), 54 * 6144);
        assert_eq!(Workload::SubmitShm.planned_attempts(16, false), Workload::SubmitTcp.planned_attempts(16, false));
        assert_eq!(Workload::SchedDeep.planned_attempts(16, false), 54 * 256);
        // one refresh (and its submission) every 512 submissions, six a round
        assert_eq!(Workload::RefreshMix.planned_attempts(16, false), 54 * 6 * (512 + 2));
        assert_eq!(Workload::RefreshMix.refreshes(16, false), 54 * 6);
        for w in ALL {
            assert_eq!(w.rounds(1, false), MIN_ROUNDS, "a run is never shorter than {MIN_ROUNDS} rounds");
            assert_eq!(w.rounds(16, true), 18, "a traced run does a third of the rounds");
            assert!(w.planned_attempts(60, false) > w.planned_attempts(16, false));
            assert_eq!(w.refreshes(16, false) > 0, w == Workload::RefreshMix, "only refresh-mix writes");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("submit-udp"), None);
    }
}
