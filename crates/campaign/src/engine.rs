//! The campaign engine: executes a plan's trials as real batch jobs on a
//! simulated cluster, samples mid-run power over IPMI, journals every
//! state transition, and saves the final round's measurements as
//! repository benchmarks.
//!
//! Trials run concurrently, one per free node; rounds are barriers (a
//! successive-halving round needs every survivor candidate measured
//! before it can pick). The engine never trusts its own memory across
//! crashes — everything a resume needs lives in the [`Journal`].

use crate::error::{CampaignError, Result};
use crate::journal::{Journal, TrialEntry, TrialStatus};
use crate::plan::{TrialMeasurement, TrialResult, TrialSpec};
use crate::spec::CampaignSpec;
use chronus::domain::{mean, trapezoid, Benchmark, EnergySample, SystemEntry};
use chronus::hash::{binary_hash, classed_system_hash, system_hash};
use chronus::integrations::monitoring::IpmiService;
use chronus::interfaces::{Repository, SystemService};
use eco_hpcg::{HpcgWorkload, PerfModel, Workload};
use eco_sim_node::clock::SimDuration;
use eco_sim_node::sysinfo::SystemFacts;
use eco_slurm_sim::{generate_hpcg_script, Cluster, JobId, JobState};
use eco_telemetry::{Span, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Ticks a single round may spend before the engine declares the
/// simulation stuck (e.g. every trial pending on a fully drained
/// cluster).
const MAX_TICKS_PER_ROUND: u64 = 200_000;

/// A trial currently in flight, as fault-injection hooks see it.
#[derive(Debug, Clone, Copy)]
pub struct ActiveJob {
    /// The batch job executing the trial.
    pub job: JobId,
    /// The node it runs on (None while still pending).
    pub node: Option<usize>,
    /// The trial being executed.
    pub spec: TrialSpec,
}

/// A fault-injection / observation hook called after every simulation
/// tick with the cluster and the in-flight trials.
pub type TickHook<'h> = Box<dyn FnMut(&mut Cluster, &[ActiveJob]) + 'h>;

/// Knobs for one engine invocation.
#[derive(Default)]
pub struct RunOptions<'h> {
    /// Stop (with [`CampaignError::Interrupted`]) once this many trials
    /// have finalized — the deterministic stand-in for `kill -9` in the
    /// crash-resume tests.
    pub max_trials: Option<usize>,
    /// Called after every simulation tick with the cluster and the
    /// in-flight trials; fault plans (node crash, drain) inject here.
    pub on_tick: Option<TickHook<'h>>,
}

/// What a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The strategy that ran.
    pub plan: String,
    /// Rounds executed.
    pub rounds: u32,
    /// Trials that completed and were measured in this invocation.
    pub trials_run: usize,
    /// Trials satisfied from the journal without re-running.
    pub trials_skipped: usize,
    /// Trials that ended in a terminal state other than `Completed`.
    pub trials_failed: usize,
    /// Total simulated job runtime this invocation spent, in seconds —
    /// the cost metric adaptive plans are judged on.
    pub trial_seconds: f64,
    /// The most energy-efficient configuration of the final round.
    pub best: eco_sim_node::cpu::CpuConfig,
    /// Final-round benchmarks, saved to the repository.
    pub benchmarks: Vec<Benchmark>,
    /// Repository id of the benchmarked system.
    pub system_id: i64,
    /// Binary hash the benchmarks were recorded under.
    pub binary_hash: u64,
}

struct ActiveTrial<'t> {
    spec: TrialSpec,
    entry_id: i64,
    job: JobId,
    span: Span<'t>,
    samples: Vec<EnergySample>,
    work_gflop: f64,
    node: Option<usize>,
}

/// The campaign engine; borrows its collaborators so callers keep
/// ownership of the cluster and stores across invocations.
pub struct CampaignEngine<'a> {
    cluster: &'a mut Cluster,
    journal: &'a mut dyn Journal,
    repository: &'a mut dyn Repository,
    perf: Arc<PerfModel>,
    spec: CampaignSpec,
    telemetry: Arc<Telemetry>,
}

impl<'a> CampaignEngine<'a> {
    /// Builds an engine over a cluster, a journal and a repository.
    pub fn new(
        cluster: &'a mut Cluster,
        journal: &'a mut dyn Journal,
        repository: &'a mut dyn Repository,
        perf: Arc<PerfModel>,
        spec: CampaignSpec,
    ) -> Self {
        CampaignEngine { cluster, journal, repository, perf, spec, telemetry: Arc::new(Telemetry::wall()) }
    }

    /// Routes campaign spans, counters and histograms into `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs (or resumes) the campaign to completion.
    pub fn run(&mut self, mut opts: RunOptions<'_>) -> Result<CampaignOutcome> {
        self.spec.validate()?;
        match self.journal.load_spec()? {
            Some(existing) if existing != self.spec => {
                return Err(CampaignError::InvalidSpec(
                    "journal belongs to a different campaign; use its spec or a fresh journal".into(),
                ));
            }
            Some(_) => {}
            None => self.journal.save_spec(&self.spec)?,
        }

        // One probe binary per workload fraction. All share the same
        // binary_id (the problem size doesn't change with run length), so
        // every trial — probe or full — hashes to the same application.
        let mut levels: Vec<(f64, String, f64)> = Vec::new();
        for (i, &fraction) in self.spec.plan.fractions().iter().enumerate() {
            let path = format!("/opt/chronus/campaign/xhpcg-p{i}");
            let work = self.spec.full_work_gflop * fraction;
            let workload = HpcgWorkload::with_work(Arc::clone(&self.perf), work, self.spec.nx);
            self.cluster.register_binary(&path, Arc::new(workload));
            levels.push((fraction, path, work));
        }
        let bin_hash = binary_hash(
            HpcgWorkload::with_work(Arc::clone(&self.perf), self.spec.full_work_gflop, self.spec.nx).binary_id(),
        );

        let mut samplers: Vec<IpmiService> = (0..self.cluster.node_count())
            .map(|i| IpmiService::new(i, self.spec.seed.wrapping_add(i as u64)))
            .collect();

        // Journal replay: the latest entry per (round, config) wins.
        let mut prior: HashMap<(u32, eco_sim_node::cpu::CpuConfig), (i64, TrialEntry)> = HashMap::new();
        for (id, e) in self.journal.entries()? {
            prior.insert((e.round, e.config), (id, e));
        }

        let telemetry = Arc::clone(&self.telemetry);
        let mut run_span = telemetry.root_span("campaign", "run");
        run_span.attr("campaign", self.spec.name.clone());
        run_span.attr("plan", self.spec.plan.name());

        let interval = SimDuration::from_millis(self.spec.sample_interval_ms);
        let mut history: Vec<TrialResult> = Vec::new();
        let mut round = 0u32;
        let (mut trials_run, mut trials_skipped, mut trials_failed) = (0usize, 0usize, 0usize);
        let mut trial_seconds = 0.0f64;

        loop {
            let trials = self.spec.plan.round(&self.spec.configs, round, &history);
            if trials.is_empty() {
                if round == 0 {
                    return Err(CampaignError::InvalidSpec("the plan scheduled no trials".into()));
                }
                break;
            }
            telemetry.counter("campaign.rounds").add(1);

            let mut queue: VecDeque<(TrialSpec, Option<i64>)> = VecDeque::new();
            for t in &trials {
                match prior.get(&(t.round, t.config)) {
                    // in flight at the crash: resubmit under the same entry
                    Some((id, TrialEntry { status: TrialStatus::Started, .. })) => queue.push_back((*t, Some(*id))),
                    Some((_, e)) => {
                        let outcome = match e.status {
                            TrialStatus::Done { measurement } => Some(measurement),
                            _ => None,
                        };
                        history.push(TrialResult { spec: *t, outcome });
                        trials_skipped += 1;
                        telemetry.counter("campaign.trials_skipped").add(1);
                    }
                    None => queue.push_back((*t, None)),
                }
            }

            let mut active: Vec<ActiveTrial> = Vec::new();
            let mut ticks = 0u64;
            while !queue.is_empty() || !active.is_empty() {
                let capacity = (0..self.cluster.node_count()).filter(|&i| !self.cluster.is_drained(i)).count();
                if capacity == 0 && active.is_empty() {
                    return Err(CampaignError::NoUsableNodes);
                }
                while active.len() < capacity {
                    let Some((t, prior_id)) = queue.pop_front() else { break };
                    let entry_id = match prior_id {
                        Some(id) => id,
                        None => self.journal.append(&TrialEntry::new(t, TrialStatus::Started))?,
                    };
                    let (path, work) = level_for(&levels, t.fraction)?;
                    let script =
                        generate_hpcg_script(t.config.cores, t.config.frequency_khz, t.config.threads_per_core, path);
                    let job = self.cluster.sbatch(&script, "campaign")?;
                    let mut span = run_span.child("campaign", "trial");
                    span.attr("round", t.round);
                    span.attr("config", t.config.to_string());
                    span.attr("fraction", t.fraction);
                    span.attr("job", job.0);
                    telemetry.counter("campaign.trials_started").add(1);
                    active.push(ActiveTrial {
                        spec: t,
                        entry_id,
                        job,
                        span,
                        samples: Vec::new(),
                        work_gflop: work,
                        node: None,
                    });
                }

                self.cluster.advance(interval);
                if let Some(hook) = opts.on_tick.as_mut() {
                    let jobs: Vec<ActiveJob> =
                        active.iter().map(|a| ActiveJob { job: a.job, node: a.node, spec: a.spec }).collect();
                    hook(self.cluster, &jobs);
                }

                let mut still = Vec::with_capacity(active.len());
                for mut a in active.drain(..) {
                    let (state, node) = {
                        let job = self.cluster.job(a.job)?;
                        (job.state, job.node)
                    };
                    match state {
                        JobState::Running => {
                            let n = node.expect("running job has a node");
                            if a.node.is_none() {
                                a.node = Some(n);
                                samplers[n].start_window(self.cluster.now());
                            }
                            a.samples.push(samplers[n].sample(self.cluster));
                            still.push(a);
                        }
                        JobState::Pending => still.push(a),
                        _ => {
                            let record = self.cluster.accounting().get(a.job).cloned().ok_or_else(|| {
                                CampaignError::Stalled(format!("terminal job {} has no accounting record", a.job))
                            })?;
                            let runtime_s = match (record.start_time, record.end_time) {
                                (Some(s), Some(e)) => (e - s).as_secs_f64(),
                                _ => 0.0,
                            };
                            trial_seconds += runtime_s;
                            let outcome = (record.state == JobState::Completed && runtime_s > 0.0).then(|| {
                                let gflops = a.work_gflop / runtime_s;
                                measure(&a.samples, runtime_s, gflops, record.system_energy_j, record.cpu_energy_j)
                            });
                            let mut span = a.span;
                            let status = match outcome {
                                Some(m) => {
                                    span.attr("gflops", format!("{:.3}", m.gflops));
                                    span.attr("gpw", format!("{:.5}", m.gflops_per_watt()));
                                    span.attr("runtime_s", format!("{runtime_s:.1}"));
                                    span.attr("samples", m.sample_count);
                                    TrialStatus::Done { measurement: m }
                                }
                                None => {
                                    let reason = format!("job ended {:?}", record.state);
                                    span.set_error(reason.clone());
                                    TrialStatus::Failed { reason }
                                }
                            };
                            self.journal.update(a.entry_id, &TrialEntry::new(a.spec, status))?;
                            history.push(TrialResult { spec: a.spec, outcome });
                            if outcome.is_some() {
                                trials_run += 1;
                                telemetry.counter("campaign.trials_completed").add(1);
                                telemetry.histogram("campaign.trial_runtime").record_us((runtime_s * 1e6) as u64);
                            } else {
                                trials_failed += 1;
                                telemetry.counter("campaign.trials_failed").add(1);
                            }
                            if let Some(max) = opts.max_trials {
                                if trials_run + trials_failed >= max {
                                    return Err(CampaignError::Interrupted { finished: trials_run + trials_failed });
                                }
                            }
                        }
                    }
                }
                active = still;

                ticks += 1;
                if ticks > MAX_TICKS_PER_ROUND {
                    return Err(CampaignError::Stalled(format!(
                        "round {round} made no progress in {MAX_TICKS_PER_ROUND} ticks"
                    )));
                }
            }
            round += 1;
        }

        // The final round's completions are the campaign's benchmarks.
        let last_round = round - 1;
        let winners: Vec<(eco_sim_node::cpu::CpuConfig, TrialMeasurement)> = history
            .iter()
            .filter(|t| t.spec.round == last_round)
            .filter_map(|t| t.outcome.map(|m| (t.spec.config, m)))
            .collect();
        if winners.is_empty() {
            return Err(CampaignError::NoSurvivors(last_round));
        }

        let (facts, sys_hash) = {
            let node = self.cluster.node(0);
            // the spec's node class widens the key: per-class campaigns
            // land per-class models in the same (u64, u64) key space
            let classed = classed_system_hash(system_hash(node.spec(), node.ram_gb()), &self.spec.node_class);
            (SystemFacts::from_node(node), classed)
        };
        let system_id = self.repository.save_system(&SystemEntry { id: -1, facts, system_hash: sys_hash })?;
        let mut benchmarks = Vec::new();
        for (config, m) in &winners {
            let mut b = Benchmark {
                id: -1,
                system_id,
                binary_hash: bin_hash,
                config: *config,
                gflops: m.gflops,
                runtime_s: m.runtime_s,
                avg_system_w: m.avg_system_w,
                avg_cpu_w: m.avg_cpu_w,
                avg_cpu_temp_c: m.avg_cpu_temp_c,
                system_energy_j: m.system_energy_j,
                cpu_energy_j: m.cpu_energy_j,
                sample_count: m.sample_count,
            };
            b.id = self.repository.save_benchmark(&b)?;
            benchmarks.push(b);
        }
        let mut best = benchmarks[0].clone();
        for b in &benchmarks[1..] {
            if b.gflops_per_watt() > best.gflops_per_watt() {
                best = b.clone();
            }
        }
        run_span.attr("rounds", round);
        run_span.attr("trials_run", trials_run);
        run_span.attr("trials_skipped", trials_skipped);
        run_span.attr("best", best.config.to_string());

        Ok(CampaignOutcome {
            plan: self.spec.plan.name().to_string(),
            rounds: round,
            trials_run,
            trials_skipped,
            trials_failed,
            trial_seconds,
            best: best.config,
            benchmarks,
            system_id,
            binary_hash: bin_hash,
        })
    }
}

fn level_for(levels: &[(f64, String, f64)], fraction: f64) -> Result<(&str, f64)> {
    levels
        .iter()
        .find(|(f, _, _)| *f == fraction)
        .map(|(_, path, work)| (path.as_str(), *work))
        .ok_or_else(|| CampaignError::InvalidSpec(format!("no probe binary registered for fraction {fraction}")))
}

/// Turns a trial's IPMI samples into a measurement. Probes shorter than
/// two sampling intervals fall back to the accounting record's integrated
/// energy for the power figures.
fn measure(
    samples: &[EnergySample],
    runtime_s: f64,
    gflops: f64,
    record_system_j: f64,
    record_cpu_j: f64,
) -> TrialMeasurement {
    if samples.len() >= 2 {
        TrialMeasurement {
            gflops,
            runtime_s,
            avg_system_w: mean(samples, |s| s.system_w),
            avg_cpu_w: mean(samples, |s| s.cpu_w),
            avg_cpu_temp_c: mean(samples, |s| s.cpu_temp_c),
            system_energy_j: trapezoid(samples, |s| s.system_w),
            cpu_energy_j: trapezoid(samples, |s| s.cpu_w),
            sample_count: samples.len(),
        }
    } else {
        let avg_system_w = if runtime_s > 0.0 { record_system_j / runtime_s } else { 0.0 };
        let avg_cpu_w = if runtime_s > 0.0 { record_cpu_j / runtime_s } else { 0.0 };
        TrialMeasurement {
            gflops,
            runtime_s,
            avg_system_w,
            avg_cpu_w,
            avg_cpu_temp_c: samples.first().map(|s| s.cpu_temp_c).unwrap_or(0.0),
            system_energy_j: record_system_j,
            cpu_energy_j: record_cpu_j,
            sample_count: samples.len(),
        }
    }
}
