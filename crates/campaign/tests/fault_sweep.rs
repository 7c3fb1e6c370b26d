//! Multi-seed campaign fault sweep: every seed takes one campaign
//! through a storage write failure that tears the journal's last append,
//! a resume, and a node crash mid-trial, then audits the journal against
//! a clean reference run.
//!
//! A violating seed dumps its journal (database + a readable rendering)
//! where CI can pick it up as an artifact; `CAMPAIGN_JOURNAL_DIR`
//! overrides the default `target/campaign-journals`. Replay one seed
//! locally with
//! `CAMPAIGN_SEED=<seed> cargo test -p eco-campaign --test fault_sweep -- --nocapture`.

use chronus::integrations::codec;
use chronus::integrations::record_store::RecordStore;
use eco_campaign::{
    CampaignEngine, CampaignError, CampaignSpec, FlakyJournal, Journal, PlanSpec, RecordJournal, RunOptions,
    TrialStatus,
};
use eco_hpcg::PerfModel;
use eco_sim_node::cpu::CpuSpec;
use eco_sim_node::SimNode;
use eco_slurm_sim::Cluster;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEEDS: [u64; 6] = [1, 5, 13, 29, 47, 71];
const NODES: usize = 4;

fn seeds() -> Vec<u64> {
    match std::env::var("CAMPAIGN_SEED") {
        Ok(s) => vec![s.parse().expect("CAMPAIGN_SEED must be a u64")],
        Err(_) => SEEDS.to_vec(),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco-campaign-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(seed: u64) -> CampaignSpec {
    let perf = PerfModel::sr650();
    CampaignSpec {
        name: format!("fault-sweep-{seed}"),
        // a compact but still multi-round sweep keeps each seed fast
        configs: CpuSpec::epyc_7502p().all_configurations().into_iter().step_by(6).collect(),
        plan: PlanSpec::default_halving(),
        seed,
        sample_interval_ms: 2000,
        full_work_gflop: perf.gflops(&perf.standard_config()) * 25.0,
        nx: 104,
        node_class: String::new(),
    }
}

fn run(dir: &Path, s: CampaignSpec, opts: RunOptions<'_>) -> eco_campaign::Result<eco_campaign::CampaignOutcome> {
    let mut cluster = Cluster::new((0..NODES).map(|_| SimNode::sr650()).collect());
    let mut journal = RecordJournal::open(dir.join("journal.db"))?;
    let mut repo = RecordStore::open(dir.join("repo.db")).unwrap();
    let perf = Arc::new(PerfModel::sr650());
    CampaignEngine::new(&mut cluster, &mut journal, &mut repo, perf, s).run(opts)
}

/// Counts Done entries, recording a violation for any (round, config)
/// completed twice.
fn unique_done(journal: &RecordJournal, violations: &mut Vec<String>) -> usize {
    let mut seen = HashSet::new();
    let mut done = 0;
    for (id, e) in journal.entries().unwrap() {
        if matches!(e.status, TrialStatus::Done { .. }) {
            if !seen.insert((e.round, e.config)) {
                violations.push(format!("entry {id}: trial (round {}, {}) completed twice", e.round, e.config));
            }
            done += 1;
        }
    }
    done
}

/// Appends a prefix of the journal's last frame, 1 to len − 1 bytes picked
/// by `seed`: the bytes a write that died midway leaves behind.
fn tear_last_frame(path: &Path, seed: u64) {
    let bytes = std::fs::read(path).unwrap();
    let last = codec::recover(&bytes).records.pop().expect("the spec is journaled before any trial");
    let frame = &bytes[bytes.len() - (codec::RECORD_HEADER_LEN + last.len())..];
    let torn = &frame[..1 + seed as usize % (frame.len() - 1)];
    std::fs::OpenOptions::new().append(true).open(path).unwrap().write_all(torn).unwrap();
}

/// One seed's journey: storage write failure → resume under a node
/// crash → audit against a clean run. Returns accumulated violations.
fn check_seed(seed: u64, dir: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let s = spec(seed);

    // Phase 1: the journal starts rejecting writes mid-campaign.
    let fail_after = 4 + (seed % 13) as usize;
    let first = {
        let mut cluster = Cluster::new((0..NODES).map(|_| SimNode::sr650()).collect());
        let mut journal = FlakyJournal::new(RecordJournal::open(dir.join("journal.db")).unwrap(), fail_after);
        let mut repo = RecordStore::open(dir.join("repo.db")).unwrap();
        let perf = Arc::new(PerfModel::sr650());
        CampaignEngine::new(&mut cluster, &mut journal, &mut repo, perf, s.clone()).run(RunOptions::default())
    };
    match first {
        Err(CampaignError::Journal(_)) => {}
        Err(other) => violations.push(format!("write fault surfaced as {other} (wanted Journal)")),
        Ok(_) => violations.push("campaign completed through a failing journal".into()),
    }
    tear_last_frame(&dir.join("journal.db"), seed);
    let journal = RecordJournal::open(dir.join("journal.db")).unwrap();
    let done_before = unique_done(&journal, &mut violations);
    drop(journal);

    // Phase 2: resume; partway through, one node dies mid-trial.
    let mut ticks = 0u64;
    let crash_at = 3 + seed % 7;
    let crash_node = (seed % NODES as u64) as usize;
    let mut crashed = false;
    let resumed = {
        let mut cluster = Cluster::new((0..NODES).map(|_| SimNode::sr650()).collect());
        let mut journal = RecordJournal::open(dir.join("journal.db")).unwrap();
        let mut repo = RecordStore::open(dir.join("repo.db")).unwrap();
        let perf = Arc::new(PerfModel::sr650());
        let mut engine = CampaignEngine::new(&mut cluster, &mut journal, &mut repo, perf, s.clone());
        engine.run(RunOptions {
            max_trials: None,
            on_tick: Some(Box::new(|cluster, active| {
                ticks += 1;
                if !crashed && ticks >= crash_at {
                    if let Some(victim) = active.iter().find(|a| a.node == Some(crash_node)) {
                        if cluster.cancel(victim.job).is_ok() {
                            cluster.set_drained(crash_node, true);
                            crashed = true;
                        }
                    }
                }
            })),
        })
    };
    let resumed = match resumed {
        Ok(out) => out,
        Err(e) => {
            violations.push(format!("resume under a node crash failed: {e}"));
            return violations;
        }
    };

    // Nothing journaled as Done may ever run again.
    if resumed.trials_skipped != done_before {
        violations.push(format!(
            "resume skipped {} trials but the journal held {done_before} completions",
            resumed.trials_skipped
        ));
    }
    if crashed && resumed.trials_failed != 1 {
        violations.push(format!("one crashed trial, {} recorded as failed", resumed.trials_failed));
    }
    let journal = RecordJournal::open(dir.join("journal.db")).unwrap();
    let done_after = unique_done(&journal, &mut violations);
    drop(journal);
    if codec::recover(&std::fs::read(dir.join("journal.db")).unwrap()).truncated {
        violations.push("the resumed campaign appended after the torn tail instead of cutting it".into());
    }
    if done_after != done_before + resumed.trials_run {
        violations.push(format!(
            "journal holds {done_after} completions != {done_before} resumed + {} run",
            resumed.trials_run
        ));
    }

    // A clean, fault-free run of the same spec agrees on the winner
    // whenever the crash didn't eat a trial.
    let clean_dir = tmpdir(&format!("clean-{seed}"));
    let clean = run(&clean_dir, s, RunOptions::default()).unwrap();
    if resumed.trials_failed == 0 && resumed.best != clean.best {
        violations
            .push(format!("faulted-then-resumed run picked {} but a clean run picks {}", resumed.best, clean.best));
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    violations
}

/// Copies the failing seed's journal database and writes a readable
/// rendering of its entries where CI can pick both up as artifacts.
fn dump_journal(seed: u64, dir: &Path) -> String {
    let out = std::env::var("CAMPAIGN_JOURNAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/campaign-journals"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        return format!("(dump failed: {e})");
    }
    let db = out.join(format!("fault-sweep-{seed}.db"));
    let _ = std::fs::copy(dir.join("journal.db"), &db);
    let mut text = String::new();
    if let Ok(journal) = RecordJournal::open(dir.join("journal.db")) {
        for (id, e) in journal.entries().unwrap_or_default() {
            let status = match &e.status {
                TrialStatus::Started => "started".to_string(),
                TrialStatus::Done { measurement } => format!(
                    "done gflops={:.1} gpw={:.4} runtime={:.1}s",
                    measurement.gflops,
                    measurement.gflops_per_watt(),
                    measurement.runtime_s
                ),
                TrialStatus::Failed { reason } => format!("failed: {reason}"),
            };
            text.push_str(&format!("#{id} round {} {} fraction {:.2} — {status}\n", e.round, e.config, e.fraction));
        }
    }
    let listing = out.join(format!("fault-sweep-{seed}.txt"));
    let _ = std::fs::write(&listing, text);
    db.display().to_string()
}

#[test]
fn multi_seed_fault_sweep() {
    for seed in seeds() {
        let dir = tmpdir(&format!("seed-{seed}"));
        let violations = check_seed(seed, &dir);
        if !violations.is_empty() {
            let dump = dump_journal(seed, &dir);
            panic!(
                "campaign fault-sweep violations (seed {seed}):\n  {}\n\njournal dump: {dump}\nreplay: \
                 CAMPAIGN_SEED={seed} cargo test -p eco-campaign --test fault_sweep -- --nocapture",
                violations.join("\n  ")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
