//! The campaign write-ahead journal.
//!
//! Every trial is journaled as `Started` *before* its job is submitted and
//! flipped to `Done`/`Failed` after it reaches a terminal state. A campaign
//! killed at any point can therefore resume by replaying the journal:
//! `Done` trials are never re-run, `Started` trials (in flight at the
//! crash) are resubmitted under their original entry id. A kill mid-append
//! tears the last frame, which the next write cuts: a torn `Started` was
//! never submitted, a torn `Done` re-runs only its trial.
//!
//! [`RecordJournal`] persists through the repository's
//! [`chronus::integrations::record_store::RecordStore`], one CRC frame per
//! write; [`FlakyJournal`] wraps any journal with a deterministic
//! write-failure injection point for the fault-plan tests.

use crate::error::{CampaignError, Result};
use crate::plan::{TrialMeasurement, TrialSpec};
use crate::spec::CampaignSpec;
use chronus::integrations::record_store::RecordStore;
use eco_sim_node::cpu::CpuConfig;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Journal table holding the campaign spec (single row).
pub const SPEC_TABLE: &str = "campaign";
/// Journal table holding one row per trial attempt.
pub const TRIALS_TABLE: &str = "trials";
/// Fixed id of the spec row.
pub const SPEC_ID: i64 = 1;

/// Lifecycle of a journaled trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrialStatus {
    /// Journaled before submission; a crash leaves the entry here.
    Started,
    /// The job completed and was measured.
    Done {
        /// What the trial measured.
        measurement: TrialMeasurement,
    },
    /// The job reached a terminal state other than `Completed`.
    Failed {
        /// Why (the terminal job state, or an injected fault).
        reason: String,
    },
}

/// One journal row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialEntry {
    /// Round the trial belongs to.
    pub round: u32,
    /// Configuration under test.
    pub config: CpuConfig,
    /// Workload fraction the trial ran at.
    pub fraction: f64,
    /// Where the trial is in its lifecycle.
    pub status: TrialStatus,
}

impl TrialEntry {
    /// The journal row of `spec` at `status`.
    pub fn new(spec: TrialSpec, status: TrialStatus) -> Self {
        TrialEntry { round: spec.round, config: spec.config, fraction: spec.fraction, status }
    }

    /// Whether the entry records a finished, measured trial.
    pub fn is_done(&self) -> bool {
        matches!(self.status, TrialStatus::Done { .. })
    }
}

/// Durable campaign state.
pub trait Journal {
    /// Persists the campaign spec (idempotent).
    fn save_spec(&mut self, spec: &CampaignSpec) -> Result<()>;

    /// The journaled spec, if the journal belongs to a campaign.
    fn load_spec(&self) -> Result<Option<CampaignSpec>>;

    /// Appends a trial entry; returns its id.
    fn append(&mut self, entry: &TrialEntry) -> Result<i64>;

    /// Rewrites a trial entry in place.
    fn update(&mut self, id: i64, entry: &TrialEntry) -> Result<()>;

    /// Every trial entry, in id order.
    fn entries(&self) -> Result<Vec<(i64, TrialEntry)>>;
}

/// The production journal: a [`RecordStore`] file.
pub struct RecordJournal {
    store: RecordStore,
}

impl RecordJournal {
    /// Opens (or creates) a journal file, replaying its WAL.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let store = RecordStore::open(path).map_err(|e| CampaignError::Journal(e.to_string()))?;
        Ok(RecordJournal { store })
    }
}

impl Journal for RecordJournal {
    fn save_spec(&mut self, spec: &CampaignSpec) -> Result<()> {
        self.store.put(SPEC_TABLE, SPEC_ID, spec).map_err(|e| CampaignError::Journal(e.to_string()))
    }

    fn load_spec(&self) -> Result<Option<CampaignSpec>> {
        self.store.get(SPEC_TABLE, SPEC_ID).map_err(|e| CampaignError::Journal(e.to_string()))
    }

    fn append(&mut self, entry: &TrialEntry) -> Result<i64> {
        self.store.insert(TRIALS_TABLE, entry).map_err(|e| CampaignError::Journal(e.to_string()))
    }

    fn update(&mut self, id: i64, entry: &TrialEntry) -> Result<()> {
        self.store.put(TRIALS_TABLE, id, entry).map_err(|e| CampaignError::Journal(e.to_string()))
    }

    fn entries(&self) -> Result<Vec<(i64, TrialEntry)>> {
        self.store.scan(TRIALS_TABLE).map_err(|e| CampaignError::Journal(e.to_string()))
    }
}

/// A journal whose writes start failing after a set count — the storage
/// half of the campaign fault plans. Reads always pass through, so a
/// resumed campaign can still replay what made it to disk.
pub struct FlakyJournal<J: Journal> {
    inner: J,
    fail_after_writes: usize,
    writes: usize,
}

impl<J: Journal> FlakyJournal<J> {
    /// Fails every write once `fail_after_writes` have succeeded.
    pub fn new(inner: J, fail_after_writes: usize) -> Self {
        FlakyJournal { inner, fail_after_writes, writes: 0 }
    }

    /// Unwraps the inner journal (e.g. to resume without the fault).
    pub fn into_inner(self) -> J {
        self.inner
    }

    /// Writes that succeeded so far.
    pub fn writes(&self) -> usize {
        self.writes
    }

    fn tick(&mut self) -> Result<()> {
        if self.writes >= self.fail_after_writes {
            return Err(CampaignError::Journal(format!("injected storage failure after {} write(s)", self.writes)));
        }
        self.writes += 1;
        Ok(())
    }
}

impl<J: Journal> Journal for FlakyJournal<J> {
    fn save_spec(&mut self, spec: &CampaignSpec) -> Result<()> {
        self.tick()?;
        self.inner.save_spec(spec)
    }

    fn load_spec(&self) -> Result<Option<CampaignSpec>> {
        self.inner.load_spec()
    }

    fn append(&mut self, entry: &TrialEntry) -> Result<i64> {
        self.tick()?;
        self.inner.append(entry)
    }

    fn update(&mut self, id: i64, entry: &TrialEntry) -> Result<()> {
        self.tick()?;
        self.inner.update(id, entry)
    }

    fn entries(&self) -> Result<Vec<(i64, TrialEntry)>> {
        self.inner.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanSpec;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eco-campaign-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.db")
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            configs: vec![CpuConfig::new(8, 1_500_000, 1)],
            plan: PlanSpec::BruteForce,
            seed: 1,
            sample_interval_ms: 2000,
            full_work_gflop: 10.0,
            nx: 16,
            node_class: String::new(),
        }
    }

    fn entry(round: u32) -> TrialEntry {
        TrialEntry { round, config: CpuConfig::new(8, 1_500_000, 1), fraction: 1.0, status: TrialStatus::Started }
    }

    fn done(round: u32) -> TrialEntry {
        TrialEntry {
            status: TrialStatus::Done {
                measurement: TrialMeasurement {
                    gflops: 5.0,
                    runtime_s: 2.0,
                    avg_system_w: 100.0,
                    avg_cpu_w: 50.0,
                    avg_cpu_temp_c: 40.0,
                    system_energy_j: 200.0,
                    cpu_energy_j: 100.0,
                    sample_count: 3,
                },
            },
            ..entry(round)
        }
    }

    #[test]
    fn journal_survives_reopen() {
        let path = tmp("reopen");
        let mut j = RecordJournal::open(&path).unwrap();
        assert!(j.load_spec().unwrap().is_none());
        j.save_spec(&spec()).unwrap();
        let id = j.append(&entry(0)).unwrap();
        let done = done(0);
        j.update(id, &done).unwrap();
        j.append(&entry(1)).unwrap();
        drop(j);

        let j = RecordJournal::open(&path).unwrap();
        assert_eq!(j.load_spec().unwrap().unwrap(), spec());
        let entries = j.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, done);
        assert!(entries[0].1.is_done());
        assert_eq!(entries[1].1.status, TrialStatus::Started);
    }

    /// A crash mid-append leaves a prefix of the last frame: every cut of
    /// the file keeps exactly the records whose frames it holds whole.
    #[test]
    fn a_cut_at_any_byte_keeps_every_record_before_it() {
        let path = tmp("torn");
        let mut j = RecordJournal::open(&path).unwrap();
        let len = || std::fs::metadata(&path).unwrap().len() as usize;
        j.save_spec(&spec()).unwrap();
        let spec_end = len();
        let id = j.append(&entry(0)).unwrap();
        let started_end = len();
        j.update(id, &done(0)).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let cut_path = path.with_file_name("cut.db");
        for cut in 0..whole.len() {
            std::fs::write(&cut_path, &whole[..cut]).unwrap();
            let j = RecordJournal::open(&cut_path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(j.load_spec().unwrap().is_some(), cut >= spec_end, "cut at {cut}");
            let kept: Vec<TrialEntry> = j.entries().unwrap().into_iter().map(|(_, e)| e).collect();
            let want = if cut >= started_end { vec![entry(0)] } else { Vec::new() };
            assert_eq!(kept, want, "cut at {cut}");
        }
    }

    #[test]
    fn flaky_journal_fails_deterministically_but_keeps_reads() {
        let path = tmp("flaky");
        let mut j = FlakyJournal::new(RecordJournal::open(&path).unwrap(), 2);
        j.save_spec(&spec()).unwrap();
        j.append(&entry(0)).unwrap();
        let err = j.append(&entry(0)).unwrap_err();
        assert!(matches!(err, CampaignError::Journal(_)), "{err}");
        assert_eq!(j.writes(), 2);
        // reads still work, and what made it to disk is intact
        assert_eq!(j.entries().unwrap().len(), 1);
        assert!(j.load_spec().unwrap().is_some());
        let mut inner = j.into_inner();
        inner.append(&entry(1)).unwrap();
        assert_eq!(inner.entries().unwrap().len(), 2);
    }
}
