//! The one sweep driver: a table of worlds, one loop over their seeds,
//! one failure report.
//!
//! Each simulated world is a [`World`] row of [`WORLDS`]. [`sweep`] runs
//! a row; [`run_one`] runs one `(seed, case)` of it and is the only
//! place a panicking run is caught; [`fail`] is the only place a run's
//! violations become a panic, a trace dump and a replay line — so every
//! world reports and replays the same way ([`crate::replay`]). After the
//! last seed [`sweep`] also asks whether the faults *took effect*
//! ([`took_effect`]): a plan that rolls `reorder` at 0.5 but never
//! reorders a batch reply passes every invariant by attacking nothing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use crate::adapt::{adapt_plans, run_adapt_seed};
use crate::cluster::{cluster_worlds, run_cluster_seed};
use crate::faults::FaultPlan;
use crate::net::{Exchange, Injected};

/// What any world's run boils down to for the driver.
#[derive(Debug, PartialEq)]
pub struct Run {
    /// The virtual-time event log (byte-identical across replays).
    pub log: Vec<String>,
    /// Everything else the world reports, on one line.
    pub summary: String,
    /// What the simulated network delivered and injected.
    pub injected: Injected,
}

/// One simulated world, as the sweep driver and the replay hook see it.
pub struct World {
    pub name: &'static str,
    /// The sweep covers seeds `0..seeds`.
    pub seeds: u64,
    /// How many consecutive seeds the sweep gives each case.
    pub stride: u64,
    /// Every *case* `run` accepts, in sweep order: fault-plan names,
    /// cluster-world names, or the one empty case of the store world
    /// (which injects its own storage faults).
    pub cases: fn() -> Vec<&'static str>,
    /// Runs one seed under one case over the world's typed `run_*_seed`,
    /// which panics through [`fail`] on any invariant violation.
    pub run: fn(u64, &str) -> Run,
}

impl World {
    /// The case the sweep pairs with `seed`: the menu in order, `stride`
    /// seeds each, wrapping — so it is defined for every seed, and
    /// replaying one beyond the sweep's range still has a default.
    pub fn case_for(&self, seed: u64) -> &'static str {
        let cases = (self.cases)();
        cases[(seed / self.stride) as usize % cases.len()]
    }
}

/// Adapts a typed `*Report`: the log moves out, and what is left — every
/// number the world reports, at full precision — is the summary.
macro_rules! run {
    ($report:expr) => {{
        let mut report = $report;
        let log = std::mem::take(&mut report.log);
        Run { log, summary: format!("{report:?}"), injected: report.injected }
    }};
}

/// Every world, in the order they were built: 120 + 39 + 24 + 120 + 9 +
/// 12 + 120 = 444 seeded runs.
pub static WORLDS: [World; 7] = [
    World {
        name: "pipeline",
        seeds: 120,
        stride: 1,
        cases: plan_names,
        run: |seed, case| run!(crate::run_seed(seed, &plan(case))),
    },
    World {
        name: "fleet",
        seeds: 39,
        // every replica takes a turn as the kill victim on every plan
        // (victim = seed % replicas)
        stride: 3,
        cases: plan_names,
        run: |seed, case| run!(crate::run_fleet_seed(seed, &plan(case))),
    },
    World {
        name: "store",
        seeds: 24,
        stride: 1,
        cases: || vec![""],
        run: |seed, _| {
            let mut report = crate::run_store_seed(seed);
            let log = std::mem::take(&mut report.log);
            Run { log, summary: format!("{report:?}"), injected: Injected::default() }
        },
    },
    World {
        name: "batch",
        seeds: 120,
        stride: 1,
        cases: plan_names,
        run: |seed, case| run!(crate::run_batch_seed(seed, &plan(case))),
    },
    World {
        name: "cluster",
        seeds: 9,
        stride: 3,
        cases: || cluster_worlds().iter().map(|w| w.name).collect(),
        run: |seed, case| {
            let world = cluster_worlds().into_iter().find(|w| w.name == case).expect("a cluster-world name");
            run!(run_cluster_seed(seed, &world))
        },
    },
    World {
        name: "adapt",
        seeds: 12,
        stride: 1,
        cases: || adapt_plans().iter().map(|p| p.name).collect(),
        run: |seed, case| run!(run_adapt_seed(seed, &plan(case))),
    },
    World {
        name: "shm",
        seeds: 120,
        stride: 1,
        cases: plan_names,
        run: |seed, case| run!(crate::run_shm_seed(seed, &plan(case))),
    },
];

fn plan_names() -> Vec<&'static str> {
    FaultPlan::all().iter().map(|p| p.name).collect()
}

fn plan(case: &str) -> FaultPlan {
    FaultPlan::named(case).expect("a fault-plan name")
}

/// The world called `name`, if there is one.
pub fn world(name: &str) -> Option<&'static World> {
    WORLDS.iter().find(|w| w.name == name)
}

/// `world:seed[:case]` — what `SIMTEST_SEED` must be to re-run exactly
/// this run.
pub fn replay_spec(world: &str, seed: u64, case: &str) -> String {
    let case = if case.is_empty() { String::new() } else { format!(":{case}") };
    format!("{world}:{seed}{case}")
}

/// Runs one `(seed, case)` of `world`, turning a panicking run into its
/// message. This is the only `catch_unwind` in the harness.
pub fn run_one(world: &World, seed: u64, case: &str) -> Result<Run, String> {
    catch_unwind(AssertUnwindSafe(|| (world.run)(seed, case))).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Runs every seed of `world` under the case its sweep pairs it with,
/// reports every failing run (not just the first) with its replay line,
/// then audits that each fault plan's faults took effect. Panics if
/// anything failed.
pub fn sweep(world: &World) {
    let mut failures: Vec<String> = Vec::new();
    let mut by_case: BTreeMap<&'static str, Injected> = BTreeMap::new();
    for seed in 0..world.seeds {
        let case = world.case_for(seed);
        match run_one(world, seed, case) {
            Ok(run) => by_case.entry(case).or_default().absorb(&run.injected),
            Err(detail) => failures.push(format!("SIMTEST_SEED={}\n{detail}", replay_spec(world.name, seed, case))),
        }
    }
    let (failed, of) = (failures.len(), world.seeds);
    assert!(failed == 0, "{failed} of {of} {} runs violated invariants:\n\n{}", world.name, failures.join("\n\n"));
    // Only cases that are fault plans have anything to audit; a failed
    // run above would leave the totals short, hence after the assert.
    let idle: Vec<String> = by_case
        .iter()
        .filter_map(|(case, injected)| Some(took_effect(world.name, &FaultPlan::named(case)?, injected)))
        .flatten()
        .collect();
    assert!(idle.is_empty(), "fault plans that attacked nothing:\n  {}", idle.join("\n  "));
}

/// `(world, plan, family, kind)` cells [`took_effect`] found idle when
/// it was first switched on, and why each stays that way.
const KNOWN_IDLE: [(&str, &str, &str, Exchange); 2] = [
    // The ring ignores partitions by construction, and the world's one
    // TCP connection is dialed once per run — nine dials at 0.15 over
    // the plan's nine seeds, and a partition only ever begins at a
    // dial: under `partitions` the shm world runs fault-free.
    ("shm", "partitions", "partition", Exchange::Single),
    // Luck, not structure: only the ring-down phase batches over TCP —
    // 42 frames in the plan's nine runs at 0.1, a 1.2 % miss — while
    // the same runs crashed 53 single and 112 ring exchanges.
    ("shm", "crashes", "crash", Exchange::Batch),
];

/// The fault-took-effect audit: every family `plan` rolls at non-zero
/// odds must have fired at least once on every exchange kind the world
/// delivered under that plan (and that admits the family at all).
/// `injected` is the total over `world`'s runs under `plan`; returns
/// one line per `(family, kind)` that never fired.
pub fn took_effect(world: &str, plan: &FaultPlan, injected: &Injected) -> Vec<String> {
    let mut idle = Vec::new();
    for (family, odds) in plan.families() {
        for kind in Exchange::ALL {
            let delivered = injected.count(Injected::DELIVERED, kind);
            let owed = odds > 0.0 && delivered > 0 && kind.admits(family);
            if owed && injected.count(family, kind) == 0 && !KNOWN_IDLE.contains(&(world, plan.name, family, kind)) {
                idle.push(format!(
                    "world '{world}', plan '{}': {family} never fired on a {kind:?} exchange ({delivered} delivered)",
                    plan.name
                ));
            }
        }
    }
    idle
}

/// Ends a run that violated invariants: writes `export` where CI picks
/// it up as an artifact (`SIMTEST_TRACE_DIR`, default
/// `target/simtest-traces`) and panics with the violations and the one
/// line that replays exactly this run. The only trace dump and the only
/// replay hint.
pub fn fail(world: &str, seed: u64, case: &str, violations: &[String], export: &str) -> ! {
    let spec = replay_spec(world, seed, case);
    let dir = std::env::var_os("SIMTEST_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/simtest-traces"));
    let path = dir.join(format!("{}.txt", spec.replace(':', "-")));
    let dump = match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, export)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(dump failed: {e})"),
    };
    panic!(
        "{world} simtest violations ({spec}):\n  {}\n\ntrace export: {dump}\nreplay: SIMTEST_SEED={spec} cargo test \
         -p simtest replay -- --nocapture",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use Exchange::{Batch, Shm, Single};

    fn counted(events: &[(&'static str, Exchange, u64)]) -> Injected {
        let mut injected = Injected::default();
        for &(what, kind, n) in events {
            injected.add(what, kind, n);
        }
        injected
    }

    /// The shape the batch world had for eight PRs: `reorders` rolled
    /// on every reply, took effect on singles, and was a silent no-op
    /// on every batch exchange.
    #[test]
    fn a_plan_that_never_reorders_a_batch_is_reported() {
        let mut seen =
            vec![(Injected::DELIVERED, Single, 300), (Injected::DELIVERED, Batch, 180), ("reorder", Single, 140)];
        let idle = took_effect("batch", &FaultPlan::reorders(), &counted(&seen));
        assert_eq!(idle.len(), 1, "{idle:?}");
        for needle in ["'batch'", "'reorders'", "reorder never fired", "Batch"] {
            assert!(idle[0].contains(needle), "{:?} does not name {needle}", idle[0]);
        }
        seen.push(("reorder", Batch, 90));
        assert!(took_effect("batch", &FaultPlan::reorders(), &counted(&seen)).is_empty());
        // a ring cannot reorder, but it can tear a slot (req_cut, resp_cut)
        let ring = counted(&[(Injected::DELIVERED, Shm, 400)]);
        assert!(took_effect("shm", &FaultPlan::reorders(), &ring).is_empty());
        assert_eq!(took_effect("shm", &FaultPlan::disconnects(), &ring).len(), 2);
    }
}
