//! The seed sweeps: one test per world, all through the one driver
//! (`simtest::sweep::sweep`), so `cargo test -p simtest --test sweep
//! fleet` still names what broke. A failing run prints the line that
//! replays exactly it:
//!
//! ```text
//! SIMTEST_SEED=<world>:<seed>[:<case>] cargo test -p simtest replay -- --nocapture
//! ```

use simtest::sweep::{run_one, sweep, world, WORLDS};
use simtest::{adapt_plan_for_seed, FaultPlan};

/// One `#[test]` per world, named after it, each sweeping its row of the
/// table (what each world attacks: `simtest`'s crate docs).
macro_rules! sweeps {
    ($($world:ident),*) => {$(
        #[test]
        fn $world() {
            sweep(world(stringify!($world)).expect("a world in the table"));
        }
    )*};
}
sweeps!(pipeline, fleet, store, batch, cluster, adapt, shm);

/// The coverage the seven sweeps add up to, pinned: folding them into
/// one driver must not have dropped a seed or re-paired one.
#[test]
fn the_sweeps_cover_444_runs_with_their_seed_to_case_pairings() {
    let seeds: Vec<(&str, u64)> = WORLDS.iter().map(|w| (w.name, w.seeds)).collect();
    let want = [
        ("pipeline", 120),
        ("fleet", 39),
        ("store", 24),
        ("batch", 120),
        ("cluster", 9),
        ("adapt", 12),
        ("shm", 120),
    ];
    assert_eq!(seeds, want);
    assert_eq!(seeds.iter().map(|(_, n)| n).sum::<u64>(), 444);

    let case = |name: &str, seed: u64| world(name).expect("a world").case_for(seed);
    for name in ["pipeline", "batch", "shm"] {
        assert!((0..120).all(|seed| case(name, seed) == FaultPlan::for_seed(seed).name), "{name} re-paired a seed");
        assert_eq!((case(name, 0), case(name, 17), case(name, 119)), ("none", "reorders", "drops"));
    }
    // fleet: three consecutive seeds per plan, in `FaultPlan::all()` order
    let fleet: Vec<&str> = (0..39).map(|seed| case("fleet", seed)).collect();
    let plans = FaultPlan::all();
    assert!(fleet.chunks(3).zip(&plans).all(|(chunk, plan)| chunk == [plan.name; 3]), "{fleet:?}");
    assert_eq!((fleet[0], fleet[26], fleet[38]), ("none", "crashes", "chaos"));
    // cluster: three consecutive seeds per cluster world
    let cluster: Vec<&str> = (0..9).map(|seed| case("cluster", seed)).collect();
    assert_eq!(cluster[..3], ["balanced"; 3]);
    assert_eq!(cluster[3..6], ["dense-heavy"; 3]);
    assert_eq!(cluster[6..], ["legacy-classless"; 3]);
    assert!((0..12).all(|seed| case("adapt", seed) == adapt_plan_for_seed(seed).name));
    assert_eq!((case("adapt", 0), case("adapt", 7), case("adapt", 11)), ("none", "delays", "busy_storms"));
    assert!((0..24).all(|seed| case("store", seed).is_empty()), "the store world takes no case");
}

/// The acceptance criterion at the heart of the harness: a seed is a
/// complete, replayable description of one run — same seed, same case,
/// byte-identical event log, in every world. `cluster:1:balanced` and
/// `adapt:7` are deliberately runs the sweeps also make, on a parallel
/// test thread of this process: if two live runs ever shared staged
/// settings again they would diverge here.
#[test]
fn every_world_is_deterministic() {
    let runs = [
        ("pipeline", 42, "chaos"),
        ("fleet", 42, "chaos"),
        ("store", 42, ""),
        ("batch", 42, "chaos"),
        ("cluster", 1, "balanced"),
        ("adapt", 7, "delays"),
        ("shm", 42, "chaos"),
    ];
    for (name, seed, case) in runs {
        let run = world(name).expect("a world").run;
        let (first, second) = (run(seed, case), run(seed, case));
        assert!(first.log.len() > 20, "{name}:{seed}:{case} logged only {} events", first.log.len());
        assert!(first == second, "{name}:{seed}:{case} did not replay identically");
    }
}

/// The "event logs unchanged" proof for a change that must not move a
/// simulated run: one line per world with an FNV-1a hash of every event
/// log over its full seed range, and one of logs plus summaries. Run it
/// on the parent tree and on the change and compare the lines:
///
/// ```text
/// cargo test -q -p simtest --release --test sweep world_hashes -- --ignored --nocapture
/// ```
///
/// A log-only hash that moves means behaviour moved; a log+summary hash
/// alone means a report struct gained or lost a field.
#[test]
#[ignore = "prints hashes to compare across two trees; asserts nothing"]
fn world_hashes() {
    fn fnv(hash: &mut u64, line: &str) {
        for byte in line.bytes().chain([b'\n']) {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    for world in &WORLDS {
        let (mut log, mut all) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for seed in 0..world.seeds {
            let run = (world.run)(seed, world.case_for(seed));
            for line in &run.log {
                fnv(&mut log, line);
                fnv(&mut all, line);
            }
            fnv(&mut all, &run.summary);
        }
        println!("{:<8} seeds 0..{:<3} log {log:016x} log+summary {all:016x}", world.name, world.seeds);
    }
}

/// The seed-odds scan: how thin is each cell the sweeps sample? For
/// every world whose cases are fault plans (and the store world's one
/// case), runs each case over `N` seeds past the sweep's own range and
/// prints `failed/N` per cell with the first failing seed and its first
/// violation. `SIMTEST_SCAN` picks the seeds, optionally for one world:
///
/// ```text
/// SIMTEST_SCAN=[<world>:]<N>|<from>..<to> cargo test -q -p simtest --release --test sweep seed_odds \
///     -- --ignored --nocapture
/// ```
///
/// `N` means seeds `seeds..seeds + N` of each world; `from..to` names
/// the range outright (`shm:0..600`). A cell a few percent red is one a
/// change that moves its exchange sequence can redden by chance.
#[test]
#[ignore = "prints failure odds per cell; asserts nothing"]
fn seed_odds() {
    let raw = std::env::var("SIMTEST_SCAN").unwrap_or_else(|_| "20".to_string());
    let (only, span) = raw.split_once(':').map_or((None, raw.as_str()), |(w, s)| (Some(w), s));
    let seeds = |world: &simtest::sweep::World| match span.split_once("..") {
        Some((from, to)) => from.parse::<u64>().expect("a seed")..to.parse().expect("a seed"),
        None => world.seeds..world.seeds + span.parse::<u64>().expect("SIMTEST_SCAN=[<world>:]<N>|<from>..<to>"),
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for world in WORLDS.iter().filter(|w| only.is_none_or(|name| name == w.name)) {
        let cases = (world.cases)();
        if !cases.iter().all(|c| c.is_empty() || FaultPlan::named(c).is_some()) {
            continue;
        }
        for case in cases {
            let (mut failed, mut first) = (0, String::new());
            for seed in seeds(world) {
                if let Err(detail) = run_one(world, seed, case) {
                    failed += 1;
                    if first.is_empty() {
                        let violation = detail.lines().find(|l| l.starts_with("  ")).unwrap_or(&detail);
                        first = format!("  first: seed {seed}: {}", violation.trim());
                    }
                }
            }
            let n = seeds(world).count();
            println!("{:<8} {:<16} {failed:>4}/{n}{first}", world.name, if case.is_empty() { "-" } else { case });
        }
    }
    std::panic::set_hook(hook);
}

/// Replay hook — the only reader of `SIMTEST_SEED` (grammar in
/// `simtest::replay`): re-runs exactly one run and prints its event log
/// and summary. A no-op when the variable is unset.
#[test]
fn replay() {
    let Some((world, seed, case)) = simtest::replay::from_env() else { return };
    println!("replaying {}", simtest::sweep::replay_spec(world.name, seed, case));
    let run = (world.run)(seed, case);
    for line in &run.log {
        println!("{line}");
    }
    println!("{}", run.summary);
}
