//! Tier-1's view of the fault-injection harness (`crates/simtest`): the
//! first run of every world's sweep, through the sweep driver's own
//! single-run path. The full sweeps (444 seeded runs) belong to
//! `cargo test -p simtest`; this only proves that every world still
//! builds, runs clean and logs from the root crate's test command.

use simtest::sweep::{run_one, WORLDS};

#[test]
fn the_first_sweep_run_of_every_world_is_clean() {
    for world in &WORLDS {
        let case = world.case_for(0);
        let run = run_one(world, 0, case).unwrap_or_else(|violations| panic!("{violations}"));
        assert!(!run.log.is_empty(), "{}:0:{case} logged nothing", world.name);
    }
}
