//! Replaying one run: the grammar of `SIMTEST_SEED`.
//!
//! ```text
//! SIMTEST_SEED=<world>:<seed>[:<case>] cargo test -p simtest replay -- --nocapture
//!
//!   world   pipeline | fleet | store | batch | cluster | adapt | shm
//!   seed    a decimal u64
//!   case    a fault-plan name (pipeline, fleet, batch, shm; adapt takes
//!           its crash-free subset), a cluster-world name (cluster), or
//!           nothing (store). Omitted, it is the case the world's sweep
//!           pairs with that seed.
//! ```
//!
//! Every failing run prints this line ready to paste
//! ([`crate::sweep::fail`]) with the case spelled out, so a scenario
//! test's run replays as exactly as a sweep's: `fleet:26` is the
//! sweep's `crashes` run, `adapt:100:none` the fault-free run
//! `adapt_scenario_closes_the_loop` asserts on (the sweep would pair
//! seed 100 with `reorders`). Anything else — a bare number, an unknown
//! world or case — is an error that lists what is accepted: a typo that
//! silently replayed some other run would "reproduce" the wrong thing.

use crate::sweep::{World, WORLDS};

/// Parses `<world>:<seed>[:<case>]` into a world, a seed and one of
/// that world's cases.
pub fn parse(raw: &str) -> Result<(&'static World, u64, &'static str), String> {
    let worlds: Vec<&str> = WORLDS.iter().map(|w| w.name).collect();
    let mut parts = raw.splitn(3, ':');
    let (Some(name), Some(seed)) = (parts.next(), parts.next()) else {
        return Err(format!(
            "SIMTEST_SEED={raw:?} names no world: want <world>:<seed>[:<case>], world one of {worlds:?}"
        ));
    };
    let world = crate::sweep::world(name)
        .ok_or_else(|| format!("SIMTEST_SEED={raw:?}: unknown world {name:?}, want one of {worlds:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("SIMTEST_SEED={raw:?}: seed {seed:?} is not a decimal u64"))?;
    let case = match parts.next() {
        None => world.case_for(seed),
        Some(asked) => (world.cases)().into_iter().find(|c| *c == asked).ok_or_else(|| {
            format!("SIMTEST_SEED={raw:?}: world '{name}' has no case {asked:?}, want one of {:?}", (world.cases)())
        })?,
    };
    Ok((world, seed, case))
}

/// The run `SIMTEST_SEED` asks for: `None` when unset (the replay test
/// silently passes); a value that does not parse panics with the
/// grammar.
pub fn from_env() -> Option<(&'static World, u64, &'static str)> {
    let raw = std::env::var("SIMTEST_SEED").ok()?;
    Some(parse(&raw).unwrap_or_else(|e| panic!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_case_defaults_to_the_sweeps_pairing_and_can_be_spelled_out() {
        let resolved = |raw| parse(raw).map(|(world, seed, case)| (world.name, seed, case));
        assert_eq!(resolved("fleet:26"), Ok(("fleet", 26, "crashes")));
        assert_eq!(resolved("store:5"), Ok(("store", 5, "")));
        assert_eq!(resolved("pipeline:17:chaos"), Ok(("pipeline", 17, "chaos")));
        assert_eq!(resolved("adapt:100"), Ok(("adapt", 100, "reorders")));
        assert_eq!(resolved("adapt:100:none"), Ok(("adapt", 100, "none")));
    }

    #[test]
    fn a_bare_number_an_unknown_world_and_an_unknown_case_are_rejected_with_what_is_accepted() {
        let rejected = |raw| parse(raw).err().expect("no silent default, no fallback to a near miss");
        for raw in ["17", "fleets:26"] {
            let e = rejected(raw);
            assert!(WORLDS.iter().all(|w| e.contains(w.name)), "{e:?} does not list the seven worlds");
        }
        let e = rejected("adapt:3:crashes");
        assert!(e.contains("busy_storms") && !e.contains("chaos"), "adapt's menu excludes crash plans: {e:?}");
        assert!(parse("store:3:none").is_err(), "the store world takes no case");
        assert!(parse("pipeline:x").is_err(), "a seed must be a number");
    }
}
