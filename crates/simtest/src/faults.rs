//! Fault plans: the adversary's probability table.
//!
//! A [`FaultPlan`] is rolled against a seeded RNG at fixed points in the
//! simulated network (dial, request in flight, response in flight), so a
//! plan plus a seed fully determines the fault schedule. Presets isolate
//! one fault family each — useful for bisecting which family breaks an
//! invariant — and [`FaultPlan::chaos`] mixes all of them at lower odds.

/// Per-event fault probabilities and magnitudes for one simulated run.
///
/// All `f64` fields are probabilities in `[0, 1]`, rolled independently
/// per opportunity; `_ms` fields are virtual-time magnitudes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Preset name (shows up in failure reports and replay hints).
    pub name: &'static str,
    /// A dial is refused outright (daemon unreachable).
    pub connect_refuse: f64,
    /// A request frame is delayed before the daemon sees it.
    pub req_delay: f64,
    /// A response frame is delayed before the client sees it.
    pub resp_delay: f64,
    /// Upper bound on one injected delay.
    pub max_delay_ms: u64,
    /// A request frame vanishes (client read eventually times out).
    pub req_drop: f64,
    /// A response frame vanishes.
    pub resp_drop: f64,
    /// The response frame arrives twice.
    pub duplicate: f64,
    /// A stale frame is delivered ahead of the real response.
    pub reorder: f64,
    /// The connection dies mid-request (daemon never sees the frame).
    pub req_cut: f64,
    /// The connection dies mid-response (client gets a partial frame).
    pub resp_cut: f64,
    /// The daemon answers `Busy` and hangs up, as its accept queue would.
    pub busy: f64,
    /// The retry hint sent with injected `Busy` answers.
    pub retry_after_ms: u64,
    /// A network partition begins at dial time.
    pub partition: f64,
    /// How long a partition lasts.
    pub partition_ms: u64,
    /// The daemon crashes on receiving a frame, losing all cached state.
    pub crash: f64,
    /// How long a crashed daemon stays down before restarting.
    pub crash_down_ms: u64,
    /// The model backend stalls for `backend_latency_ms` on this lookup.
    pub backend_slow: f64,
    /// Virtual stall of a slow backend consult.
    pub backend_latency_ms: u64,
    /// The model backend fails internally (I/O error, not a miss).
    pub backend_poison: f64,
    /// Client-observed virtual read timeout (stands in for
    /// `ClientBuilder::read_timeout` on the simulated channel).
    pub read_timeout_ms: u64,
}

impl FaultPlan {
    /// All probabilities zero; magnitudes at the defaults the presets
    /// build on.
    fn base(name: &'static str) -> FaultPlan {
        FaultPlan {
            name,
            connect_refuse: 0.0,
            req_delay: 0.0,
            resp_delay: 0.0,
            max_delay_ms: 10,
            req_drop: 0.0,
            resp_drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            req_cut: 0.0,
            resp_cut: 0.0,
            busy: 0.0,
            retry_after_ms: 5,
            partition: 0.0,
            partition_ms: 40,
            crash: 0.0,
            crash_down_ms: 30,
            backend_slow: 0.0,
            backend_latency_ms: 20,
            backend_poison: 0.0,
            read_timeout_ms: 10,
        }
    }

    /// A perfect network: the control plan.
    pub fn none() -> FaultPlan {
        FaultPlan::base("none")
    }

    /// Frames arrive late but intact (exercises deadline budgets).
    pub fn delays() -> FaultPlan {
        FaultPlan { req_delay: 0.5, resp_delay: 0.5, ..FaultPlan::base("delays") }
    }

    /// Frames vanish in both directions (exercises client timeouts).
    pub fn drops() -> FaultPlan {
        FaultPlan { req_drop: 0.25, resp_drop: 0.25, ..FaultPlan::base("drops") }
    }

    /// Responses arrive twice (exercises frame re-sync on reconnect).
    pub fn duplicates() -> FaultPlan {
        FaultPlan { duplicate: 0.5, ..FaultPlan::base("duplicates") }
    }

    /// Stale frames arrive ahead of the real answer.
    pub fn reorders() -> FaultPlan {
        FaultPlan { reorder: 0.5, ..FaultPlan::base("reorders") }
    }

    /// Connections die mid-frame in either direction (the no-half-apply
    /// invariant's main workout).
    pub fn disconnects() -> FaultPlan {
        FaultPlan { req_cut: 0.2, resp_cut: 0.2, ..FaultPlan::base("disconnects") }
    }

    /// The daemon sheds load with `Busy` bounces.
    pub fn busy_storms() -> FaultPlan {
        FaultPlan { busy: 0.4, ..FaultPlan::base("busy_storms") }
    }

    /// The network splits and heals repeatedly.
    pub fn partitions() -> FaultPlan {
        FaultPlan { partition: 0.15, ..FaultPlan::base("partitions") }
    }

    /// The daemon crashes and restarts, losing its cache each time.
    pub fn crashes() -> FaultPlan {
        FaultPlan { crash: 0.1, ..FaultPlan::base("crashes") }
    }

    /// Total daemon loss: every dial refused. Proves the plugin degrades
    /// to vanilla Slurm instead of wedging the scheduler.
    pub fn blackout() -> FaultPlan {
        FaultPlan { connect_refuse: 1.0, ..FaultPlan::base("blackout") }
    }

    /// The model backend stalls (exercises server-side deadline budgets).
    pub fn slow_backend() -> FaultPlan {
        FaultPlan { backend_slow: 0.6, ..FaultPlan::base("slow_backend") }
    }

    /// The model backend fails internally (must surface as `Error`, never
    /// as a bogus `Config`).
    pub fn poisoned_backend() -> FaultPlan {
        FaultPlan { backend_poison: 0.5, ..FaultPlan::base("poisoned_backend") }
    }

    /// Everything at once, at lower odds.
    pub fn chaos() -> FaultPlan {
        FaultPlan {
            connect_refuse: 0.05,
            req_delay: 0.2,
            resp_delay: 0.2,
            req_drop: 0.1,
            resp_drop: 0.1,
            duplicate: 0.1,
            reorder: 0.1,
            req_cut: 0.08,
            resp_cut: 0.08,
            busy: 0.1,
            partition: 0.05,
            crash: 0.04,
            backend_slow: 0.15,
            backend_poison: 0.1,
            ..FaultPlan::base("chaos")
        }
    }

    /// Every preset, in a fixed order (the seed sweep cycles through
    /// these).
    pub fn all() -> Vec<FaultPlan> {
        vec![
            FaultPlan::none(),
            FaultPlan::delays(),
            FaultPlan::drops(),
            FaultPlan::duplicates(),
            FaultPlan::reorders(),
            FaultPlan::disconnects(),
            FaultPlan::busy_storms(),
            FaultPlan::partitions(),
            FaultPlan::crashes(),
            FaultPlan::blackout(),
            FaultPlan::slow_backend(),
            FaultPlan::poisoned_backend(),
            FaultPlan::chaos(),
        ]
    }

    /// The plan the seed sweep pairs with `seed` — replaying a failing
    /// seed must use the same pairing, so it lives here.
    pub fn for_seed(seed: u64) -> FaultPlan {
        let plans = FaultPlan::all();
        plans[(seed % plans.len() as u64) as usize].clone()
    }

    /// The preset called `name`, if there is one.
    pub fn named(name: &str) -> Option<FaultPlan> {
        FaultPlan::all().into_iter().find(|p| p.name == name)
    }

    /// Every fault family — one per probability field, named after it —
    /// with the odds this plan rolls it at. The network counts the
    /// injections that took effect under these names
    /// ([`crate::net::Injected`]); a name misspelt at an injection site
    /// shows up in the took-effect audit as its family never firing.
    pub fn families(&self) -> [(&'static str, f64); 14] {
        [
            ("connect_refuse", self.connect_refuse),
            ("req_delay", self.req_delay),
            ("resp_delay", self.resp_delay),
            ("req_drop", self.req_drop),
            ("resp_drop", self.resp_drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("req_cut", self.req_cut),
            ("resp_cut", self.resp_cut),
            ("busy", self.busy),
            ("partition", self.partition),
            ("crash", self.crash),
            ("backend_slow", self.backend_slow),
            ("backend_poison", self.backend_poison),
        ]
    }

    /// Whether a client with retries to spare always ends up with the
    /// *right* answer under this plan — the gate on the fleet, batch
    /// and shm worlds' zero-loss and no-cross-wiring checks (exactly-once
    /// and the ledger audit apply to every plan regardless). Drops,
    /// delays, cuts, busy bounces, partitions and crashes all eventually
    /// yield a clean exchange. A retry cannot beat: every dial refused
    /// (`blackout`) — nobody to retry against; `reorder` / `duplicate`
    /// (`reorders`, `duplicates`, `chaos`) — a stale or repeated *bare*
    /// frame on the untagged single-key path is indistinguishable from
    /// the real answer without a tag, so the client may accept it;
    /// `backend_poison` (`poisoned_backend`, `chaos`) — the daemon itself
    /// answers `Error`, which the client rightly surfaces, not retries.
    pub fn retry_beats_it(&self) -> bool {
        self.connect_refuse < 1.0 && self.reorder == 0.0 && self.duplicate == 0.0 && self.backend_poison == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate is derived from the odds; this pins it to the five
    /// presets the worlds used to list by name.
    #[test]
    fn a_retry_beats_every_plan_but_the_five_protocol_level_ones() {
        let unbeaten: Vec<&str> = FaultPlan::all().iter().filter(|p| !p.retry_beats_it()).map(|p| p.name).collect();
        assert_eq!(unbeaten, ["duplicates", "reorders", "blackout", "poisoned_backend", "chaos"]);
    }
}
