//! The metric catalogue — the same names, units and bounds
//! `BENCHMARK.json` declares (a test holds the two together) — and the
//! arithmetic that turns a run's rounds into the reported values.

use std::collections::BTreeMap;

use crate::stats::{best_tail, iqr_ratio, median, percentile, weighted_percentile, Better};
use crate::workloads::{DeepTrace, Outcome, Window};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Client-side wall clock, tracing off. Every workload reports every one
/// of them (the driver's contract), so a metric is here only if all four
/// workloads can repeat it: `submit_p95_us`, `refresh_p50_ms` and
/// `prefetch_keys_per_s` could not and are per-layer metrics (see the
/// README). The bounds are the widest the driver takes: twice to three
/// times what ten-run sets of `submit-shm`, the noisiest workload, spread
/// on the reference box in a bad hour.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "submit_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "submit_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "replay_jobs_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
];

/// `(name, unit, better)` of every per-layer metric, grouped by the
/// module it measures. Informational: no bound, zero where a workload
/// leaves the layer idle.
pub const PER_LAYER: [(&str, &str, Better); 87] = [
    ("slurm.parse_script_ns", "ns", Better::Lower),
    ("slurm.submit_self_ns", "ns", Better::Lower),
    ("slurm.tick_p50_us", "us", Better::Lower),
    ("slurm.tick_p95_us", "us", Better::Lower),
    ("slurm.ticks", "count", Better::Lower),
    ("slurm.drain_s", "s", Better::Lower),
    ("slurm.pending_depth_mean", "count", Better::Lower),
    ("slurm.pending_depth_max", "count", Better::Lower),
    ("slurm.jobs_completed", "count", Better::Higher),
    ("slurm.makespan_sim_s", "s", Better::Lower),
    ("slurm.energy_mj", "MJ", Better::Lower),
    ("eco-plugin.job_submit_ns", "ns", Better::Lower),
    ("eco-plugin.self_ns", "ns", Better::Lower),
    ("eco-plugin.applied", "count", Better::Higher),
    ("eco-plugin.skipped", "count", Better::Lower),
    ("eco-plugin.errors", "count", Better::Lower),
    ("eco-plugin.applied_ratio", "ratio", Better::Higher),
    ("eco-plugin.prefetch_ns", "ns", Better::Lower),
    ("core.storage.load_settings_ns", "ns", Better::Lower),
    ("core.storage.load_settings_per_submit", "count", Better::Lower),
    ("core.remote.client.predict_ns", "ns", Better::Lower),
    ("core.remote.client.self_ns", "ns", Better::Lower),
    ("core.remote.client.frames_per_predict", "count", Better::Lower),
    ("core.remote.client.bytes_out_per_req", "B", Better::Lower),
    ("core.remote.client.bytes_in_per_req", "B", Better::Lower),
    ("core.remote.client.retries", "count", Better::Lower),
    ("core.remote.client.failovers", "count", Better::Lower),
    ("core.remote.json.encode1_ns", "ns", Better::Lower),
    ("core.remote.json.decode1_ns", "ns", Better::Lower),
    ("core.remote.json.encode512_ns", "ns", Better::Lower),
    ("core.remote.json.decode512_ns", "ns", Better::Lower),
    ("core.remote.fastpath.encode512_ns", "ns", Better::Lower),
    ("core.remote.fastpath.decode512_ns", "ns", Better::Lower),
    ("transport.tcp.send_ns", "ns", Better::Lower),
    ("transport.tcp.recv_wait_ns", "ns", Better::Lower),
    ("transport.tcp.frames", "count", Better::Lower),
    ("transport.tcp.connects", "count", Better::Lower),
    ("transport.shm.send_ns", "ns", Better::Lower),
    ("transport.shm.recv_wait_ns", "ns", Better::Lower),
    ("transport.shm.frames", "count", Better::Lower),
    ("transport.shm.connects", "count", Better::Lower),
    ("chronusd.service.handle1_ns", "ns", Better::Lower),
    ("chronusd.service.handle_many512_ns", "ns", Better::Lower),
    ("chronusd.service.handle_fast512_ns", "ns", Better::Lower),
    ("chronusd.service.requests", "count", Better::Lower),
    ("chronusd.service.hit_ratio", "ratio", Better::Higher),
    ("chronusd.service.busy", "count", Better::Lower),
    ("chronusd.service.errors", "count", Better::Lower),
    ("chronusd.service.latency_p50_us", "us", Better::Lower),
    ("chronusd.service.latency_p99_us", "us", Better::Lower),
    ("chronusd.registry.lookup_ns", "ns", Better::Lower),
    ("chronusd.registry.rollout_ns", "ns", Better::Lower),
    ("chronusd.registry.generation", "count", Better::Higher),
    ("chronusd.registry.evictions", "count", Better::Lower),
    ("store.commit_ns", "ns", Better::Lower),
    ("store.load_blob_ns", "ns", Better::Lower),
    ("store.verify_ns", "ns", Better::Lower),
    ("store.bytes_per_commit", "B", Better::Lower),
    ("store.appends_per_commit", "count", Better::Lower),
    ("store.generation", "count", Better::Higher),
    ("adapt.report_outcome_ns", "ns", Better::Lower),
    ("adapt.monitor_ingest_ns", "ns", Better::Lower),
    ("adapt.refit_ns", "ns", Better::Lower),
    ("campaign.fit_ns", "ns", Better::Lower),
    ("campaign.commit_to_store_ns", "ns", Better::Lower),
    ("campaign.roll_into_ns", "ns", Better::Lower),
    ("core.optimizers.forest_fit_ns", "ns", Better::Lower),
    ("core.optimizers.best_config_ns", "ns", Better::Lower),
    ("telemetry.spans_per_submit", "count", Better::Lower),
    ("telemetry.span_ns", "ns", Better::Lower),
    ("telemetry.histogram_record_ns", "ns", Better::Lower),
    ("sim-node.step_ns", "ns", Better::Lower),
    ("submit.p99_us", "us", Better::Lower),
    ("submit.p999_us", "us", Better::Lower),
    ("submit.over_budget", "count", Better::Lower),
    ("submit.window_median_us", "us", Better::Lower),
    ("submit.window_iqr_ratio", "ratio", Better::Lower),
    ("submit.accounted_ratio", "ratio", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("process.peak_rss_mb", "MiB", Better::Lower),
    ("process.cpu_us_per_submit", "us", Better::Lower),
    ("host.steal_ms", "ms", Better::Lower),
    ("host.loadavg_start", "load", Better::Lower),
    ("host.quiet_share", "ratio", Better::Higher),
    ("submit_p95_us", "us", Better::Lower),
    ("refresh_p50_ms", "ms", Better::Lower),
    ("prefetch_keys_per_s", "1/s", Better::Higher),
];

/// The per-layer sheet of one traced run: every catalogue name, zero
/// until set. Setting a name the catalogue does not declare is a bug in
/// the benchmark, so it panics.
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Default for Sheet {
    fn default() -> Self {
        Sheet(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }
}

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in catalogue order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|m| (m.0, self.get(m.0), m.1)).collect()
    }
}

/// Share of a slot's windows its quiet level rests on (never fewer than
/// three windows).
const LEVEL_SHARE: f64 = 0.01;

/// How far above the quiet level a window's wall may sit and still count
/// as quiet: the level is the mean of a low tail, and an undisturbed
/// window sits 2-5 % above it.
const QUIET_TOLERANCE: f64 = 1.08;

fn per_second(count: f64, wall_ns: f64) -> f64 {
    if wall_ns == 0.0 {
        0.0
    } else {
        count / (wall_ns / 1e9)
    }
}

/// The median `sbatch` of a window, us.
pub fn window_p50_us(w: &Window) -> f64 {
    percentile(&mut w.submit_ns.clone(), 50.0) / 1e3
}

/// Which of a run's windows ran while the host left the box alone.
///
/// The reference box is a guest on a shared host: for a tenth of a second
/// or for seconds at a time a neighbour takes the shared cache, and every
/// layer of the program runs up to 1.7 times slower (a TCP submission
/// 30 us or 46 us, a deep-queue one 225 us or 400 us). The disturbed share
/// of a run is anything from a tenth to nine tenths, by the hour, so a
/// median or a quartile across windows reads the host, not the code. A
/// window of a few milliseconds is almost always wholly at one speed, so
/// the windows themselves say which is which: among the windows that did
/// the same work (one [`Window::slot`]), the quiet level is the mean wall
/// of the cheapest hundredth, and a window within [`QUIET_TOLERANCE`] of
/// it is quiet. Every end-to-end value is taken over the quiet windows
/// alone — as a median or a rate over all of them, not as a best case.
/// The share that counted is a per-layer metric (`host.quiet_share`), and
/// so are the median and IQR across all windows.
pub fn quiet_windows(windows: &[Window]) -> Vec<bool> {
    let wall = |w: &Window| (w.submit_wall_ns + w.drain_wall_ns) as f64;
    let mut quiet = vec![false; windows.len()];
    for slot in 0..windows.iter().map(|w| w.slot + 1).max().unwrap_or(0) {
        let walls: Vec<f64> = windows.iter().filter(|w| w.slot == slot).map(wall).collect();
        let level = best_tail(&walls, Better::Lower, LEVEL_SHARE);
        for (w, q) in windows.iter().zip(&mut quiet).filter(|(w, _)| w.slot == slot) {
            *q = wall(w) <= level * QUIET_TOLERANCE;
        }
    }
    quiet
}

/// The submit timings of a run over its quiet windows, as a round that
/// was quiet from end to end would have shown them: every slot counts
/// once, as the mean of its quiet windows. On the daemon workloads (one
/// slot) that is the plain p50 / p95 of the quiet windows' samples and
/// their operations over their summed wall; on `sched-deep` it is a whole
/// trace — burst and drain — put together from the quiet windows of each
/// of its parts. Returns `(p50 us, p95 us, submissions per s, jobs per s
/// with the drains)`.
pub fn quiet_round(windows: &[Window], quiet: &[bool]) -> (f64, f64, f64, f64) {
    let slots = windows.iter().map(|w| w.slot + 1).max().unwrap_or(0);
    let mut counted = vec![0usize; slots];
    for (w, _) in windows.iter().zip(quiet).filter(|(_, &q)| q) {
        counted[w.slot] += 1;
    }
    let mut samples: Vec<(u32, f64)> = Vec::new();
    let (mut submissions, mut jobs, mut submit_wall, mut drain_wall) = (0.0, 0.0, 0.0, 0.0);
    for (w, _) in windows.iter().zip(quiet).filter(|(_, &q)| q) {
        let share = 1.0 / counted[w.slot] as f64;
        samples.extend(w.submit_ns.iter().map(|&ns| (ns, share)));
        submissions += w.submit_ns.len() as f64 * share;
        jobs += w.jobs as f64 * share;
        submit_wall += w.submit_wall_ns as f64 * share;
        drain_wall += w.drain_wall_ns as f64 * share;
    }
    (
        weighted_percentile(&mut samples, 50.0) / 1e3,
        weighted_percentile(&mut samples, 95.0) / 1e3,
        per_second(submissions, submit_wall),
        per_second(jobs, submit_wall + drain_wall),
    )
}

/// The end-to-end values of an untraced run: the median of the cold
/// starts, and the submit timings of its quiet round.
pub fn end_to_end(out: &Outcome, setups_s: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let (p50_us, _, submit_per_s, replay_per_s) = quiet_round(&out.windows, &quiet_windows(&out.windows));
    let values = [median(setups_s), p50_us, submit_per_s, replay_per_s];
    END_TO_END.iter().zip(values).map(|(def, value)| (def.name, value, def.unit)).collect()
}

/// The run-level per-layer readings that come straight from the windows.
pub fn run_level(out: &Outcome, layer: &mut Sheet) {
    let of = |traced: bool| -> Vec<Window> { out.windows.iter().filter(|w| w.traced == traced).cloned().collect() };
    let (untraced_windows, traced_windows) = (of(false), of(true));
    let p50s = |windows: &[Window]| -> Vec<f64> {
        windows.iter().filter(|w| !w.submit_ns.is_empty()).map(window_p50_us).collect()
    };
    let (untraced, traced) = (p50s(&untraced_windows), p50s(&traced_windows));
    let quiet = quiet_windows(&untraced_windows);
    layer.set("host.quiet_share", quiet.iter().filter(|&&q| q).count() as f64 / quiet.len().max(1) as f64);
    layer.set("submit_p95_us", quiet_round(&untraced_windows, &quiet).1);
    let refreshes: Vec<_> = out.refreshes.iter().filter(|r| !r.traced).collect();
    layer.set("refresh_p50_ms", median(&refreshes.iter().map(|r| r.latency_ns as f64 / 1e6).collect::<Vec<_>>()));
    layer.set(
        "prefetch_keys_per_s",
        per_second(
            refreshes.iter().map(|r| r.prefetch_keys as f64).sum(),
            refreshes.iter().map(|r| r.prefetch_ns as f64).sum(),
        ),
    );
    let mut all: Vec<u32> =
        out.windows.iter().filter(|w| !w.traced).flat_map(|w| w.submit_ns.iter().copied()).collect();
    layer.set("submit.p99_us", percentile(&mut all, 99.0) / 1e3);
    layer.set("submit.p999_us", percentile(&mut all, 99.9) / 1e3);
    layer.set("submit.over_budget", out.over_budget as f64);
    layer.set("submit.window_median_us", median(&untraced));
    layer.set("submit.window_iqr_ratio", iqr_ratio(&untraced));
    if median(&untraced) > 0.0 {
        layer.set("trace.overhead_ratio", median(&traced) / median(&untraced));
    }

    if !out.traces.is_empty() {
        let n = out.traces.len() as f64;
        let mean = |f: &dyn Fn(&DeepTrace) -> f64| out.traces.iter().map(f).sum::<f64>() / n;
        let mut ticks: Vec<u32> = out.traces.iter().flat_map(|t| t.tick_ns.iter().copied()).collect();
        layer.set("slurm.tick_p50_us", percentile(&mut ticks, 50.0) / 1e3);
        layer.set("slurm.tick_p95_us", percentile(&mut ticks, 95.0) / 1e3);
        layer.set("slurm.ticks", ticks.len() as f64 / n);
        layer.set("slurm.drain_s", mean(&|t| t.tick_ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9));
        layer.set("slurm.jobs_completed", mean(&|t| t.jobs_completed as f64));
        layer.set("slurm.makespan_sim_s", mean(&|t| t.makespan_sim_s));
        layer.set("slurm.energy_mj", mean(&|t| t.energy_j / 1e6));
        let depth: Vec<&DeepTrace> = out.traces.iter().filter(|t| t.traced).collect();
        let submits = (depth.len() * crate::gen::TRACE_JOBS).max(1) as f64;
        layer
            .set("slurm.pending_depth_mean", depth.iter().map(|t| t.pending_depth_sum).sum::<u64>() as f64 / submits);
        layer.set("slurm.pending_depth_max", depth.iter().map(|t| t.pending_depth_max).max().unwrap_or(0) as f64);
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END.iter().map(|m| (m.name, m.unit)).chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(
                name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25), "the driver takes no bound wider than 25 %");
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound), "set-up has the largest bound");
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let better = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
        let field = |m: &serde_json::Value, k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();

        let declared = json.get("end_to_end").and_then(|v| v.as_array()).expect("end_to_end list");
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, m) in declared.iter().zip(&END_TO_END) {
            assert_eq!(
                (field(d, "name"), field(d, "unit"), field(d, "better")),
                (m.name.into(), m.unit.into(), better(m.better).into())
            );
            assert_eq!(d.get("bound").and_then(|v| v.as_f64()), Some(m.bound), "{}", m.name);
        }
        let declared = json.get("per_layer").and_then(|v| v.as_array()).expect("per_layer list");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (d, m) in declared.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(d, "name"), field(d, "unit"), field(d, "better")),
                (m.0.into(), m.1.into(), better(m.2).into())
            );
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::ALL.map(|w| w.name().to_string()));
        assert_eq!(json.get("run_seconds").and_then(|v| v.as_u64()), Some(crate::DEFAULT_SECONDS));
    }

    #[test]
    fn the_sheet_emits_every_catalogue_name_and_no_other() {
        let mut sheet = Sheet::default();
        sheet.set("store.commit_ns", 7.0);
        let rows = sheet.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().zip(&PER_LAYER).all(|(r, m)| r.0 == m.0 && r.2 == m.1));
        assert_eq!(sheet.get("store.commit_ns"), 7.0);
        assert!(std::panic::catch_unwind(|| Sheet::default().set("no.such.metric", 1.0)).is_err());
    }

    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric_in_catalogue_order() {
        let values = end_to_end(&Outcome::default(), &[1.0, 3.0, 2.0]);
        let names: Vec<&str> = values.iter().map(|v| v.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(values[0], ("setup_s", 2.0, "s"), "the median of the cold starts");
    }

    /// A window of `jobs` submissions of `ns` each, drains as long again.
    fn window(slot: usize, ns: u32, jobs: u64) -> Window {
        let wall = ns as u64 * jobs;
        Window {
            slot,
            submit_ns: vec![ns; jobs as usize],
            submit_wall_ns: wall,
            drain_wall_ns: wall,
            jobs,
            ..Window::default()
        }
    }

    #[test]
    fn the_quiet_windows_are_those_near_the_cheapest_of_their_slot() {
        // three at 30 us set the level; 32 us is within 8 % of it, 45 us is the host's slow speed
        let mut windows: Vec<Window> =
            [30_000, 45_000, 30_000, 32_000, 46_000, 30_000].map(|ns| window(0, ns, 100)).into();
        assert_eq!(quiet_windows(&windows), [true, false, true, true, false, true]);
        // another slot has its own level: 300 us there is quiet, 400 us is not
        windows.extend([300_000, 400_000, 310_000, 305_000].map(|ns| window(1, ns, 100)));
        assert_eq!(quiet_windows(&windows)[6..], [true, false, true, true]);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn end_to_end_values_are_those_of_a_quiet_round() {
        let mut windows: Vec<Window> =
            [30_000, 45_000, 30_000, 32_000, 46_000, 30_000].map(|ns| window(0, ns, 100)).into();
        windows[3].submit_ns[0] = 90_000; // one slow submission in a quiet window
        let mut out = Outcome { windows, ..Outcome::default() };
        let value = |out: &Outcome, name: &str| end_to_end(out, &[1.0]).iter().find(|v| v.0 == name).unwrap().1;
        assert_eq!(value(&out, "submit_p50_us"), 30.0, "the 200th of the 400 samples of the four quiet windows");
        assert_eq!(quiet_round(&out.windows, &quiet_windows(&out.windows)).1, 32.0, "the 380th of them");
        // 400 submissions in 3 x 3 ms + 3.2 ms of submission wall, as long again in drains
        assert!((value(&out, "submit_per_s") - 400.0 / 0.0122).abs() < 1e-6);
        assert!((value(&out, "replay_jobs_per_s") - 400.0 / 0.0244).abs() < 1e-6);

        // a second slot, as a sched-deep trace has: two quiet windows of 300 us, one disturbed.
        // A round is one window of each slot: 100 submissions at 30.5 us (the mean of the four
        // quiet windows of slot 0) and 100 at 300 us, so the p50 sits at the top of slot 0
        out.windows.extend([300_000, 300_000, 500_000].map(|ns| window(1, ns, 100)));
        assert_eq!(value(&out, "submit_p50_us"), 90.0);
        assert!((value(&out, "submit_per_s") - 200.0 / (0.00305 + 0.03)).abs() < 1e-6);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("setup_s", 1.25, "s"), ("submit_p50_us", f64::NAN, "us")]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(m.get("setup_s").and_then(|s| s.get("value")).and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("setup_s").and_then(|s| s.get("unit")).and_then(|x| x.as_str()), Some("s"));
        assert_eq!(m.len(), 2);
    }
}
