//! The repo benchmark: drives the real pipeline — `Cluster::sbatch` →
//! `PluginHost` → `JobSubmitEco` → `PredictionSource` → `PredictClient`
//! → `Transport` → in-process `PredictServer` → `ModelRegistry` → job
//! rewrite → `Cluster::schedule` — from one process, in a closed loop,
//! and reports end-to-end metrics (tracing off) or per-layer metrics
//! (tracing on). See `benchmark/README.md`.
//!
//! ```text
//! eco-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! eco-benchmark [--seed N] [--seconds S]                       all workloads, both modes
//! eco-benchmark --repeat N [--seed N] [--seconds S]            spread self-check
//! ```

mod gen;
mod host;
mod layers;
mod micro;
mod probe;
mod repeat;
mod report;
mod setup;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use host::Placement;
use probe::{read, Probe, SpanName, Wire};
use report::Sheet;
use setup::{Route, Stack};
use stats::median;
use workloads::{Driver, Outcome, Workload};

/// Cold starts per untraced run; `setup_s` is their median.
const COLD_STARTS: usize = 5;

/// `run_seconds` of `BENCHMARK.json`, so `run.sh` alone measures what the
/// driver measures.
const DEFAULT_SECONDS: u64 = 16;

#[derive(Clone, Copy)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: false, repeat: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, got '{value}'"));
        match flag {
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (one of {})", workloads::ALL.map(Workload::name).join(", "))
                })?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = Some(number()?.max(2) as usize),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(args)
}

/// Where temp files (store journal, `settings.json`, shm ring) and the
/// trace files go: `$BENCH_TMPDIR`, else `benchmark/out/` — inside the
/// checkout, as the driver requires. Point `BENCH_TMPDIR` at a tmpfs to
/// take the disk's sync latency out of `setup_s` and the refreshes.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn tmp_root() -> PathBuf {
    std::env::var_os("BENCH_TMPDIR").map_or_else(|| out_dir().join("tmp"), PathBuf::from)
}

/// A finished run: what goes on the result line, and whether it holds.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn header(workload: Workload, args: &Args, tmp: &std::path::Path) {
    println!(
        "# {} seed={} seconds={} trace={} rounds={} | host: nproc={} loadavg={:.2} steal_ms={:.0} \
         generator_threads=1 tmp={} fs={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        workload.rounds(args.seconds, args.trace),
        host::nproc(),
        host::loadavg(),
        host::steal_ms(),
        tmp.display(),
        host::filesystem_of(tmp),
    );
}

/// One cold start with its warm-up, timed as a whole. The warm-up's
/// readings are discarded; a failure while warming still fails the run.
fn timed_cold_start(
    workload: Workload,
    seed: u64,
    probe: &Arc<Probe>,
    placement: Option<Placement>,
) -> Result<(Stack, f64, Outcome), String> {
    let t = Instant::now();
    let mut stack = setup::cold_start(workload.route(), seed, Arc::clone(probe), &tmp_root(), placement)?;
    let mut driver = Driver::new(&mut stack, workload, seed, 0)?;
    driver.warm_up();
    let warm = Outcome { violations: driver.out.violations, failed: driver.out.failed, ..Outcome::default() };
    Ok((stack, t.elapsed().as_secs_f64(), warm))
}

/// The measured rounds of a run, on top of what its warm-up left in
/// `out`: all untraced, or alternately untraced and traced.
fn measure(workload: Workload, args: &Args, stack: &mut Stack, out: Outcome) -> Result<Outcome, String> {
    let planned = workload.planned_attempts(args.seconds, args.trace);
    let mut driver = Driver::new(stack, workload, args.seed, planned)?;
    driver.out = out;
    for i in 0..workload.rounds(args.seconds, args.trace) {
        driver.round(args.trace && i % 2 == 1);
    }
    let mut out = driver.out;
    final_checks(workload, args, stack, &mut out);
    Ok(out)
}

/// Prints what went wrong, if anything, and wraps the result up.
fn finish(out: &Outcome, metrics: Vec<(&'static str, f64, &'static str)>) -> RunReport {
    for v in &out.violations {
        println!("# VIOLATION: {v}");
    }
    RunReport { correct: out.violations.is_empty(), attempted: out.attempted, failed: out.failed, metrics }
}

/// Checks that hold at the end of every run, traced or not.
fn final_checks(workload: Workload, args: &Args, stack: &Stack, out: &mut Outcome) {
    let mut fail = |what: String| {
        out.violations.push(what);
        out.failed += 1;
    };
    let planned = workload.planned_attempts(args.seconds, args.trace);
    if out.attempted != planned {
        fail(format!("{} operations attempted, the plan has exactly {planned}", out.attempted));
    }
    let expected = workload.refreshes(args.seconds, args.trace) as u64;
    if out.refresh_count != expected {
        fail(format!("{} refreshes performed, the plan has exactly {expected}", out.refresh_count));
    }
    if let Some(server) = &stack.server {
        let (registry, store) = (server.registry().generation(), stack.store.high_water());
        if registry != store {
            fail(format!("at exit the registry serves generation {registry}, the store holds {store}"));
        }
    }
    let c = &stack.probe.counters;
    let (tcp, shm) = (read(&c.frames[Wire::Tcp as usize]), read(&c.frames[Wire::Shm as usize]));
    match stack.route {
        Route::Shm if tcp != 0 || shm == 0 => {
            fail(format!("ring preferred, yet {tcp} frames rode TCP and {shm} the ring"))
        }
        Route::Tcp if shm != 0 || tcp == 0 => fail(format!("TCP only, yet {shm} frames rode a ring and {tcp} TCP")),
        Route::Staged if tcp + shm != 0 => fail(format!("no daemon, yet {} frames were sent", tcp + shm)),
        _ => {}
    }
}

fn untraced_run(workload: Workload, args: &Args, placement: Option<Placement>) -> Result<RunReport, String> {
    header(workload, args, &tmp_root());
    let probe = Arc::new(Probe::new());
    let mut setups = Vec::with_capacity(COLD_STARTS);
    let mut last = None;
    for _ in 0..COLD_STARTS {
        drop(last.take()); // the previous daemon stops before the next boots
        let (stack, secs, warm) = timed_cold_start(workload, args.seed, &probe, placement)?;
        setups.push(secs);
        last = Some((stack, warm));
    }
    let (mut stack, warm) = last.expect("at least one cold start");
    let t = Instant::now();
    let out = measure(workload, args, &mut stack, warm)?;
    let measured_s = t.elapsed().as_secs_f64();
    let p50: Vec<f64> = out.windows.iter().filter(|w| !w.submit_ns.is_empty()).map(report::window_p50_us).collect();
    let (q1, q2, q3) = stats::quartiles(&p50);
    let quiet = report::quiet_windows(&out.windows);
    println!(
        "# window_p50_us: n={} min={:.1} q1={q1:.1} median={q2:.1} q3={q3:.1} max={:.1} | quiet: {} of {} windows",
        p50.len(),
        p50.iter().copied().fold(f64::INFINITY, f64::min),
        p50.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        quiet.iter().filter(|&&q| q).count(),
        quiet.len(),
    );
    println!(
        "# setups_s={setups:.3?} measured_s={measured_s:.1} host-end: loadavg={:.2} steal_ms={:.0}",
        host::loadavg(),
        host::steal_ms()
    );
    Ok(finish(&out, report::end_to_end(&out, &setups)))
}

fn median_ns(samples: &[u32]) -> f64 {
    median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// The span-derived layer readings. Returns slurm's own share of a
/// submission (median `sbatch` self time over the median `sbatch`, same
/// rounds) for the layer-share check.
///
/// `submit.accounted_ratio` is the sum of the per-layer median self
/// times over the `sbatch` median, each layer weighted by how often it
/// runs per submission (once, on the daemon workloads; the predict span
/// runs in 3 % of `sched-deep`'s).
fn span_metrics(stack: &Stack, sheet: &mut Sheet) -> f64 {
    let p = &stack.probe;
    let (sbatch, sbatch_self) = p.take_samples(SpanName::Sbatch);
    let (parse, _) = p.take_samples(SpanName::SlurmParse);
    let (plugin, plugin_self) = p.take_samples(SpanName::PluginJobSubmit);
    let (load, _) = p.take_samples(SpanName::StorageLoadSettings);
    let (predict, predict_self) = p.take_samples(SpanName::SourcePredict);
    let (send, _) = p.take_samples(SpanName::TransportSend);
    let (recv, _) = p.take_samples(SpanName::TransportRecvWait);
    sheet.set("slurm.parse_script_ns", median_ns(&parse));
    sheet.set("slurm.submit_self_ns", median_ns(&sbatch_self));
    sheet.set("eco-plugin.job_submit_ns", median_ns(&plugin));
    sheet.set("eco-plugin.self_ns", median_ns(&plugin_self));
    sheet.set("core.storage.load_settings_ns", median_ns(&load));
    if stack.server.is_some() {
        sheet.set("core.remote.client.predict_ns", median_ns(&predict));
        sheet.set("core.remote.client.self_ns", median_ns(&predict_self));
        let (send_name, recv_name) = match stack.route {
            Route::Shm => ("transport.shm.send_ns", "transport.shm.recv_wait_ns"),
            _ => ("transport.tcp.send_ns", "transport.tcp.recv_wait_ns"),
        };
        sheet.set(send_name, median_ns(&send));
        sheet.set(recv_name, median_ns(&recv));
    }
    let mut slurm_share = 0.0;
    if !sbatch.is_empty() {
        let per_submit = |samples: &[u32]| median_ns(samples) * (samples.len() as f64 / sbatch.len() as f64).min(1.0);
        let layers = [&sbatch_self, &parse, &plugin_self, &load, &predict_self, &send, &recv];
        let accounted: f64 = layers.iter().map(|l| per_submit(l)).sum();
        sheet.set("submit.accounted_ratio", accounted / median_ns(&sbatch));
        slurm_share = median_ns(&sbatch_self) / median_ns(&sbatch);
    }
    let outcomes = gen::OUTCOMES_PER_REFRESH as f64;
    sheet.set("adapt.report_outcome_ns", median_ns(&p.take_samples(SpanName::AdaptReportOutcome).0) / outcomes);
    sheet.set("adapt.refit_ns", median_ns(&p.take_samples(SpanName::AdaptRefit).0));
    sheet.set("store.commit_ns", median_ns(&p.take_samples(SpanName::StoreCommit).0));
    sheet.set("campaign.roll_into_ns", median_ns(&p.take_samples(SpanName::CampaignRollInto).0));
    sheet.set("eco-plugin.prefetch_ns", median_ns(&p.take_samples(SpanName::PluginPrefetch).0));
    slurm_share
}

/// Counts read at the layer boundaries and from the program's own
/// snapshots.
fn count_metrics(stack: &Stack, out: &Outcome, spans_before: u64, sheet: &mut Sheet) {
    let c = &stack.probe.counters;
    let sub = out.in_submit;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    sheet.set("core.storage.load_settings_per_submit", per(sub.load_settings, sub.submits));
    if let Some(server) = &stack.server {
        sheet.set("core.remote.client.frames_per_predict", per(sub.frames, sub.predicts));
        sheet.set("core.remote.client.bytes_out_per_req", per(sub.bytes_out, sub.frames));
        sheet.set("core.remote.client.bytes_in_per_req", per(sub.bytes_in, sub.frames));
        sheet.set("core.remote.client.retries", stack.telemetry.counter("client.retries").get() as f64);
        sheet.set("core.remote.client.failovers", stack.telemetry.counter("ring.failovers").get() as f64);
        let snap = server.snapshot();
        sheet.set("chronusd.service.requests", snap.requests_total as f64);
        sheet.set("chronusd.service.hit_ratio", per(snap.cache_hits, snap.predictions));
        sheet.set("chronusd.service.busy", snap.busy_rejections as f64);
        sheet.set("chronusd.service.errors", snap.errors as f64);
        sheet.set("chronusd.service.latency_p50_us", snap.latency_p50_us as f64);
        sheet.set("chronusd.service.latency_p99_us", snap.latency_p99_us as f64);
        sheet.set("chronusd.registry.generation", snap.model_generation as f64);
        sheet.set("chronusd.registry.evictions", snap.evictions as f64);
    }
    for (wire, frames, connects) in [
        (Wire::Tcp, "transport.tcp.frames", "transport.tcp.connects"),
        (Wire::Shm, "transport.shm.frames", "transport.shm.connects"),
    ] {
        sheet.set(frames, read(&c.frames[wire as usize]) as f64);
        sheet.set(connects, read(&c.connects[wire as usize]) as f64);
    }
    let plugin = stack.plugin.lock().stats();
    sheet.set("eco-plugin.applied", plugin.applied as f64);
    sheet.set("eco-plugin.skipped", plugin.skipped as f64);
    sheet.set("eco-plugin.errors", plugin.errors as f64);
    sheet.set("eco-plugin.applied_ratio", per(plugin.applied as u64, plugin.total() as u64));
    let commits = stack.store.commits().count() as u64;
    sheet.set("store.generation", stack.store.high_water() as f64);
    sheet.set("store.bytes_per_commit", per(read(&c.store_bytes), commits));
    sheet.set("store.appends_per_commit", per(read(&c.store_appends) + read(&c.store_atomic_writes), commits));
    let t = &stack.timings;
    sheet.set("campaign.fit_ns", median(&t.fit_ns));
    sheet.set("campaign.commit_to_store_ns", median(&t.commit_ns));
    let spans = recorded_spans(stack) - spans_before;
    sheet.set("telemetry.spans_per_submit", per(spans, out.attempted));
}

/// Spans the program's own telemetry has recorded so far.
fn recorded_spans(stack: &Stack) -> u64 {
    let recorder = stack.telemetry.recorder();
    recorder.events().len() as u64 + recorder.dropped()
}

/// Slurm's own share of a submission must stay under this on the
/// workloads built to bypass the scheduler (measured: 14 % on
/// `submit-tcp`, 6 % on `refresh-mix`) …
const SLURM_SHARE_BYPASSED: f64 = 0.25;
/// … and over this on the one built for it (measured: 92 %). Both gates
/// sit well clear of the measured shares so that noise cannot trip them;
/// they catch a workload that has stopped exercising what it claims.
const SLURM_SHARE_EXERCISED: f64 = 0.85;

/// Fails the run when a workload does not exercise what it claims.
fn layer_share_checks(workload: Workload, slurm_share: f64, sheet: &Sheet, out: &mut Outcome) {
    let client = sheet.get("core.remote.client.predict_ns") + sheet.get("core.remote.client.frames_per_predict");
    let (tcp, shm) = (sheet.get("transport.tcp.recv_wait_ns"), sheet.get("transport.shm.recv_wait_ns"));
    let ticks = sheet.get("slurm.tick_p50_us");
    let problem = match workload {
        Workload::SubmitTcp | Workload::RefreshMix if slurm_share >= SLURM_SHARE_BYPASSED => Some(format!(
            "slurm's own share of a submission is {:.0} %, the workload claims under 25 %",
            slurm_share * 100.0
        )),
        Workload::SubmitTcp | Workload::RefreshMix if tcp == 0.0 || shm != 0.0 || ticks != 0.0 => {
            Some("a TCP workload must wait on TCP, never on the ring, and time no scheduler ticks".to_string())
        }
        Workload::SubmitShm if shm == 0.0 || tcp != 0.0 || ticks != 0.0 => {
            Some("the ring workload must wait on the ring, never on TCP, and time no scheduler ticks".to_string())
        }
        Workload::SchedDeep if slurm_share <= SLURM_SHARE_EXERCISED => Some(format!(
            "slurm's own share of a submission is {:.0} %, the workload claims over 85 %",
            slurm_share * 100.0
        )),
        Workload::SchedDeep if client != 0.0 || tcp != 0.0 || shm != 0.0 || ticks == 0.0 => {
            Some("the scheduler workload must time ticks and touch neither client nor transport".to_string())
        }
        _ => None,
    };
    if (sheet.get("store.commit_ns") != 0.0) != (workload == Workload::RefreshMix) {
        out.violations.push("layer share: refresh-mix, and it alone, must time store commits".to_string());
    }
    if let Some(p) = problem {
        out.violations.push(format!("layer share: {p}"));
    }
}

fn traced_run(workload: Workload, args: &Args, placement: Option<Placement>) -> Result<RunReport, String> {
    header(workload, args, &tmp_root());
    let (load_start, steal_start) = (host::loadavg(), host::steal_ms());
    let probe = Arc::new(Probe::new());
    let (mut stack, _, warm) = timed_cold_start(workload, args.seed, &probe, placement)?;
    let spans_before = recorded_spans(&stack);
    let cpu_before = host::process_cpu_us();
    let mut out = measure(workload, args, &mut stack, warm)?;
    let cpu_us = host::process_cpu_us() - cpu_before;

    let mut sheet = Sheet::default();
    report::run_level(&out, &mut sheet);
    let slurm_share = span_metrics(&stack, &mut sheet);
    count_metrics(&stack, &out, spans_before, &mut sheet);
    micro::run(&stack, args.seed, &mut sheet);
    sheet.set("process.cpu_us_per_submit", cpu_us / out.attempted.max(1) as f64);
    sheet.set("process.peak_rss_mb", host::peak_rss_mb());
    sheet.set("host.loadavg_start", load_start);
    sheet.set("host.steal_ms", host::steal_ms() - steal_start);
    layer_share_checks(workload, slurm_share, &sheet, &mut out);

    let trace_path = out_dir().join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&trace_path, probe::trace_json(workload.name(), &stack.probe.take_kept()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("# trace written to {} | host-end: loadavg={:.2}", trace_path.display(), host::loadavg());
    Ok(finish(&out, sheet.rows()))
}

/// Where the workload's threads run; see `Placement` and the README.
/// The TCP workloads put the client and the daemon on one CPU, the ring
/// workload on two; `sched-deep` has one thread and is left alone.
fn placement_of(workload: Workload, allowed: &host::CpuMask) -> Option<Placement> {
    match workload.route() {
        Route::Tcp => Placement::within(allowed, false),
        Route::Shm => Placement::within(allowed, true),
        Route::Staged => None,
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<RunReport, String> {
    std::fs::create_dir_all(tmp_root()).map_err(|e| format!("{}: {e}", tmp_root().display()))?;
    let allowed = host::affinity();
    let placement = allowed.as_ref().and_then(|all| placement_of(workload, all));
    match placement {
        Some(p) => println!("# placement: daemon on cpu {}, client on cpu {}", p.daemon_cpu, p.client_cpu),
        None => println!("# placement: left to the kernel"),
    }
    let report =
        if args.trace { traced_run(workload, args, placement) } else { untraced_run(workload, args, placement) };
    if let (Some(_), Some(all)) = (placement, &allowed) {
        host::set_affinity(all);
    }
    report
}

/// Every workload, untraced then traced, every metric by name with its
/// unit. Returns whether all of it was correct.
fn suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in workloads::ALL {
        for trace in [false, true] {
            let report = run_one(workload, &Args { trace, workload: Some(workload), repeat: None, ..*args })?;
            println!(
                "{} ({}): correct={} attempted={} failed={}",
                workload.name(),
                if trace { "per-layer, tracing on" } else { "end-to-end, tracing off" },
                report.correct,
                report.attempted,
                report.failed
            );
            for (name, value, unit) in &report.metrics {
                println!("  {name:<42} {value:>16.3} {unit}");
            }
            all_correct &= report.correct && report.failed == 0;
        }
    }
    Ok(all_correct)
}

fn main() {
    host::nproc(); // read before any workload confines the thread
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eco-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.repeat, args.workload) {
        (Some(n), _) => repeat::run(n, &args),
        (None, Some(workload)) => run_one(workload, &args).map(|report| {
            println!("{}", report::result_line(report.correct, report.attempted, report.failed, &report.metrics));
            report.correct
        }),
        (None, None) => suite(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("eco-benchmark: {e}");
            std::process::exit(3);
        }
    }
}
