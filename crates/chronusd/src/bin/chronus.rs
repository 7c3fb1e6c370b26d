//! The `chronus` command-line interface, runnable against the simulated
//! SR650 testbed (the paper's §3.3 CLI, end to end). `chronus --help`
//! lists the commands and `chronus <command> --help` every argument with
//! its type and default; both are rendered from the one table
//! ([`chronus::cli`]) that also parses and dispatches, and to which this
//! file adds the daemon-era rows.
//!
//! State (database, blob storage, settings, staged models) persists in
//! `$CHRONUS_HOME` (default `./chronus-home`), so the paper's workflow
//! works across invocations:
//!
//! ```text
//! chronus benchmark /opt/hpcg/bin/xhpcg --configurations configs.json
//! chronus init-model --model random-tree --system 1
//! chronus load-model --model 1
//! chronus slurm-config 0x1a2b 0x3c4d
//! chronus set state active
//! ```
//!
//! `serve` runs chronusd over this `$CHRONUS_HOME`'s staged model, or with
//! `--store` over a durable model store, then its only model source;
//! `--remote` answers the prediction from a running daemon instead of
//! reading the staged model in-process. Everywhere an address is accepted,
//! a comma-separated list names a replicated fleet: the client routes each
//! prediction key over a consistent-hash ring and fails over when a
//! replica goes dark. Endpoints take URI schemes — `tcp://host:port` (also
//! bare `host:port`) and `shm://path` for a same-host daemon's
//! shared-memory ring, which the client prefers when one is healthy:
//!
//! ```text
//! chronus serve --addr 127.0.0.1:4517 --fleet 3 --store /var/lib/chronus/store
//! chronus slurm-config --remote shm:///run/chronusd.shm,127.0.0.1:4517 0x1a2b 0x3c4d
//! chronus stats --remote 127.0.0.1:4517,127.0.0.1:4518 --all-replicas
//! chronus trace job.sh --user alice --remote 127.0.0.1:4517
//! chronus models rollback 1 --store /var/lib/chronus/store --rollout 127.0.0.1:4517
//! ```
//!
//! The campaign engine automates the whole loop — adaptive sweep,
//! journaled trials, model rebuild, hot rollout into a running daemon:
//!
//! ```text
//! chronus campaign run --plan halving --nodes 4 --rollout 127.0.0.1:4517,127.0.0.1:4518 --quorum 2
//! chronus campaign status
//! chronus campaign resume
//! ```
//!
//! The benchmark command drives a freshly booted simulated cluster; the
//! simulated HPCG run length can be scaled with `$CHRONUS_SCALE`
//! (default 0.02 of the paper's 18.5-minute run, for a snappy CLI).

use chronus::application::Chronus;
use chronus::cli::{self, Arg, Args, CliContext, Command, Handler, Invocation};
use chronus::integrations::hpcg_runner::HpcgRunner;
use chronus::integrations::monitoring::{IpmiService, LscpuInfo};
use chronus::integrations::record_store::RecordStore;
use chronus::integrations::storage::{EtcStorage, LocalBlobStore};
use chronus::interfaces::{ApplicationRunner, LocalStorage};
use chronus::presenter;
use chronus::remote::{CallOptions, PredictClient, RemotePrediction};
use chronus::telemetry::{render_trace, Telemetry, TraceId};
use chronusd::campaign::{
    commit_to_store, rebuild_model, roll_into, roll_into_fleet, CampaignEngine, CampaignError, CampaignSpec, Journal,
    PlanSpec, RecordJournal, RunOptions, TrialStatus,
};
use chronusd::store::{LedgerRecord, ModelStore, ProvenanceSource};
use chronusd::{PredictServer, ServerConfig, StorageBackend};
use eco_hpcg::perf_model::PerfModel;
use eco_hpcg::workload::{HpcgWorkload, PAPER_STANDARD_RUNTIME_S};
use eco_plugin::JobSubmitEco;
use eco_sim_node::cpu::CpuSpec;
use eco_sim_node::SimNode;
use eco_slurm_sim::Cluster;
use std::sync::Arc;
use {cli::Kind::*, cli::Need::*, Handler::Standalone};

type Outcome = Result<String, String>;

const ENDPOINTS: &str = "One daemon, or a comma-separated fleet: host:port, tcp://host:port, shm://path";
const REMOTE: Arg =
    Arg::new("--remote", Endpoints, Optional, "Ask this daemon (or fleet) instead of the staged model");
const STATS_REMOTE: Arg = Arg { need: Required, help: ENDPOINTS, ..REMOTE };
const ALL_REPLICAS: Arg =
    Arg::new("--all-replicas", Switch, Optional, "Query every replica, also of a single endpoint");
const ADDR: Arg =
    Arg::new("--addr", Str, Default("127.0.0.1:4517"), "host:port to listen on; port 0 asks for any free one");
const WORKERS: Arg = Arg::new("--workers", Usize, Default("4"), "Worker threads per replica");
const CACHE_CAP: Arg = Arg::new("--cache-cap", Usize, Default("64"), "Resident models per replica");
const FLEET: Arg = Arg::new("--fleet", Usize, Default("1"), "Replicas r0, r1, ... on consecutive ports; at least 1");
const STORE: Arg =
    Arg::new("--store", Str, Optional, "Model store directory: the replicas' model source; campaigns commit to it");
const MODELS_STORE: Arg = Arg { need: Required, help: "Model store directory", ..STORE };
const SHM: Arg = Arg::new(
    "--shm",
    Str,
    Optional,
    "Also serve a shared-memory ring at this path; replica i of a fleet at PATH.r<i>",
);
const SCRIPT: Arg = Arg::new("SCRIPT", Str, Required, "The sbatch script to submit");
const USER: Arg = Arg::new("--user", Str, Default("operator"), "Submitting user");
const PLAN: Arg = Arg::new("--plan", OneOf(&["halving", "brute-force"]), Default("halving"), "Sweep strategy");
const SEED: Arg = Arg::new("--seed", U64, Default("42"), "Campaign seed");
const NODE_CLASS: Arg =
    Arg::new("--node-class", Str, Optional, "Hardware class to characterise; the model commits under its key");
const NODES: Arg = Arg::new("--nodes", Usize, Default("4"), "Simulated nodes to run on; at least 1");
const MAX_TRIALS: Arg =
    Arg::new("--max-trials", Usize, Optional, "Interrupt after this many trials; resume continues");
const CAMPAIGN_MODEL: Arg = Arg::new("--model", Str, Default("brute-force"), "Optimizer type to rebuild and stage");
const ROLLOUT: Arg = Arg::new("--rollout", Endpoints, Optional, ENDPOINTS);
const QUORUM: Arg =
    Arg::new("--quorum", Usize, Optional, "Replicas that must commit a fleet rollout (default: a majority)");
const GEN: Arg = Arg::new("GEN", U64, Required, "A committed generation");
const REASON: Arg = Arg::new("--reason", Str, Default("operator rollback"), "Recorded in the ledger");

/// The whole `chronus` table: the five paper commands, then the daemon era
/// (`pub` for `tests/cli_table.rs`, which includes this file to walk it).
pub const CHRONUS: Command = cli::root(&[
    cli::BENCHMARK,
    cli::INIT_MODEL,
    cli::LOAD_MODEL,
    Command {
        args: &[cli::SYSTEM_HASH, cli::BINARY_HASH, REMOTE],
        run: Standalone(cmd_slurm_config),
        ..cli::SLURM_CONFIG
    },
    cli::SET,
    Command {
        name: "serve",
        about: "Runs chronusd over this home's staged model, or over --store, until killed.",
        args: &[ADDR, WORKERS, CACHE_CAP, FLEET, STORE, SHM],
        run: Standalone(cmd_serve),
    },
    Command {
        name: "stats",
        about: "Renders a daemon's counters and latency percentiles.",
        args: &[STATS_REMOTE, ALL_REPLICAS],
        run: Standalone(cmd_stats),
    },
    Command {
        name: "trace",
        about: "Submits an sbatch script to the testbed and prints its span tree.",
        args: &[SCRIPT, USER, REMOTE],
        run: Standalone(cmd_trace),
    },
    Command {
        name: "campaign",
        about: "The adaptive, journaled benchmark campaign.",
        args: &[],
        run: Handler::Group {
            usage: "<SUBCOMMAND> [ARGS]",
            heading: "Subcommands",
            subs: &[
                Command {
                    name: "run",
                    about: "Starts a campaign, or continues the journaled one.",
                    args: &[PLAN, SEED, NODE_CLASS, NODES, MAX_TRIALS, CAMPAIGN_MODEL, STORE, ROLLOUT, QUORUM],
                    run: Standalone(|args| campaign_drive(args, false)),
                },
                Command {
                    name: "resume",
                    about: "Continues the journaled campaign; an error without one.",
                    args: &[NODES, MAX_TRIALS, CAMPAIGN_MODEL, STORE, ROLLOUT, QUORUM],
                    run: Standalone(|args| campaign_drive(args, true)),
                },
                Command {
                    name: "status",
                    about: "Summarizes the journal without running anything.",
                    args: &[],
                    run: Standalone(campaign_status),
                },
            ],
        },
    },
    Command {
        name: "models",
        about: "Audits and operates the durable model store; touches no daemon memory.",
        args: &[],
        run: Handler::Group {
            usage: "<SUBCOMMAND> [ARGS]",
            heading: "Subcommands",
            subs: &[
                Command {
                    name: "list",
                    about: "The ledger with lineage and provenance; * marks the serving record.",
                    args: &[MODELS_STORE],
                    run: Standalone(models_list),
                },
                Command {
                    name: "show",
                    about: "One record and its blob's verification state.",
                    args: &[GEN, MODELS_STORE],
                    run: Standalone(models_show),
                },
                Command {
                    name: "verify",
                    about: "Exits 1 iff a committed generation fails hash verification.",
                    args: &[MODELS_STORE],
                    run: Standalone(models_verify),
                },
                Command {
                    name: "rollback",
                    about: "Appends a rollback to the ledger and restores that model on a fleet.",
                    args: &[GEN, MODELS_STORE, REASON, ROLLOUT, QUORUM],
                    run: Standalone(models_rollback),
                },
            ],
        },
    },
    Command {
        name: "hashes",
        about: "Prints the system and binary hashes the plugin passes to slurm-config.",
        args: &[],
        run: Handler::Testbed(|ctx, _| {
            let (system, binary) = (ctx.info.system_hash(ctx.cluster), ctx.runner.binary_hash());
            Ok(format!("system hash: {system}\nbinary hash: {binary}\n"))
        }),
    },
]);

fn home() -> String {
    std::env::var("CHRONUS_HOME").unwrap_or_else(|_| "./chronus-home".to_string())
}

/// The simulated HPCG run's work: the paper's 18.5 minutes × `$CHRONUS_SCALE`.
fn full_work_gflop() -> f64 {
    let scale: f64 = std::env::var("CHRONUS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.02);
    let perf = PerfModel::sr650();
    perf.gflops(&perf.standard_config()) * PAPER_STANDARD_RUNTIME_S * scale
}

/// Boots the single-node testbed with the HPCG runner installed.
fn boot() -> (Cluster, HpcgRunner) {
    let mut cluster = Cluster::single_node(SimNode::sr650());
    let workload = Arc::new(HpcgWorkload::with_work(Arc::new(PerfModel::sr650()), full_work_gflop(), 104));
    let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
    (cluster, runner)
}

fn open_app(home: &str) -> Result<Chronus, String> {
    Ok(Chronus::new(
        Box::new(RecordStore::open(format!("{home}/database/data.db")).map_err(|e| e.to_string())?),
        Box::new(LocalBlobStore::new(format!("{home}/optimizers")).map_err(|e| e.to_string())?),
        Box::new(EtcStorage::new(home)),
    ))
}

/// Runs a testbed command: boots the cluster and opens the application.
fn on_testbed(run: impl FnOnce(&mut CliContext<'_>) -> chronus::Result<String>) -> Outcome {
    let (mut cluster, runner) = boot();
    let (mut app, mut sampler, info) = (open_app(&home())?, IpmiService::new(0, 0xc11), LscpuInfo::new(0));
    let mut ctx = CliContext {
        app: &mut app,
        cluster: &mut cluster,
        runner: &runner,
        sampler: &mut sampler,
        info: &info,
        now_ms: 0,
    };
    run(&mut ctx).map_err(|e| e.to_string())
}

/// Builds a client from a `--remote`/`--rollout` value.
fn client_for(endpoints: &str) -> Result<PredictClient, String> {
    PredictClient::builder()
        .endpoints(endpoints.split(',').map(str::trim).filter(|a| !a.is_empty()))
        .build()
        .map_err(|e| format!("bad endpoint list '{endpoints}': {e}"))
}

/// `chronus serve`: with `--store` the store is every replica's model
/// source — caught up from (blob-verified, zero Preload traffic) before it
/// accepts connections, asked again on every `Preload` and miss. Without
/// one, the source is this home's staged model.
fn cmd_serve(args: &Args) -> Outcome {
    let size = |arg| args.size(arg).expect("declared with a default");
    let text = |arg| args.get(arg).map(str::to_string);
    let base = ServerConfig {
        addr: args[&ADDR].to_string(),
        workers: size(&WORKERS),
        cache_cap: size(&CACHE_CAP),
        store_dir: text(&STORE),
        shm_path: text(&SHM),
        ..ServerConfig::default()
    };
    let fleet = size(&FLEET).max(1);
    let (host, port) = base
        .addr
        .rsplit_once(':')
        .and_then(|(h, p)| p.parse::<u16>().ok().map(|p| (h, p)))
        .ok_or_else(|| format!("serve: bad {} '{}' (expected host:port)", ADDR.name, base.addr))?;
    let mut servers = Vec::with_capacity(fleet);
    let mut endpoints = Vec::with_capacity(fleet);
    for i in 0..fleet {
        let cfg = ServerConfig {
            // port 0 asks the OS for an ephemeral port per replica;
            // otherwise replicas take consecutive ports from the base
            addr: if port == 0 { format!("{host}:0") } else { format!("{host}:{}", port + i as u16) },
            replica_id: if fleet > 1 { format!("r{i}") } else { String::new() },
            // one ring file per replica: the seat protocol is strictly
            // one daemon per ring
            shm_path: base.shm_path.as_ref().map(|p| if fleet > 1 { format!("{p}.r{i}") } else { p.clone() }),
            ..base.clone()
        };
        let backend = Arc::new(StorageBackend::new(Box::new(EtcStorage::new(home()))));
        let s = PredictServer::start(cfg.clone(), backend)
            .map_err(|e| format!("serve: cannot bind {}: {e}", cfg.addr))?;
        println!(
            "chronusd{} listening on {} ({} workers, cache {})",
            if fleet > 1 { format!(" replica r{i}") } else { String::new() },
            s.addr(),
            cfg.workers,
            cfg.cache_cap
        );
        let boot = s.boot_recovery();
        if cfg.store_dir.is_some() {
            let installed = boot.store.installed;
            println!("  store catch-up: {installed} installed from the ledger, {} resident", s.registry().len());
            if installed > cfg.cache_cap {
                println!(
                    "  warning: the ledger serves {installed} models, {} holds {}: the rest resolve from the \
                     store on their first request",
                    CACHE_CAP.name, cfg.cache_cap
                );
            }
            for rejected in &boot.store.rejected {
                println!("  store rejected {rejected}");
            }
        }
        if let Some(ring) = s.shm_path() {
            println!("  local transport: shm://{ring}");
            // same-host clients list the ring first: the client
            // prefers local replicas and keeps TCP as fallback
            endpoints.push(format!("shm://{ring}"));
        }
        endpoints.push(s.addr().to_string());
        servers.push(s);
    }
    if fleet > 1 || endpoints.len() > 1 {
        println!("fleet endpoints: {}", endpoints.join(","));
    }
    loop {
        std::thread::park();
    }
}

/// `chronus slurm-config`: from a daemon with `--remote`, else (only then
/// booting the testbed) from the staged model.
fn cmd_slurm_config(args: &Args) -> Outcome {
    let Some(remote) = args.get(&REMOTE) else { return on_testbed(|ctx| cli::cmd_slurm_config(ctx, args)) };
    let hash = |arg| args.num(arg).expect("required");
    let config = client_for(remote)?
        .predict(hash(&cli::SYSTEM_HASH), hash(&cli::BINARY_HASH), &CallOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(presenter::config_json(&config))
}

/// `chronus stats`: with several endpoints (or `--all-replicas`) every
/// replica is queried and rendered in turn; a replica that cannot answer
/// reports its error without hiding the others.
fn cmd_stats(args: &Args) -> Outcome {
    let mut client = client_for(&args[&STATS_REMOTE])?;
    if args.get(&ALL_REPLICAS).is_none() && client.replicas_total() == 1 {
        return client.stats().map(|snap| presenter::stats_table(&snap)).map_err(|e| e.to_string());
    }
    let mut unreachable = 0;
    for (endpoint, outcome) in client.stats_all() {
        println!("== {endpoint} ==");
        match outcome {
            Ok(snap) => print!("{}", presenter::stats_table(&snap)),
            Err(e) => {
                unreachable += 1;
                println!("unreachable: {e}");
            }
        }
    }
    if unreachable > 0 {
        return Err(format!("{unreachable} of {} replicas unreachable", client.replicas_total()));
    }
    Ok(String::new())
}

/// `chronus trace`: submit the script to the simulated testbed with
/// telemetry attached and render the submission's span tree — parse,
/// plugin decision, prediction and (with `--remote`) every client attempt.
fn cmd_trace(args: &Args) -> Outcome {
    let (path, user) = (&args[&SCRIPT], &args[&USER]);
    let script = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (mut cluster, runner) = boot();

    let telemetry = Arc::new(Telemetry::wall());
    cluster.set_telemetry(Arc::clone(&telemetry));
    let storage = Arc::new(EtcStorage::new(home()));
    let mut eco = JobSubmitEco::new(storage as Arc<dyn LocalStorage + Send + Sync>, &CpuSpec::epyc_7502p(), 256);
    eco.register_binary(runner.binary_path(), runner.workload().binary_id());
    eco.set_telemetry(Arc::clone(&telemetry));
    if let Some(addr) = args.get(&REMOTE) {
        let source =
            Arc::new(RemotePrediction::from_endpoints(addr).map_err(|e| format!("bad endpoint list '{addr}': {e}"))?);
        source.set_telemetry(Arc::clone(&telemetry));
        eco.set_source(source);
    }
    cluster.register_plugin(Box::new(eco));

    let mut out = match cluster.sbatch(&script, user) {
        Ok(id) => format!("job {id} submitted by {user}\n"),
        Err(e) => format!("submission rejected: {e}\n"),
    };
    let events = telemetry.recorder().events();
    match events.iter().find(|e| e.layer == "slurm" && e.name == "sbatch" && e.parent.is_none()) {
        Some(root) => out.push_str(&render_trace(&events, TraceId(root.trace))),
        None => out.push_str("no trace recorded\n"),
    }
    Ok(out)
}

fn open_journal() -> Result<RecordJournal, String> {
    let dir = format!("{}/campaign", home());
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    RecordJournal::open(format!("{dir}/journal.db")).map_err(|e| e.to_string())
}

/// `chronus campaign status`.
fn campaign_status(_: &Args) -> Outcome {
    let journal = open_journal()?;
    let Some(spec) = journal.load_spec().map_err(|e| e.to_string())? else {
        return Ok("no campaign journal\n".to_string());
    };
    let entries = journal.entries().map_err(|e| e.to_string())?;
    let mut out = format!(
        "campaign \"{}\" (plan {}, seed {}, {} configurations)\n",
        spec.name,
        spec.plan.name(),
        spec.seed,
        spec.configs.len()
    );
    let rounds = entries.iter().map(|(_, e)| e.round).max().map(|r| r + 1).unwrap_or(0);
    for round in 0..rounds {
        let (mut done, mut failed, mut started) = (0, 0, 0);
        for (_, e) in entries.iter().filter(|(_, e)| e.round == round) {
            match e.status {
                TrialStatus::Done { .. } => done += 1,
                TrialStatus::Failed { .. } => failed += 1,
                TrialStatus::Started => started += 1,
            }
        }
        out.push_str(&format!("  round {round}: {done} done, {failed} failed, {started} in flight\n"));
    }
    out.push_str(&format!("  {} trial entries journaled\n", entries.len()));
    Ok(out)
}

/// A fresh campaign spec from `chronus campaign run`'s arguments. The
/// sampling cadence comes from settings (`chronus set sample-interval`).
fn campaign_spec(args: &Args) -> Result<CampaignSpec, String> {
    let settings = EtcStorage::new(home()).load_settings().map_err(|e| e.to_string())?;
    Ok(CampaignSpec {
        name: "hpcg-campaign".to_string(),
        configs: CpuSpec::epyc_7502p().all_configurations(),
        plan: if &args[&PLAN] == "halving" { PlanSpec::default_halving() } else { PlanSpec::BruteForce },
        seed: args.num(&SEED).expect("declared with a default"),
        sample_interval_ms: settings.sample_interval.as_millis(),
        full_work_gflop: full_work_gflop(),
        nx: 104,
        node_class: args.get(&NODE_CLASS).unwrap_or_default().to_string(),
    })
}

/// `chronus campaign run|resume`: drive the journaled campaign to the end
/// (or `--max-trials`), rebuild and stage the model, commit it, roll it out.
fn campaign_drive(args: &Args, resume: bool) -> Outcome {
    let home = home();
    let mut journal = open_journal()?;
    let spec = match journal.load_spec().map_err(|e| e.to_string())? {
        Some(existing) => existing, // continue the journaled campaign
        None if resume => return Err("no campaign journal to resume; start one with `chronus campaign run`".into()),
        None => campaign_spec(args)?,
    };
    let nodes = args.size(&NODES).expect("declared with a default").max(1);
    let mut cluster = Cluster::new((0..nodes).map(|_| SimNode::sr650()).collect());

    let outcome = {
        let mut repo = RecordStore::open(format!("{home}/database/data.db")).map_err(|e| e.to_string())?;
        CampaignEngine::new(&mut cluster, &mut journal, &mut repo, Arc::new(PerfModel::sr650()), spec.clone())
            .run(RunOptions { max_trials: args.size(&MAX_TRIALS), on_tick: None })
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(CampaignError::Interrupted { finished }) => {
            return Ok(format!(
            "campaign interrupted after {finished} trial(s); `chronus campaign resume` continues from the journal\n"
        ))
        }
        Err(e) => return Err(e.to_string()),
    };

    let mut out = format!(
        "campaign \"{}\" complete: {} round(s), {} trial(s) run, {} resumed from journal, \
         {} failed, {:.0} trial-seconds\nbest configuration: {}\n",
        spec.name,
        outcome.rounds,
        outcome.trials_run,
        outcome.trials_skipped,
        outcome.trials_failed,
        outcome.trial_seconds,
        outcome.best
    );

    // rebuild and stage the model from the fresh benchmarks (the engine's
    // repository handle is closed; the app opens its own)
    let mut app = open_app(&home)?;
    let staged = rebuild_model(&mut app, &args[&CAMPAIGN_MODEL], outcome.system_id, outcome.binary_hash, 0)
        .map_err(|e| e.to_string())?;
    out.push_str(&format!("model {} ({}) staged for serving\n", staged.model_id, staged.model_type));

    // the durable commit comes BEFORE any replica is asked to serve the
    // model: a store failure aborts the rollout, never the reverse
    if let Some(dir) = args.get(&STORE) {
        let mut store = ModelStore::open_dir(dir).map_err(|e| e.to_string())?;
        let record = commit_to_store(&mut store, &staged, &spec, &outcome).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "model committed to store {dir}: generation {} (parent {}, blob {})\n",
            record.generation, record.parent, record.blob_hash
        ));
    }

    if let Some(addr) = args.get(&ROLLOUT) {
        let mut client = client_for(addr)?;
        if client.replicas_total() > 1 {
            // fleet rollout: fan out to every replica, demand a quorum
            // (default: majority) before declaring the model live
            let quorum = args.size(&QUORUM).unwrap_or(client.replicas_total() / 2 + 1);
            match roll_into_fleet(&mut client, staged.model_id, None, quorum) {
                Ok(report) => {
                    out.push_str(&format!(
                        "fleet rollout into {addr}: model {} committed on {}/{} replicas at generation {}\n",
                        staged.model_id,
                        report.acks.len(),
                        report.acks.len() + report.failures.len(),
                        report.committed_generation()
                    ));
                    for (ep, e) in &report.failures {
                        out.push_str(&format!("  replica {ep} did not commit: {e}\n"));
                    }
                }
                Err(e) => out.push_str(&format!(
                    "fleet rollout into {addr} failed: {e}\n\
                     (committed replicas keep the new model; retry with `chronus campaign resume --rollout {addr}`)\n"
                )),
            }
        } else {
            match roll_into(&mut client, staged.model_id, None) {
                Ok(ack) => out.push_str(&format!(
                    "hot rollout into {addr}: model {} committed at generation {}\n",
                    ack.model_id, ack.generation
                )),
                Err(e) => out.push_str(&format!(
                    "rollout into {addr} failed: {e}\n\
                     (the daemon keeps serving its previous model; retry with `chronus campaign run --rollout {addr}`)\n"
                )),
            }
        }
    }
    Ok(out)
}

/// Opens the `--store` every `chronus models` sub-command names.
fn open_store(args: &Args) -> Result<(&str, ModelStore), String> {
    let dir = &args[&MODELS_STORE];
    let store = ModelStore::open_dir(dir).map_err(|e| e.to_string())?;
    if store.recovered_truncation() {
        eprintln!("chronus models: store {dir} had a torn journal tail; recovered to the last valid record");
    }
    Ok((dir, store))
}

fn models_list(args: &Args) -> Outcome {
    let (dir, store) = open_store(args)?;
    let serving = store.current_generation();
    let mut out = format!(
        "store {dir}: {} commit(s), high-water generation {}, serving generation {}\n",
        store.commits().count(),
        store.high_water(),
        serving
    );
    for record in store.ledger() {
        match record {
            LedgerRecord::Commit(m) => out.push_str(&format!(
                "{} gen {:>3}  parent {:>3}  model {:>4} ({})  key {:#x}/{:#x}  blob {}  campaign \"{}\" seed {}{}\n",
                if m.generation == serving { "*" } else { " " },
                m.generation,
                m.parent,
                m.model_id,
                m.model_type,
                m.system_hash,
                m.binary_hash,
                m.blob_hash,
                m.provenance.campaign,
                m.provenance.seed,
                if m.provenance.source == ProvenanceSource::Adaptation {
                    format!("  [refit of gen {}]", m.provenance.refit_of)
                } else {
                    String::new()
                },
            )),
            LedgerRecord::Rollback { to_generation, reason } => {
                out.push_str(&format!("  rollback -> gen {to_generation}  (\"{reason}\")\n"))
            }
        }
    }
    Ok(out)
}

fn models_show(args: &Args) -> Outcome {
    let (_, store) = open_store(args)?;
    let generation = args.num(&GEN).expect("required");
    let m = store.record(generation).ok_or_else(|| format!("generation {generation} was never committed"))?;
    let blob_state = match store.load_blob(m) {
        Ok(blob) => format!("verified ({} benchmark row(s))", blob.benchmarks.len()),
        Err(e) => format!("FAILED: {e}"),
    };
    // adaptation refits carry their lineage: the live generation
    // the re-fit superseded, walked back to the original campaign
    let lineage = if m.provenance.source == ProvenanceSource::Adaptation {
        let mut chain = format!("adaptation refit of gen {}", m.provenance.refit_of);
        let mut at = m.provenance.refit_of;
        while let Some(parent) = store.record(at) {
            if parent.provenance.source != ProvenanceSource::Adaptation {
                chain.push_str(&format!(
                    " (originally campaign \"{}\", gen {})",
                    parent.provenance.campaign, parent.generation
                ));
                break;
            }
            at = parent.provenance.refit_of;
        }
        format!("lineage:    {chain}\n")
    } else {
        String::new()
    };
    Ok(format!(
        "generation {} (parent {}){}\n\
         model:      {} ({})\n\
         key:        system {:#x} / binary {:#x}\n\
         config:     {}\n\
         blob:       {}  {}\n\
         source:     {}\n\
         {lineage}campaign:   \"{}\" (plan {}, seed {})\n\
         trials:     {} run, {} resumed from journal, {:.0} trial-seconds\n\
         calibration: best {:.4} GFLOP/s per watt\n",
        m.generation,
        m.parent,
        if m.generation == store.current_generation() { "  [serving]" } else { "" },
        m.model_id,
        m.model_type,
        m.system_hash,
        m.binary_hash,
        m.config,
        m.blob_hash,
        blob_state,
        m.provenance.source,
        m.provenance.campaign,
        m.provenance.plan,
        m.provenance.seed,
        m.provenance.trials_run,
        m.provenance.trials_skipped,
        m.provenance.trial_seconds,
        m.provenance.best_gflops_per_watt,
    ))
}

fn models_verify(args: &Args) -> Outcome {
    let (dir, store) = open_store(args)?;
    let issues = store.verify();
    let mut out = format!("store {dir}: {} commit(s) audited, {} issue(s)\n", store.commits().count(), issues.len());
    issues.iter().for_each(|issue| out.push_str(&format!("  {}\n", issue.detail)));
    // orphan blobs (generation 0) are crash residue, not damage;
    // anything anchored to a committed generation is
    match issues.iter().filter(|issue| issue.generation > 0).count() {
        0 => Ok(out),
        fatal => Err(format!("{out}{fatal} committed generation(s) failed verification")),
    }
}

fn models_rollback(args: &Args) -> Outcome {
    let (dir, mut store) = open_store(args)?;
    let record = store.rollback_to(args.num(&GEN).expect("required"), &args[&REASON]).map_err(|e| e.to_string())?;
    let mut out = format!(
        "store {dir} rolled back to generation {}: model {} ({}) is the serving record\n",
        record.generation, record.model_id, record.model_type
    );
    if let Some(addr) = args.get(&ROLLOUT) {
        let mut client = client_for(addr)?;
        let quorum = args.size(&QUORUM).unwrap_or(client.replicas_total() / 2 + 1);
        match roll_into_fleet(&mut client, record.model_id, None, quorum) {
            Ok(report) => out.push_str(&format!(
                "fleet rollback into {addr}: model {} restored on {}/{} replicas (quorum {})\n",
                record.model_id,
                report.acks.len(),
                report.acks.len() + report.failures.len(),
                report.quorum
            )),
            Err(e) => {
                return Err(format!(
                    "{out}fleet rollback into {addr} failed: {e}\n\
                     (the store ledger already records the rollback; re-run with --rollout to retry)"
                ))
            }
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    // the table refuses a bad invocation before anything is created, bound
    // or opened; `Standalone` rows then run before the testbed boots
    let outcome = cli::parse(&CHRONUS, &argv).and_then(|invocation| match invocation {
        Invocation::Help(text) => Ok(text),
        Invocation::Run(args) => match args.run {
            Standalone(run) => run(&args),
            Handler::Testbed(run) => on_testbed(|ctx| run(ctx, &args)),
            Handler::Group { .. } => unreachable!("parse descends through every group"),
        },
    });
    match outcome {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("chronus: {e}");
            std::process::exit(1);
        }
    }
}
