//! The Chronus command-line interface, declared as one table. Every
//! command (and sub-command) is a [`Command`] row listing its [`Arg`]s —
//! positionals and `--flags`, each with a value [`Kind`], what a missing
//! one means ([`Need`]) and one help line. The table is the parser
//! ([`parse`] refuses an unknown flag, a missing or unparsable value and an
//! unknown choice, naming the argument and the command), the documentation
//! ([`help`] renders `chronus --help` and `chronus <cmd> --help` from it)
//! and the dispatch (a row carries its [`Handler`]). The five commands of
//! §3.3 — `benchmark`, `init-model`, `load-model`, `slurm-config`, `set` —
//! are declared here; the `chronus` binary adds the daemon-era rows.

use crate::application::Chronus;
use crate::error::{ChronusError, Result};
use crate::interfaces::{ApplicationRunner, SystemInfoProvider, SystemService};
use crate::presenter;
use crate::remote::Endpoint;
use eco_slurm_sim::Cluster;

/// Everything a CLI invocation may touch. The cluster, runner and sampler
/// are only exercised by `benchmark`; the other commands are pure storage
/// operations, mirroring how the real Chronus talks to Slurm only when
/// benchmarking.
pub struct CliContext<'a> {
    /// The application container.
    pub app: &'a mut Chronus,
    /// The cluster benchmarks run on.
    pub cluster: &'a mut Cluster,
    /// The application runner (HPCG).
    pub runner: &'a dyn ApplicationRunner,
    /// The monitoring service (IPMI).
    pub sampler: &'a mut dyn SystemService,
    /// The system-identity provider (lscpu).
    pub info: &'a dyn SystemInfoProvider,
    /// "Now" for model timestamps, milliseconds.
    pub now_ms: u64,
}

/// What an [`Arg`] accepts; help shows it as `<type>`.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A flag that takes no value.
    Switch,
    /// Any string.
    Str,
    /// An unsigned integer.
    U64,
    /// An unsigned integer that fits this platform's `usize`.
    Usize,
    /// A system or binary hash: decimal, or hex after `0x`.
    Hash,
    /// One of the listed words.
    OneOf(&'static [&'static str]),
    /// Comma-separated daemon endpoints: `host:port`, `tcp://host:port`, `shm://path`.
    Endpoints,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::OneOf(choices) => write!(f, "{}", choices.join("|")),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

impl Kind {
    /// Checks `raw` against the kind; a numeric kind answers its number.
    fn check(&self, raw: &str) -> std::result::Result<u64, String> {
        let checked = match self {
            Kind::Switch | Kind::Str => Some(0),
            Kind::U64 => raw.parse().ok(),
            Kind::Usize => raw.parse::<usize>().ok().map(|n| n as u64),
            Kind::Hash => match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            },
            Kind::OneOf(choices) => choices.contains(&raw).then_some(0),
            Kind::Endpoints => {
                // as the client builder reads a list: empty items skipped, at least one left
                let mut items = raw.split(',').filter(|e| !e.trim().is_empty()).peekable();
                (items.peek().is_some() && items.all(|e| Endpoint::parse(e).is_ok())).then_some(0)
            }
        };
        checked.ok_or_else(|| format!("'{raw}' is not <{self}>"))
    }
}

/// What leaving an [`Arg`] out means.
#[derive(Debug, Clone, Copy)]
pub enum Need {
    /// An error naming it.
    Required,
    /// Nothing: the handler reads `None`.
    Optional,
    /// The same as giving this value.
    Default(&'static str),
}

/// One positional (named without dashes) or one flag (`--name`).
#[derive(Debug, Clone, Copy)]
pub struct Arg {
    /// `--workers` for a flag; for a positional, the name help shows.
    pub name: &'static str,
    /// What it accepts.
    pub kind: Kind,
    /// What leaving it out means.
    pub need: Need,
    /// One help line (further lines are indented under the first).
    pub help: &'static str,
}

impl Arg {
    /// Declares one argument.
    pub const fn new(name: &'static str, kind: Kind, need: Need, help: &'static str) -> Arg {
        Arg { name, kind, need, help }
    }

    fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }

    /// How help spells it: `--flag <type>`, `<REQUIRED>`, `[OPTIONAL]`.
    fn synopsis(&self) -> String {
        match (self.is_flag(), self.kind, self.need) {
            (true, Kind::Switch, _) => self.name.to_string(),
            (true, kind, _) => format!("{} <{kind}>", self.name),
            (false, _, Need::Required) => format!("<{}>", self.name),
            (false, _, _) => format!("[{}]", self.name),
        }
    }
}

/// What a row does once its arguments have parsed.
#[derive(Clone, Copy)]
pub enum Handler {
    /// Nothing itself: the next word picks one of `subs`, which help lists
    /// under `heading` after `Usage: chronus … <usage>`.
    Group { usage: &'static str, heading: &'static str, subs: &'static [Command] },
    /// Runs over the simulated testbed and the application.
    Testbed(fn(&mut CliContext<'_>, &Args) -> Result<String>),
    /// Builds what it needs itself (a daemon, a store, a campaign) and must
    /// not find the testbed booted or the database open.
    Standalone(fn(&Args) -> std::result::Result<String, String>),
}

/// One row of the command table.
#[derive(Clone, Copy)]
pub struct Command {
    /// The word that selects it.
    pub name: &'static str,
    /// One help line (further lines are indented under the first).
    pub about: &'static str,
    /// Positionals in order, and flags in help order.
    pub args: &'static [Arg],
    /// What it does.
    pub run: Handler,
}

/// The root row over `commands`: `chronus <COMMAND> [ARGS]`.
pub const fn root(commands: &'static [Command]) -> Command {
    let run = Handler::Group { usage: "<COMMAND> [ARGS]", heading: "Commands", subs: commands };
    Command { name: "chronus", about: "", args: &[], run }
}

/// The checked values of one invocation, read back through the [`Arg`]
/// that declared them.
pub struct Args {
    /// The handler of the row that parsed.
    pub run: Handler,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// What was given for `arg`, or its default; `None` for an optional
    /// argument that was left out (and a switch that was not given).
    pub fn get(&self, arg: &Arg) -> Option<&str> {
        self.values.iter().find(|(name, _)| *name == arg.name).map(|(_, value)| value.as_str())
    }

    /// [`Args::get`] for a `U64` or `Hash` argument.
    pub fn num(&self, arg: &Arg) -> Option<u64> {
        self.get(arg).map(|raw| arg.kind.check(raw).expect("parse checked every value and the defaults are tested"))
    }

    /// [`Args::get`] for a `Usize` argument.
    pub fn size(&self, arg: &Arg) -> Option<usize> {
        self.num(arg).map(|n| usize::try_from(n).expect("parse range-checked a Usize argument"))
    }
}

/// `&args[&ARG]`: the string of an argument declared required or defaulted.
impl std::ops::Index<&Arg> for Args {
    type Output = str;
    fn index(&self, arg: &Arg) -> &str {
        self.get(arg).unwrap_or_else(|| panic!("{} is optional: read it with get()", arg.name))
    }
}

/// What [`parse`] found: a request for help, or a command to run.
pub enum Invocation {
    /// `--help`, or a group named without a sub-command: the text to print.
    Help(String),
    /// A command whose arguments all parsed.
    Run(Args),
}

/// Parses `argv` (without the program name) against the table under
/// `root`; touches nothing but its arguments. An invocation the table
/// refuses is an `Err` reading `<command path>: <argument>: <why>`.
pub fn parse(root: &'static Command, argv: &[&str]) -> std::result::Result<Invocation, String> {
    let (mut command, mut path, mut rest) = (root, String::new(), argv);
    let refuse = |path: &str, problem: String| {
        format!("{}{}{problem}", path.trim_end(), if path.is_empty() { "" } else { ": " })
    };
    while let Handler::Group { heading, subs, .. } = command.run {
        let Some((&word, tail)) = rest.split_first().filter(|(&word, _)| word != "--help") else {
            return Ok(Invocation::Help(help(&path, command)));
        };
        let Some(sub) = subs.iter().find(|c| c.name == word) else {
            let noun = heading.trim_end_matches('s').to_lowercase();
            return Err(refuse(&path, format!("unknown {noun} '{word}'\n{}", help(&path, command))));
        };
        (command, rest) = (sub, tail);
        path.push_str(&format!("{word} "));
    }
    let refuse = |problem: String| refuse(&path, problem);

    let mut values = Vec::new();
    let mut positionals = command.args.iter().filter(|a| !a.is_flag());
    let mut words = rest.iter();
    while let Some(&word) = words.next() {
        if word == "--help" {
            return Ok(Invocation::Help(help(&path, command)));
        }
        let (arg, raw) = if word.starts_with("--") {
            let Some(flag) = command.args.iter().find(|a| a.name == word) else {
                return Err(refuse(format!("unknown flag {word} (see `chronus {path}--help`)")));
            };
            match flag.kind {
                Kind::Switch => (flag, ""),
                kind => match words.next().filter(|value| !value.starts_with("--")) {
                    Some(&value) => (flag, value),
                    None => return Err(refuse(format!("{word}: missing its <{kind}> value"))),
                },
            }
        } else {
            match positionals.next() {
                Some(positional) => (positional, word),
                None => return Err(refuse(format!("unexpected argument '{word}'"))),
            }
        };
        arg.kind.check(raw).map_err(|problem| refuse(format!("{}: {problem}", arg.name)))?;
        values.push((arg.name, raw.to_string()));
    }
    for arg in command.args {
        if values.iter().any(|(name, _)| *name == arg.name) {
            continue;
        }
        match arg.need {
            Need::Default(value) => values.push((arg.name, value.to_string())),
            Need::Required => return Err(refuse(format!("missing {}", arg.synopsis()))),
            Need::Optional => {}
        }
    }
    Ok(Invocation::Run(Args { run: command.run, values }))
}

/// Renders the help of `command`, reached by the words in `path` (each
/// followed by a space).
pub fn help(path: &str, command: &Command) -> String {
    let positionals = |c: &Command| {
        c.args.iter().filter(|a| !a.is_flag()).map(|a| format!(" {}", a.synopsis())).collect::<String>()
    };
    let (mut out, heading, rows): (String, &str, Vec<(String, String)>) = match command.run {
        Handler::Group { usage, heading, subs } => (
            format!("Usage: chronus {path}{usage}\n"),
            heading,
            subs.iter().map(|c| (format!("{}{}", c.name, positionals(c)), c.about.to_string())).collect(),
        ),
        _ => (
            format!(
                "Usage: chronus {}{}{}\n\n{}\n",
                path.trim_end(),
                positionals(command),
                if command.args.iter().any(Arg::is_flag) { " [OPTIONS]" } else { "" },
                command.about
            ),
            "Arguments",
            command
                .args
                .iter()
                .map(|a| match a.need {
                    Need::Default(value) => (a.synopsis(), format!("{} (default: {value})", a.help)),
                    Need::Required if a.is_flag() => (a.synopsis(), format!("{} (required)", a.help)),
                    _ => (a.synopsis(), a.help.to_string()),
                })
                .collect(),
        ),
    };
    if !rows.is_empty() {
        out.push_str(&format!("\n{heading}:\n"));
    }
    for (left, text) in rows {
        let mut lines = text.lines();
        out.push_str(format!("  {left:<26} {}", lines.next().unwrap_or_default()).trim_end());
        lines.for_each(|line| out.push_str(&format!("\n{:29}{line}", "")));
        out.push('\n');
    }
    out
}

use {Handler::Testbed, Kind::*, Need::*};

const HPCG_PATH: Arg = Arg::new("HPCG_PATH", Str, Optional, "The benchmarked binary; must be the installed runner's");
const CONFIGURATIONS: Arg =
    Arg::new("--configurations", Str, Optional, "JSON file of configurations to run (default: all)");
const MODEL_TYPE: Arg = Arg::new("--model", Str, Default("linear-regression"), "Optimizer type to train");
const SYSTEM: Arg = Arg::new("--system", U64, Optional, "System id to train for; lists the systems when left out");
const MODEL_ID: Arg = Arg::new("--model", U64, Optional, "Model id to stage; lists the models when left out");
/// `slurm-config`'s first positional.
pub const SYSTEM_HASH: Arg = Arg::new("SYSTEM_HASH", Hash, Required, "Hash of the system the job runs on");
/// `slurm-config`'s second positional.
pub const BINARY_HASH: Arg = Arg::new("BINARY_HASH", Hash, Required, "Hash of the binary the job runs");
const PATH: Arg = Arg::new("path", Str, Required, "");
const STATE: Arg = Arg::new("value", OneOf(&["active", "user", "deactivated"]), Required, "");
const INTERVAL_MS: Arg = Arg::new("ms", U64, Required, "");

/// `chronus benchmark`.
pub const BENCHMARK: Command = Command {
    name: "benchmark",
    about: "Runs benchmarks on different configurations.",
    args: &[HPCG_PATH, CONFIGURATIONS],
    run: Testbed(cmd_benchmark),
};
/// `chronus init-model`.
pub const INIT_MODEL: Command = Command {
    name: "init-model",
    about: "Initializes the prediction model.",
    args: &[MODEL_TYPE, SYSTEM],
    run: Testbed(cmd_init_model),
};
/// `chronus load-model`.
pub const LOAD_MODEL: Command = Command {
    name: "load-model",
    about: "Loads a pre-trained model.",
    args: &[MODEL_ID],
    run: Testbed(cmd_load_model),
};
/// `chronus slurm-config`, answered from the staged model.
pub const SLURM_CONFIG: Command = Command {
    name: "slurm-config",
    about: "Executes the main functionality.",
    args: &[SYSTEM_HASH, BINARY_HASH],
    run: Testbed(cmd_slurm_config),
};
/// `chronus set`; its help is the paper's Figure 10.
pub const SET: Command = Command {
    name: "set",
    about: "Changes the configuration of the plugin.",
    args: &[],
    run: Handler::Group {
        usage: "<SETTING> <VALUE>",
        heading: "Settings",
        subs: &[
            Command {
                name: "blob-storage",
                about: "Path of the blob storage root.",
                args: &[PATH],
                run: Testbed(|ctx, args| {
                    ctx.app.set_blob_storage(&args[&PATH])?;
                    Ok(format!("blob-storage = {}\n", &args[&PATH]))
                }),
            },
            Command {
                name: "database",
                about: "Path of the repository database.",
                args: &[PATH],
                run: Testbed(|ctx, args| {
                    ctx.app.set_database(&args[&PATH])?;
                    Ok(format!("database = {}\n", &args[&PATH]))
                }),
            },
            Command {
                name: "state",
                about: "Plugin activation state: 'active' rewrites every job,\n\
                        'user' only jobs opting in with --comment \"chronus\",\n\
                        'deactivated' none.",
                args: &[STATE],
                run: Testbed(|ctx, args| {
                    // the choices are the serialized names of `PluginState`
                    ctx.app
                        .set_state(serde_json::from_value(serde_json::Value::String(args[&STATE].to_string()))?)?;
                    Ok(format!("state = {}\n", &args[&STATE]))
                }),
            },
            Command {
                name: "sample-interval",
                about: "IPMI sampling interval for benchmarks (default 2000).",
                args: &[INTERVAL_MS],
                run: Testbed(|ctx, args| {
                    let ms = id(args, &INTERVAL_MS).expect("required");
                    ctx.app.set_sample_interval(ms)?;
                    Ok(format!("sample-interval = {ms} ms\n"))
                }),
            },
        ],
    },
};

const PAPER: Command = root(&[BENCHMARK, INIT_MODEL, LOAD_MODEL, SLURM_CONFIG, SET]);

/// Executes one invocation of the five paper commands; returns the text
/// the command prints.
pub fn run_command(ctx: &mut CliContext<'_>, args: &[&str]) -> Result<String> {
    match parse(&PAPER, args).map_err(ChronusError::InvalidInput)? {
        Invocation::Help(text) => Ok(text),
        Invocation::Run(args) => match args.run {
            Testbed(run) => run(ctx, &args),
            _ => unreachable!("the paper commands all run on the testbed"),
        },
    }
}

/// The repository's ids are `i64`: a number past that range names nothing.
fn id(args: &Args, arg: &Arg) -> Option<i64> {
    args.num(arg).map(|n| i64::try_from(n).unwrap_or(i64::MAX))
}

fn cmd_benchmark(ctx: &mut CliContext<'_>, args: &Args) -> Result<String> {
    if let Some(path) = args.get(&HPCG_PATH).filter(|path| *path != ctx.runner.binary_path()) {
        return Err(ChronusError::InvalidInput(format!(
            "no application runner installed for '{path}' (have '{}')",
            ctx.runner.binary_path()
        )));
    }
    let configs = match args.get(&CONFIGURATIONS) {
        Some(file) => {
            let content = std::fs::read_to_string(file)
                .map_err(|e| ChronusError::InvalidInput(format!("cannot read {file}: {e}")))?;
            Some(presenter::configs_from_json(&content)?)
        }
        None => None,
    };
    let sample_interval = ctx.app.sample_interval()?.as_duration();
    let benches =
        ctx.app.benchmark(ctx.cluster, ctx.runner, ctx.sampler, ctx.info, configs.as_deref(), sample_interval)?;
    let mut out = presenter::benchmarks_table(&benches);
    out.push_str(&format!("\n{} benchmark(s) complete. Run data has been saved to the database.\n", benches.len()));
    Ok(out)
}

fn cmd_init_model(ctx: &mut CliContext<'_>, args: &Args) -> Result<String> {
    let Some(system) = id(args, &SYSTEM) else {
        // the paper's Figure 8 behaviour: present the available systems
        return Ok(presenter::systems_table(&ctx.app.repository().systems()?));
    };
    // resolve the binary hash from the system's benchmarks
    let hashes: Vec<u64> = {
        let mut h: Vec<u64> = ctx
            .app
            .repository()
            .all_benchmarks()?
            .into_iter()
            .filter(|b| b.system_id == system)
            .map(|b| b.binary_hash)
            .collect();
        h.sort_unstable();
        h.dedup();
        h
    };
    let binary_hash = match hashes.as_slice() {
        [] => return Err(ChronusError::NotFound(format!("benchmarks for system {system}"))),
        [one] => *one,
        many => {
            return Err(ChronusError::InvalidInput(format!(
                "system {system} has benchmarks for {} binaries; not yet disambiguated",
                many.len()
            )))
        }
    };
    let meta = ctx.app.init_model(&args[&MODEL_TYPE], system, binary_hash, ctx.now_ms)?;
    Ok(format!(
        "Initializing model of type {}\ntraining model... done\nModel {} saved to {} (fit R2 {:.4}, {} rows)\n",
        meta.model_type, meta.id, meta.blob_path, meta.fit_r2, meta.train_rows
    ))
}

fn cmd_load_model(ctx: &mut CliContext<'_>, args: &Args) -> Result<String> {
    let Some(model) = id(args, &MODEL_ID) else {
        // the paper's Figure 9 behaviour: present the available models
        return Ok(presenter::models_table(&ctx.app.repository().models()?));
    };
    let loaded = ctx.app.load_model(model)?;
    Ok(format!("Model {} ({}) downloaded to {}\n", loaded.model_id, loaded.model_type, loaded.local_path))
}

/// `chronus slurm-config` from the staged model: the JSON the plugin consumes.
pub fn cmd_slurm_config(ctx: &mut CliContext<'_>, args: &Args) -> Result<String> {
    let hash = |arg| args.num(arg).expect("required");
    Ok(presenter::config_json(&ctx.app.slurm_config(hash(&SYSTEM_HASH), hash(&BINARY_HASH))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrations::hpcg_runner::HpcgRunner;
    use crate::integrations::monitoring::{IpmiService, LscpuInfo};
    use crate::integrations::record_store::RecordStore;
    use crate::integrations::storage::{EtcStorage, LocalBlobStore};
    use eco_hpcg::perf_model::PerfModel;
    use eco_hpcg::workload::HpcgWorkload;
    use eco_sim_node::SimNode;
    use std::path::PathBuf;
    use std::sync::Arc;

    struct Fixture {
        app: Chronus,
        cluster: Cluster,
        runner: HpcgRunner,
        sampler: IpmiService,
        info: LscpuInfo,
        root: PathBuf,
    }

    fn fixture(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("eco-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let mut cluster = Cluster::single_node(SimNode::sr650());
        let perf = Arc::new(PerfModel::sr650());
        let work = perf.gflops(&perf.standard_config()) * 20.0;
        let workload = Arc::new(HpcgWorkload::with_work(perf, work, 104));
        let runner = HpcgRunner::install(&mut cluster, "/opt/hpcg/bin/xhpcg", workload);
        let app = Chronus::new(
            Box::new(RecordStore::open(root.join("db/data.db")).unwrap()),
            Box::new(LocalBlobStore::new(root.join("blobs")).unwrap()),
            Box::new(EtcStorage::new(&root)),
        );
        Fixture { app, cluster, runner, sampler: IpmiService::new(0, 9), info: LscpuInfo::new(0), root }
    }

    fn run(f: &mut Fixture, args: &[&str]) -> Result<String> {
        let mut ctx = CliContext {
            app: &mut f.app,
            cluster: &mut f.cluster,
            runner: &f.runner,
            sampler: &mut f.sampler,
            info: &f.info,
            now_ms: 12345,
        };
        run_command(&mut ctx, args)
    }

    #[test]
    fn help_and_unknown_command() {
        let mut f = fixture("help");
        assert!(run(&mut f, &["--help"]).unwrap().contains("benchmark"));
        assert!(run(&mut f, &[]).unwrap().contains("Usage"));
        assert!(run(&mut f, &["frobnicate"]).is_err());
    }

    #[test]
    fn benchmark_with_configurations_file() {
        let mut f = fixture("benchfile");
        let cfg_file = f.root.join("configurations.json");
        std::fs::write(
            &cfg_file,
            r#"[{"cores": 32, "threads_per_core": 1, "frequency": 2200000},
                {"cores": 32, "threads_per_core": 1, "frequency": 2500000}]"#,
        )
        .unwrap();
        let out = run(&mut f, &["benchmark", "/opt/hpcg/bin/xhpcg", "--configurations", cfg_file.to_str().unwrap()])
            .unwrap();
        assert!(out.contains("2 benchmark(s) complete"), "{out}");
        assert!(out.contains("Cores"), "{out}");
    }

    #[test]
    fn benchmark_wrong_binary_path_errors() {
        let mut f = fixture("wrongbin");
        assert!(run(&mut f, &["benchmark", "/bin/other"]).is_err());
    }

    #[test]
    fn full_cli_pipeline() {
        let mut f = fixture("pipeline");
        let cfg_file = f.root.join("c.json");
        std::fs::write(
            &cfg_file,
            r#"[{"cores": 32, "threads_per_core": 1, "frequency": 2200000},
                {"cores": 32, "threads_per_core": 1, "frequency": 2500000},
                {"cores": 16, "threads_per_core": 2, "frequency": 1500000}]"#,
        )
        .unwrap();
        run(&mut f, &["benchmark", "--configurations", cfg_file.to_str().unwrap()]).unwrap();

        // init-model without --system lists systems (Figure 8)
        let listing = run(&mut f, &["init-model", "--model", "brute-force"]).unwrap();
        assert!(listing.contains("Available Systems"), "{listing}");
        assert!(listing.contains("EPYC"), "{listing}");

        let out = run(&mut f, &["init-model", "--model", "brute-force", "--system", "1"]).unwrap();
        assert!(out.contains("Model 1 saved"), "{out}");

        // load-model without --model lists models (Figure 9)
        let listing = run(&mut f, &["load-model"]).unwrap();
        assert!(listing.contains("Available Models"), "{listing}");
        assert!(listing.contains("brute-force"), "{listing}");

        let out = run(&mut f, &["load-model", "--model", "1"]).unwrap();
        assert!(out.contains("downloaded to"), "{out}");

        // slurm-config returns the JSON the plugin consumes
        let sys_hash = f.info.system_hash(&f.cluster);
        let bin_hash = f.runner.binary_hash();
        let sys = format!("{sys_hash}");
        let bin = format!("{bin_hash}");
        let json = run(&mut f, &["slurm-config", &sys, &bin]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["cores"], 32);
        assert_eq!(v["frequency"], 2_200_000);
    }

    #[test]
    fn slurm_config_accepts_hex_hashes() {
        let mut f = fixture("hex");
        // no model loaded: errors, but the hash parsing path is exercised
        let err = run(&mut f, &["slurm-config", "0xff", "0x10"]).unwrap_err();
        assert!(err.to_string().contains("load-model"), "{err}");
        assert!(run(&mut f, &["slurm-config", "zzz", "1"]).is_err());
        assert!(run(&mut f, &["slurm-config", "1"]).is_err());
    }

    #[test]
    fn set_commands() {
        let mut f = fixture("set");
        assert!(run(&mut f, &["set", "database", "/tmp/x.db"]).unwrap().contains("/tmp/x.db"));
        assert!(run(&mut f, &["set", "blob-storage", "/tmp/blobs"]).unwrap().contains("/tmp/blobs"));
        assert!(run(&mut f, &["set", "state", "active"]).unwrap().contains("active"));
        assert!(run(&mut f, &["set", "state", "sideways"]).is_err());
        assert!(run(&mut f, &["set", "--help"]).unwrap().contains("blob-storage"));
        assert!(run(&mut f, &["set", "bogus"]).is_err());
        let s = f.app.settings().unwrap();
        assert_eq!(s.database, "/tmp/x.db");
        assert_eq!(s.state, crate::domain::PluginState::Active);
    }

    /// `chronus set --help` is rendered from the table and is still the
    /// paper's Figure 10, byte for byte.
    #[test]
    fn set_help_is_figure_10() {
        let figure = "Usage: chronus set <SETTING> <VALUE>\n\nSettings:\n  blob-storage <path>        Path of the blob storage root.\n  database <path>            Path of the repository database.\n  state <value>              Plugin activation state: 'active' rewrites every job,\n                             'user' only jobs opting in with --comment \"chronus\",\n                             'deactivated' none.\n  sample-interval <ms>       IPMI sampling interval for benchmarks (default 2000).\n";
        let mut f = fixture("figure10");
        assert_eq!(run(&mut f, &["set", "--help"]).unwrap(), figure);
        assert_eq!(run(&mut f, &["set"]).unwrap(), figure);
    }

    #[test]
    fn the_table_refuses_by_command_and_argument() {
        let refusal = |argv: &[&str]| match parse(&PAPER, argv) {
            Err(refusal) => refusal,
            Ok(_) => panic!("{argv:?} must be refused"),
        };
        assert_eq!(refusal(&["init-model", "--system", "abc"]), "init-model: --system: 'abc' is not <u64>");
        assert_eq!(
            refusal(&["init-model", "--sytem", "1"]),
            "init-model: unknown flag --sytem (see `chronus init-model --help`)"
        );
        assert_eq!(refusal(&["load-model", "--model"]), "load-model: --model: missing its <u64> value");
        assert_eq!(
            refusal(&["benchmark", "--configurations", "--model"]),
            "benchmark: --configurations: missing its <str> value"
        );
        assert_eq!(refusal(&["slurm-config", "0xzz", "1"]), "slurm-config: SYSTEM_HASH: '0xzz' is not <hash>");
        assert_eq!(refusal(&["slurm-config", "1"]), "slurm-config: missing <BINARY_HASH>");
        assert_eq!(refusal(&["slurm-config", "1", "2", "3"]), "slurm-config: unexpected argument '3'");
        assert_eq!(
            refusal(&["set", "state", "sideways"]),
            "set state: value: 'sideways' is not <active|user|deactivated>"
        );
        assert!(refusal(&["set", "bogus", "1"]).starts_with("set: unknown setting 'bogus'\nUsage: chronus set "));
        assert!(
            refusal(&["frobnicate"]).starts_with("unknown command 'frobnicate'\nUsage: chronus <COMMAND> [ARGS]\n")
        );
    }

    #[test]
    fn values_read_back_through_the_argument_that_declared_them() {
        let Ok(Invocation::Run(args)) = parse(&PAPER, &["init-model", "--system", "7"]) else { panic!("parses") };
        assert_eq!((args.num(&SYSTEM), &args[&MODEL_TYPE]), (Some(7), "linear-regression"), "given, and defaulted");
        let Ok(Invocation::Run(args)) = parse(&PAPER, &["slurm-config", "0xff", "16"]) else { panic!("parses") };
        assert_eq!((args.num(&SYSTEM_HASH), args.num(&BINARY_HASH)), (Some(255), Some(16)));
        let Ok(Invocation::Run(args)) = parse(&PAPER, &["benchmark"]) else { panic!("parses") };
        assert_eq!((args.get(&HPCG_PATH), args.get(&CONFIGURATIONS)), (None, None), "optional and left out");
        for (list, accepted) in [
            ("a:1", true),
            ("tcp://a:1,shm:///run/ring, b:2,", true),
            ("", false),
            (",", false),
            ("a", false),
            ("a:1,udp://b:2", false),
        ] {
            assert_eq!(Kind::Endpoints.check(list).is_ok(), accepted, "{list:?}");
        }
    }

    #[test]
    fn set_sample_interval_validates() {
        let mut f = fixture("interval");
        assert!(run(&mut f, &["set", "sample-interval", "500"]).unwrap().contains("500 ms"));
        assert_eq!(f.app.sample_interval().unwrap().as_millis(), 500);
        assert!(run(&mut f, &["set", "sample-interval", "0"]).is_err());
        assert!(run(&mut f, &["set", "sample-interval", "-7"]).is_err());
        assert!(run(&mut f, &["set", "sample-interval", "soon"]).is_err());
        assert_eq!(f.app.sample_interval().unwrap().as_millis(), 500, "rejections leave the setting alone");
        // the benchmark loop honours the configured cadence: a coarser
        // interval collects fewer samples over the same run
        let cfg_file = f.root.join("one.json");
        std::fs::write(&cfg_file, r#"[{"cores": 32, "threads_per_core": 1, "frequency": 2200000}]"#).unwrap();
        run(&mut f, &["benchmark", "--configurations", cfg_file.to_str().unwrap()]).unwrap();
        let fine = f.app.repository().all_benchmarks().unwrap()[0].sample_count;
        run(&mut f, &["set", "sample-interval", "4000"]).unwrap();
        let mut f2 = fixture("interval2");
        run(&mut f2, &["set", "sample-interval", "4000"]).unwrap();
        run(&mut f2, &["benchmark", "--configurations", cfg_file.to_str().unwrap()]).unwrap();
        let coarse = f2.app.repository().all_benchmarks().unwrap()[0].sample_count;
        assert!(coarse < fine, "4000 ms sampling ({coarse}) must collect fewer samples than 500 ms ({fine})");
    }

    #[test]
    fn init_model_bad_args() {
        let mut f = fixture("badargs");
        assert!(run(&mut f, &["init-model", "--system", "abc"]).is_err());
        assert!(run(&mut f, &["init-model", "--model", "bogus", "--system", "1"]).is_err());
        assert!(run(&mut f, &["load-model", "--model", "nan"]).is_err());
    }
}
