//! The `chronus` command table checked against itself and against the
//! documentation. The table (`CHRONUS` in `src/bin/chronus.rs`, included
//! here so its rows can be walked) is the only parser the binary has, so:
//!
//! * every typed argument of every command refuses a malformed value, and
//!   every command an unknown flag and a flag without its value — as a
//!   real process: exit 1, the argument named on stderr, nothing printed,
//!   nothing created under `$CHRONUS_HOME`, no daemon left running;
//! * every `chronus …` line in README.md, the verify skill and the
//!   binary's module doc parses (parse only — nothing runs).

#[allow(dead_code)]
#[path = "../src/bin/chronus.rs"]
mod bin;

use chronus::cli::{self, Arg, Command, Handler, Invocation, Kind, Need};
use std::path::{Path, PathBuf};
use std::process::Command as Process;

/// Every runnable row with the words that reach it.
fn leaves(path: &[&'static str], command: &'static Command, out: &mut Vec<(Vec<&'static str>, &'static Command)>) {
    match command.run {
        Handler::Group { subs, .. } => {
            for sub in subs {
                leaves(&[path, &[sub.name]].concat(), sub, out);
            }
        }
        _ => out.push((path.to_vec(), command)),
    }
}

fn is_flag(arg: &Arg) -> bool {
    arg.name.starts_with("--")
}

/// A value `arg` accepts.
fn sample(arg: &Arg) -> &'static str {
    match arg.kind {
        Kind::Switch => unreachable!("a switch takes no value"),
        Kind::Str => "x",
        Kind::U64 | Kind::Usize | Kind::Hash => "1",
        Kind::OneOf(choices) => choices[0],
        Kind::Endpoints => "127.0.0.1:1",
    }
}

/// The command line that reaches `command` with every required argument
/// given a good value — except `swap`, which gets `with` (a positional in
/// its place, a flag with its name before it).
fn invocation(path: &[&'static str], command: &Command, swap: Option<(&Arg, &'static str)>) -> Vec<&'static str> {
    let mut words = path.to_vec();
    for arg in command.args {
        let value = match swap {
            Some((swapped, with)) if swapped.name == arg.name => with,
            _ if matches!(arg.need, Need::Required) => sample(arg),
            _ => continue,
        };
        if is_flag(arg) {
            words.push(arg.name);
        }
        words.push(value);
    }
    words
}

fn scratch_home(tag: &str) -> PathBuf {
    let home = std::env::temp_dir().join(format!("eco-clitable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    home
}

/// Runs the real binary and demands a refusal that names `naming`, before
/// any side effect; answers what it wrote to stderr.
fn refused(home: &Path, words: &[&str], naming: &str) -> String {
    let out = Process::new(env!("CARGO_BIN_EXE_chronus"))
        .args(words)
        .env("CHRONUS_HOME", home)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn chronus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "`chronus {}` must exit 1: {stderr}", words.join(" "));
    assert!(stderr.contains(naming), "`chronus {}` must name {naming}: {stderr}", words.join(" "));
    assert!(out.stdout.is_empty(), "`chronus {}` printed before refusing (a daemon bound?)", words.join(" "));
    assert!(!home.exists(), "`chronus {}` touched $CHRONUS_HOME before refusing", words.join(" "));
    stderr.into_owned()
}

#[test]
fn every_malformed_invocation_in_the_table_is_refused_by_name_before_any_side_effect() {
    let home = scratch_home("walk");
    let mut rows = Vec::new();
    leaves(&[], &bin::CHRONUS, &mut rows);
    assert!(rows.len() >= 19, "four paper commands, four settings and the daemon era: {}", rows.len());
    let (mut typed, mut valued) = (0, 0);
    for (path, command) in rows {
        for arg in command.args.iter().filter(|a| !matches!(a.kind, Kind::Switch | Kind::Str)) {
            refused(&home, &invocation(&path, command, Some((arg, "banana"))), arg.name);
            typed += 1;
        }
        let mut words = invocation(&path, command, None);
        words.push("--no-such-flag");
        refused(&home, &words, "--no-such-flag");
        if let Some(flag) = command.args.iter().find(|a| is_flag(a) && !matches!(a.kind, Kind::Switch)) {
            // its name, then no value: before another flag, and last on the line
            let mut words = invocation(&path, command, Some((flag, "--no-such-flag")));
            let at = words.iter().position(|w| *w == flag.name).expect("the swapped flag is on the line");
            words.truncate(at + 2);
            refused(&home, &words, flag.name);
            words.truncate(at + 1);
            refused(&home, &words, flag.name);
            valued += 1;
        }
        for arg in command.args {
            if let Need::Default(value) = arg.need {
                let words = invocation(&path, command, Some((arg, value)));
                assert!(
                    cli::parse(&bin::CHRONUS, &words).is_ok(),
                    "{}: the default of {} parses",
                    path.join(" "),
                    arg.name
                );
            }
        }
    }
    assert!(
        typed >= 25 && valued >= 12,
        "the walk met {typed} typed arguments and {valued} commands with a valued flag"
    );
}

/// The invocations the parent commit ran with defaults (the first five),
/// or refused only after opening the store or without naming the flag.
#[test]
fn the_measured_reproductions_are_refused() {
    let home = scratch_home("pinned");
    for (words, naming) in [
        (
            &["serve", "--addr", "127.0.0.1:0", "--workers", "banana", "--cache-cap", "8x", "--flet", "3"][..],
            "--workers",
        ),
        (&["serve", "--addr", "127.0.0.1:0", "--workers", "banana"], "--workers"),
        (&["serve", "--addr", "127.0.0.1:0", "--cache-cap", "8x"], "--cache-cap"),
        (&["serve", "--addr", "127.0.0.1:0", "--flet", "3"], "--flet"),
        (&["campaign", "run", "--nodes", "two", "--seed", "x"], "--nodes"),
        (&["campaign", "run", "--nodes", "two"], "--nodes"),
        (&["campaign", "run", "--seed", "x"], "--seed"),
        (&["campaign", "resume", "--plan", "halving"], "--plan"),
        (&["models", "rollback", "1", "--store", "D", "--quorum", "many"], "--quorum"),
        (&["stats", "--remote"], "--remote"),
        (&["slurm-config", "1", "2", "3"], "'3'"),
    ] {
        let stderr = refused(&home, words, naming);
        assert!(stderr.contains(words[0]), "the refusal names the command too: {stderr}");
    }
    assert!(!Path::new("D").exists(), "`models rollback` opened (created) its store before refusing --quorum");
}

#[test]
fn help_lists_every_command_and_every_argument_with_type_and_default() {
    let render = |words: &[&str]| match cli::parse(&bin::CHRONUS, words) {
        Ok(Invocation::Help(text)) => text,
        _ => panic!("`chronus {}` is a request for help", words.join(" ")),
    };
    let top = render(&["--help"]);
    assert_eq!(top, render(&[]), "bare `chronus` is `chronus --help`");
    let Handler::Group { subs, .. } = bin::CHRONUS.run else { panic!("the root is a group") };
    assert_eq!(subs.len(), 11);
    for command in subs {
        let line = top.lines().find(|l| l.trim_start().starts_with(command.name)).expect(command.name);
        assert!(line.starts_with("  ") && line.contains(command.about), "indented, with its help line: {line:?}");
    }
    let mut rows = Vec::new();
    leaves(&[], &bin::CHRONUS, &mut rows);
    for (path, command) in rows {
        let text = render(&[&path[..], &["--help"]].concat());
        assert!(text.starts_with(&format!("Usage: chronus {}", path.join(" "))), "{text}");
        for arg in command.args.iter().filter(|a| is_flag(a)) {
            let line = text.lines().find(|l| l.trim_start().starts_with(arg.name)).expect(arg.name);
            assert!(matches!(arg.kind, Kind::Switch) || line.contains(&format!("<{}>", arg.kind)), "type: {line}");
            assert!(line.contains(arg.help), "help: {line}");
            if let Need::Default(value) = arg.need {
                assert!(line.contains(&format!("(default: {value})")), "default: {line}");
            }
        }
    }
}

/// Splits a shell line into words: whitespace, double quotes, and a `#`
/// that starts a word starts a comment.
fn shell_words(line: &str) -> Vec<String> {
    let (mut words, mut word, mut quoted, mut open) = (Vec::new(), String::new(), false, false);
    for c in line.chars() {
        match c {
            '"' => (quoted, open) = (!quoted, true),
            '#' if !quoted && !open => break,
            c if c.is_whitespace() && !quoted => {
                if open {
                    words.push(std::mem::take(&mut word));
                    open = false;
                }
            }
            c => {
                word.push(c);
                open = true;
            }
        }
    }
    if open {
        words.push(word);
    }
    words
}

/// The arguments of every `chronus` invocation inside the fenced blocks of
/// `text`: after `chronus`, `$B` (the verify skill's binary) or `cargo run …
/// --bin chronus --`, up to a shell operator; `\` continues a line and a
/// `<PLACEHOLDER>` stands for a number.
fn documented_invocations(text: &str) -> Vec<Vec<String>> {
    let (mut found, mut fenced, mut carried) = (Vec::new(), false, String::new());
    for line in text.lines() {
        let line = line.trim_start_matches("//!").trim();
        if line.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        carried.push_str(line.trim_end_matches('\\'));
        carried.push(' ');
        if line.ends_with('\\') {
            continue;
        }
        let words = shell_words(&std::mem::take(&mut carried));
        let Some(program) = words.iter().position(|w| w == "chronus" || w == "$B") else { continue };
        // a command line, not a diagram or prose: only a prompt or `VAR=value` words come first
        let lead = &words[..program];
        if lead.last().is_none_or(|w| w != "--bin") && !lead.iter().all(|w| w == "$" || w.contains('=')) {
            continue;
        }
        let first = if words.get(program + 1).is_some_and(|w| w == "--") { program + 2 } else { program + 1 };
        let args = words[first..].iter().take_while(|w| !["&", "|", ">", "&&"].contains(&w.as_str())).map(|w| {
            if w.starts_with('<') && w.ends_with('>') {
                "1".to_string()
            } else {
                w.clone()
            }
        });
        found.push(args.collect());
    }
    found
}

#[test]
fn every_documented_invocation_parses_against_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (file, at_least) in
        [("README.md", 25), (".claude/skills/verify/SKILL.md", 12), ("crates/chronusd/src/bin/chronus.rs", 12)]
    {
        let text = std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let invocations = documented_invocations(&text);
        assert!(invocations.len() >= at_least, "{file}: only {} `chronus` lines found", invocations.len());
        for words in invocations {
            let words: Vec<&str> = words.iter().map(String::as_str).collect();
            if let Err(e) = cli::parse(&bin::CHRONUS, &words) {
                panic!("{file}: `chronus {}` does not parse: {e}", words.join(" "));
            }
        }
    }
}
