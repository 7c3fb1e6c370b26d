//! `--repeat N`: the tool the bounds are set with. Runs the untraced
//! suite N times in child processes (a fresh process per run, as the
//! driver does), then prints min / median / max and the spread —
//! inter-quartile range over the median, by the same quantile method the
//! driver uses — of every (metric, workload) pair. It fails when a spread
//! exceeds the metric's bound, when any run is incorrect or has failed
//! operations, or when `attempted` differs between two runs.
//!
//! Every run has another seed, except the last, which repeats the first
//! one's: `attempted` must repeat exactly for the same seed and length,
//! and, being a function of the length alone, for every other seed too.

use std::process::Command;

use crate::report::END_TO_END;
use crate::stats::{iqr_ratio, median, Better};
use crate::workloads::{Workload, ALL};
use crate::Args;

/// What one child run reported.
struct Child {
    /// End-to-end values, in catalogue order.
    values: Vec<f64>,
    attempted: u64,
    /// Exit code 0, `correct: true` and `failed: 0`.
    clean: bool,
}

fn child_run(workload: Workload, seed: u64, seconds: u64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json: serde_json::Value = serde_json::from_str(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e}): {last}", workload.name()))?;
    let clean = output.status.success()
        && json.get("correct").and_then(|c| c.as_bool()) == Some(true)
        && json.get("failed").and_then(|f| f.as_u64()) == Some(0);
    if !clean {
        // keep measuring: one bad run should not hide the others
        println!("{} seed {seed} was NOT CORRECT:\n{stdout}", workload.name());
    }
    for stall in stdout.lines().filter(|l| l.starts_with("# STALL")) {
        println!("{} seed {seed} {stall}", workload.name());
    }
    let attempted = json.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0);
    let metrics = json.get("metrics").ok_or("result line without metrics")?;
    let values = END_TO_END
        .iter()
        .map(|m| {
            metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{} did not report {}", workload.name(), m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Child { values, attempted, clean })
}

pub fn run(n: usize, args: &Args) -> Result<bool, String> {
    let selected: Vec<Workload> = args.workload.map_or(ALL.to_vec(), |w| vec![w]);
    let mut within = true;
    for workload in selected {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut attempted = Vec::new();
        for i in 0..n {
            let seed = if i + 1 == n { args.seed } else { args.seed + i as u64 };
            let child = child_run(workload, seed, args.seconds)?;
            for (column, v) in columns.iter_mut().zip(child.values) {
                column.push(v);
            }
            attempted.push(child.attempted);
            within &= child.clean;
        }
        println!("| workload | metric | better | min | median | max | spread | bound | |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (def, column) in END_TO_END.iter().zip(&columns) {
            let spread = iqr_ratio(column);
            let over = spread > def.bound;
            within &= !over;
            println!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.1} % | {:.0} % | {} |",
                workload.name(),
                def.name,
                if def.better == Better::Lower { "lower" } else { "higher" },
                column.iter().copied().fold(f64::INFINITY, f64::min),
                median(column),
                column.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                def.bound * 100.0,
                if over { "OVER" } else { "ok" }
            );
        }
        let (least, most) = (attempted.iter().min().unwrap_or(&0), attempted.iter().max().unwrap_or(&0));
        let repeats = least == most;
        within &= repeats;
        println!(
            "| {} | attempted | | {least} | | {most} | | | {} |",
            workload.name(),
            if repeats { "ok" } else { "DIFFERS" }
        );
    }
    Ok(within)
}
