//! `ulmbench`: the repository benchmark. Runs one named workload (or all
//! of them) from a seed, checks its outputs, and prints every metric by
//! name and unit; the last stdout line is the machine-readable result.
//!
//! ```text
//! cargo run --release --manifest-path ulmbench/Cargo.toml -- \
//!     --workload dse-fig8 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer
//! ones; without `--trace` both runs are made. `--workload all` runs each
//! workload in a process of its own. Run it from the root of the
//! workspace: it builds `ulm` there for the reactor probe. Exits non-zero
//! when any output is wrong.

mod check;
mod gen;
mod probes;
mod server;
mod stats;
mod trace;
mod workloads;

use check::Outcome;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Ctx, WORKLOADS};

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    modes: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        modes: vec![false, true],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workloads = if w == "all" {
                    WORKLOADS.iter().map(|s| s.to_string()).collect()
                } else if WORKLOADS.contains(&w.as_str()) {
                    vec![w]
                } else {
                    return Err(format!(
                        "unknown workload {w} (try {} or all)",
                        WORKLOADS.join(", ")
                    ));
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// (steal, total) CPU jiffies so far, from the `cpu` line of
/// `/proc/stat`; `None` where procfs is missing.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// CPU model, core count, compiler and commit, so results from
/// different machines can be compared by ratio.
fn machine_record() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!("machine: cpu \"{cpu}\", nproc {nproc}, {rustc}, commit {commit}")
}

fn print_result(out: &Outcome) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// `--workload all`: each workload in a child process of its own, so
/// each reports its own peak memory. The children's lines pass through;
/// their results merge into one, metric names prefixed by workload.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ulmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut total = Outcome::default();
    for name in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        if let [traced] = args.modes[..] {
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
        }
        let stdout = cmd
            .stderr(Stdio::inherit())
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop();
        for line in lines {
            println!("{line}");
        }
        let Some(v) = last.and_then(|l| serde_json::from_str::<serde::Value>(l).ok()) else {
            total.fail(format!("{name} printed no result"));
            continue;
        };
        total.attempted += v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
        total.failed += v.get("failed").and_then(|x| x.as_u64()).unwrap_or(1);
        let metrics = v.get("metrics").and_then(|x| x.as_object());
        for (metric, m) in metrics.into_iter().flatten() {
            let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or_default();
            total.metric(&format!("{name}/{metric}"), value, unit);
        }
    }
    print_result(&total);
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ulmbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() > 1 {
        return run_each(&args);
    }
    let ulm = match server::build_ulm() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ulmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = std::path::PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("ulmbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    println!("{}", machine_record());

    let name = &args.workloads[0];
    let mut total = Outcome::default();
    for &traced in &args.modes {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            traced,
            tmp: tmp.join(format!("{name}-{traced}")),
            ulm: ulm.clone(),
        };
        let _ = std::fs::create_dir_all(&ctx.tmp);
        let mut out = Outcome::default();
        let before = cpu_jiffies();
        workloads::run(name, &ctx, &mut out);
        // On a shared VM the host may take CPU time from the run; a run
        // with a large steal share reads slow for reasons outside ulm.
        if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
            let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            out.note(format!("cpu steal during the run: {:.1}%", 100.0 * share));
        }
        if !traced {
            out.metric("ok_rate", 1.0 - out.error_rate(), "frac");
        }
        println!(
            "== {name} ({}) seed {} ==",
            if traced { "traced" } else { "untraced" },
            args.seed
        );
        for n in &out.notes {
            println!("  {n}");
        }
        for m in &out.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  error_rate {} ({} failed of {} attempted)",
            out.error_rate(),
            out.failed,
            out.attempted
        );
        for e in &out.errors {
            println!("  FAILED: {e}");
        }
        total.attempted += out.attempted;
        total.failed += out.failed;
        for mut m in out.metrics {
            if !m.value.is_finite() {
                total.fail(format!("metric {} is not a finite number", m.name));
                m.value = 0.0;
            }
            total.metrics.push(m);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");

    print_result(&total);
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
