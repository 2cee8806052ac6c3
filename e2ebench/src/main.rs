//! `e2ebench`: one end-to-end benchmark for the whole SWAG path —
//! sensor trace → Alg. 1 segmenter + eq. 11 abstraction → descriptor
//! codec → durable ingest (WAL) → publish → index / delta / cold scan →
//! ranking → top-N — over three named workloads.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fleet_live|city_uniform|history_cold> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The process supervises a child process of itself that runs the
//! workload, so a crash (a signal or a non-zero exit) is reported with
//! every operation the workload attempted counted as failed, and is
//! never retried. The last line of standard output is the JSON result:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced run
//! with `--trace 1`. Exit codes: 0 for a correct full-size run, 1 for a
//! wrong answer or a crash, 2 for bad arguments, 3 for a `--smoke` run
//! (smoke sizes cannot pass as a result).

mod gen;
mod harness;
mod layers;
mod openloop;
mod report;
mod span;
mod stats;
mod workloads;

use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use report::J;

/// A workload process still running after this long is killed and its
/// run reported as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

/// Scratch space for data directories and span files, relative to the
/// working directory (the checkout root).
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    child: bool,
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        workloads::NAMES.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.child {
        run_child(&args)
    } else {
        supervise(&args, &argv)
    }
}

/// Revision of the code under test: `git rev-parse HEAD` when the working
/// directory is the root of a git checkout, else `unknown`. (Git is not
/// asked otherwise: it would search the parent directories.)
fn revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The workload process.
fn run_child(args: &Args) -> ExitCode {
    // Before any server exists: the process-wide executor reads it once.
    std::env::set_var("SWAG_EXEC_THREADS", harness::EXEC_THREADS);
    let root = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the run directory");
    let mut ctx = harness::Ctx::new(
        args.seed,
        args.seconds,
        args.smoke,
        args.trace,
        root.clone(),
    );
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} smoke={} hw_threads={hw_threads}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    for (k, v) in [
        ("workload", J::str(&args.workload)),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("smoke", J::Bool(args.smoke)),
        ("hw_threads", J::Int(hw_threads as u64)),
        ("exec_threads", J::str(harness::EXEC_THREADS)),
        ("git_rev", J::str(revision())),
    ] {
        ctx.report.meta(k, v);
    }
    let started = Instant::now();
    let ticks = harness::cpu_ticks();
    workloads::run_named(&mut ctx, &args.workload);
    ctx.report
        .meta("wall_s", J::Num(started.elapsed().as_secs_f64()));
    // Share of CPU time the hypervisor gave to other guests during the
    // run: the main source of noise on a shared host.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, harness::cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "host steal during the run: {:.1} % of CPU time",
            100.0 * steal
        );
        ctx.report.meta("host_steal_frac", J::Num(steal));
    }
    if ctx.traced() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                ctx.tracer.spans().len(),
                path.display()
            ),
            Err(e) => ctx
                .report
                .problem(format!("writing spans to {}: {e}", path.display())),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let meta = J::Obj(ctx.report.meta.clone());
    println!("meta {meta}");
    report::progress();
    println!("@result {}", ctx.report.result_json(args.trace));
    ExitCode::SUCCESS
}

/// Runs the workload in a child process, relays its report, and prints
/// the final result line — charging a crashed child with every
/// operation it attempted.
fn supervise(args: &Args, argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut child = match Command::new(exe)
        .args(argv)
        .arg("--child")
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start the workload process: {e}");
            return ExitCode::from(1);
        }
    };
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut attempted = 0u64;
    let mut result: Option<String> = None;
    let mut killed = false;
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(line) => {
                if let Some(p) = line.strip_prefix("@progress ") {
                    let seen = p.split_whitespace().next().and_then(|x| x.parse().ok());
                    attempted = attempted.max(seen.unwrap_or(0));
                } else if let Some(r) = line.strip_prefix("@result ") {
                    result = Some(r.to_string());
                } else {
                    println!("{line}");
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !killed && Instant::now() > deadline {
                    println!("workload process exceeded {CHILD_DEADLINE:?}; killing it");
                    let _ = child.kill();
                    killed = true;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait().expect("wait for the workload process");
    let _ = reader.join();
    let _ = std::fs::remove_dir_all(PathBuf::from(OUT_DIR).join(format!("run-{}", child.id())));
    // Succeeds only when no span file or other run is left in it.
    let _ = std::fs::remove_dir(OUT_DIR);
    match result {
        Some(result) if status.success() && !killed => {
            println!("{result}");
            if !result.starts_with("{\"correct\":true") {
                println!("the run answered wrongly; see PROBLEM lines above");
                ExitCode::from(1)
            } else if args.smoke {
                println!("smoke-sized run: not a result");
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => {
            println!(
                "workload process died ({status}); all {attempted} operations it attempted count as failed"
            );
            let all = J::Int(attempted.max(1));
            let j = J::obj(vec![
                ("correct", J::Bool(false)),
                ("attempted", all.clone()),
                ("failed", all),
                ("metrics", J::Obj(Vec::new())),
            ]);
            println!("{j}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload city_uniform --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "city_uniform");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace && !a.smoke && !a.child);
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload fleet_live --trace 2")).is_err());
        assert!(parse(&argv("--workload fleet_live --seconds 0")).is_err());
        assert!(parse(&argv("--workload fleet_live --bogus")).is_err());
    }
}
