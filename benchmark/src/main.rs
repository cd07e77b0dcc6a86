//! `lh-benchmark`: the LeakyHammer simulator stack's benchmark.
//!
//! One invocation runs one workload in one process (so `VmHWM` is the
//! workload's own) and prints every metric by name with its unit, then
//! one JSON line for the driver. `--trace 0` measures the end-to-end
//! metrics on untraced repetitions; `--trace 1` records spans around
//! the calls into each layer, runs the layer drivers, and reports the
//! per-layer metrics. All times are host time unless a name says `sim`.
//! See `README.md` beside this package.

mod layers;
mod noop;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use spans::Recorder;
use workloads::{cmds, Rep, RunConfig, Workload};

const USAGE: &str = "usage: lh-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--root DIR]
       lh-benchmark --print-spec
       lh-benchmark --worker (--cache-dir DIR | --no-cache)";

/// Timed repetitions: at least `MIN_REPS`, then until `--seconds` have
/// passed, never more than `MAX_REPS` (so a faster commit does the same
/// work, not more of it).
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 12;

/// Repetitions on each side of the traced run's untraced/traced pair.
const TRACE_REPS: usize = 2;

/// Times an untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

enum Mode {
    Run(RunConfig),
    PrintSpec,
    Worker(Option<PathBuf>),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut root = PathBuf::from(".");
    let mut worker = false;
    let mut worker_cache = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--root" => root = PathBuf::from(value("--root")?),
            "--print-spec" => return Ok(Mode::PrintSpec),
            "--worker" => worker = true,
            "--cache-dir" => worker_cache = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-cache" => worker_cache = None,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if worker {
        return Ok(Mode::Worker(worker_cache));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let tmp = root
        .join("benchmark/out/tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Mode::Run(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        root,
        tmp,
    }))
}

/// The child side of the `all_quick_cold` worker fleet: what
/// `lh-experiments --worker` runs, over the same registry.
fn worker_mode(cache_dir: Option<PathBuf>) -> ! {
    let options = lh_coord::WorkerOptions {
        exit_after_assigns: None,
        heartbeat: Some(std::time::Duration::from_millis(500)),
    };
    let served = lh_coord::worker_loop(
        &leakyhammer::registry(),
        lh_coord::stdio_link(),
        cache_dir.map(lh_harness::DiskCache::new),
        options,
    );
    match served {
        Ok(()) => std::process::exit(0),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: worker: {e}");
            std::process::exit(1);
        }
    }
}

/// Repeats the body while `more(done, elapsed seconds)` says so, each
/// repetition under a `rep` span; returns the repetitions with their
/// host seconds.
fn repeat(
    workload: &mut dyn Workload,
    rec: &mut Recorder,
    report: &mut Report,
    mut more: impl FnMut(usize, f64) -> bool,
) -> (Vec<Rep>, Vec<f64>) {
    let mut reps = Vec::new();
    let mut secs = Vec::new();
    let started = Instant::now();
    while more(reps.len(), started.elapsed().as_secs_f64()) {
        let t = Instant::now();
        let span = rec.enter("rep");
        let rep = workload.rep(rec, &mut report.checks);
        rec.exit(span);
        secs.push(t.elapsed().as_secs_f64());
        reps.push(rep);
    }
    (reps, secs)
}

/// The same inputs must give the same results: first and last
/// repetition carry one digest.
fn check_repeatable(report: &mut Report, reps: &[Rep]) {
    let digest = reps.first().map(|r| r.digest.clone()).unwrap_or_default();
    if reps.len() < 2 {
        report
            .checks
            .skip("repetition identity", "needs two repetitions");
    } else {
        report.checks.check(
            "first and last repetition produce the same result digest",
            reps.last().is_some_and(|r| r.digest == digest),
        );
    }
    report.note("sim_digest", digest);
}

fn run(cfg: &RunConfig) -> Result<String, String> {
    // run.sh pins glibc's mmap threshold; without it peak_rss_mb depends
    // on allocation history and is not comparable between runs.
    let mmap_threshold =
        std::env::var("MALLOC_MMAP_THRESHOLD_").unwrap_or_else(|_| "unpinned".into());
    println!(
        "# lh-benchmark workload={} seed={} seconds={} trace={} smoke={} threads={} mmap_threshold={mmap_threshold}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    std::fs::create_dir_all(&cfg.tmp).map_err(|e| format!("creating {:?}: {e}", cfg.tmp))?;
    let mut report = Report::default();
    let mut rec = Recorder::off(&cfg.workload);

    // Set-up: inputs, scratch directories, cache pre-fill, server bind,
    // and one warm-up repetition so lazy initialisation is paid here. An
    // untraced run does all of it `SETUPS` times and keeps the last
    // workload, so `setup_s` is a median too.
    let mut setups = Vec::new();
    let mut workload = loop {
        let started = Instant::now();
        let mut workload = workloads::build(cfg, &mut report.checks)?;
        if !cfg.smoke {
            workload.rep(&mut rec, &mut report.checks);
        }
        setups.push(started.elapsed().as_secs_f64());
        if cfg.trace || cfg.smoke || setups.len() == SETUPS {
            break workload;
        }
    };

    let expected = if cfg.trace {
        let (_, untraced_s) = repeat(workload.as_mut(), &mut rec, &mut report, |n, _| {
            n < TRACE_REPS
        });
        rec.start();
        let (reps, traced_s) = repeat(workload.as_mut(), &mut rec, &mut report, |n, _| {
            n < TRACE_REPS
        });
        rec.merge_program_spans();
        check_repeatable(&mut report, &reps);
        workload.finish(&reps, &mut report);
        layers::trace_metrics(&mut report, &rec, &reps, &untraced_s, &traced_s);
        layers::run_drivers(cfg, &mut report);
        let out = cfg.root.join("benchmark/out");
        let path = out.join(format!("trace.{}.json", cfg.workload));
        std::fs::write(&path, rec.chrome_json()).map_err(|e| format!("writing {path:?}: {e}"))?;
        report.note("trace_file", path.display());
        spec::PER_LAYER
    } else {
        let (min, max) = if cfg.smoke {
            (1, 1)
        } else {
            (MIN_REPS, MAX_REPS)
        };
        let (reps, secs) = repeat(workload.as_mut(), &mut rec, &mut report, |n, elapsed| {
            n < min || (n < max && elapsed < cfg.seconds)
        });
        check_repeatable(&mut report, &reps);
        workload.finish(&reps, &mut report);

        let run_s = stats::median(&secs);
        // On `resident_warm` nothing is simulated; the divisor is then
        // the command count recorded in the replayed results.
        let per_cmd: Vec<f64> = reps
            .iter()
            .zip(&secs)
            .map(|(r, s)| s * 1e9 / (cmds(&r.executed) + cmds(&r.replayed)).max(1) as f64)
            .collect();
        let child_kb = reps.iter().map(|r| r.child_rss_kb).max().unwrap_or(0);
        let rss_kb = workloads::peak_rss_kb("self") + child_kb;
        report.note("run_s", stats::describe(&secs, "s"));
        report.note("setup_s", stats::describe(&setups, "s"));
        report.metric("setup_s", stats::median(&setups));
        report.metric("run_s", run_s);
        report.metric("host_ns_per_cmd", stats::median(&per_cmd));
        report.metric("peak_rss_mb", rss_kb as f64 / 1024.0);
        spec::END_TO_END
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    Ok(report.finish(expected))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::PrintSpec) => print!("{}", spec::benchmark_json()),
        Ok(Mode::Worker(cache_dir)) => worker_mode(cache_dir),
        Ok(Mode::Run(cfg)) => match run(&cfg) {
            // The result is the last line of standard output.
            Ok(line) => println!("{line}"),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&cfg.tmp);
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    /// The verdict rules (`regressed` / `unresolved` / `improved` /
    /// `flat`) live in `compare.py`; its self-test is part of this suite.
    #[test]
    fn compare_py_verdict_rules_hold() {
        let script = concat!(env!("CARGO_MANIFEST_DIR"), "/compare.py");
        let out = std::process::Command::new("python3")
            .arg(script)
            .arg("--self-test")
            .output()
            .expect("python3 runs compare.py");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
