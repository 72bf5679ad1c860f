//! `gts-ledger`: the wall-clock benchmark of the gts query service.
//!
//! ```text
//! gts-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gts-ledger all [--seed <n>] [--seconds <s>] [--traced] [--quick]
//! gts-ledger compare <lineA> <lineB>
//! ```
//!
//! The first form runs one workload and prints its result as one JSON
//! object on the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `all` runs every
//! workload that way, each in a child process of this binary, prints one
//! line per `(workload, metric)` and appends the set to
//! `BENCH_history.jsonl`. See `README.md` beside `Cargo.toml`.

mod layers;
mod load;
mod report;
mod spans;
mod verify;
mod workloads;

use load::{Link, Load};
use report::{Metrics, Outcome};
use spans::Spans;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Mutator, Points, Shape, Spec, Stream, World, SPECS};

/// Seed and run length of `all` when none is given; `BENCHMARK.json`'s
/// `run_seconds` is the same length.
const DEFAULT_SEED: u64 = 20130901;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick` runs every workload for a fortieth of the usual time and
/// checks this many answers.
const QUICK_SHARE: f64 = 0.025;
const QUICK_SAMPLES: usize = 128;

/// How one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// A smoke test: one set-up, a short replay, and the self-checks.
    pub quick: bool,
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds a run spends setting up, over and over: half of them before it
/// measures and half after, so that one busy spell of the host does not
/// cover every repetition.
const SETUP_BUDGET_S: f64 = 1.0;

/// Set up at least twice and for half of [`SETUP_BUDGET_S`] — a millisecond
/// set-up hundreds of times: the first few dozen of a fresh process take
/// three times as long as the rest, and on a busy host most of the others
/// half as long again. Appends every set-up time to `times`, returns the
/// last world.
fn set_up(spec: Spec, args: RunArgs, spans: &mut Spans, times: &mut Vec<f64>) -> World {
    let (mut total, mut rounds) = (0.0, 0);
    loop {
        let started = Instant::now();
        let world = World::build(spec, args.seed, spans);
        let took = started.elapsed().as_secs_f64();
        times.push(took);
        total += took;
        rounds += 1;
        if args.quick || (rounds >= 2 && total >= SETUP_BUDGET_S / 2.0) {
            return world;
        }
        world.teardown();
    }
}

fn run_load(
    world: &mut World,
    args: RunArgs,
    mutator: Option<&mut Mutator>,
    spans: &mut Spans,
) -> Load {
    let mut stream = Stream::new(world.spec, args.seed);
    match world.spec.shape {
        Shape::Closed => load::closed_loop(world, &mut stream, mutator, args, spans),
        Shape::Paced { .. } => {
            load::open_loop(world, &mut Link::InProcess, &mut stream, args, spans)
        }
        Shape::NetPaced { .. } => {
            let (server, mut client) = world.net.take().expect("net workload has a connection");
            let load =
                load::open_loop(world, &mut Link::Net(&mut client), &mut stream, args, spans);
            world.net = Some((server, client));
            load
        }
    }
}

/// Run one workload: set up, warm up, measure, check, report.
fn run_workload(spec: Spec, args: RunArgs) -> Outcome {
    let mut spans = Spans::new(args.traced);
    let mut setup_s = Vec::new();
    let mut world = set_up(spec, args, &mut spans, &mut setup_s);
    let mut mutator = matches!(world.built[0], workloads::Built::Mutable(_))
        .then(|| Mutator::new(args.seed, world.data[0].len()));

    let service_started = Instant::now();
    let load = run_load(&mut world, args, mutator.as_mut(), &mut spans);
    let service_wall = service_started.elapsed();
    let snapshot = world.service.metrics();
    let peak_rss = peak_rss_mb();

    // Quiesce: no new work, pending deltas merged.
    world.service.close();
    let mut failed = load.errors;
    if let Some(stats) = world.service.epoch_stats(0).ok().flatten() {
        if stats.pending != 0 {
            eprintln!("gts-ledger: {} deltas pending after quiesce", stats.pending);
            failed += 1;
        }
    }
    let mut samples = load.checked_samples();
    if args.quick {
        samples.truncate(QUICK_SAMPLES);
    }
    let wrong = match (&mutator, &world.data[0]) {
        (Some(m), Points::D3(initial)) => verify::churn_mismatches(initial, &m.log, &samples),
        _ => verify::mismatches(&world.data, &samples),
    };
    if wrong > 0 {
        eprintln!(
            "gts-ledger: {wrong} of {} sampled answers differ from brute force",
            samples.len()
        );
    }
    failed += wrong;
    if !args.quick {
        set_up(spec, args, &mut spans, &mut setup_s).teardown();
    }
    eprintln!(
        "gts-ledger: {} {} s: {} attempted, {} answered in time, {} answers checked, {} failed, {} set-ups",
        spec.name,
        args.seconds,
        load.attempted,
        load.completed,
        samples.len(),
        failed,
        setup_s.len()
    );

    let mut metrics = Metrics::default();
    if args.traced {
        let live = layers::Live {
            load: &load,
            snapshot: &snapshot,
            setup_s: &setup_s,
            service_wall,
            mutator: mutator.as_ref(),
        };
        layers::measure(&world, &live, args, &mut spans, &mut metrics, &mut failed);
        write_trace(spec, &spans);
    } else {
        let qps = match spec.shape {
            Shape::Closed => load.segment_qps(),
            _ => load.completed as f64 / load.wall.as_secs_f64(),
        };
        metrics.put("setup_s", load::best_low(&setup_s), "s");
        metrics.put("qps", qps, "1/s");
        metrics.put("lat_p50_ms", load.latency.segment_percentile(50.0), "ms");
        metrics.put("peak_rss_mb", peak_rss, "MB");
    }
    world.teardown();
    Outcome {
        // Too few checked answers is not a pass either.
        correct: failed == 0 && (args.quick || samples.len() >= 1024),
        attempted: load.attempted.max(1),
        failed,
        metrics,
    }
}

fn write_trace(spec: Spec, spans: &Spans) {
    let dir = report::ledger_dir().join("out");
    let path = dir.join(format!("{}.trace.json", spec.name));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_chrome_json()));
    match written {
        Ok(()) => {
            eprintln!(
                "gts-ledger: {} spans in {}",
                spans.spans().len(),
                path.display()
            );
            for (name, n, total_us, self_us) in spans.summary() {
                eprintln!(
                    "gts-ledger:   {name:<22} {n:>7} spans {:>10.1} ms total {:>10.1} ms self",
                    total_us / 1e3,
                    self_us / 1e3
                );
            }
        }
        Err(e) => eprintln!("gts-ledger: cannot write {}: {e}", path.display()),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        None => default.ok_or(format!("{name} is required")),
    }
}

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
fn single(args: &[String]) -> Result<ExitCode, String> {
    const USAGE: &str =
        "usage: gts-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                         | all [--seed <n>] [--seconds <s>] [--traced] [--quick] \
                         | compare <lineA> <lineB>";
    let name = flag(args, "--workload").ok_or(USAGE)?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seconds: f64 = parse(args, "--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let run = RunArgs {
        seed: parse(args, "--seed", None)?,
        seconds,
        traced: match parse::<u8>(args, "--trace", None)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, got {other}")),
        },
        quick: args.iter().any(|a| a == "--quick"),
    };
    let outcome = run_workload(spec, run);
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one workload in a child process of this binary and parse its result.
fn child(spec: Spec, run: RunArgs) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if run.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{}: no result line ({})", spec.name, out.status))?;
    let outcome = Outcome::from_json(line).map_err(|e| format!("{}: {e}", spec.name))?;
    if !out.status.success() && outcome.correct {
        return Err(format!(
            "{}: {} with a passing result line",
            spec.name, out.status
        ));
    }
    Ok(outcome)
}

/// `all [--seed <n>] [--seconds <s>] [--traced] [--quick]`.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let seconds: f64 = parse(args, "--seconds", Some(DEFAULT_SECONDS))?;
    let mut run = RunArgs {
        seed: parse(args, "--seed", Some(DEFAULT_SEED))?,
        seconds: if quick {
            seconds * QUICK_SHARE
        } else {
            seconds
        },
        traced: false,
        quick,
    };
    let sets: &[bool] = if quick || args.iter().any(|a| a == "--traced") {
        &[false, true]
    } else {
        &[false]
    };
    let started = Instant::now();
    let mut ok = true;
    // `--quick` checks both result shapes; otherwise the traced set runs
    // when asked for, after the untraced one.
    for &traced in sets {
        run.traced = traced;
        let mut set: Vec<(&str, Outcome)> = Vec::new();
        for spec in SPECS {
            let outcome = child(spec, run)?;
            for m in &outcome.metrics.0 {
                println!(
                    "{:<14} {:<40} {:>16.6} {}",
                    spec.name, m.name, m.value, m.unit
                );
            }
            println!(
                "{:<14} {:<40} {:>16.6} ratio   ({} failed of {} attempted)",
                spec.name,
                "failed_share",
                outcome.failed as f64 / outcome.attempted as f64,
                outcome.failed,
                outcome.attempted
            );
            ok &= outcome.correct;
            if quick {
                ok &= report::check_schema(spec.name, traced, &outcome)?;
            }
            set.push((spec.name, outcome));
        }
        if !quick {
            let path = report::append_history(run.seed, run.seconds, traced, &set)
                .map_err(|e| format!("history: {e}"))?;
            eprintln!("gts-ledger: appended one line to {}", path.display());
        }
    }
    eprintln!(
        "gts-ledger: all took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => (|| {
            let line = |i: usize| -> Result<usize, String> {
                let a = args
                    .get(i)
                    .ok_or("usage: gts-ledger compare <lineA> <lineB>")?;
                a.parse().map_err(|_| format!("not a line number: {a:?}"))
            };
            Ok(if report::compare(line(1)?, line(2)?)? {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        })(),
        _ => single(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gts-ledger: {e}");
        ExitCode::from(2)
    })
}
