//! Metric names and units, the result line a workload prints, the history
//! file, and `compare`.

use gts_service::Backend;
use serde::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Metric lists under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }
}

/// The end-to-end metrics, in print order. `BENCHMARK.json` carries the
/// same names and units plus each one's direction and bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in print order. A layer a workload does not
/// exercise reports 0 for its metrics, so every traced run prints them all.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: &str, unit| out.push((name.to_string(), unit));
    put("load.late_p99_ms", "ms");
    put("load.late_max_ms", "ms");
    put("load.lat_p90_ms", "ms");
    put("load.lat_p99_ms", "ms");
    put("load.qps_median", "1/s");
    put("load.setup_median_ms", "ms");
    put("load.trace_overhead_share", "ratio");
    put("trees.build_ms", "ms");
    put("trees.nodes", "count");
    put("trees.depth", "count");
    put("points.sort_us_per_query", "us");
    put("points.profile_us_per_batch", "us");
    put("points.mean_similarity", "ratio");
    put("points.profile_cache_hit_rate", "ratio");
    for b in Backend::ALL {
        let b = b.name();
        put(&format!("runtime.{b}.us_per_query"), "us");
        put(&format!("runtime.{b}.node_visits_per_query"), "count");
        put(&format!("runtime.{b}.ns_per_node_visit"), "ns");
        put(&format!("sim.{b}.model_ms_per_kquery"), "ms");
        put(&format!("sim.{b}.stack_transactions_per_query"), "count");
    }
    put("runtime.lockstep.work_expansion", "ratio");
    put("runtime.lockstep.mask_occupancy", "ratio");
    put("index.batch_us_per_query", "us");
    put("index.overhead_share", "ratio");
    for b in Backend::ALL {
        put(&format!("index.backend_share.{}", b.name()), "ratio");
    }
    put("index.policy_regret_share", "ratio");
    put("shard.fanout_per_query", "count");
    put("shard.pruned_share", "ratio");
    put("shard.merge_overhead_share", "ratio");
    put("shard.fused_visit_ratio", "ratio");
    put("shard.fused_us_per_lane", "us");
    put("shard.unfused_us_per_lane", "us");
    put("shard.parallel_speedup_fused", "ratio");
    put("shard.parallel_speedup_unfused", "ratio");
    put("epoch.mutate_ack_p50_ms", "ms");
    put("epoch.mutate_us_per_mutation", "us");
    put("epoch.merges", "count");
    put("epoch.merge_ms_p50", "ms");
    put("epoch.delta_depth_mean", "count");
    put("epoch.correction_overhead_share", "ratio");
    put("service.submit_us", "us");
    put("service.queue_wait_p50_ms", "ms");
    put("service.mean_batch_size", "count");
    put("service.batches", "count");
    put("service.worker_busy_share", "ratio");
    put("batcher.push_flush_ns_per_query", "ns");
    put("obs.on_complete_ns", "ns");
    put("obs.on_batch_ns", "ns");
    put("obs.trace_record_ns", "ns");
    put("obs.overhead_share", "ratio");
    put("net.encode_ns_per_query", "ns");
    put("net.decode_ns_per_query", "ns");
    put("net.bytes_per_query", "count");
    put("net.socket_added_p50_ms", "ms");
    out
}

/// Per-layer counts that must repeat exactly for a fixed seed.
pub fn is_exact_count(name: &str) -> bool {
    const EXACT: [&str; 12] = [
        "trees.nodes",
        "trees.depth",
        "points.mean_similarity",
        "node_visits_per_query",
        "model_ms_per_kquery",
        "stack_transactions_per_query",
        "runtime.lockstep.work_expansion",
        "runtime.lockstep.mask_occupancy",
        "shard.fanout_per_query",
        "shard.pruned_share",
        "shard.fused_visit_ratio",
        "net.bytes_per_query",
    ];
    EXACT.iter().any(|e| name.ends_with(e))
}

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn metrics_value(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .0
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object(vec![
                        ("value", number(m.value)),
                        ("unit", Value::String(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Outcome {
    /// The one-line JSON object a workload prints last.
    pub fn to_json(&self) -> String {
        let v = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Number(Number::U64(self.attempted))),
            ("failed", Value::Number(Number::U64(self.failed))),
            ("metrics", metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&v).expect("values print")
    }

    /// Parse a child's result line back.
    pub fn from_json(line: &str) -> Result<Outcome, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let int = |name: &str| match v.get(name) {
            Some(Value::Number(n)) => n.as_u64().ok_or(format!("{name} is not a whole number")),
            _ => Err(format!("no {name}")),
        };
        let Some(Value::Object(fields)) = v.get("metrics") else {
            return Err("no metrics".into());
        };
        let mut metrics = Metrics::default();
        for (name, m) in fields {
            let (Some(Value::Number(value)), Some(Value::String(unit))) =
                (m.get("value"), m.get("unit"))
            else {
                return Err(format!("metric {name} lacks value or unit"));
            };
            metrics.put(name.clone(), value.as_f64(), unit);
        }
        Ok(Outcome {
            correct: v.get("correct") == Some(&Value::Bool(true)),
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
        })
    }
}

/// The directory holding this crate, from the directory the command runs in
/// (the repository root, as `BENCHMARK.json`'s command does) or from inside
/// it.
pub fn ledger_dir() -> PathBuf {
    if Path::new("ledger/Cargo.toml").exists() {
        PathBuf::from("ledger")
    } else {
        PathBuf::from(".")
    }
}

fn benchmark_json() -> Result<Value, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in this directory or its parent")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// A metric as `BENCHMARK.json` declares it; per-layer metrics have no bound.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// Every metric `BENCHMARK.json` lists, end-to-end first.
pub fn declared_metrics() -> Result<Vec<Declared>, String> {
    let v = benchmark_json()?;
    let mut out = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        let Some(Value::Array(items)) = v.get(list) else {
            return Err(format!("BENCHMARK.json has no {list}"));
        };
        for m in items {
            let text = |k: &str| match m.get(k) {
                Some(Value::String(s)) => Ok(s.clone()),
                _ => Err(format!("a {list} metric lacks {k}")),
            };
            let bound = match m.get("bound") {
                Some(Value::Number(n)) => Some(n.as_f64()),
                _ => None,
            };
            out.push(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better: text("better")?,
                bound,
            });
        }
    }
    Ok(out)
}

/// `--quick`: does a result carry exactly the metrics the code and
/// `BENCHMARK.json` declare, with their units, in the contract's charset?
pub fn check_schema(workload: &str, traced: bool, outcome: &Outcome) -> Result<bool, String> {
    let expected: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
    };
    let declared = declared_metrics()?;
    let mut ok = true;
    let mut complain = |what: String| {
        eprintln!("gts-ledger: {workload}: {what}");
        ok = false;
    };
    let got: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.0.as_str()).collect();
    if got != want {
        complain(format!("printed metrics {got:?}, expected {want:?}"));
    }
    for m in &outcome.metrics.0 {
        if !m
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        {
            complain(format!("metric name {:?} leaves [A-Za-z0-9_.-]", m.name));
        }
        if !m.value.is_finite() {
            complain(format!("{} is not a finite number", m.name));
        }
        match declared.iter().find(|d| d.name == m.name) {
            Some(d) if d.unit == m.unit && d.bound.is_some() != traced => {}
            Some(d) => complain(format!(
                "{} is declared in BENCHMARK.json with unit {} and bound {:?}",
                m.name, d.unit, d.bound
            )),
            None => complain(format!("{} is not declared in BENCHMARK.json", m.name)),
        }
    }
    let listed = declared
        .iter()
        .filter(|d| d.bound.is_some() != traced)
        .count();
    if listed != expected.len() {
        complain(format!(
            "BENCHMARK.json lists {listed} metrics of this kind, the code {}",
            expected.len()
        ));
    }
    Ok(ok)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers depend on besides the code: cores, compiler, profile,
/// commit and whether the tree was dirty.
fn fingerprint() -> Value {
    let text = |s: Option<String>| Value::String(s.unwrap_or_else(|| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    object(vec![
        ("nproc", Value::Number(Number::U64(nproc as u64))),
        ("rustc", text(command_line("rustc", &["-V"]))),
        (
            "profile",
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release debug=true lto=thin"
                }
                .into(),
            ),
        ),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("dirty", dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// Append one set — every workload's outcome — to `BENCH_history.jsonl`.
pub fn append_history(
    seed: u64,
    seconds: f64,
    traced: bool,
    set: &[(&str, Outcome)],
) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let workloads = Value::Object(
        set.iter()
            .map(|(name, o)| {
                (
                    name.to_string(),
                    object(vec![
                        ("attempted", Value::Number(Number::U64(o.attempted))),
                        ("failed", Value::Number(Number::U64(o.failed))),
                        ("metrics", metrics_value(&o.metrics)),
                    ]),
                )
            })
            .collect(),
    );
    let line = object(vec![
        ("host", fingerprint()),
        ("seed", Value::Number(Number::U64(seed))),
        ("seconds", number(seconds)),
        ("traced", Value::Bool(traced)),
        ("workloads", workloads),
    ]);
    let path = ledger_dir().join("BENCH_history.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{}", serde_json::to_string(&line).expect("values print"))?;
    Ok(path)
}

/// How far `b` is worse than `a`, as a share of `a`; negative when better.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Verdict on one `(workload, metric)` pair of two history lines.
fn verdict(
    a: Option<f64>,
    b: Option<f64>,
    better: &str,
    bound: f64,
    same_host: bool,
) -> &'static str {
    match (a, b) {
        (Some(a), Some(b)) if a != 0.0 && a.is_finite() && b.is_finite() => {
            if worsening(a, b, better) <= bound {
                "ok"
            } else if same_host {
                "regressed"
            } else {
                // Another machine, compiler or profile can move a number
                // this far by itself.
                "unresolved"
            }
        }
        _ => "unresolved",
    }
}

/// `compare <lineA> <lineB>`: per `(workload, end-to-end metric)` the two
/// values, the ratio B ÷ A, and the verdict against `BENCHMARK.json`'s
/// bounds. Lines count from 1. Returns whether anything regressed.
pub fn compare(line_a: usize, line_b: usize) -> Result<bool, String> {
    let path = ledger_dir().join("BENCH_history.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<&str> = text.lines().collect();
    let parse = |n: usize| -> Result<Value, String> {
        let line = n
            .checked_sub(1)
            .and_then(|i| lines.get(i))
            .ok_or(format!("{} has no line {n}", path.display()))?;
        serde_json::from_str(line).map_err(|e| format!("line {n}: {e}"))
    };
    let (a, b) = (parse(line_a)?, parse(line_b)?);
    let host = |v: &Value, k: &str| v.get("host").and_then(|h| h.get(k)).cloned();
    let same_host = ["nproc", "rustc", "profile"]
        .iter()
        .all(|k| host(&a, k) == host(&b, k));
    let value = |v: &Value, workload: &str, metric: &str| -> Option<f64> {
        match v
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
        {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    };
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        return Err(format!("line {line_a} has no workloads"));
    };
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict   (A = line {line_a}, B = line {line_b}, ratio = B/A)",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let declared = declared_metrics()?;
    let mut regressed = false;
    for (workload, _) in workloads {
        for Declared {
            name,
            unit,
            better,
            bound,
        } in &declared
        {
            let Some(bound) = *bound else { continue };
            let (va, vb) = (value(&a, workload, name), value(&b, workload, name));
            let v = verdict(va, vb, better, bound, same_host);
            regressed |= v == "regressed";
            let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
            let ratio = match (va, vb) {
                (Some(a), Some(b)) if a != 0.0 => format!("{:.3}", b / a),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<14} {name:<12} {:>14} {:>14} {ratio:>8} {bound:>6.2}  {v}   [{unit}, {better} is better]",
                show(va),
                show(vb)
            );
        }
    }
    if !same_host {
        println!("the two lines differ in nproc, rustc or profile: a worsening is unresolved, not regressed");
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut metrics = Metrics::default();
        metrics.put("qps", 54321.125, "1/s");
        metrics.put("setup_s", 0.0123, "s");
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = o.to_json();
        assert!(!line.contains('\n'));
        let back = Outcome::from_json(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics.0, o.metrics.0);
    }

    #[test]
    fn metric_names_are_unique_and_in_the_contract_charset() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn verdicts() {
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(verdict(Some(10.0), Some(10.5), "lower", 0.1, true), "ok");
        assert_eq!(
            verdict(Some(10.0), Some(12.0), "lower", 0.1, true),
            "regressed"
        );
        assert_eq!(
            verdict(Some(10.0), Some(12.0), "lower", 0.1, false),
            "unresolved"
        );
        // Higher is better: a drop is the worsening; a rise never is.
        assert_eq!(
            verdict(Some(100.0), Some(85.0), "higher", 0.1, true),
            "regressed"
        );
        assert_eq!(verdict(Some(100.0), Some(300.0), "higher", 0.1, true), "ok");
        assert_eq!(verdict(Some(10.0), None, "lower", 0.1, true), "unresolved");
    }
}
