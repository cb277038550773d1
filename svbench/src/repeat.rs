//! `--workload all` and `--repeat N`: each run in a child process of its
//! own (so peak memory is per workload), with each metric's median and
//! quartiles set beside its bound from `BENCHMARK.json`.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use sv_serve::json::{self, Value};

/// Each end-to-end metric's regression bound, from `BENCHMARK.json` in the
/// current directory (empty when the file is absent).
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(n)), Some(Value::Num(b))) => Some((n.clone(), *b)),
            _ => None,
        })
        .collect()
}

/// What one child run reported.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<Child, String> {
    let doc = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let count = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("result has no `{k}`"))
    };
    let Some(Value::Obj(m)) = doc.get("metrics") else {
        return Err("result has no metrics".into());
    };
    let metrics = m
        .iter()
        .map(|(name, v)| match v.get("value") {
            Some(Value::Num(x)) => Ok((name.clone(), *x)),
            _ => Err(format!("metric `{name}` has no value")),
        })
        .collect::<Result<_, String>>()?;
    Ok(Child {
        correct: doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result has no `correct`")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{workload} seed={seed} {l}");
    }
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} failed ({})", out.status));
    }
    parse_result(last)
}

/// Run `workload` (or every workload) `repeat` times with seeds `seed`,
/// `seed + 1`, ...; print the spread table when repeating, then one JSON
/// summary whose metrics are per-workload medians.
pub fn run_children(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
) -> ExitCode {
    let workloads: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let bounds = bounds();
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut summary = Vec::new();
    for w in workloads {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in 0..repeat as u64 {
            match run_child(w, seed + r, seconds, traced) {
                Ok(c) => {
                    ok &= c.correct;
                    attempted += c.attempted;
                    failed += c.failed;
                    for &(name, _) in catalogue {
                        if let Some(&v) = c.metrics.get(name) {
                            values.entry(name).or_default().push(v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("svbench: {e}");
                    ok = false;
                }
            }
        }
        for &(name, unit) in catalogue {
            let Some(xs) = values.get(name) else { continue };
            let mid = if xs.len() < 2 {
                xs[0]
            } else {
                // Spread as the distance between the quartiles over the
                // median, the measure the bounds are set against.
                let [q1, q2, q3] = quartiles(xs);
                let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
                let bound = bounds
                    .get(name)
                    .map_or_else(|| "-".to_string(), |b| b.to_string());
                println!(
                    "repeat {w} {name} runs {} median {q2} q1 {q1} q3 {q3} unit {unit} spread {spread:.4} bound {bound}",
                    xs.len()
                );
                q2
            };
            summary.push(format!(
                "\"{w}.{name}\":{{\"value\":{mid},\"unit\":\"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\":{ok},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        summary.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
