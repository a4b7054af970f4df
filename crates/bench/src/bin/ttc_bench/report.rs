//! `ttc_bench all` (every workload as child processes, medians with min/max,
//! one result file) and `ttc_bench compare` (two result files, per-metric
//! ratio with its base and a verdict against the metric's bound).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::{json, Value};

use crate::cli::Args;
use crate::host;
use crate::stats::median;
use crate::tables::{self, PER_LAYER, WORKLOADS};

/// Run `ttc_bench run` as a child process — so peak RSS is per workload and
/// one pass cannot warm another — and parse the row it prints on the line
/// before the contract object.
fn child_row(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--specs")
        .arg(&args.specs)
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {workload} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let row_line = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("child for {workload} printed no row"))?;
    serde_json::from_str(row_line).map_err(|e| format!("child row of {workload}: {e}"))
}

/// `name → values over the rows` for the metrics of `rows`.
fn collect(rows: &[&Value]) -> BTreeMap<String, (String, Vec<f64>)> {
    let mut by_metric: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for row in rows {
        let Some(Value::Object(metrics)) = row.get("metrics") else {
            continue;
        };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            by_metric
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
    }
    by_metric
}

/// Median, min and max of one metric over a workload's rows.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        Side {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

fn summarise(values: &BTreeMap<String, (String, Vec<f64>)>) -> Value {
    let map: BTreeMap<String, Value> = values
        .iter()
        .map(|(name, (unit, v))| {
            let Side { median, min, max } = Side::of(v);
            (
                name.clone(),
                json!({"unit": unit, "median": median, "min": min, "max": max, "n": v.len()}),
            )
        })
        .collect();
    Value::Object(map)
}

/// Run every (selected) workload and write one result file. Returns whether
/// every row was correct.
pub fn all(args: &Args) -> Result<bool, String> {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let mut rows: Vec<Value> = Vec::new();
    let mut summary: BTreeMap<String, Value> = BTreeMap::new();
    let mut all_correct = true;
    for workload in selected {
        let mut mine: Vec<Value> = Vec::new();
        for rep in 0..args.reps {
            eprintln!("== {workload}: timed pass {}/{}", rep + 1, args.reps);
            mine.push(child_row(args, workload, false)?);
        }
        eprintln!("== {workload}: traced pass");
        mine.push(child_row(args, workload, true)?);

        all_correct &= mine
            .iter()
            .all(|row| row.get("correct").and_then(Value::as_bool) == Some(true));
        let values = collect(&mine.iter().collect::<Vec<_>>());
        println!("\n{workload}");
        println!(
            "  {:<42} {:>14} {:>14} {:>14}  n",
            "metric", "median", "min", "max"
        );
        // end-to-end first, then layers, each in table order
        let order = tables::END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in order {
            if let Some((unit, v)) = values.get(name) {
                let Side { median, min, max } = Side::of(v);
                println!(
                    "  {name:<42} {median:>14.4} {min:>14.4} {max:>14.4}  {} {unit}",
                    v.len()
                );
            }
        }
        let failed: f64 = mine
            .iter()
            .filter_map(|r| r.get("failed_batch_ratio").and_then(Value::as_f64))
            .fold(0.0, f64::max);
        println!("  {:<42} {failed:>14.4}", "failed_batch_ratio");
        if mine
            .iter()
            .any(|r| r.get("unsustainable").and_then(Value::as_bool) == Some(true))
        {
            println!("  UNSUSTAINABLE: the generator ran late on more than 1% of batches");
        }
        summary.insert(workload.to_string(), summarise(&values));
        rows.extend(mine);
    }

    let result = json!({
        "host": json!({"nproc": host::nproc(), "calibration_mops": host::calibration_mops()}),
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "smoke": args.smoke,
        "claim": Value::Null,
        "summary": Value::Object(summary),
        "rows": rows,
    });
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args.out.join(format!("results-seed{}.json", args.seed));
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresult file: {}", path.display());
    Ok(all_correct)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound and the sides overlap.
    Unresolved,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict of `b` against base `a` for a metric where `lower_is_better` and
/// the median may worsen by `bound` (a share of `a`'s median).
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if a.median == 0.0 {
        0.0
    } else if lower_is_better {
        b.median / a.median - 1.0
    } else {
        1.0 - b.median / a.median
    };
    if a.spread().max(b.spread()) > bound {
        // too noisy to call, unless every run of b beats every run of a
        let b_wins = if lower_is_better {
            b.max < a.min
        } else {
            b.min > a.max
        };
        return if b_wins {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        median: metric.get("median")?.as_f64()?,
        min: metric.get("min")?.as_f64()?,
        max: metric.get("max")?.as_f64()?,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison of result files `a` (the base) and `b`. Returns
/// whether no end-to-end metric regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        let host = file.get("host");
        println!(
            "{label}: seed {} nproc {} calibration {:.0} Mops",
            file.get("seed").and_then(Value::as_u64).unwrap_or(0),
            host.and_then(|h| h.get("nproc"))
                .and_then(Value::as_u64)
                .unwrap_or(0),
            host.and_then(|h| h.get("calibration_mops"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
    }
    let Some(Value::Object(a_summary)) = a.get("summary") else {
        return Err(format!("{a_path} has no summary"));
    };
    let mut no_regression = true;
    println!(
        "{:<16} {:<40} {:>13} {:>13} {:>8}  {:<24} {:<24} verdict",
        "workload", "metric", "A median", "B median", "B/A", "A min..max", "B min..max"
    );
    for (workload, a_metrics) in a_summary {
        let Value::Object(a_metrics) = a_metrics else {
            continue;
        };
        for (name, a_metric) in a_metrics {
            let b_metric = b
                .get("summary")
                .and_then(|s| s.get(workload))
                .and_then(|w| w.get(name));
            let (Some(sa), Some(sb)) = (side(a_metric), b_metric.and_then(side)) else {
                continue;
            };
            // per-layer metrics have no bound and get no verdict
            let label = match tables::end_to_end(name) {
                Some(m) => {
                    let bound = m.bound_on(workload);
                    let v = verdict(sa, sb, m.better == "lower", bound);
                    no_regression &= v != Verdict::Regressed;
                    format!("{} (bound {:.0}%)", v.label(), bound * 100.0)
                }
                None => "-".to_string(),
            };
            let quotient = if sa.median == 0.0 {
                0.0
            } else {
                sb.median / sa.median
            };
            println!(
                "{:<16} {:<40} {:>13.4} {:>13.4} {:>8.3}  {:<24} {:<24} {label}",
                workload,
                name,
                sa.median,
                sb.median,
                quotient,
                format!("{:.4}..{:.4}", sa.min, sa.max),
                format!("{:.4}..{:.4}", sb.min, sb.max),
            );
        }
    }
    Ok(no_regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            min: median * 0.99,
            max: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        // lower is better, bound 10%
        assert_eq!(
            verdict(tight(100.0), tight(105.0), true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(50.0), true, 0.10),
            Verdict::WithinBound
        );
        // higher is better: a drop is the regression
        assert_eq!(
            verdict(tight(100.0), tight(85.0), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(130.0), false, 0.10),
            Verdict::WithinBound
        );
        // spread wider than the bound: unresolved, whatever the medians say
        let noisy = Side {
            median: 100.0,
            min: 80.0,
            max: 120.0,
        };
        assert_eq!(
            verdict(noisy, tight(130.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(noisy, tight(100.0), true, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A
        assert_eq!(
            verdict(noisy, tight(70.0), true, 0.10),
            Verdict::WithinBound
        );
    }

    #[test]
    fn summaries_carry_median_min_max_and_count() {
        let rows = [
            json!({"metrics": json!({"x": json!({"value": 3.0, "unit": "ms"})})}),
            json!({"metrics": json!({"x": json!({"value": 1.0, "unit": "ms"})})}),
            json!({"metrics": json!({"x": json!({"value": 2.0, "unit": "ms"})})}),
        ];
        let summary = summarise(&collect(&rows.iter().collect::<Vec<_>>()));
        let x = side(summary.get("x").expect("x summarised")).expect("complete");
        assert_eq!((x.median, x.min, x.max), (2.0, 1.0, 3.0));
        assert_eq!(
            summary
                .get("x")
                .and_then(|x| x.get("n"))
                .and_then(Value::as_u64),
            Some(3)
        );
    }
}
