//! `loadbench compare A/ B/`: paired verdicts between two sets of result
//! files, by the rule a claimed gain must meet. At least ten pairs, the
//! change (B) winning at least nine tenths of them, and a median gap wider
//! than the parent's (A's) interquartile range make `better`; a median
//! worse than A's by more than the metric's bound in `BENCHMARK.json`
//! makes `worse`; a metric whose per-pair changes spread wider than its
//! bound is `unresolved` unless every B run beats every A run.

use crate::json::Json;
use crate::report::RunResult;
use crate::sample::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds(bench: &Json) -> Vec<Bound> {
    bench
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.str()?.into(),
                lower_is_better: m.get("better")?.str()? == "lower",
                bound: m.get("bound")?.num()?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one (workload, metric): `pairs` are (A, B) values of
/// runs made back to back, with the same seed where both sides have it.
pub fn verdict(pairs: &[(f64, f64)], rule: &Bound) -> Verdict {
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    // How much `y` improves on `x`; negative is a loss.
    let gain = |x: f64, y: f64| {
        if rule.lower_is_better {
            x - y
        } else {
            y - x
        }
    };
    let iqr = |v: &[f64]| quartiles(v).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let med_a = median(&a);
    let median_gain = gain(med_a, median(&b));
    let wins = pairs.iter().filter(|&&(x, y)| gain(x, y) > 0.0).count();
    if pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 && median_gain > iqr(&a) {
        return Verdict::Better;
    }
    // The spread this comparison faces is how much the per-pair changes
    // disagree. Runs of one seed share their inputs, so a metric that
    // moves with the seed (accuracy) is not unresolved for that alone.
    let changes: Vec<f64> = pairs.iter().map(|&(x, y)| y - x).collect();
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| gain(x, y) > 0.0));
    if iqr(&changes) > rule.bound * med_a.abs() && !every_b_beats_every_a {
        return Verdict::Unresolved;
    }
    if -median_gain > rule.bound * med_a.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Untraced result files of a directory, grouped by workload.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let mut out: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("results-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let run = Json::parse(&text).and_then(|j| RunResult::from_json(&j));
        let run = run.map_err(|e| format!("{name}: {e}"))?;
        if !run.trace {
            out.entry(run.workload.clone()).or_default().push(run);
        }
    }
    for runs in out.values_mut() {
        runs.sort_by_key(|r| r.seed);
    }
    Ok(out)
}

/// Pairs runs of one workload: same seed where both sides have it,
/// otherwise in seed order.
fn pair_runs<'a>(a: &'a [RunResult], b: &'a [RunResult]) -> Vec<(&'a RunResult, &'a RunResult)> {
    let by_seed: Vec<_> = a
        .iter()
        .filter_map(|x| b.iter().find(|y| y.seed == x.seed).map(|y| (x, y)))
        .collect();
    if by_seed.is_empty() {
        a.iter().zip(b).collect()
    } else {
        by_seed
    }
}

/// Renders one row per (workload, end-to-end metric). Returns the text
/// and whether any row is `worse`.
pub fn compare(a_dir: &Path, b_dir: &Path, bench: &Json) -> Result<(String, bool), String> {
    let rules = bounds(bench);
    if rules.is_empty() {
        return Err("BENCHMARK.json lists no end_to_end metrics".into());
    }
    let (a, b) = (load_dir(a_dir)?, load_dir(b_dir)?);
    let mut seconds = a.values().chain(b.values()).flatten().map(|r| r.seconds);
    if let Some(first) = seconds.next() {
        if seconds.any(|s| s != first) {
            return Err("the runs differ in --seconds, which sets their length".into());
        }
    }
    let mut out = format!(
        "{:<15} {:<15} {:>5} {:>13} {:>13} {:>8} {:>6} {:>6}  verdict\n",
        "workload", "metric", "pairs", "median A", "median B", "B vs A", "IQR Δ", "bound"
    );
    let mut any_worse = false;
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            continue;
        };
        let pairs = pair_runs(runs_a, runs_b);
        for rule in &rules {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(x, y)| Some((x.value(&rule.name)?, y.value(&rule.name)?)))
                .collect();
            let v = verdict(&values, rule);
            any_worse |= v == Verdict::Worse;
            let a_vals: Vec<f64> = values.iter().map(|p| p.0).collect();
            let b_vals: Vec<f64> = values.iter().map(|p| p.1).collect();
            let (ma, mb) = (median(&a_vals), median(&b_vals));
            let changes: Vec<f64> = values.iter().map(|&(x, y)| y - x).collect();
            let iqr = quartiles(&changes).map_or(f64::NAN, |(q1, q3)| (q3 - q1) / ma.abs());
            out.push_str(&format!(
                "{:<15} {:<15} {:>5} {:>13.4} {:>13.4} {:>+7.1}% {:>5.1}% {:>5.1}%  {}\n",
                workload,
                rule.name,
                values.len(),
                ma,
                mb,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * iqr,
                100.0 * rule.bound,
                v.as_str()
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    /// Ten (A, B) pairs: A alternates around 100, B is A times `factor`.
    fn pairs(factor: f64) -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| {
                let a = 100.0 + if i % 2 == 0 { 1.0 } else { -1.0 } * (i as f64) * 0.2;
                (a, a * factor)
            })
            .collect()
    }

    #[test]
    fn verdicts_on_fixture_results() {
        // A clear 10% latency cut wins every pair and clears A's IQR.
        assert_eq!(verdict(&pairs(0.9), &rule(true, 0.05)), Verdict::Better);
        // The same numbers read as throughput are a 10% loss: worse.
        assert_eq!(verdict(&pairs(0.9), &rule(false, 0.05)), Verdict::Worse);
        // Within the bound: unchanged.
        assert_eq!(verdict(&pairs(1.02), &rule(true, 0.05)), Verdict::Unchanged);
        assert_eq!(verdict(&pairs(1.0), &rule(true, 0.05)), Verdict::Unchanged);
        // Fewer than ten pairs can never be `better`.
        let five = &pairs(0.9)[..5];
        assert_eq!(verdict(five, &rule(true, 0.05)), Verdict::Unchanged);
        assert_eq!(verdict(&[], &rule(true, 0.05)), Verdict::Unresolved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let a = if i % 2 == 0 { 80.0 } else { 120.0 };
                (a, 100.0 + (i as f64))
            })
            .collect();
        assert_eq!(verdict(&noisy, &rule(true, 0.05)), Verdict::Unresolved);
        // …unless every B run beats every A run.
        let clear: Vec<(f64, f64)> = noisy.iter().map(|&(a, _)| (a, 10.0)).collect();
        assert_eq!(verdict(&clear, &rule(true, 0.05)), Verdict::Better);
        let clear_few = &clear[..4];
        assert_eq!(verdict(clear_few, &rule(true, 0.05)), Verdict::Unchanged);
    }

    #[test]
    fn same_seed_pairs_resolve_below_the_spread_across_seeds() {
        // A moves ±20% with the seed; B is 3% worse on every seed. A's own
        // spread is far wider than a 2% bound, but the pairs agree.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let a = 80.0 + 4.0 * i as f64;
                (a, a * 1.03)
            })
            .collect();
        assert_eq!(verdict(&pairs, &rule(true, 0.02)), Verdict::Worse);
        assert_eq!(verdict(&pairs, &rule(true, 0.05)), Verdict::Unchanged);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bench = Json::parse(
            r#"{"end_to_end": [
                {"name": "capacity_rps", "unit": "req/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds(&bench),
            vec![
                Bound {
                    name: "capacity_rps".into(),
                    lower_is_better: false,
                    bound: 0.1
                },
                Bound {
                    name: "setup_s".into(),
                    lower_is_better: true,
                    bound: 0.25
                },
            ]
        );
    }
}
