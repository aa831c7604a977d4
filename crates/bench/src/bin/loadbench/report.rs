//! One run's result: the printed table, the last-line JSON object and
//! the result file `loadbench compare` reads back.

use crate::json::{number, quote, Json};
use std::path::{Path, PathBuf};

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: u64,
    /// The repeated measurements behind a median (rounds or set-ups);
    /// shown in the table, not saved.
    pub each: Vec<f64>,
}

pub fn metric(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.into(),
        value,
        samples,
        each: Vec::new(),
    }
}

/// Where and how a run was made, recorded with its numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Environment {
    pub nproc: usize,
    pub loadavg: f64,
    pub git_rev: String,
    pub rustc: String,
}

impl Environment {
    pub fn capture() -> Environment {
        let first_line = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_owned))
                .unwrap_or_else(|| "unknown".into())
        };
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(f64::NAN),
            git_rev: first_line("git", &["rev-parse", "--short", "HEAD"]),
            rustc: first_line("rustc", &["--version"]),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub env: Environment,
    /// No reply disagreed with the oracle and none was an error other than
    /// a refusal.
    pub correct: bool,
    /// Every validity check passed (generator lateness, no backlog, no
    /// refusals while measuring capacity).
    pub valid: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The benchmark's last stdout line.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "loadbench {} seed {}{} — nproc {}, load {:.2}, rev {}, {}\n",
            self.workload,
            self.seed,
            if self.trace { " (traced)" } else { "" },
            self.env.nproc,
            self.env.loadavg,
            self.env.git_rev,
            self.env.rustc
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<30} {:>12.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            ));
            if !m.each.is_empty() {
                out.push_str(&format!(" each {:.4?}", m.each));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  attempted {} | failed {} (error_ratio {:.6}) | correct {} | valid {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct,
            self.valid
        ));
        for p in &self.problems {
            out.push_str(&format!("  problem: {p}\n"));
        }
        out
    }

    pub fn file_name(&self) -> String {
        format!(
            "results-{}-{}{}.json",
            self.workload,
            self.seed,
            if self.trace { "-trace" } else { "" }
        )
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit),
                    m.samples
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \
             \"nproc\": {},\n  \"loadavg\": {},\n  \"git_rev\": {},\n  \"rustc\": {},\n  \
             \"correct\": {},\n  \"valid\": {},\n  \"problems\": [{}],\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            quote(&self.workload),
            self.seed,
            self.trace,
            number(self.seconds),
            self.env.nproc,
            number(self.env.loadavg),
            quote(&self.env.git_rev),
            quote(&self.env.rustc),
            self.correct,
            self.valid,
            problems.join(", "),
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let num = |k: &str| v.get(k).and_then(Json::num).ok_or(format!("missing {k}"));
        let text = |k: &str| v.get(k).and_then(Json::str).unwrap_or("unknown").to_owned();
        let flag = |k: &str| v.get(k) == Some(&Json::Bool(true));
        let metrics = v
            .get("metrics")
            .map(|m| {
                m.obj()
                    .iter()
                    .map(|(name, m)| Metric {
                        name: name.clone(),
                        unit: m.get("unit").and_then(Json::str).unwrap_or("").into(),
                        value: m.get("value").and_then(Json::num).unwrap_or(f64::NAN),
                        samples: m.get("samples").and_then(Json::num).unwrap_or(0.0) as u64,
                        each: Vec::new(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Json::str)
                .ok_or("missing workload")?
                .into(),
            seed: num("seed")? as u64,
            trace: flag("trace"),
            seconds: num("seconds")?,
            env: Environment {
                nproc: num("nproc").unwrap_or(0.0) as usize,
                loadavg: num("loadavg").unwrap_or(f64::NAN),
                git_rev: text("git_rev"),
                rustc: text("rustc"),
            },
            correct: flag("correct"),
            valid: flag("valid"),
            problems: v
                .get("problems")
                .map(|p| {
                    p.arr()
                        .iter()
                        .filter_map(Json::str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            attempted: num("attempted").unwrap_or(0.0) as u64,
            failed: num("failed").unwrap_or(0.0) as u64,
            metrics,
        })
    }

    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip_and_summary_parses() {
        let r = RunResult {
            workload: "lab-dense".into(),
            seed: 2014,
            trace: false,
            seconds: 20.0,
            env: Environment {
                nproc: 2,
                loadavg: 0.25,
                git_rev: "abc".into(),
                rustc: "rustc 1.0".into(),
            },
            correct: true,
            valid: true,
            problems: vec!["late \"p99\"".into()],
            attempted: 100,
            failed: 0,
            metrics: vec![
                metric("setup_s", "s", 0.031_234_567_8, 3),
                metric("p50_ms.low", "ms", 0.71, 4000),
            ],
        };
        let back = RunResult::from_json(&Json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
        let line = Json::parse(&r.summary_line()).unwrap();
        let keys: Vec<&str> = line.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().num(), Some(0.031_234_567_8));
        assert_eq!(setup.get("unit").unwrap().str(), Some("s"));
        assert_eq!(r.file_name(), "results-lab-dense-2014.json");
    }
}
