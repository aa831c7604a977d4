//! Holds a quick `bench_serving_json` run to the serving gates.
//!
//! ```text
//! bench_gate <committed.json> <quick.json>
//! ```
//!
//! Each row of [`GATES`] names one figure of `BENCH_serving.json` by its
//! path, the limit it must stay within (a factor of the committed file's
//! figure, or a fixed value), and why the limit sits where it does.
//! Prints one line per gate and exits non-zero when either file is not
//! valid JSON, when a gated figure is missing from the quick file, or
//! when a figure exceeds its limit. A relative gate whose figure is
//! missing from the committed file (a new section) is skipped.
//! `scripts/check.sh` runs it on its quick run against `HEAD`'s file.

#[path = "loadbench/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

/// What a gate's figure must stay at or under.
enum Limit {
    /// This factor times the committed file's figure.
    Relative(f64),
    /// This value.
    Absolute(f64),
}

/// One gate: a figure, its limit, and what exceeding it suggests.
struct Gate {
    /// Dot-separated keys into the report; `key[-1]` takes the last
    /// element of the array under `key`.
    path: &'static str,
    limit: Limit,
    /// Printed when the figure exceeds its limit.
    hint: &'static str,
}

/// Every serving gate, one row each. Each row's acceptance record: the
/// clean quick runs it passed and the planted regression it failed, on a
/// 2-vCPU host.
const GATES: &[Gate] = &[
    // The PDP stage (`extract_readings`) is timed in rounds interleaved
    // with the per-packet planned oracle over the same requests, and the
    // gate is the median per-round ratio: the host's speed swings move
    // both sides together, where the stage's absolute ns/request moved
    // 11.7–23.7 µs between quick runs. A slowdown of the stage's own code
    // by a factor f lifts the ratio by f, so the 25% margin fails a
    // planted 1.5x slowdown; clean quick runs pass it. With the AVX2
    // build of the batched kernels committed at ~0.39, a build forced to
    // baseline width read 0.60-0.62 in 10 of 10 quick runs and fails.
    // Blind spot: code both sides run (the window taper, mean_spacing_hz,
    // median_in_place, the FFT plan caches) slows both sides, so the
    // ratio barely moves. A planted taper slowdown that took the stage
    // from ~13 to ~19 µs left the ratio under the limit in 5 of 5 runs.
    // Two yardsticks that share no code with the stage, a fixed
    // arithmetic loop and a frozen textbook FFT, spread too widely to
    // gate on: the stage's time is bimodal per process (~13 or ~21 µs)
    // and only the oracle follows it. Against a committed ~0.36, 3 of 40
    // clean quick runs read 0.51-0.53 and failed: the stage alone ran slow.
    Gate {
        path: "pdp_batched.ratio",
        limit: Limit::Relative(1.25),
        hint: "the PDP stage regressed >25% against its per-packet oracle",
    },
    // The frame CRC over one 45.7 KiB dense request payload, in ns per
    // KiB. On a host with PCLMULQDQ the folding kernel takes all but the
    // last 15 bytes; slicing-by-8 alone runs about 15x slower, so a 3x
    // margin fails a fallback to it (a build that lost the kernel, or a
    // host without it) while absorbing quick-run noise. 20 clean quick
    // runs read 32.2-34.8 against a committed 33.1, and a build with the
    // folding kernel switched off read 511.6-511.7 in 10 of 10 runs.
    Gate {
        path: "crc.ns_per_kib",
        limit: Limit::Relative(3.0),
        hint:
            "the frame CRC is more than 3x its committed cost — did it fall back to slicing-by-8?",
    },
    // The 100-venue entry is the last element of the "dispatch" array:
    // the contended regime (deep backlog, 8 connections racing 2
    // batchers for one queue lock). Its pipelined ns/request must not
    // regress against the committed baseline. The margin is wider than
    // the PDP gate's because this regime is noisier per quick run than
    // an in-process microbench; it catches gross regressions of the
    // dispatch queue. The committed baseline is the one-queue plane's
    // (1954 ns); 20 clean quick runs read 1836-2028.
    Gate {
        path: "dispatch[-1].ns_per_request",
        limit: Limit::Relative(1.5),
        hint: "the dispatch queue regressed >50% against the committed baseline",
    },
    // Sessioned vs stateless passes over the same workload against one
    // daemon, run back to back in each round; the gate is the median
    // over rounds of sessioned time over stateless time, which a slow
    // spell of the host lifts on both sides alike. Quick mode runs 60
    // rounds: with 15, a clean run read over the limit about once in 20
    // once a stateless request cost ~12 us. 20 clean quick runs of 60
    // rounds read 0.963-1.065, and a 6 us busy-wait per sessioned
    // request (half a stateless request) read 1.162-1.309 in 10 of 10
    // runs, so the limit sits between them. (The min-of-5 overhead
    // percentage this replaces spread from -14.5% to +27.3% on clean
    // runs against a +25% limit.)
    Gate {
        path: "sessions.ratio",
        limit: Limit::Absolute(1.15),
        hint: "session tracking costs more than 15% per request",
    },
    // With bounded accept draining and O(1) dirty-marking, an idle herd
    // may no longer multiply active p99 by more than this. Before that
    // fix the ratio ran >3x and grew with crowd size. The figure is the
    // median over 15 rounds of the idle-crowd pass's p99 over the base
    // pass's, closed-loop passes run back to back against one daemon:
    // one pair of 200-request p99s read 0.21x-3.24x over eleven clean
    // quick runs and 18.97x in one, so a single host stall failed the
    // gate. 20 clean quick runs read 0.45-2.07, and a walk re-arming
    // every registered connection's epoll interest on each event-loop
    // wake-up read 5.78-9.82 in 10 of 10. Blind spot: a walk that only
    // locks each connection's reply buffer on each wake-up read
    // 1.21-2.30 and passes.
    Gate {
        path: "soak.idle_p99_ratio",
        limit: Limit::Absolute(4.5),
        hint: "an idle crowd inflates active p99 beyond 4.5x",
    },
];

/// The number at `path` in `report` (see [`Gate::path`]).
fn lookup(report: &Json, path: &str) -> Option<f64> {
    let mut v = report;
    for key in path.split('.') {
        v = match key.strip_suffix("[-1]") {
            Some(key) => v.get(key)?.arr().last()?,
            None => v.get(key)?,
        };
    }
    v.num()
}

/// One gate's outcome and the line that reports it.
enum Verdict {
    Pass(String),
    Skip(String),
    Fail(String),
}

fn evaluate(gate: &Gate, committed: &Json, quick: &Json) -> Verdict {
    let Some(new) = lookup(quick, gate.path) else {
        return Verdict::Fail(format!("{}: missing from the quick run", gate.path));
    };
    let (limit, against) = match gate.limit {
        Limit::Absolute(limit) => (limit, String::new()),
        Limit::Relative(factor) => match lookup(committed, gate.path) {
            Some(old) => (old * factor, format!("committed {old}, ")),
            None => {
                return Verdict::Skip(format!(
                    "{}: {new} (no committed baseline — new section? skipping)",
                    gate.path
                ))
            }
        },
    };
    let line = format!("{}: {new} ({against}limit {limit:.4})", gate.path);
    if new > limit {
        Verdict::Fail(format!("{line} — {}", gate.hint))
    } else {
        Verdict::Pass(line)
    }
}

/// Parses both reports and evaluates every gate.
fn check(committed: &str, quick: &str) -> Result<Vec<Verdict>, String> {
    let committed = Json::parse(committed).map_err(|e| format!("committed report: {e}"))?;
    let quick = Json::parse(quick).map_err(|e| format!("quick report: {e}"))?;
    Ok(GATES
        .iter()
        .map(|g| evaluate(g, &committed, &quick))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, quick] = args.as_slice() else {
        eprintln!("usage: bench_gate <committed.json> <quick.json>");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let verdicts = check(&read(committed), &read(quick)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let mut failed = false;
    for verdict in verdicts {
        match verdict {
            Verdict::Pass(line) | Verdict::Skip(line) => println!("    {line}"),
            Verdict::Fail(line) => {
                eprintln!("error: {line}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report holding `value` at every gated path but `skip`.
    fn report(value: impl Fn(&str) -> f64, skip: Option<&str>) -> String {
        let field = |path: &str, key: &str| {
            if skip == Some(path) {
                String::new()
            } else {
                format!("\"{key}\": {}, ", value(path))
            }
        };
        format!(
            "{{\"crc\": {{{}\"payload_bytes\": 1}}, \
             \"pdp_batched\": {{{}\"speedup\": 2.0}}, \
             \"soak\": {{{}\"idle_target\": 2000}}, \
             \"dispatch\": [{{\"ns_per_request\": 1.0}}, {{{}\"live_venues\": 100}}], \
             \"sessions\": {{{}\"requests\": 240}}}}",
            field("crc.ns_per_kib", "ns_per_kib"),
            field("pdp_batched.ratio", "ratio"),
            field("soak.idle_p99_ratio", "idle_p99_ratio"),
            field("dispatch[-1].ns_per_request", "ns_per_request"),
            field("sessions.ratio", "ratio"),
        )
    }

    /// Committed figures: distinct per path, so a wrong lookup shows.
    fn committed(path: &str) -> f64 {
        match path {
            "crc.ns_per_kib" => 33.09,
            "pdp_batched.ratio" => 0.387,
            "dispatch[-1].ns_per_request" => 2050.5,
            _ => 7.0,
        }
    }

    fn limit_of(gate: &Gate) -> f64 {
        match gate.limit {
            Limit::Relative(factor) => committed(gate.path) * factor,
            Limit::Absolute(limit) => limit,
        }
    }

    /// The verdict of the gate at `path` with the quick report holding
    /// `value` there (and a passing value everywhere else).
    fn verdict(path: &str, value: f64, skip_quick: bool, skip_committed: bool) -> Verdict {
        let quick = report(
            |p| if p == path { value } else { 0.0 },
            skip_quick.then_some(path),
        );
        let committed = report(committed, skip_committed.then_some(path));
        let mut verdicts = check(&committed, &quick).expect("valid reports");
        let i = GATES.iter().position(|g| g.path == path).unwrap();
        verdicts.swap_remove(i)
    }

    #[test]
    fn every_row_passes_at_its_limit_and_fails_just_above() {
        for gate in GATES {
            let limit = limit_of(gate);
            assert!(
                matches!(verdict(gate.path, limit, false, false), Verdict::Pass(_)),
                "{} at its limit {limit}",
                gate.path
            );
            let above = limit * (1.0 + 1e-9);
            assert!(
                matches!(verdict(gate.path, above, false, false), Verdict::Fail(_)),
                "{} just above its limit",
                gate.path
            );
        }
    }

    #[test]
    fn every_row_fails_when_the_quick_figure_is_missing() {
        for gate in GATES {
            assert!(
                matches!(verdict(gate.path, 0.0, true, false), Verdict::Fail(_)),
                "{} missing from the quick run",
                gate.path
            );
        }
    }

    #[test]
    fn relative_rows_skip_without_a_committed_figure_and_absolute_rows_do_not() {
        for gate in GATES {
            let v = verdict(gate.path, limit_of(gate) * 2.0, false, true);
            match gate.limit {
                Limit::Relative(_) => assert!(matches!(v, Verdict::Skip(_)), "{}", gate.path),
                Limit::Absolute(_) => assert!(matches!(v, Verdict::Fail(_)), "{}", gate.path),
            }
        }
    }

    #[test]
    fn the_last_dispatch_entry_is_the_gated_one() {
        let r = Json::parse(&report(committed, None)).unwrap();
        assert_eq!(lookup(&r, "dispatch[-1].ns_per_request"), Some(2050.5));
        assert_eq!(lookup(&r, "soak.idle_p99_ratio"), Some(7.0));
        assert_eq!(lookup(&r, "soak.missing"), None);
        assert_eq!(lookup(&Json::Null, "dispatch[-1].ns_per_request"), None);
    }

    #[test]
    fn non_json_input_fails() {
        let good = report(committed, None);
        assert!(check("not json", &good).is_err());
        assert!(check(&good, "{\"crc\": ").is_err());
        assert!(check(&good, "").is_err());
        assert!(check(&good, &good).is_ok());
    }
}
