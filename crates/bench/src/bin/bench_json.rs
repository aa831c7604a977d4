//! Machine-readable LP benchmark: paired min-of-rounds timings for the
//! flat-tableau workspace solver against the retained dense reference, and
//! for warm-cache serving against the uncached per-query loop, written as
//! `BENCH_lp.json` (in the current directory, or `$NOMLOC_BENCH_JSON`).
//!
//! Every figure is a min-of-rounds over alternating passes — see
//! `nomloc_bench::lpcmp::paired_min_ns` — so slow drift hits both sides
//! equally and the minimum approximates the noise-free cost.

use nomloc_bench::{lpcmp, rounds, serving};
use nomloc_core::scenario::Venue;
use nomloc_core::{LocalizationServer, SpEstimator};
use nomloc_lp::center;
use nomloc_lp::simplex::SimplexWorkspace;

/// One reference-vs-workspace comparison row.
struct Row {
    label: String,
    constraints: usize,
    reference_ns: f64,
    workspace_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.workspace_ns
    }

    fn json(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"constraints\": {}, \"reference_ns\": {:.1}, \"workspace_ns\": {:.1}, \"speedup\": {:.4}}}",
            self.label,
            self.constraints,
            self.reference_ns,
            self.workspace_ns,
            self.speedup()
        )
    }
}

fn solver_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for n_sites in [6usize, 8, 12] {
        let (cs, candidates, bounds) = lpcmp::constraint_set(n_sites);
        let edges = center::polygon_halfplanes(&bounds);

        let mut ws = SimplexWorkspace::new();
        let (reference_ns, workspace_ns) = lpcmp::paired_min_ns(
            rounds(300),
            8,
            || {
                std::hint::black_box(lpcmp::relax_reference(std::hint::black_box(&cs)));
            },
            || {
                std::hint::black_box(
                    nomloc_lp::relax::relax_constraints_in(&mut ws, std::hint::black_box(&cs))
                        .unwrap(),
                );
            },
        );
        rows.push(Row {
            label: "relaxation".into(),
            constraints: cs.len(),
            reference_ns,
            workspace_ns,
        });

        let mut ws = SimplexWorkspace::new();
        let (reference_ns, workspace_ns) = lpcmp::paired_min_ns(
            rounds(300),
            8,
            || {
                std::hint::black_box(lpcmp::relax_then_center_reference(
                    std::hint::black_box(&cs),
                    candidates,
                    &edges,
                ));
            },
            || {
                std::hint::black_box(lpcmp::relax_then_center_workspace(
                    &mut ws,
                    std::hint::black_box(&cs),
                    candidates,
                    &bounds,
                    &edges,
                ));
            },
        );
        rows.push(Row {
            label: "relax_then_center".into(),
            constraints: cs.len(),
            reference_ns,
            workspace_ns,
        });
    }
    rows
}

/// Uncached per-query loop vs warm-cache serial batch on the Lab venue,
/// as ns per request.
fn serving_row() -> (String, f64, f64) {
    let venue = Venue::lab();
    let area = venue.plan.boundary().clone();
    let requests = serving::requests_for(&venue, 64);
    let server = LocalizationServer::new(area.clone());
    let serial = LocalizationServer::new(area.clone());
    let estimator = SpEstimator::new();

    let (uncached_ns, cached_ns) = lpcmp::paired_min_ns(
        rounds(200),
        1,
        || {
            for readings in &requests {
                let judgements = server.judge(std::hint::black_box(readings));
                std::hint::black_box(
                    estimator
                        .estimate(&judgements, &area)
                        .expect("estimate failed"),
                );
            }
        },
        || {
            std::hint::black_box(serial.localize_batch(std::hint::black_box(&requests)));
        },
    );
    let per_req = requests.len() as f64;
    (
        venue.name.to_string(),
        uncached_ns / per_req,
        cached_ns / per_req,
    )
}

fn main() {
    let lp_rows = solver_rows();
    let (venue, uncached_ns, cached_ns) = serving_row();

    let mut json = String::from("{\n  \"lp\": [\n");
    for (i, row) in lp_rows.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&row.json());
        json.push_str(if i + 1 < lp_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"serving\": {{\"venue\": \"{}\", \"uncached_ns_per_request\": {:.1}, \"cached_ns_per_request\": {:.1}, \"speedup\": {:.4}}}\n",
        venue,
        uncached_ns,
        cached_ns,
        uncached_ns / cached_ns
    ));
    json.push_str("}\n");

    for row in &lp_rows {
        println!(
            "{:<18} {:>3} rows: reference {:>9.1} ns, workspace {:>9.1} ns, speedup {:.3}x",
            row.label,
            row.constraints,
            row.reference_ns,
            row.workspace_ns,
            row.speedup()
        );
    }
    println!(
        "serving ({venue}): uncached {uncached_ns:.1} ns/req, cached {cached_ns:.1} ns/req, speedup {:.3}x",
        uncached_ns / cached_ns
    );

    let path = std::env::var("NOMLOC_BENCH_JSON").unwrap_or_else(|_| "BENCH_lp.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_lp.json");
    println!("wrote {path}");
}
