//! Comparing two `BENCH_*.json` documents for performance regressions.
//!
//! Every bench binary mirrors its tables into JSON with `--json`, and
//! each of those documents carries one or more `events_per_sec` leaves
//! — the workspace's common currency for event-loop throughput. This
//! module aligns those leaves between a *baseline* and a *candidate*
//! document and flags every leaf whose throughput dropped by more than
//! a configurable fraction. The `bench-diff` binary wraps it as the CI
//! regression gate.
//!
//! Both documents must carry the same `"bench"` name. Every
//! `events_per_sec` leaf in the baseline must exist at the same path in
//! the candidate — scenarios/labels/cells are matched by their identity
//! keys, not array position — and each pair is compared. A baseline
//! path missing from the candidate is a schema mismatch, not a pass.

use airtime_obs::json::{self, Json, Obj};

/// One compared `events_per_sec` pair.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Where the leaf lives (e.g. `scenarios[fig9].events_per_sec`'s
    /// parent, `scenarios[fig9]`).
    pub path: String,
    /// Baseline events/sec.
    pub base: f64,
    /// Candidate events/sec.
    pub cand: f64,
    /// Fractional change, `(cand - base) / base`; negative = slower.
    pub delta: f64,
    /// Whether the drop exceeded the threshold.
    pub regressed: bool,
}

/// The outcome of a comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Every compared pair, in baseline order.
    pub rows: Vec<DiffRow>,
    /// The regression threshold the rows were judged against.
    pub threshold: f64,
}

impl Comparison {
    /// Whether any row regressed beyond the threshold.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

/// Renders a comparison as the machine-readable mirror of the
/// `bench-diff` table: one row object per compared leaf plus the
/// overall verdict, so CI tooling can consume deltas without scraping
/// the human output.
pub fn to_json(cmp: &Comparison) -> String {
    let rows: Vec<String> = cmp
        .rows
        .iter()
        .map(|r| {
            Obj::new()
                .str("path", &r.path)
                .f64("base", r.base)
                .f64("cand", r.cand)
                .f64("delta", r.delta)
                .bool("regressed", r.regressed)
                .finish()
        })
        .collect();
    Obj::new()
        .str("bench", "bench_diff")
        .f64("threshold", cmp.threshold)
        .raw("rows", &format!("[{}]", rows.join(",")))
        .bool("pass", !cmp.regressed())
        .finish()
}

/// Keys that identify an array element for path alignment, tried in
/// order. `labels[{"label":"mac.tx_end",...}]` aligns by the label,
/// scenarios by scenario name, cells by cell id — never by array
/// position, so reordering a report is not a regression.
const IDENTITY_KEYS: [&str; 4] = ["label", "scenario", "cell", "phase"];

fn element_identity(v: &Json, index: usize) -> String {
    for k in IDENTITY_KEYS {
        if let Some(id) = v.get(k) {
            match id {
                Json::Str(s) => return s.clone(),
                Json::Num(n) => return format!("{n}"),
                _ => {}
            }
        }
    }
    format!("#{index}")
}

fn collect(v: &Json, path: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Obj(kvs) => {
            for (k, val) in kvs {
                if k == "events_per_sec" {
                    if let Some(n) = val.as_f64() {
                        out.push((path.to_string(), n));
                    }
                    continue;
                }
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                collect(val, &sub, out);
            }
        }
        Json::Arr(xs) => {
            for (i, x) in xs.iter().enumerate() {
                let sub = format!("{path}[{}]", element_identity(x, i));
                collect(x, &sub, out);
            }
        }
        _ => {}
    }
}

/// All `events_per_sec` leaves of a document, with alignment paths.
pub fn eps_leaves(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    collect(doc, "", &mut out);
    out
}

/// Compares two rendered `BENCH_*.json` documents.
///
/// `threshold` is the tolerated fractional drop in events/sec (0.10 =
/// fail when the candidate is more than 10 % slower). Returns `Err`
/// on unparsable input, documents with no `events_per_sec` leaves,
/// documents from different benches, or baseline paths missing from
/// the candidate — schema drift must fail loudly, not pass silently.
pub fn compare(base_text: &str, cand_text: &str, threshold: f64) -> Result<Comparison, String> {
    if !(0.0..1.0).contains(&threshold) {
        return Err(format!("threshold must be in [0, 1), got {threshold}"));
    }
    let base = json::parse(base_text).map_err(|e| format!("baseline: {e}"))?;
    let cand = json::parse(cand_text).map_err(|e| format!("candidate: {e}"))?;
    let base_leaves = eps_leaves(&base);
    let cand_leaves = eps_leaves(&cand);
    if base_leaves.is_empty() {
        return Err("baseline has no events_per_sec fields".to_string());
    }
    if cand_leaves.is_empty() {
        return Err("candidate has no events_per_sec fields".to_string());
    }
    let bench_of = |d: &Json| d.get("bench").and_then(Json::as_str).map(str::to_string);
    let (base_bench, cand_bench) = (bench_of(&base), bench_of(&cand));
    if base_bench != cand_bench {
        return Err(format!(
            "schema mismatch: baseline bench {base_bench:?} vs candidate {cand_bench:?}"
        ));
    }

    let judge = |path: String, base: f64, cand: f64| {
        let delta = if base > 0.0 {
            (cand - base) / base
        } else {
            0.0
        };
        DiffRow {
            path,
            base,
            cand,
            delta,
            regressed: delta < -threshold,
        }
    };

    let mut rows = Vec::with_capacity(base_leaves.len());
    for (path, b) in &base_leaves {
        let c = cand_leaves
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, v)| *v)
            .ok_or_else(|| {
                format!("schema mismatch: baseline path '{path}' missing from candidate")
            })?;
        rows.push(judge(path.clone(), *b, c));
    }
    Ok(Comparison { rows, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(bench: &str, scenarios: &[(&str, f64)]) -> String {
        let scenarios: Vec<String> = scenarios
            .iter()
            .map(|(name, eps)| format!(r#"{{"scenario":"{name}","events_per_sec":{eps}}}"#))
            .collect();
        format!(
            r#"{{"bench":"{bench}","scenarios":[{}],"pass":true}}"#,
            scenarios.join(",")
        )
    }

    #[test]
    fn regression_beyond_threshold_is_detected() {
        let base = doc("profile", &[("fig9", 3_000_000.0), ("roam", 2_800_000.0)]);
        let cand = doc("profile", &[("fig9", 3_100_000.0), ("roam", 1_000_000.0)]);
        let cmp = compare(&base, &cand, 0.25).unwrap();
        assert!(cmp.regressed());
        let roam = cmp.rows.iter().find(|r| r.path.contains("roam")).unwrap();
        assert!(roam.regressed);
        assert!(roam.delta < -0.6);
        let fig9 = cmp.rows.iter().find(|r| r.path.contains("[fig9]")).unwrap();
        assert!(!fig9.regressed);
    }

    #[test]
    fn drop_within_threshold_passes() {
        let base = doc("profile", &[("fig9", 3_000_000.0)]);
        let cand = doc("profile", &[("fig9", 2_700_000.0)]); // -10 %
        let cmp = compare(&base, &cand, 0.25).unwrap();
        assert!(!cmp.regressed());
        assert_eq!(cmp.rows.len(), 1);
        assert!((cmp.rows[0].delta - (-0.1)).abs() < 1e-9);
    }

    #[test]
    fn alignment_is_by_identity_not_position() {
        let base = doc("b", &[("x", 100.0), ("y", 200.0)]);
        let cand = doc("b", &[("y", 200.0), ("x", 100.0)]); // reordered
        let cmp = compare(&base, &cand, 0.05).unwrap();
        assert!(!cmp.regressed());
    }

    #[test]
    fn missing_baseline_path_is_a_schema_error() {
        let base = doc("b", &[("x", 100.0), ("y", 200.0)]);
        let cand = doc("b", &[("x", 100.0)]);
        let err = compare(&base, &cand, 0.25).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("[y]"), "{err}");
    }

    #[test]
    fn documents_without_events_per_sec_error() {
        let base = doc("b", &[("x", 100.0)]);
        assert!(compare(&base, r#"{"bench":"b","scenarios":[]}"#, 0.25)
            .unwrap_err()
            .contains("candidate has no events_per_sec"));
        assert!(compare(r#"{"pass":true}"#, &base, 0.25)
            .unwrap_err()
            .contains("baseline has no events_per_sec"));
        assert!(compare("not json", &base, 0.25).is_err());
        assert!(compare(&base, &base, 1.5).is_err());
    }

    #[test]
    fn to_json_mirrors_rows_and_verdict() {
        let base = doc("profile", &[("fig9", 3_000_000.0), ("roam", 2_000_000.0)]);
        let cand = doc("profile", &[("fig9", 3_000_000.0), ("roam", 1_000_000.0)]);
        let cmp = compare(&base, &cand, 0.25).unwrap();
        let text = to_json(&cmp);
        let parsed = json::parse(&text).expect("to_json output must reparse");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("bench_diff")
        );
        assert_eq!(parsed.get("threshold").and_then(Json::as_f64), Some(0.25));
        assert_eq!(parsed.get("pass"), Some(&Json::Bool(false)));
        let Some(Json::Arr(rows)) = parsed.get("rows") else {
            panic!("rows must be an array: {text}");
        };
        assert_eq!(rows.len(), 2);
        let roam = rows
            .iter()
            .find(|r| r.get("path").and_then(Json::as_str) == Some("scenarios[roam]"))
            .unwrap();
        assert_eq!(roam.get("base").and_then(Json::as_f64), Some(2_000_000.0));
        assert_eq!(roam.get("cand").and_then(Json::as_f64), Some(1_000_000.0));
        assert_eq!(roam.get("delta").and_then(Json::as_f64), Some(-0.5));
        assert_eq!(roam.get("regressed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn different_benches_are_a_schema_error() {
        let base = doc("queue", &[("fig9", 3_000_000.0)]);
        let cand = doc("profile", &[("fig9", 3_000_000.0)]);
        let err = compare(&base, &cand, 0.25).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }
}
