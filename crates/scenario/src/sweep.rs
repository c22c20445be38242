//! Sweep expansion: turning a `[sweep]` section into a deterministic
//! job matrix.
//!
//! Each key of `[sweep]` is one axis. The key names a path into the
//! document (see [`crate::toml::Doc::set_path`]) and the value is a
//! non-empty array of the values that axis takes:
//!
//! ```toml
//! [sweep]
//! direction = ["down", "up"]
//! "station.1.rate" = ["5.5", "2", "1"]
//! scheduler = ["rr", "tbr"]          # shorthand for scheduler.kind
//! seed = [1, 2, 3, 4]
//! ```
//!
//! The matrix is the cartesian product in declaration order: the first
//! axis varies slowest, the last fastest — exactly the nesting order of
//! the equivalent hand-written `for` loops. Job indices,
//! and therefore output row order, depend only on the file, never on
//! which worker finishes first.

use std::borrow::Cow;

use crate::spec::{check_runnable, compile, CompileError, ScenarioSpec};
use crate::toml::{Doc, Value};

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        line,
        msg: msg.into(),
    })
}

/// One sweep dimension.
#[derive(Clone, Debug)]
pub struct Axis {
    /// The axis name as written in the file (`scheduler`,
    /// `station.1.rate`, …).
    pub name: String,
    /// The document path the values are written to.
    pub path: String,
    /// The values, in file order.
    pub values: Vec<Value>,
    /// Source line of the axis (for override errors).
    pub line: usize,
}

/// One cell of the matrix, ready to run.
#[derive(Clone, Debug)]
pub struct Job {
    /// Row-major index into the matrix (also the output row order).
    pub index: usize,
    /// `(axis name, value label)` pairs, in axis order.
    pub coords: Vec<(String, String)>,
    /// The compiled configuration for this cell.
    pub spec: ScenarioSpec,
}

/// Axis names that are shorthand for a longer path.
fn resolve_path(name: &str) -> String {
    match name {
        // `scheduler = ["rr", "tbr"]` reads better than scheduler.kind.
        "scheduler" => "scheduler.kind".to_string(),
        other => other.to_string(),
    }
}

/// Reads the `[sweep]` table into axes. A scenario without `[sweep]`
/// yields no axes (and [`expand`] produces a single job).
pub fn axes(doc: &Doc) -> Result<Vec<Axis>, CompileError> {
    let Some(t) = doc.table("sweep") else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for e in &t.entries {
        let Some(values) = e.value.as_array() else {
            return err(
                e.line,
                format!(
                    "sweep axis '{}' expects an array of values, got {}",
                    e.key,
                    e.value.type_name()
                ),
            );
        };
        if values.is_empty() {
            return err(e.line, format!("sweep axis '{}' has no values", e.key));
        }
        if values.iter().any(|v| matches!(v, Value::Array(_))) {
            return err(
                e.line,
                format!(
                    "sweep axis '{}' expects scalars, found a nested array",
                    e.key
                ),
            );
        }
        out.push(Axis {
            name: e.key.clone(),
            path: resolve_path(&e.key),
            values: values.to_vec(),
            line: e.line,
        });
    }
    Ok(out)
}

/// Expands the document into its job matrix. Every cell's overrides
/// are applied to a fresh copy of the document, which is then compiled
/// — so axis values go through exactly the validation hand-written
/// keys do, and a bad value fails with the axis's line number. A
/// document without axes is compiled as it stands, uncopied.
pub fn expand(doc: &Doc) -> Result<(Vec<Axis>, Vec<Job>), CompileError> {
    let axes = axes(doc)?;
    let njobs: usize = axes.iter().map(|a| a.values.len()).product();
    let mut jobs = Vec::with_capacity(njobs);
    for index in 0..njobs {
        // Row-major: first axis slowest.
        let mut rem = index;
        let mut picks = vec![0usize; axes.len()];
        for (k, axis) in axes.iter().enumerate().rev() {
            picks[k] = rem % axis.values.len();
            rem /= axis.values.len();
        }
        // The first axis value written copies the document.
        let mut cell = Cow::Borrowed(doc);
        let mut coords = Vec::with_capacity(axes.len());
        for (axis, &pick) in axes.iter().zip(&picks) {
            let v = &axis.values[pick];
            cell.to_mut().set_path(&axis.path, v.clone(), axis.line)?;
            coords.push((axis.name.clone(), v.to_string()));
        }
        let spec = compile(&cell).map_err(|e| {
            if coords.is_empty() {
                e
            } else {
                CompileError {
                    line: e.line,
                    msg: format!(
                        "{} (in sweep cell {})",
                        e.msg,
                        coords
                            .iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                }
            }
        })?;
        check_runnable(&cell, &spec)?;
        jobs.push(Job {
            index,
            coords,
            spec,
        });
    }
    Ok((axes, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::parse;
    use airtime_wlan::{Direction, SchedulerKind};

    const BASE: &str = r#"
name = "sweep-test"
duration_s = 4
warmup_s = 1
direction = "up"

[scheduler]
kind = "fifo"

[[station]]
rate = "11"

[[station]]
rate = "11"
"#;

    #[test]
    fn no_sweep_is_one_job() {
        let doc = parse(BASE).unwrap();
        let (axes, jobs) = expand(&doc).unwrap();
        assert!(axes.is_empty());
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].coords.len(), 0);
    }

    #[test]
    fn matrix_order_is_row_major_in_declaration_order() {
        let text = format!(
            "{BASE}\n[sweep]\nscheduler = [\"rr\", \"tbr\"]\n\"station.1.rate\" = [\"11\", \"1\"]\nseed = [1, 2]\n"
        );
        let doc = parse(&text).unwrap();
        let (axes, jobs) = expand(&doc).unwrap();
        assert_eq!(axes.len(), 3);
        assert_eq!(jobs.len(), 8);
        // First axis (scheduler) slowest, last (seed) fastest.
        let labels: Vec<String> = jobs
            .iter()
            .map(|j| {
                j.coords
                    .iter()
                    .map(|(_, v)| v.clone())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert_eq!(
            labels,
            vec![
                "rr/11/1", "rr/11/2", "rr/1/1", "rr/1/2", "tbr/11/1", "tbr/11/2", "tbr/1/1",
                "tbr/1/2"
            ]
        );
        assert!(matches!(
            jobs[0].spec.cfg.scheduler,
            SchedulerKind::RoundRobin
        ));
        assert!(matches!(jobs[4].spec.cfg.scheduler, SchedulerKind::Tbr(_)));
        assert_eq!(jobs[3].spec.cfg.seed, 2);
        assert_eq!(jobs[2].rate_label(1), "1M");
        assert_eq!(jobs[1].rate_label(1), "11M");
    }

    impl Job {
        fn rate_label(&self, station: usize) -> &str {
            &self.spec.rate_labels[station]
        }
    }

    #[test]
    fn direction_and_station_count_axes() {
        let text =
            format!("{BASE}\n[sweep]\ndirection = [\"down\", \"up\"]\nstation_count = [2, 4]\n");
        let doc = parse(&text).unwrap();
        let (_, jobs) = expand(&doc).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].spec.cfg.stations.len(), 2);
        assert_eq!(jobs[1].spec.cfg.stations.len(), 4);
        assert_eq!(
            jobs[0].spec.cfg.stations[0].flows[0].direction,
            Direction::Downlink
        );
        assert_eq!(
            jobs[3].spec.cfg.stations[0].flows[0].direction,
            Direction::Uplink
        );
    }

    #[test]
    fn bad_axis_values_fail_with_cell_context() {
        let text = format!("{BASE}\n[sweep]\n\"station.1.rate\" = [\"11\", \"7\"]\n");
        let doc = parse(&text).unwrap();
        let e = expand(&doc).unwrap_err();
        assert!(e.msg.contains("unknown rate '7'"), "{e}");
        assert!(e.msg.contains("station.1.rate=7"), "{e}");
    }

    #[test]
    fn axis_on_missing_target_fails() {
        let text = format!("{BASE}\n[sweep]\n\"station.9.rate\" = [\"11\"]\n");
        let doc = parse(&text).unwrap();
        let e = expand(&doc).unwrap_err();
        assert!(e.msg.contains("out of range"), "{e}");
    }

    #[test]
    fn non_array_axis_rejected() {
        let text = format!("{BASE}\n[sweep]\nseed = 3\n");
        let doc = parse(&text).unwrap();
        assert!(axes(&parse(&text).unwrap()).is_err());
        assert!(expand(&doc).unwrap_err().msg.contains("array of values"));
    }
}
