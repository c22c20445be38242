//! Serialising sweep results as JSON and CSV, each with a
//! self-describing schema header.
//!
//! Both formats are pure functions of the scenario file — job order,
//! float formatting, and column layout never depend on thread count or
//! wall time, so re-running a sweep on any machine with any
//! parallelism produces byte-identical documents (the property the
//! determinism tests pin down).

use airtime_obs::csv::Csv;
use airtime_obs::json::{num, Obj};

use crate::aggregate::{jain_defined, Cell, CheckOutcome};
use crate::sweep::Axis;

/// Schema identifier stamped into both documents.
pub const SCHEMA: &str = "airtime-sweep";
/// Schema version stamped into both documents.
pub const VERSION: u32 = 1;

/// The whole sweep as one JSON document.
pub fn to_json(scenario: &str, axes: &[Axis], cells: &[Cell]) -> String {
    let mut root = Obj::new();
    root.str("schema", SCHEMA)
        .u64("version", VERSION as u64)
        .str("scenario", scenario);

    let mut axes_json = String::from("[");
    for (i, a) in axes.iter().enumerate() {
        if i > 0 {
            axes_json.push(',');
        }
        let mut vals = String::from("[");
        for (j, v) in a.values.iter().enumerate() {
            if j > 0 {
                vals.push(',');
            }
            vals.push('"');
            vals.push_str(&airtime_obs::json::escape(&v.to_string()));
            vals.push('"');
        }
        vals.push(']');
        let mut o = Obj::new();
        o.str("name", &a.name).raw("values", &vals);
        axes_json.push_str(&o.finish());
    }
    axes_json.push(']');
    root.raw("axes", &axes_json);

    let mut cells_json = String::from("[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            cells_json.push(',');
        }
        let mut coords = Obj::new();
        for (k, v) in &c.coords {
            coords.str(k, v);
        }
        let mut stations = String::from("[");
        for (j, s) in c.stations.iter().enumerate() {
            if j > 0 {
                stations.push(',');
            }
            let mut o = Obj::new();
            o.str("rate", &s.rate)
                .f64("goodput_mbps", s.goodput_mbps)
                .f64("airtime_share", s.airtime_share)
                .f64("queueing_p95_ms", s.queueing_p95_ms)
                .f64("contention_p95_ms", s.contention_p95_ms)
                .f64("hol_p95_ms", s.hol_p95_ms);
            stations.push_str(&o.finish());
        }
        stations.push(']');
        let mut o = Obj::new();
        o.u64("job", c.index as u64)
            .raw("coords", &coords.finish())
            .raw("stations", &stations)
            .f64("total_mbps", c.total_mbps)
            .f64("utilization", c.utilization)
            .opt_f64("jain_throughput", jain_defined(c.jain_throughput))
            .opt_f64("jain_airtime", jain_defined(c.jain_airtime))
            .str("check", c.check.label());
        if let CheckOutcome::Fail(reason) = &c.check {
            o.str("check_reason", reason);
        }
        if let Some(fp) = &c.fp {
            o.str("fp", fp);
        }
        if let Some(roam) = &c.roam {
            let mut r = Obj::new();
            r.u64("handoffs", roam.handoffs)
                .u64("drops", roam.drops)
                .f64("outage_s", roam.outage_s)
                .str("audit", if roam.audits_pass { "pass" } else { "fail" })
                .u64("worst_audit_error_ns", roam.worst_audit_error_ns);
            let mut mbps = String::from("[");
            for (k, v) in roam.cell_mbps.iter().enumerate() {
                if k > 0 {
                    mbps.push(',');
                }
                mbps.push_str(&num(*v));
            }
            mbps.push(']');
            r.raw("cell_mbps", &mbps);
            o.raw("roam", &r.finish());
        }
        cells_json.push_str(&o.finish());
    }
    cells_json.push(']');
    root.raw("cells", &cells_json);
    root.finish() + "\n"
}

/// The whole sweep as one CSV document: one row per cell, one column
/// per axis, then aggregates, then `goodput<i>_mbps`/`airtime<i>_share`
/// pairs up to the widest cell (narrower cells leave those blank).
///
/// Topology sweeps grow roaming columns (`handoffs`, `drops`,
/// `outage_s`, `audit`, `cell<j>_mbps`) after the aggregates; scenarios
/// without `[[cells]]` never emit them, so pre-topology output stays
/// byte-identical. Cells aggregated with a flight recorder attached
/// (all of `run_sweep`'s) likewise grow an `fp` determinism-fingerprint
/// column after `check`.
pub fn to_csv(scenario: &str, axes: &[Axis], cells: &[Cell]) -> String {
    let max_stations = cells.iter().map(|c| c.stations.len()).max().unwrap_or(0);
    let max_radio_cells = cells
        .iter()
        .filter_map(|c| c.roam.as_ref().map(|r| r.cell_mbps.len()))
        .max();
    let has_fp = cells.iter().any(|c| c.fp.is_some());
    let mut columns: Vec<String> = vec!["job".into()];
    columns.extend(axes.iter().map(|a| a.name.clone()));
    columns.extend(
        [
            "total_mbps",
            "utilization",
            "jain_throughput",
            "jain_airtime",
            "check",
        ]
        .map(String::from),
    );
    if has_fp {
        columns.push("fp".into());
    }
    if let Some(n) = max_radio_cells {
        columns.extend(["handoffs", "drops", "outage_s", "audit"].map(String::from));
        for j in 0..n {
            columns.push(format!("cell{j}_mbps"));
        }
    }
    for i in 0..max_stations {
        columns.push(format!("rate{i}"));
        columns.push(format!("goodput{i}_mbps"));
        columns.push(format!("airtime{i}_share"));
        columns.push(format!("queueing{i}_p95_ms"));
        columns.push(format!("contention{i}_p95_ms"));
        columns.push(format!("hol{i}_p95_ms"));
    }
    let mut csv = Csv::new(&format!("{SCHEMA}:{scenario}"), VERSION, &columns);
    for c in cells {
        let mut cells_row: Vec<String> = vec![c.index.to_string()];
        cells_row.extend(c.coords.iter().map(|(_, v)| v.clone()));
        cells_row.push(num(c.total_mbps));
        cells_row.push(num(c.utilization));
        cells_row.push(jain_defined(c.jain_throughput).map_or_else(String::new, num));
        cells_row.push(jain_defined(c.jain_airtime).map_or_else(String::new, num));
        cells_row.push(c.check.label().to_string());
        if has_fp {
            cells_row.push(c.fp.clone().unwrap_or_default());
        }
        if let Some(n) = max_radio_cells {
            match &c.roam {
                Some(r) => {
                    cells_row.push(r.handoffs.to_string());
                    cells_row.push(r.drops.to_string());
                    cells_row.push(num(r.outage_s));
                    cells_row.push(if r.audits_pass { "pass" } else { "fail" }.to_string());
                    for j in 0..n {
                        cells_row.push(r.cell_mbps.get(j).map(|v| num(*v)).unwrap_or_default());
                    }
                }
                None => {
                    for _ in 0..4 + n {
                        cells_row.push(String::new());
                    }
                }
            }
        }
        for i in 0..max_stations {
            match c.stations.get(i) {
                Some(s) => {
                    cells_row.push(s.rate.clone());
                    cells_row.push(num(s.goodput_mbps));
                    cells_row.push(num(s.airtime_share));
                    cells_row.push(num(s.queueing_p95_ms));
                    cells_row.push(num(s.contention_p95_ms));
                    cells_row.push(num(s.hol_p95_ms));
                }
                None => {
                    for _ in 0..6 {
                        cells_row.push(String::new());
                    }
                }
            }
        }
        csv.row(&cells_row);
    }
    csv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CellStation;
    use crate::toml::Value;

    fn sample() -> (Vec<Axis>, Vec<Cell>) {
        let axes = vec![Axis {
            name: "scheduler".into(),
            path: "scheduler.kind".into(),
            values: vec![Value::Str("fifo".into()), Value::Str("tbr".into())],
            line: 10,
        }];
        let cell = |i: usize, sched: &str, total: f64| Cell {
            index: i,
            coords: vec![("scheduler".into(), sched.into())],
            stations: vec![
                CellStation {
                    rate: "11M".into(),
                    goodput_mbps: total * 0.75,
                    airtime_share: 0.5,
                    queueing_p95_ms: 12.5,
                    contention_p95_ms: 3.25,
                    hol_p95_ms: 1.5,
                },
                CellStation {
                    rate: "1M".into(),
                    goodput_mbps: total * 0.25,
                    airtime_share: 0.5,
                    queueing_p95_ms: 80.0,
                    contention_p95_ms: 6.0,
                    hol_p95_ms: 2.0,
                },
            ],
            total_mbps: total,
            utilization: 0.9,
            jain_throughput: 0.8,
            jain_airtime: 1.0,
            check: if i == 0 {
                CheckOutcome::Fail("off by 0.2".into())
            } else {
                CheckOutcome::Pass
            },
            fp: None,
            roam: None,
        };
        (axes, vec![cell(0, "fifo", 1.34), cell(1, "tbr", 2.25)])
    }

    #[test]
    fn json_has_schema_axes_and_cells() {
        let (axes, cells) = sample();
        let json = to_json("demo", &axes, &cells);
        assert!(json.starts_with(r#"{"schema":"airtime-sweep","version":1,"scenario":"demo""#));
        assert!(json.contains(r#""axes":[{"name":"scheduler","values":["fifo","tbr"]}]"#));
        assert!(json.contains(r#""job":0"#));
        assert!(json.contains(r#""check":"fail","check_reason":"off by 0.2""#));
        assert!(json.contains(r#""check":"pass""#));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn roam_columns_appear_only_for_topology_cells() {
        use crate::aggregate::RoamSummary;
        let (axes, mut cells) = sample();
        // Single-cell output first: no roam columns anywhere.
        let plain_csv = to_csv("demo", &axes, &cells);
        assert!(!plain_csv.contains("handoffs"));
        let plain_json = to_json("demo", &axes, &cells);
        assert!(!plain_json.contains("roam"));
        // Now mark one cell as a topology job.
        cells[1].roam = Some(RoamSummary {
            handoffs: 2,
            drops: 1,
            outage_s: 0.5,
            cell_mbps: vec![3.25, 1.5],
            audits_pass: true,
            worst_audit_error_ns: 12,
        });
        let csv = to_csv("demo", &axes, &cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[1].contains("check,handoffs,drops,outage_s,audit,cell0_mbps,cell1_mbps,rate0"),
            "{}",
            lines[1]
        );
        // The non-topo row leaves the roam columns blank.
        assert!(lines[2].contains("fail,,,,,,,11M"), "{}", lines[2]);
        assert!(
            lines[3].contains("pass,2,1,0.5,pass,3.25,1.5,11M"),
            "{}",
            lines[3]
        );
        let json = to_json("demo", &axes, &cells);
        assert!(json.contains(
            r#""roam":{"handoffs":2,"drops":1,"outage_s":0.5,"audit":"pass","worst_audit_error_ns":12,"cell_mbps":[3.25,1.5]}"#
        ), "{json}");
    }

    #[test]
    fn fp_column_appears_only_when_recorded() {
        let (axes, mut cells) = sample();
        // No fingerprints: layout is untouched.
        assert!(!to_csv("demo", &axes, &cells).contains(",fp,"));
        assert!(!to_json("demo", &axes, &cells).contains("\"fp\""));
        cells[0].fp = Some("00f0e1d2c3b4a596".into());
        cells[1].fp = Some("123456789abcdef0".into());
        let csv = to_csv("demo", &axes, &cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-sweep:demo v1; columns: 20");
        assert!(lines[1].contains("check,fp,rate0"), "{}", lines[1]);
        assert!(
            lines[2].contains("fail,00f0e1d2c3b4a596,11M"),
            "{}",
            lines[2]
        );
        let json = to_json("demo", &axes, &cells);
        assert!(
            json.contains(r#""check":"pass","fp":"123456789abcdef0""#),
            "{json}"
        );
    }

    #[test]
    fn csv_has_schema_header_and_station_columns() {
        let (axes, cells) = sample();
        let csv = to_csv("demo", &axes, &cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-sweep:demo v1; columns: 19");
        assert_eq!(
            lines[1],
            "job,scheduler,total_mbps,utilization,jain_throughput,jain_airtime,check,\
             rate0,goodput0_mbps,airtime0_share,queueing0_p95_ms,contention0_p95_ms,hol0_p95_ms,\
             rate1,goodput1_mbps,airtime1_share,queueing1_p95_ms,contention1_p95_ms,hol1_p95_ms"
        );
        assert!(lines[2].starts_with("0,fifo,1.34,0.9,0.8,1,fail,11M,"));
        assert!(lines[3].starts_with("1,tbr,2.25,0.9,0.8,1,pass,11M,"));
    }
}
