//! `bench-diff` — the CI regression gate over `BENCH_*.json` files.
//!
//! ```text
//! bench-diff [--threshold FRAC] [--json PATH] <baseline.json> <candidate.json>
//! ```
//!
//! Compares every `events_per_sec` leaf of the candidate against the
//! baseline (see `airtime_bench::diff` for the alignment rules) and
//! exits non-zero when throughput regressed beyond the threshold:
//! exit 0 = pass, 1 = regression, 2 = usage/parse/schema error.
//! `--json` mirrors the table (per-leaf deltas + verdict) into a
//! machine-readable document for downstream tooling.

use std::process::ExitCode;

use airtime_bench::diff::{compare, to_json};
use airtime_bench::print_table;

const USAGE: &str =
    "usage: bench-diff [--threshold FRAC] [--json PATH] <baseline.json> <candidate.json>\n\
    FRAC is the tolerated fractional events/sec drop (default 0.10;\n\
    0.25 tolerates a 25 % slowdown). --json PATH writes the comparison\n\
    (per-leaf deltas + verdict) as JSON. Exit 0 = pass, 1 = regression,\n\
    2 = usage/parse/schema error.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench-diff: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut threshold = 0.10f64;
    let mut json_out: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => {
                let Some(v) = args.next() else {
                    return fail("--threshold needs a value");
                };
                match v.parse::<f64>() {
                    Ok(f) => threshold = f,
                    Err(_) => return fail(&format!("bad threshold '{v}'")),
                }
            }
            "--json" => {
                let Some(p) = args.next() else {
                    return fail("--json needs a path");
                };
                json_out = Some(p);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if a.starts_with('-') => return fail(&format!("unknown flag '{a}'")),
            _ => files.push(a),
        }
    }
    if files.len() != 2 {
        return fail("need exactly two files");
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (base, cand) = match (read(&files[0]), read(&files[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let cmp = match compare(&base, &cand, threshold) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    println!(
        "bench-diff: {} vs {} (threshold {:.0} %)",
        files[0],
        files[1],
        threshold * 100.0
    );
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                r.path.clone(),
                format!("{:.0}", r.base),
                format!("{:.0}", r.cand),
                format!("{:+.1} %", r.delta * 100.0),
                if r.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &["path", "base ev/s", "cand ev/s", "delta", "verdict"],
        &rows,
    );
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, to_json(&cmp) + "\n") {
            return fail(&format!("writing {path}: {e}"));
        }
        println!("wrote {path}");
    }
    if cmp.regressed() {
        eprintln!(
            "bench-diff: FAIL — events/sec dropped more than {:.0} %",
            threshold * 100.0
        );
        ExitCode::from(1)
    } else {
        println!("bench-diff: pass");
        ExitCode::SUCCESS
    }
}
