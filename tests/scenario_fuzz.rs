//! Randomized scenario documents, single-cell and topology, built from
//! values that are zero, negative, tiny, huge, out of range or valid,
//! plus the rejection corpus under `tests/corpus/reject/` with some of
//! its values re-drawn. Each document must either compile to a config
//! its validators accept, or fail with a diagnostic whose line lies
//! inside the document and whose message names a key. Compiled
//! documents of at most 8 stations and 2 simulated seconds run to
//! completion. Inputs come from fixed-seed [`SimRng`] streams so
//! failures reproduce exactly.

use airtime::obs::NullObserver;
use airtime::scenario::{compile, parse_text};
use airtime::sim::{SimDuration, SimRng};
use airtime::topo::run_topology;
use airtime::wlan::{run, MAX_STATIONS};

const CASES: usize = 300;

/// Values outside most keys' ranges, or on their edges: zero, negative,
/// tiny, huge, fractional where an integer is due, and the wrong type.
const EXTREME: &[&str] = &[
    "0",
    "-1",
    "-50",
    "1e-300",
    "1e300",
    "100000000000",
    "1.5",
    "\"x\"",
];

/// Section names a diagnostic may name instead of a key.
const SECTIONS: &[&str] = &[
    "station",
    "cells",
    "scheduler",
    "topology",
    "check",
    "sweep",
    "tournament",
];

fn pick<'a>(rng: &mut SimRng, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A scenario document under construction. Half the documents draw
/// only valid values, so that runs are common.
struct Gen<'r> {
    rng: &'r mut SimRng,
    text: String,
    faulty: bool,
}

impl Gen<'_> {
    fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    fn header(&mut self, h: &str) {
        self.text.push_str(h);
        self.text.push('\n');
    }

    /// With probability `p`, appends `key = <value>`: one of `valid`,
    /// or one time in eight each one of `odd` (out of the key's range)
    /// or of [`EXTREME`].
    fn key(&mut self, p: f64, key: &str, valid: &[&str], odd: &[&str]) {
        if !self.chance(p) {
            return;
        }
        let v = if self.faulty && self.chance(0.125) {
            pick(self.rng, EXTREME)
        } else if self.faulty && !odd.is_empty() && self.chance(0.125) {
            pick(self.rng, odd)
        } else {
            pick(self.rng, valid)
        };
        self.text.push_str(&format!("{key} = {v}\n"));
    }

    /// A station count: never more than one past the cap, since a
    /// larger valid count is a memory test, not a parse test.
    fn count(&mut self, p: f64, key: &str) {
        let over = (MAX_STATIONS + 1).to_string();
        let odd = ["0", "-1", &over, "1.5"];
        if !self.chance(p) {
            return;
        }
        let v = if self.faulty && self.chance(0.25) {
            pick(self.rng, &odd)
        } else {
            pick(self.rng, &["1", "2", "3"])
        };
        self.text.push_str(&format!("{key} = {v}\n"));
    }
}

fn random_document(rng: &mut SimRng) -> String {
    let faulty = rng.chance(0.5);
    let mut g = Gen {
        rng,
        text: String::new(),
        faulty,
    };
    let topo = g.chance(0.4);
    g.key(0.8, "duration_s", &["1", "2", "3"], &["86401"]);
    g.key(0.8, "warmup_s", &["0", "0.5", "1"], &["3"]);
    g.key(0.3, "seed", &["1", "7"], &[]);
    g.key(0.3, "direction", &["\"up\"", "\"down\""], &["\"sideways\""]);
    g.key(0.3, "client_queue_cap", &["1", "50"], &["100001"]);
    g.key(0.2, "wired_delay_ms", &["1", "5"], &[]);
    g.key(0.1, "rts_threshold", &["500"], &[]);
    g.count(0.2, "station_count");
    if g.chance(0.6) {
        g.header("[scheduler]");
        let kinds = [
            "\"tbr\"",
            "\"rr\"",
            "\"fifo\"",
            "\"drr\"",
            "\"txop\"",
            "\"pf\"",
            "\"maxmin\"",
        ];
        g.key(0.9, "kind", &kinds, &["\"lifo\""]);
        let tunables: [(&str, &[&str], &[&str]); 8] = [
            ("fill_period_ms", &["1", "5", "20"], &[]),
            ("adjust_period_ms", &["20", "100"], &["0.5"]),
            ("bucket_ms", &["20"], &[]),
            ("min_rate", &["0.02"], &[]),
            ("quantum_ms", &["6"], &[]),
            ("beta", &["0.01"], &[]),
            ("rate_ewma", &["0.2"], &[]),
            ("total_buffer", &["100"], &[]),
        ];
        for (key, valid, odd) in tunables {
            g.key(0.2, key, valid, odd);
        }
    }
    if topo {
        if g.chance(0.7) {
            g.header("[topology]");
            g.key(0.5, "hysteresis_db", &["0", "6"], &[]);
            g.key(
                0.5,
                "min_rssi_dbm",
                &["-94", "-30", "-25"],
                &["-24", "1000"],
            );
            g.key(0.5, "assoc_tick_ms", &["50", "100"], &[]);
            g.key(0.3, "rate_set", &["\"b\"", "\"g\""], &["\"n\""]);
        }
        for _ in 0..g.rng.range_inclusive(1, 3) {
            g.header("[[cells]]");
            g.key(0.8, "x_ft", &["0", "150"], &[]);
            g.key(0.3, "y_ft", &["0"], &[]);
            g.key(0.8, "channel", &["1", "6", "11"], &["256"]);
        }
    }
    for _ in 0..g.rng.range_inclusive(1, 3) {
        g.header("[[station]]");
        if g.chance(0.3) {
            g.key(1.0, "distance_ft", &["4", "26"], &[]);
            let walls = ["[\"thin_wood\"]", "[\"thick\"]"];
            g.key(0.3, "walls", &walls, &["[\"glass\"]"]);
            g.key(0.3, "shadow_db", &["0", "3"], &[]);
        } else {
            let rates = ["\"11\"", "\"1\"", "\"5.5\"", "2"];
            g.key(0.95, "rate", &rates, &["\"7\""]);
            g.key(0.4, "fer", &["0", "0.01", "0.2"], &[]);
        }
        g.key(0.3, "weight", &["1", "2"], &[]);
        g.count(0.3, "count");
        if topo {
            g.key(0.5, "x_ft", &["0", "10", "150"], &[]);
            g.key(0.5, "y_ft", &["0", "10"], &[]);
            g.key(0.3, "auto_rate", &["true", "false"], &[]);
        }
        let explicit = g.chance(0.3);
        let flows = if explicit {
            g.rng.range_inclusive(1, 2)
        } else {
            1
        };
        for _ in 0..flows {
            if explicit {
                g.header("[[station.flow]]");
                g.key(0.3, "direction", &["\"up\"", "\"down\""], &[]);
            }
            g.key(0.4, "transport", &["\"tcp\"", "\"udp\""], &["\"sctp\""]);
            g.key(0.3, "rate_limit_bps", &["2000000", "40000"], &["1000"]);
            g.key(0.2, "start_s", &["0", "0.5"], &[]);
            g.key(0.2, "task_bytes", &["100000"], &[]);
        }
        if topo && g.chance(0.3) {
            g.header("[[station.mobility]]");
            g.key(0.9, "speed_fps", &["15", "5"], &[]);
            let odd = ["[0]", "[]", "[1e300, -1e300]"];
            g.key(0.9, "x_ft", &["[0, 300]", "[300, 0]"], &odd);
            g.key(0.9, "y_ft", &["[10, 10]", "[0, 20]"], &["[10]"]);
        }
    }
    g.text
}

/// `text` with about a third of its values re-drawn from [`EXTREME`]
/// and a few valid ones. Station counts are re-drawn from the counts
/// [`Gen::count`] uses instead: a huge one is never compiled.
fn redraw(rng: &mut SimRng, text: &str) -> String {
    let over = (MAX_STATIONS + 1).to_string();
    let mut out = String::new();
    for line in text.lines() {
        match line.split_once(" = ") {
            Some((key, _)) if !line.starts_with('#') && rng.chance(0.35) => {
                let v = if key == "count" || key == "station_count" {
                    pick(rng, &["0", "-1", "1", "3", &over])
                } else if rng.chance(0.7) {
                    pick(rng, EXTREME)
                } else {
                    pick(rng, &["1", "2", "3", "\"11\""])
                };
                out.push_str(&format!("{key} = {v}\n"));
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// A diagnostic must point inside the document and name a key or a
/// section of it.
fn check_diagnostic(text: &str, line: usize, msg: &str) {
    let lines = text.lines().count().max(1);
    assert!(
        (1..=lines).contains(&line),
        "line {line} outside the {lines}-line document: {msg}\n{text}"
    );
    let keys = text
        .lines()
        .filter_map(|l| l.split_once(" = ").map(|(k, _)| k.trim()));
    let names_one = keys
        .chain(SECTIONS.iter().copied())
        .any(|k| msg.contains(k.trim_end_matches("_ms").trim_end_matches("_s")));
    assert!(names_one, "the message names no key: {msg}\n{text}");
}

/// Compiles `text`; on success the validators must agree, and a small
/// enough document must run to completion.
fn exercise(text: &str) -> bool {
    let doc = match parse_text(text, "fuzz.toml") {
        Ok(doc) => doc,
        Err(e) => {
            check_diagnostic(text, e.line, &e.msg);
            return false;
        }
    };
    let spec = match compile(&doc, "fuzz.toml") {
        Ok(spec) => spec,
        Err(e) => {
            check_diagnostic(text, e.line, &e.msg);
            return false;
        }
    };
    let cfg = &spec.cfg;
    if let Err(e) = cfg.validate() {
        panic!("compiled, but the cell validator rejects it: {e}\n{text}");
    }
    if let Some(Err(e)) = spec.topo.as_ref().map(|t| t.validate()) {
        panic!("compiled, but the topology validator rejects it: {e}\n{text}");
    }
    // A saturating uplink fills its client queue packet by packet, so a
    // lost queue bound must fail here rather than exhaust memory.
    assert!(cfg.client_queue_cap <= 100_000, "{text}");
    if cfg.stations.len() <= 8 && cfg.duration <= SimDuration::from_secs(2) {
        match &spec.topo {
            Some(t) => {
                let mut obs: Vec<_> = t.cells.iter().map(|_| NullObserver).collect();
                run_topology(t, &mut obs);
            }
            None => {
                run(cfg);
            }
        }
    }
    true
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/reject");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("the rejection corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("corpus file readable");
            (p.display().to_string(), text)
        })
        .collect()
}

#[test]
fn every_corpus_document_is_rejected_at_a_line_naming_a_key() {
    let corpus = corpus();
    assert!(corpus.len() >= 6, "corpus has {} files", corpus.len());
    for (path, text) in corpus {
        let doc = parse_text(&text, &path).unwrap();
        let e = compile(&doc, &path).expect_err(&path);
        check_diagnostic(&text, e.line, &e.msg);
    }
}

#[test]
fn random_documents_compile_to_valid_configs_or_fail_at_a_key() {
    let mut rng = SimRng::new(0xF022);
    let compiled = (0..CASES)
        .filter(|_| exercise(&random_document(&mut rng)))
        .count();
    // Both outcomes must be common, or the generator tests nothing.
    assert!(
        compiled > CASES / 10 && compiled < CASES * 9 / 10,
        "{compiled}"
    );
}

#[test]
fn redrawn_corpus_documents_compile_to_valid_configs_or_fail_at_a_key() {
    let mut rng = SimRng::new(0xF023);
    let corpus = corpus();
    for case in 0..CASES {
        let (_, text) = &corpus[case % corpus.len()];
        exercise(&redraw(&mut rng, text));
    }
}
