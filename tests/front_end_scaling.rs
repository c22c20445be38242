//! The scenario front end (parse plus sweep expansion) grows linearly
//! with the stations a document declares, parsing grows linearly with
//! its `[table]` headers, and the allocation count on a fixed roaming
//! document does not creep up.
//!
//! Its own test binary: the allocation count reads a process-wide
//! counter, so no other test may allocate while it runs.

use std::fmt::Write;
use std::time::{Duration, Instant};

use airtime::obs::prof::{alloc_stats, set_alloc_counting};
use airtime::obs::CountingAlloc;
use airtime::scenario::{expand, parse_text};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RATES: [&str; 4] = ["1", "2", "5.5", "11"];

/// One cell of `n` explicit `[[station]]` tables; every fourth station
/// declares its flow in a `[[station.flow]]` sub-table.
fn cell(n: usize) -> String {
    let mut t = String::from("name = \"scale\"\nduration_s = 2\nwarmup_s = 0.5\n\n");
    t.push_str("[scheduler]\nkind = \"tbr\"\n\n");
    for s in 0..n {
        writeln!(t, "[[station]]\nrate = \"{}\"", RATES[s % 4]).unwrap();
        if s % 4 == 0 {
            t.push_str("[[station.flow]]\ntransport = \"udp\"\ndirection = \"down\"\n");
        }
        t.push('\n');
    }
    t
}

/// Three TBR cells with 24 residents each and 6 walkers that cross all
/// three: 78 stations, the shape of the roaming benchmark.
fn campus() -> String {
    let mut t = String::from("name = \"campus\"\nseed = 5\nduration_s = 6\nwarmup_s = 1\n\n");
    t.push_str("[scheduler]\nkind = \"tbr\"\n\n");
    t.push_str("[topology]\nhysteresis_db = 6.0\nassoc_tick_ms = 100\nrate_set = \"b\"\n\n");
    let aps = [(0.0, 1), (150.0, 1), (300.0, 6)];
    for (x, ch) in aps {
        writeln!(t, "[[cells]]\nx_ft = {x}\ny_ft = 0\nchannel = {ch}\n").unwrap();
    }
    for (c, (x, _)) in aps.iter().enumerate() {
        for s in 0..24 {
            let dir = if s % 2 == 0 { "down" } else { "up" };
            let (px, py) = (x - 24.0 + 2.0 * s as f64, 5.0 + (s + c) as f64);
            writeln!(
                t,
                "[[station]]\nrate = \"{}\"\ndirection = \"{dir}\"\nx_ft = {px:.1}\ny_ft = {py:.1}\n",
                RATES[s % 4]
            )
            .unwrap();
        }
    }
    for w in 0..6 {
        let (from, to) = if w % 2 == 0 { (0, 300) } else { (300, 0) };
        let y = 10.0 + w as f64 * 1.5;
        writeln!(
            t,
            "[[station]]\nrate = \"{}\"\nx_ft = {from}\ny_ft = {y:.1}\n\n\
             [[station.mobility]]\nspeed_fps = 50\nx_ft = [{from}, {to}]\ny_ft = [{y:.1}, {y:.1}]\n",
            RATES[w % 4]
        )
        .unwrap();
    }
    t
}

/// `n` distinct single-bracket headers, `[a0]` to `[a{n-1}]`: each is
/// checked against the earlier ones for "defined twice".
fn headers(n: usize) -> String {
    (0..n).map(|i| format!("[a{i}]\n")).collect()
}

/// Host time of parsing `text`.
fn parse_only(text: &str) -> Duration {
    let t0 = Instant::now();
    let doc = parse_text(text, "headers.toml").expect("document parses");
    let took = t0.elapsed();
    assert!(!doc.tables.is_empty());
    took
}

/// Host time of parsing and expanding `text`.
fn front_end(text: &str) -> Duration {
    let t0 = Instant::now();
    let doc = parse_text(text, "scale.toml").expect("document parses");
    let (_, jobs) = expand(&doc, "scale.toml").expect("document expands");
    let took = t0.elapsed();
    assert_eq!(jobs.len(), 1);
    took
}

/// Allocations the campus document's parse plus expansion makes with
/// sub-tables read from each station's own range, values parsed in
/// place, unreplicated stations moved, not cloned, and the table list
/// sized up front. Before those changes it made 2,912.
const CAMPUS_ALLOCS: u64 = 1135;

#[test]
fn front_end_is_linear_in_stations_and_allocation_bounded() {
    let (small, large) = (cell(1024), cell(4096));
    // Interleaved, so a slow spell on the host hits both sizes alike.
    let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        t_small = t_small.min(front_end(&small));
        t_large = t_large.min(front_end(&large));
    }
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio <= 10.0,
        "4096 stations took {t_large:?}, {ratio:.1}x the {t_small:?} of 1024"
    );

    // A scan of every earlier header read about 22x here.
    let (small, large) = (headers(2_000), headers(8_000));
    let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        t_small = t_small.min(parse_only(&small));
        t_large = t_large.min(parse_only(&large));
    }
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio <= 10.0,
        "8000 headers took {t_large:?}, {ratio:.1}x the {t_small:?} of 2000"
    );

    let text = campus();
    set_alloc_counting(true);
    let before = alloc_stats();
    let doc = parse_text(&text, "campus.toml").expect("campus parses");
    let (_, jobs) = expand(&doc, "campus.toml").expect("campus expands");
    let allocs = alloc_stats().since(before).allocs;
    set_alloc_counting(false);
    let topo = jobs[0].spec.topo.as_ref().expect("a topology");
    assert_eq!(topo.base.stations.len(), 78);
    assert_eq!(
        topo.placements
            .iter()
            .filter(|p| p.mobility.is_some())
            .count(),
        6
    );
    assert!(
        allocs <= CAMPUS_ALLOCS,
        "parse plus expand of the campus document made {allocs} allocations, \
         more than the {CAMPUS_ALLOCS} it is held to"
    );
}
