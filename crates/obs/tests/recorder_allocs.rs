//! A fingerprint-only flight recorder (capacity 0) allocates nothing
//! per record: folding 100,000 records costs exactly the allocations of
//! its checkpoint list, once every station it sees has a sub-fingerprint
//! slot.
//!
//! Its own test binary: the allocation count reads a process-wide
//! counter, so no other test may allocate while it runs.

use airtime_obs::prof::{alloc_stats, set_alloc_counting};
use airtime_obs::{
    Checkpoint, CountingAlloc, EventRecord, FlightRecorder, MacPhase, Observer, QueueSite,
    DEFAULT_CHECKPOINT_INTERVAL,
};
use airtime_sim::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Dense station ids the stream uses: 0..STATIONS.
const STATIONS: u64 = 64;
/// Ids past the dense table, kept in the recorder's sparse map.
const SPARSE: [u64; 3] = [4096, 9_999, u64::MAX];

/// The station record `i` of the stream is attributed to: every dense
/// id in turn, and a sparse one every 16th record.
fn station(i: u64) -> u64 {
    match i % 16 {
        15 => SPARSE[(i / 16 % 3) as usize],
        _ => i * 7 % STATIONS,
    }
}

/// Feeds record `i`, attributed to station `s`, through one of the five
/// hooks in turn.
fn feed(rec: &mut FlightRecorder, i: u64, s: u64) {
    let t = SimTime::from_micros(i);
    match i % 5 {
        0 => rec.on_tx_attempt(EventRecord::TxAttempt {
            t,
            node: 0,
            client: s,
            bytes: 1_500,
            rate_mbps: 5.5,
            success: !i.is_multiple_of(3),
            retry: i % 4,
            airtime: SimDuration::from_micros(2_300),
        }),
        1 => rec.on_mac_event(EventRecord::Mac {
            t,
            phase: MacPhase::TxEnd,
            node: s,
        }),
        2 => rec.on_sched_decision(EventRecord::SchedDecision {
            t,
            client: s,
            bytes: 1_500,
            queue_len: i % 9,
        }),
        3 => rec.on_queue_change(EventRecord::QueueChange {
            t,
            site: QueueSite::Client,
            key: s,
            len: i % 9,
        }),
        _ => rec.on_handoff(t, s, Some(0), None),
    }
}

/// Allocations `f` makes.
fn allocs(f: impl FnOnce()) -> u64 {
    set_alloc_counting(true);
    let before = alloc_stats();
    f();
    let after = alloc_stats();
    set_alloc_counting(false);
    after.since(before).allocs
}

#[test]
fn a_fingerprint_only_recorder_allocates_only_for_checkpoints_and_stations() {
    const RECORDS: u64 = 100_000;
    let mut rec = FlightRecorder::new().with_capacity(0);
    // Warm-up: one record per station, the highest dense id first, so
    // the dense table grows once and the sparse map takes its ids; no
    // checkpoint is due yet.
    let warm_up: Vec<u64> = (0..STATIONS).rev().chain(SPARSE).collect();
    let warm = allocs(|| {
        for (i, &s) in warm_up.iter().enumerate() {
            feed(&mut rec, i as u64, s);
        }
    });
    assert!(
        warm <= 1 + SPARSE.len() as u64,
        "{warm} warm-up allocations"
    );
    assert_eq!(rec.station_fingerprints().len(), warm_up.len());
    assert!(rec.recording().checkpoints.is_empty());

    let folded = allocs(|| {
        for i in 0..RECORDS {
            feed(&mut rec, i, station(i));
        }
    });
    let due = (warm_up.len() as u64 + RECORDS) / DEFAULT_CHECKPOINT_INTERVAL;
    assert_eq!(rec.recording().checkpoints.len() as u64, due);
    // The same number of checkpoints pushed onto a list of its own.
    let mut list = Vec::new();
    let checkpoints = allocs(|| {
        for _ in 0..due {
            list.push(Checkpoint {
                events: 0,
                t: SimTime::ZERO,
                fp: 0,
            });
        }
    });
    assert!(checkpoints > 0);
    assert_eq!(folded, checkpoints, "allocations folding {RECORDS} records");
}
