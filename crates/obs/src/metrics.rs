//! A lightweight metrics registry: named counters, gauges, and
//! histograms plus a periodic time-series of snapshots, exported as
//! JSON next to the run report.
//!
//! Subsystems register a metric once (getting back a cheap copyable
//! id), then update it through the id on the hot path — no string
//! hashing per update. Registration is idempotent by name, so two call
//! sites naming the same metric share it. Histograms reuse
//! [`airtime_sim::stats::Histogram`].

use airtime_sim::stats::Histogram;
use airtime_sim::SimTime;

use crate::json::{array_f64, array_u64, escape, Obj};

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

struct HistEntry {
    name: String,
    lo: f64,
    hi: f64,
    hist: Histogram,
}

/// One point-in-time copy of all counter and gauge values.
struct Snapshot {
    t: SimTime,
    counters: Vec<u64>,
    gauges: Vec<f64>,
}

/// The registry. Create one per run, snapshot it periodically from the
/// event loop, and export with [`MetricsRegistry::to_json`].
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    hists: Vec<HistEntry>,
    snapshots: Vec<Snapshot>,
    meta: Vec<(String, String)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counter_names: Vec::new(),
            counters: Vec::new(),
            gauge_names: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            snapshots: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Attaches a key/value annotation exported in the JSON header
    /// (scenario name, seed, scheduler, …). Later values win.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.meta.push((key.to_string(), value.to_string()));
        }
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Overwrites a counter (for values maintained elsewhere and
    /// mirrored in, like cumulative MAC stats).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] = v;
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] = v;
    }

    /// Registers (or finds) a histogram over `[lo, hi)` with `nbins`
    /// equal bins (values outside clamp into the end bins).
    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, nbins: usize) -> HistId {
        if let Some(i) = self.hists.iter().position(|h| h.name == name) {
            return HistId(i);
        }
        self.hists.push(HistEntry {
            name: name.to_string(),
            lo,
            hi,
            hist: Histogram::new(lo, hi, nbins),
        });
        HistId(self.hists.len() - 1)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, x: f64) {
        self.hists[id.0].hist.record(x);
    }

    /// Copies every counter and gauge into the time-series at `now`.
    pub fn snapshot(&mut self, now: SimTime) {
        self.snapshots.push(Snapshot {
            t: now,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        });
    }

    /// Current value of a counter, by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|n| n == name)?;
        Some(self.counters[i])
    }

    /// Current value of a gauge, by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let i = self.gauge_names.iter().position(|n| n == name)?;
        Some(self.gauges[i])
    }

    /// Number of snapshots taken.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Exports everything as a self-describing JSON document:
    ///
    /// ```json
    /// {
    ///   "meta": {...},
    ///   "counters": {"name": value, ...},
    ///   "gauges": {"name": value, ...},
    ///   "histograms": [{"name", "lo", "hi", "count", "p50", "p90",
    ///                   "p99", "bins"}, ...],
    ///   "series": {"t_ns": [...],
    ///              "counters": {"name": [...], ...},
    ///              "gauges": {"name": [...], ...}}
    /// }
    /// ```
    ///
    /// A metric registered after some snapshots were already taken is
    /// back-filled with zeros so every series has the same length.
    pub fn to_json(&self) -> String {
        let mut root = Obj::new();

        let mut meta = Obj::new();
        for (k, v) in &self.meta {
            meta.str(k, v);
        }
        root.raw("meta", &meta.finish());

        let mut counters = Obj::new();
        for (name, v) in self.counter_names.iter().zip(&self.counters) {
            counters.u64(name, *v);
        }
        root.raw("counters", &counters.finish());

        let mut gauges = Obj::new();
        for (name, v) in self.gauge_names.iter().zip(&self.gauges) {
            gauges.f64(name, *v);
        }
        root.raw("gauges", &gauges.finish());

        let mut hists = String::from("[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            let mut o = Obj::new();
            o.str("name", &h.name)
                .f64("lo", h.lo)
                .f64("hi", h.hi)
                .u64("count", h.hist.count());
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                match h.hist.quantile(q) {
                    Some(v) => o.f64(label, v),
                    None => o.raw(label, "null"),
                };
            }
            o.raw("bins", &array_u64(h.hist.bins()));
            hists.push_str(&o.finish());
        }
        hists.push(']');
        root.raw("histograms", &hists);

        let times: Vec<u64> = self.snapshots.iter().map(|s| s.t.as_nanos()).collect();
        let mut series = Obj::new();
        series.raw("t_ns", &array_u64(&times));
        let mut cs = String::from("{");
        for (i, name) in self.counter_names.iter().enumerate() {
            if i > 0 {
                cs.push(',');
            }
            let col: Vec<u64> = self
                .snapshots
                .iter()
                .map(|s| s.counters.get(i).copied().unwrap_or(0))
                .collect();
            cs.push_str(&format!("\"{}\":{}", escape(name), array_u64(&col)));
        }
        cs.push('}');
        series.raw("counters", &cs);
        let mut gs = String::from("{");
        for (i, name) in self.gauge_names.iter().enumerate() {
            if i > 0 {
                gs.push(',');
            }
            let col: Vec<f64> = self
                .snapshots
                .iter()
                .map(|s| s.gauges.get(i).copied().unwrap_or(0.0))
                .collect();
            gs.push_str(&format!("\"{}\":{}", escape(name), array_f64(&col)));
        }
        gs.push('}');
        series.raw("gauges", &gs);
        root.raw("series", &series.finish());

        root.finish()
    }

    /// Exports the snapshot time-series as CSV with a self-describing
    /// schema header (see [`crate::csv`]): one row per snapshot, one
    /// column per counter (`counter.<name>`) and gauge
    /// (`gauge.<name>`) after the leading `t_ns` column. Metrics
    /// registered after early snapshots are back-filled with zeros,
    /// exactly as in [`MetricsRegistry::to_json`].
    pub fn series_to_csv(&self) -> String {
        let mut columns = vec!["t_ns".to_string()];
        columns.extend(self.counter_names.iter().map(|n| format!("counter.{n}")));
        columns.extend(self.gauge_names.iter().map(|n| format!("gauge.{n}")));
        let mut csv = crate::csv::Csv::new("airtime-metrics-series", 1, &columns);
        for snap in &self.snapshots {
            let mut cells = vec![snap.t.as_nanos().to_string()];
            for i in 0..self.counter_names.len() {
                cells.push(snap.counters.get(i).copied().unwrap_or(0).to_string());
            }
            for i in 0..self.gauge_names.len() {
                cells.push(crate::json::num(snap.gauges.get(i).copied().unwrap_or(0.0)));
            }
            csv.row(&cells);
        }
        csv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("dcf.collisions");
        let b = m.counter("dcf.collisions");
        assert_eq!(a, b);
        m.set_counter(a, 1);
        m.set_counter(b, 3);
        assert_eq!(m.counter_value("dcf.collisions"), Some(3));
    }

    #[test]
    fn gauges_and_histograms_update() {
        let mut m = MetricsRegistry::new();
        let g = m.gauge("tbr.tokens_us.0");
        m.set(g, -42.5);
        assert_eq!(m.gauge_value("tbr.tokens_us.0"), Some(-42.5));
        let h = m.histogram("mac.airtime_us", 0.0, 20_000.0, 40);
        for x in [100.0, 1617.0, 12221.0] {
            m.observe(h, x);
        }
        let json = m.to_json();
        assert!(json.contains("\"mac.airtime_us\""), "{json}");
        assert!(json.contains("\"count\":3"), "{json}");
    }

    #[test]
    fn snapshots_form_aligned_series() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("events");
        m.set_counter(c, 1);
        m.snapshot(SimTime::from_secs(1));
        // Register a second metric after the first snapshot: its series
        // must be back-filled with zeros.
        let late = m.counter("late");
        m.set_counter(late, 9);
        m.set_counter(c, 2);
        m.snapshot(SimTime::from_secs(2));
        let json = m.to_json();
        assert!(json.contains("\"t_ns\":[1000000000,2000000000]"), "{json}");
        assert!(json.contains("\"events\":[1,2]"), "{json}");
        assert!(json.contains("\"late\":[0,9]"), "{json}");
        assert_eq!(m.snapshot_count(), 2);
    }

    #[test]
    fn series_csv_has_schema_and_backfill() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("events");
        m.set_counter(c, 1);
        m.snapshot(SimTime::from_secs(1));
        let g = m.gauge("load");
        m.set(g, 0.5);
        m.set_counter(c, 2);
        m.snapshot(SimTime::from_secs(2));
        let csv = m.series_to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-metrics-series v1; columns: 3");
        assert_eq!(lines[1], "t_ns,counter.events,gauge.load");
        assert_eq!(lines[2], "1000000000,1,0");
        assert_eq!(lines[3], "2000000000,2,0.5");
    }

    #[test]
    fn meta_overwrites_by_key() {
        let mut m = MetricsRegistry::new();
        m.set_meta("sched", "fifo");
        m.set_meta("sched", "tbr");
        assert!(m.to_json().contains("\"sched\":\"tbr\""));
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let json = MetricsRegistry::new().to_json();
        assert!(json.contains("\"counters\":{}"), "{json}");
        assert!(json.contains("\"histograms\":[]"), "{json}");
    }
}
