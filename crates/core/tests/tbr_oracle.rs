//! Differential TBR oracle: a dense, per-grid token bucket run side by
//! side with the event-exact [`TbrScheduler`].
//!
//! The reference takes the paper's FILLEVENT literally. At every
//! `fill_period` grid instant each client gains `period × rate` tokens,
//! capped at the bucket; a completion debits its airtime; a client is
//! eligible while its balance is positive, and service is round robin
//! by client index. It keeps no per-key clocks, no heap and no closed
//! form. Rates stay at the weighted fair shares (the adjustment period
//! outlasts every run), so the two models differ only in how tokens
//! accrue between grid instants.
//!
//! On random saturated workloads the two must agree on the airtime
//! shares within 1%, and on a blocked client's release instant within
//! one fill period.

use airtime_core::{ClientId, QueuedPacket, Scheduler, TbrConfig, TbrScheduler};
use airtime_sim::{SimDuration, SimRng, SimTime};

/// 1500 B frame exchanges at the four 802.11b rates, in µs.
const COSTS_US: [u64; 4] = [1_617, 2_640, 6_740, 12_854];

fn config() -> TbrConfig {
    TbrConfig {
        adjust_period: SimDuration::from_secs(1_000),
        ..TbrConfig::default()
    }
}

/// The dense per-grid reference.
struct Dense {
    period_ns: u64,
    cap: f64,
    tokens: Vec<f64>,
    rates: Vec<f64>,
    /// The next grid instant not yet filled, in ns.
    next_grid: u64,
    next_rr: usize,
}

impl Dense {
    fn new(cfg: &TbrConfig, weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        let period_ns = cfg.fill_period.as_nanos();
        Dense {
            period_ns,
            cap: cfg.bucket.as_nanos() as f64,
            tokens: vec![cfg.initial_tokens.as_nanos() as f64; weights.len()],
            rates: weights.iter().map(|w| w / total).collect(),
            next_grid: period_ns,
            next_rr: 0,
        }
    }

    /// Runs every grid fill at or before `now_ns`.
    fn advance(&mut self, now_ns: u64) {
        while self.next_grid <= now_ns {
            for (t, r) in self.tokens.iter_mut().zip(&self.rates) {
                *t = (*t + self.period_ns as f64 * r).min(self.cap);
            }
            self.next_grid += self.period_ns;
        }
    }

    /// Round robin over the clients with a positive balance (every
    /// client is backlogged).
    fn pick(&mut self, now_ns: u64) -> Option<usize> {
        self.advance(now_ns);
        let n = self.tokens.len();
        let i = (0..n)
            .map(|k| (self.next_rr + k) % n)
            .find(|&i| self.tokens[i] > 0.0)?;
        self.next_rr = (i + 1) % n;
        Some(i)
    }

    /// The first grid instant at which client `i`'s balance turns
    /// positive, filling grid by grid.
    fn release(&mut self, i: usize) -> u64 {
        while self.tokens[i] <= 0.0 {
            let g = self.next_grid;
            self.advance(g);
        }
        self.next_grid - self.period_ns
    }
}

fn pkt(client: usize) -> QueuedPacket {
    QueuedPacket {
        client: ClientId(client),
        handle: 0,
        bytes: 1500,
    }
}

/// A random cell: per-client weights and exchange costs.
fn random_cell(rng: &mut SimRng) -> (Vec<f64>, Vec<u64>) {
    let n = 2 + rng.below(5) as usize;
    let weights = (0..n).map(|_| 1.0 + rng.below(3) as f64).collect();
    let costs = (0..n)
        .map(|_| COSTS_US[rng.below(4) as usize] * 1_000)
        .collect();
    (weights, costs)
}

fn shares(airtime: &[u64]) -> Vec<f64> {
    let total: u64 = airtime.iter().sum();
    airtime.iter().map(|&a| a as f64 / total as f64).collect()
}

/// Saturates the regulator for `span_ns` on a channel where each
/// client's exchange costs `costs[i]`; returns per-client airtime.
fn drive_event_exact(weights: &[f64], costs: &[u64], span_ns: u64) -> Vec<u64> {
    let mut tbr = TbrScheduler::new(config());
    for (c, &w) in weights.iter().enumerate() {
        tbr.on_associate_weighted(ClientId(c), w, SimTime::ZERO);
    }
    let mut airtime = vec![0; weights.len()];
    let mut now = SimTime::ZERO;
    while now.as_nanos() < span_ns {
        for c in 0..weights.len() {
            if tbr.queue_len(ClientId(c)) < 2 {
                tbr.enqueue(pkt(c), now);
            }
        }
        match tbr.dequeue(now) {
            Some(p) => {
                let c = p.client.index();
                now += SimDuration::from_nanos(costs[c]);
                airtime[c] += costs[c];
                tbr.on_complete(p.client, SimDuration::from_nanos(costs[c]), true, now);
            }
            None => {
                now = tbr
                    .next_wake(now)
                    .expect("a saturated regulator is blocked")
            }
        }
    }
    airtime
}

/// The same drive against the dense reference.
fn drive_dense(weights: &[f64], costs: &[u64], span_ns: u64) -> Vec<u64> {
    let mut dense = Dense::new(&config(), weights);
    let mut airtime = vec![0; weights.len()];
    let mut now = 0;
    while now < span_ns {
        match dense.pick(now) {
            Some(c) => {
                now += costs[c];
                airtime[c] += costs[c];
                dense.advance(now);
                dense.tokens[c] -= costs[c] as f64;
            }
            None => now = dense.next_grid,
        }
    }
    airtime
}

#[test]
fn saturated_airtime_shares_match_the_dense_reference() {
    let span_ns = 20_000_000_000;
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let (weights, costs) = random_cell(&mut rng);
        let exact = shares(&drive_event_exact(&weights, &costs, span_ns));
        let dense = shares(&drive_dense(&weights, &costs, span_ns));
        let total_w: f64 = weights.iter().sum();
        for i in 0..weights.len() {
            assert!(
                (exact[i] - dense[i]).abs() <= 0.01,
                "seed {seed}: client {i} share {:.4} (event-exact) vs {:.4} (dense); \
                 weights {weights:?} costs {costs:?}",
                exact[i],
                dense[i]
            );
            // Both are time-fair: each share follows its weight.
            let fair = weights[i] / total_w;
            assert!(
                (exact[i] - fair).abs() <= 0.02,
                "seed {seed}: client {i} share {:.4} vs fair {fair:.4}",
                exact[i]
            );
        }
    }
}

#[test]
fn release_instants_match_the_dense_reference() {
    let cfg = config();
    let period = cfg.fill_period.as_nanos();
    for seed in 0..400 {
        let mut rng = SimRng::new(seed);
        let (weights, _) = random_cell(&mut rng);
        let mut tbr = TbrScheduler::new(cfg);
        for (c, &w) in weights.iter().enumerate() {
            tbr.on_associate_weighted(ClientId(c), w, SimTime::ZERO);
        }
        let mut dense = Dense::new(&cfg, &weights);
        // Client 0 sends one frame at a random instant and runs into
        // a random debt.
        let now = SimTime::from_nanos(rng.below(3_000_000_000));
        tbr.enqueue(pkt(0), now);
        let p = tbr.dequeue(now).expect("a fresh balance is positive");
        let balance = tbr.token_balance_ns(ClientId(0)).unwrap();
        let debt = balance as u64 + 1 + rng.below(60_000_000);
        tbr.on_complete(p.client, SimDuration::from_nanos(debt), true, now);
        tbr.enqueue(pkt(0), now);
        let exact = tbr.next_wake(now).expect("the debt blocks client 0");

        dense.advance(now.as_nanos());
        dense.tokens[0] -= debt as f64;
        let reference = dense.release(0);
        let gap = exact.as_nanos().abs_diff(reference);
        assert!(
            gap <= period,
            "seed {seed}: release at {} ns (event-exact) vs {reference} ns (dense)",
            exact.as_nanos()
        );
        assert!(tbr.has_eligible(exact) && !tbr.has_eligible(exact - cfg.fill_period));
    }
}
