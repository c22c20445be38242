//! Workload inputs, generated from the seed as scenario text.
//!
//! The program only ever sees these generated documents. Shapes are
//! fixed per workload (station counts, rate and direction multisets,
//! durations) so that timings from different seeds stay comparable; the
//! seed draws station order, positions, which resident gets which rate
//! and direction, walker order and height, and each scenario's
//! simulator seed.

use std::fmt::Write;

/// SplitMix64: the benchmark's own generator, so inputs never depend
/// on the simulator's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fa1_7e11)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A simulator seed small enough for the scenario format's integers.
    fn sim_seed(&mut self) -> u64 {
        self.below(1 << 31) + 1
    }
}

/// One generated scenario document and the file name its diagnostics
/// carry.
pub struct Text {
    pub file: String,
    pub text: String,
}

/// 802.11b rates as scenario labels.
const B_RATES: [&str; 4] = ["1", "2", "5.5", "11"];

/// Fig 9's pairs, a mixed triple, and Table 3's four nodes.
const CELL_MIXES: [&[&str]; 5] = [
    &["11", "5.5"],
    &["11", "2"],
    &["11", "1"],
    &["11", "5.5", "1"],
    &["1", "2", "11", "11"],
];
const CELL_DURATION_S: u32 = 20;

/// `cell_mixed_rate`: one scenario per rate mix, each swept over
/// {rr, tbr} × {down, up}; greedy TCP, one flow per station.
pub fn cell_mixed_rate(seed: u64) -> Vec<Text> {
    let mut rng = Rng::new(seed);
    CELL_MIXES
        .iter()
        .enumerate()
        .map(|(k, mix)| {
            let mut rates = mix.to_vec();
            rng.shuffle(&mut rates);
            let mut t = String::new();
            writeln!(t, "name = \"cell-{k}\"").unwrap();
            writeln!(t, "seed = {}", rng.sim_seed()).unwrap();
            writeln!(t, "duration_s = {CELL_DURATION_S}\nwarmup_s = 2\n").unwrap();
            t.push_str("[scheduler]\nkind = \"rr\"\n\n");
            for r in rates {
                writeln!(t, "[[station]]\nrate = \"{r}\"\n").unwrap();
            }
            t.push_str("[sweep]\nscheduler = [\"rr\", \"tbr\"]\ndirection = [\"down\", \"up\"]\n");
            Text {
                file: format!("cell-{k}.toml"),
                text: t,
            }
        })
        .collect()
}

const ZOO_MIXES: [&[&str]; 6] = [
    &["11", "1"],
    &["11", "5.5"],
    &["11", "5.5", "2"],
    &["11", "2", "1"],
    &["11", "5.5", "2", "1"],
    &["11", "11", "2", "1"],
];

/// `zoo_tournament`: every scheduler family over six rate mixes and
/// both directions: many short jobs, so the pool's tail stays a small
/// share of a round.
pub fn zoo_tournament(seed: u64) -> Vec<Text> {
    let mut rng = Rng::new(seed);
    let mut mixes: Vec<String> = ZOO_MIXES
        .iter()
        .map(|m| {
            let mut rates = m.to_vec();
            rng.shuffle(&mut rates);
            format!("\"{}\"", rates.join(","))
        })
        .collect();
    rng.shuffle(&mut mixes);
    let mut t = String::new();
    writeln!(t, "name = \"zoo\"\nseed = {}", rng.sim_seed()).unwrap();
    t.push_str("duration_s = 6\nwarmup_s = 1\n\n[tournament]\n");
    t.push_str("families = [\"fifo\", \"rr\", \"drr\", \"tbr\", \"txop\", \"pf\", \"maxmin\"]\n");
    writeln!(t, "rate_mixes = [{}]", mixes.join(", ")).unwrap();
    t.push_str("directions = [\"down\", \"up\"]\n");
    vec![Text {
        file: "zoo.toml".into(),
        text: t,
    }]
}

/// AP x positions (ft) and channels: cells 0 and 1 share channel 1.
const CAMPUS_APS: [(f64, u8); 3] = [(0.0, 1), (150.0, 1), (300.0, 6)];
/// Residents per AP: three of every (rate, direction) pair.
const CAMPUS_RESIDENT_COPIES: usize = 3;
/// Walker rates; walkers alternate direction of travel and of traffic.
const CAMPUS_WALKER_RATES: [&str; 6] = ["11", "5.5", "2", "1", "11", "1"];

/// `campus_roam`: three TBR cells (one co-channel pair), residents near
/// each AP over every rate and direction, and walkers crossing the whole
/// line. Every seed places the same rate and direction mix; the seed
/// draws who sits where.
pub fn campus_roam(seed: u64) -> Vec<Text> {
    let mut rng = Rng::new(seed);
    let mut t = String::new();
    writeln!(t, "name = \"campus\"\nseed = {}", rng.sim_seed()).unwrap();
    t.push_str("duration_s = 6\nwarmup_s = 1\n\n[scheduler]\nkind = \"tbr\"\n\n");
    t.push_str("[topology]\nhysteresis_db = 6.0\nassoc_tick_ms = 100\nrate_set = \"b\"\n\n");
    for (x, ch) in CAMPUS_APS {
        writeln!(t, "[[cells]]\nx_ft = {x}\ny_ft = 0\nchannel = {ch}\n").unwrap();
    }
    for (x, _) in CAMPUS_APS {
        let mut residents: Vec<(&str, &str)> = B_RATES
            .iter()
            .flat_map(|&r| [(r, "down"), (r, "up")])
            .flat_map(|p| std::iter::repeat_n(p, CAMPUS_RESIDENT_COPIES))
            .collect();
        rng.shuffle(&mut residents);
        for (rate, dir) in residents {
            let px = x + (rng.unit() - 0.5) * 50.0;
            let py = 5.0 + rng.unit() * 25.0;
            writeln!(
                t,
                "[[station]]\nrate = \"{rate}\"\ndirection = \"{dir}\"\nx_ft = {px:.1}\ny_ft = {py:.1}\n"
            )
            .unwrap();
        }
    }
    let mut walkers = CAMPUS_WALKER_RATES;
    rng.shuffle(&mut walkers);
    for (w, rate) in walkers.iter().enumerate() {
        let dir = if w % 2 == 0 { "down" } else { "up" };
        let (from, to) = if w % 2 == 0 {
            (0.0, 300.0)
        } else {
            (300.0, 0.0)
        };
        let y = 10.0 + rng.unit() * 10.0;
        writeln!(
            t,
            "[[station]]\nrate = \"{rate}\"\ndirection = \"{dir}\"\nx_ft = {from}\ny_ft = {y:.1}\n"
        )
        .unwrap();
        writeln!(
            t,
            "[[station.mobility]]\nspeed_fps = 50\nx_ft = [{from}, {to}]\ny_ft = [{y:.1}, {y:.1}]\n"
        )
        .unwrap();
    }
    vec![Text {
        file: "campus.toml".into(),
        text: t,
    }]
}

/// Station counts of the stations-per-cell scaling probe.
pub const SCALING_SIZES: [usize; 4] = [4, 32, 256, 1024];

/// One downlink TBR cell of `n` stations split evenly over the four
/// 802.11b rates (the scaling probe's input).
pub fn scaling_cell(seed: u64, n: usize) -> Text {
    let mut rng = Rng::new(seed ^ n as u64);
    let mut t = String::new();
    writeln!(t, "name = \"scale-{n}\"\nseed = {}", rng.sim_seed()).unwrap();
    t.push_str("duration_s = 2\nwarmup_s = 0.5\ndirection = \"down\"\n\n");
    t.push_str("[scheduler]\nkind = \"tbr\"\n\n");
    for r in B_RATES {
        writeln!(t, "[[station]]\nrate = \"{r}\"\ncount = {}\n", n / 4).unwrap();
    }
    Text {
        file: format!("scale-{n}.toml"),
        text: t,
    }
}
