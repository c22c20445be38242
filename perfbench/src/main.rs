//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell_mixed_rate|zoo_tournament|campus_roam> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it generates the workload's scenario text from the
//! seed, runs one warm-up round, then runs closed-loop rounds (each
//! round starts when the previous one ends) for `--seconds`, each after
//! a batch of set-ups, checking every round's outputs against the
//! warm-up round. It prints the end-to-end metrics: simulated seconds
//! per host second (median over rounds), set-up seconds (median over
//! batches) and peak resident memory. Both timings are scaled to a
//! reference host speed (see `host.rs`); the raw figures follow the
//! manifest. With `--trace 1` it runs the workload
//! once more, traced, and prints the per-layer metrics instead (see
//! `traced.rs`), writing the spans to `.bench_out/`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it carry the
//! provenance manifest and the output digest.

mod gen;
mod host;
mod probes;
mod stats;
mod traced;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use airtime_obs::CountingAlloc;

use airtime_obs::json::{self, Obj};

use stats::median;
use workload::Kind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed results are quoted at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development, for confirming a claim made at the
/// default seed.
pub const HELD_OUT_SEED: u64 = 7919;

/// Set-ups timed before each round; the batch median is kept.
const SETUP_BATCH: usize = 21;
/// Measured rounds run even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|(n, _)| *n).collect();
                    format!(
                        "unknown workload '{value}'; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'; expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where and on what the numbers were taken.
fn manifest(a: &Args) -> String {
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        })
        .flatten()
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::new()
        .str("workload", a.kind.name())
        .u64("seed", a.seed)
        .u64("default_seed", DEFAULT_SEED)
        .u64("held_out_seed", HELD_OUT_SEED)
        .bool("trace", a.trace)
        .u64("threads", a.kind.threads() as u64)
        .str("git_rev", &git_rev)
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("profile", env!("PERFBENCH_PROFILE"))
        .u64("nproc", nproc as u64)
        .str("cpu_model", &cpu)
        .finish()
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

/// The untraced measurement of one workload.
fn measure(a: &Args) -> Result<Outcome, String> {
    let kind = a.kind;
    let texts = kind.inputs(a.seed);
    let c = workload::compile(kind, &texts)?;
    let jobs = c.job_count() as u64;
    let sim_s = c.sim_seconds();
    let threads = kind.threads();

    // The warm-up round's outputs are the reference every later round
    // (and, for the tournament, a one-thread round) must reproduce. It
    // also warms the process: right after start-up the same set-up reads
    // up to twice as slow, and by a varying amount.
    let (mut attempted, mut failed) = (jobs, 0u64);
    let reference = match guarded(|| workload::run_round(&c, threads)) {
        Ok(r) => {
            failed += (r.defective as u64).min(jobs);
            Some(r)
        }
        Err(e) => {
            eprintln!("warm-up round failed: {e}");
            failed += jobs;
            None
        }
    };
    let mismatches = |got: &[u64]| -> u64 {
        match &reference {
            Some(r) if r.job_digests.len() == got.len() => r
                .job_digests
                .iter()
                .zip(got)
                .filter(|(a, b)| a != b)
                .count() as u64,
            _ => jobs,
        }
    };

    // Each round is preceded by a host-speed reading and a batch of
    // set-ups, so set-up is sampled across the whole run, as the rounds
    // are. Each set-up is followed by a gauge reading of about its own
    // length, which scales it: the host's speed swings within a
    // millisecond, too fast for one reading per batch to follow.
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let (mut raw, mut raw_setups, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    while rates.len() < MIN_ROUNDS || start.elapsed() < budget {
        let (mut batch, mut raw_batch) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_BATCH {
            let t = workload::timed_setup(kind, &texts)?.as_secs_f64();
            let gauge = host::speed(host::SETUP_GAUGE_OPS);
            raw_batch.push(t);
            batch.push(t * gauge / host::REFERENCE_OPS_PER_S);
        }
        raw_setups.push(median(&raw_batch));
        setups.push(median(&batch));
        let speed = host::speed(host::ROUND_GAUGE_OPS);
        attempted += jobs;
        match guarded(|| workload::run_round(&c, threads)) {
            Ok(r) => {
                failed += (mismatches(&r.job_digests) + r.defective as u64).min(jobs);
                let rate = sim_s / r.wall.as_secs_f64();
                raw.push(rate);
                speeds.push(speed);
                rates.push(rate * host::REFERENCE_OPS_PER_S / speed);
            }
            Err(e) => {
                eprintln!("round failed: {e}");
                failed += jobs;
                if start.elapsed() >= budget {
                    break;
                }
            }
        }
    }
    if kind == Kind::Zoo {
        attempted += jobs;
        failed += match guarded(|| workload::run_round(&c, 1)) {
            Ok(r) => mismatches(&r.job_digests),
            Err(_) => jobs,
        };
    }

    let rss = host::peak_rss_mb()?;
    if let Some(r) = &reference {
        let round_wall = sim_s / median(&raw);
        println!(
            "{}",
            Obj::new()
                .str("digest", &format!("{:016x}", r.digest))
                .u64("jobs", jobs)
                .u64("rounds", rates.len() as u64)
                .u64("check_fail_rows", r.check_fails as u64)
                .f64("sim_s_per_round", sim_s)
                .f64("raw_sim_s_per_s", median(&raw))
                .f64("raw_setup_s", median(&raw_setups))
                .f64("setup_share_of_round", median(&raw_setups) / round_wall)
                .f64("host_ops_per_s", median(&speeds))
                .raw("raw_sim_s_per_s_rounds", &json::array_f64(&raw))
                .raw("host_ops_per_s_rounds", &json::array_f64(&speeds))
                .raw("raw_setup_s_batches", &json::array_f64(&raw_setups))
                .finish()
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("sim_s_per_s".into(), median(&rates), "s/s"),
            ("setup_s".into(), median(&setups), "s"),
            ("peak_rss_mb".into(), rss, "MiB"),
        ],
    })
}

/// The traced run; also writes its trace document under `.bench_out/`.
fn trace(a: &Args, manifest: &str) -> Result<Outcome, String> {
    let r = traced::run(a.kind, a.seed)?;
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", a.kind.name(), a.seed));
    std::fs::write(&path, traced::to_json(manifest, &r)).map_err(|e| e.to_string())?;
    println!(
        "{}",
        Obj::new()
            .str("digest", &format!("{:016x}", r.digest))
            .str("trace_file", &path.display().to_string())
            .finish()
    );
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.failed,
        metrics: r.metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let manifest = manifest(&args);
    println!("{{\"manifest\":{manifest}}}");
    let outcome = if args.trace {
        trace(&args, &manifest)
    } else {
        measure(&args)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = Obj::new();
    for (name, value, unit) in &o.metrics {
        metrics.raw(
            name,
            &Obj::new().f64("value", *value).str("unit", unit).finish(),
        );
    }
    println!(
        "{}",
        Obj::new()
            .bool("correct", o.failed == 0)
            .u64("attempted", o.attempted.max(1))
            .u64("failed", o.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    ExitCode::SUCCESS
}
