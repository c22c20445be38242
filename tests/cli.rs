//! End-to-end checks of `airtime-cli`: bad input exits 1 with a
//! message instead of panicking, and the committed determinism goldens
//! still match their presets.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_airtime-cli"))
        .args(args)
        .output()
        .expect("airtime-cli runs")
}

#[test]
fn run_rejects_out_of_range_secs() {
    // 0 and 1 leave no room after the one-second warm-up; u64::MAX
    // overflowed the nanosecond conversion.
    for secs in ["0", "1", &u64::MAX.to_string()] {
        let out = cli(&["run", "--secs", secs]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--secs {secs}: {stderr}");
        assert!(
            stderr.contains("--secs must be between 2 and 86400"),
            "--secs {secs}: {stderr}"
        );
    }
}

#[test]
fn run_flag_values_fail_at_parse_time_naming_the_value() {
    // A bad flag value is an argument error (exit 2) that names the
    // value, not a diagnostic against the document the flags write.
    let many = vec!["11"; 4097].join(",");
    let cases: [(&[&str], &str); 7] = [
        (&["--rates", "7"], "unknown rate '7'"),
        (&["--rates", ""], "unknown rate ''"),
        (
            &["--sched", "bogus"],
            "unknown scheduler 'bogus'; expected one of fifo, rr, drr, tbr, txop, pf, maxmin",
        ),
        (&["--direction", "sideways"], "unknown direction 'sideways'"),
        (
            &["--rates", &many],
            "--rates lists 4097 stations; at most 4096",
        ),
        (
            &["--secs", "x"],
            "bad --secs: invalid digit found in string",
        ),
        (
            &["--seed", "x"],
            "bad --seed: invalid digit found in string",
        ),
    ];
    for (flag, msg) in cases {
        let out = cli(&[&["run"], flag].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert_eq!(stderr, format!("error: {msg}\n"), "{flag:?}");
    }
}

/// Writes `text` under the test's scratch directory as `name`; returns
/// its path.
fn scratch_file(name: &str, text: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scenario file written");
    path.display().to_string()
}

/// Writes `text` to a scenario file named `name` under the test's
/// scratch directory and runs it; returns the exit code, stderr and
/// the file's path.
fn run_scenario(name: &str, text: &str) -> (Option<i32>, String, String) {
    let path = scratch_file(name, text);
    let out = cli(&["run", "--scenario", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, path)
}

#[test]
fn scenario_rejects_zero_client_queue_cap() {
    // Once ran to `total 0.000 Mb/s` and exited 0.
    let (code, stderr, path) = run_scenario(
        "zero_client_queue_cap.toml",
        "duration_s = 3\nwarmup_s = 1\nclient_queue_cap = 0\n[[station]]\nrate = \"11\"\n",
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{path}:3: key 'client_queue_cap' expects a positive packet count"
        )),
        "{stderr}"
    );
}

#[test]
fn scenario_rejects_zero_rate_limit() {
    // Once panicked in the TCP sender's token bucket (exit 101).
    let (code, stderr, path) = run_scenario(
        "zero_rate_limit.toml",
        "duration_s = 3\nwarmup_s = 1\n[[station]]\nrate = \"11\"\n\
         [[station.flow]]\ndirection = \"up\"\nrate_limit_bps = 0.0\n",
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{path}:7: key 'rate_limit_bps' expects a positive, finite bit rate"
        )),
        "{stderr}"
    );
}

#[test]
fn scenario_rejects_a_rate_limit_too_low_to_send() {
    // Once ran to `0.000 Mb/s` and exited 0: the pacer never released
    // a datagram.
    let (code, stderr, path) = run_scenario(
        "tiny_rate_limit.toml",
        "duration_s = 3\nwarmup_s = 1\n[[station]]\nrate = \"11\"\n\
         transport = \"udp\"\nrate_limit_bps = 1e-300\n",
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{path}:6: key 'rate_limit_bps' = 1e-300 cannot release one 1500-byte packet \
             within duration_s = 3; the minimum is 4000 bit/s"
        )),
        "{stderr}"
    );
}

/// Every file of the rejection corpus exits 1 with a `file:line:`
/// diagnostic (CI runs the release binary over the same files). The
/// unreachable association floor is the roaming preset's probe, and
/// `count = 100000000000` once exhausted memory while the stations
/// were replicated.
#[test]
fn rejection_corpus_fails_with_file_and_line() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/reject");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path().display().to_string();
        let out = cli(&["run", "--scenario", &path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
        let at = format!("{path}:");
        let line = stderr
            .split(&at)
            .nth(1)
            .and_then(|rest| rest.split(':').next());
        assert!(
            line.is_some_and(|l| l.parse::<usize>().is_ok()),
            "{path}: {stderr}"
        );
        seen += 1;
    }
    assert!(seen >= 6, "{seen} corpus files");
    // The ROADMAP probe itself: the roaming preset with a floor no
    // position clears.
    let root = env!("CARGO_MANIFEST_DIR");
    let preset =
        std::fs::read_to_string(format!("{root}/examples/scenarios/roam_three_cells.toml"))
            .expect("preset readable");
    let probe = preset.replace(
        "hysteresis_db = 6.0\n",
        "hysteresis_db = 6.0\nmin_rssi_dbm = 1000\n",
    );
    let line = 1 + probe
        .lines()
        .position(|l| l == "min_rssi_dbm = 1000")
        .expect("probe line");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("floor_1000.toml");
    std::fs::write(&path, probe).expect("scenario file written");
    let path = path.display().to_string();
    let out = cli(&["sweep", &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{path}:{line}: key 'min_rssi_dbm' = 1000 is above"
        )),
        "{stderr}"
    );
}

#[test]
fn jain_over_no_throughput_reads_n_a() {
    // The roaming preset with an association floor no station reaches:
    // nothing is delivered, so there is no allocation to call fair.
    // Its Jain columns once read 1.000 (perfect fairness) over
    // 0.000 Mb/s. A station would have to come within about 1.4 m of
    // an AP to clear -30 dBm; every one stays 10 ft away. (A floor no
    // position can clear at all is a `file:line` diagnostic.)
    let root = env!("CARGO_MANIFEST_DIR");
    let preset =
        std::fs::read_to_string(format!("{root}/examples/scenarios/roam_three_cells.toml"))
            .expect("preset readable");
    let probe = preset.replace(
        "hysteresis_db = 6.0\n",
        "hysteresis_db = 6.0\nmin_rssi_dbm = -30\n",
    );
    assert_ne!(probe, preset, "the preset's [topology] table moved");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("unreachable_floor.toml");
    std::fs::write(&path, probe).expect("scenario file written");
    let (json, csv) = (
        dir.join("unreachable_floor.json"),
        dir.join("unreachable_floor.csv"),
    );
    let out = cli(&[
        "sweep",
        &path.display().to_string(),
        "--json",
        &json.display().to_string(),
        "--csv",
        &csv.display().to_string(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains(" 0.000 ")).collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    for row in rows {
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[4..6], ["n/a", "n/a"], "{row}");
    }
    let json = std::fs::read_to_string(json).expect("JSON written");
    assert_eq!(
        json.matches(r#""jain_throughput":null,"jain_airtime":null"#)
            .count(),
        2
    );
    let csv = std::fs::read_to_string(csv).expect("CSV written");
    for row in csv.lines().skip(2) {
        // job, scheduler, total_mbps, utilization, then the two Jain
        // fields, empty.
        assert!(row.split(',').nth(4).is_some_and(str::is_empty), "{row}");
        assert!(row.split(',').nth(5).is_some_and(str::is_empty), "{row}");
    }
    // A throughput-fair check over a cell that delivers nothing fails
    // instead of passing on the vacuous index.
    let dead = dir.join("dead_links.toml");
    std::fs::write(
        &dead,
        "duration_s = 3\nwarmup_s = 1\n[scheduler]\nkind = \"rr\"\n\
         [[station]]\nrate = \"11\"\nfer = 0.999999\n\
         [[station]]\nrate = \"1\"\nfer = 0.999999\n",
    )
    .expect("scenario file written");
    let json = dir.join("dead_links.json");
    let out = cli(&[
        "sweep",
        &dead.display().to_string(),
        "--json",
        &json.display().to_string(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(" n/a ") && stdout.contains(" fail"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(json).expect("JSON written");
    assert!(
        json.contains(
            r#""check":"fail","check_reason":"no station delivered goodput: throughput Jain index undefined""#
        ),
        "{json}"
    );
}

#[test]
fn sweep_stdout_does_not_depend_on_worker_interleaving() {
    // Which worker takes which job varies from run to run and with the
    // thread count; the printed table must not.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/ablation_retry_info.toml"
    );
    let stdout = |threads: &str| {
        let out = cli(&["sweep", path, "--threads", threads]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    };
    let first = stdout("4");
    assert_eq!(stdout("4"), first);
    assert_eq!(stdout("1"), first);
}

#[test]
fn run_and_predict_reject_a_stray_positional() {
    // `run --secs 2 cell.toml` once ran the default 11,1 cell and exited
    // 0 without reading the file the user meant to pass via --scenario.
    for cmd in ["run", "predict"] {
        let out = cli(&[cmd, "--secs", "2", "cell.toml"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(0), "{cmd}: {stderr}");
        assert!(
            stderr.contains("unexpected argument 'cell.toml'")
                && stderr.contains("--scenario cell.toml"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn run_scenario_refuses_the_flags_the_file_sets() {
    // `run --scenario cell.toml --secs 3` once simulated the file's own
    // duration and exited 0, silently dropping the flag.
    let cell = scratch_file(
        "flags_cell.toml",
        "duration_s = 3\nwarmup_s = 1\n[[station]]\nrate = \"11\"\n",
    );
    for (flag, value) in [
        ("--secs", "3"),
        ("--rates", "2"),
        ("--sched", "rr"),
        ("--direction", "down"),
        ("--seed", "7"),
    ] {
        for args in [
            ["run", "--scenario", &cell, flag, value],
            ["run", flag, value, "--scenario", &cell],
        ] {
            let out = cli(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("`run --scenario` does not read {flag}")),
                "{args:?}: {stderr}"
            );
        }
    }
}

/// Runs `args` twice, as a table and with `--json`; returns both stdouts.
fn run_outputs(args: &[&str]) -> [String; 2] {
    [&[][..], &["--json"]].map(|json| {
        let out = cli(&[args, json].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    })
}

#[test]
fn run_flags_print_what_their_document_prints() {
    // The flags write the document a file would hold, and `run` compiles
    // it like any `--scenario` file.
    let cases = [
        (
            "--rates 11,1 --secs 4",
            "duration_s = 4\nwarmup_s = 1\nseed = 1\ndirection = \"up\"\n\
             [scheduler]\nkind = \"tbr\"\n[[station]]\nrate = \"11\"\n[[station]]\nrate = \"1\"\n",
        ),
        (
            "--rates 54,6 --sched rr --direction down --secs 3 --seed 9",
            "duration_s = 3\nwarmup_s = 1\nseed = 9\ndirection = \"down\"\n\
             [scheduler]\nkind = \"rr\"\n[[station]]\nrate = \"54\"\n[[station]]\nrate = \"6\"\n",
        ),
        (
            "--rates 5.5,2,1 --sched pf --secs 16 --seed 3",
            "duration_s = 16\nwarmup_s = 2\nseed = 3\ndirection = \"up\"\n\
             [scheduler]\nkind = \"pf\"\n[[station]]\nrate = \"5.5\"\n[[station]]\nrate = \"2\"\n\
             [[station]]\nrate = \"1\"\n",
        ),
    ];
    for (i, (flags, doc)) in cases.into_iter().enumerate() {
        let path = scratch_file(&format!("flags_doc{i}.toml"), doc);
        let run: Vec<&str> = ["run"].into_iter().chain(flags.split(' ')).collect();
        assert_eq!(
            run_outputs(&run),
            run_outputs(&["run", "--scenario", &path]),
            "{flags}"
        );
    }
}

#[test]
fn run_seed_stays_in_a_document_integer() {
    // `--seed 18446744073709551615` once ran, though no document can hold
    // that seed: `seed = 9223372036854775808` does not parse as an integer.
    for seed in ["9223372036854775808", "18446744073709551615", "-1"] {
        let out = cli(&["run", "--seed", seed]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seed {seed}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: --seed must be between 0 and 9223372036854775807, got {seed}\n")
        );
    }
    let out = cli(&[
        "run",
        "--secs",
        "2",
        "--seed",
        "9223372036854775807",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with(r#"{"seed":9223372036854775807,"#),
        "{json}"
    );
}

#[test]
fn a_flag_the_command_does_not_read_is_refused() {
    // Each of these once exited 0 and ignored the flag: the sweep wrote
    // neither the trace nor the ledger it was asked for.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unread_flags");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (events, ledger) = (dir.join("x.jsonl"), dir.join("y.csv"));
    let preset = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/fig2_dcf_anomaly.toml"
    );
    let (events_arg, ledger_arg) = (events.display().to_string(), ledger.display().to_string());
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "sweep",
                preset,
                "--threads",
                "2",
                "--seed",
                "99",
                "--events",
                &events_arg,
                "--ledger",
                &ledger_arg,
            ],
            "--seed",
        ),
        (&["predict", "--sched", "fifo", "--secs", "3"], "--sched"),
        (
            &["replay", "r.jsonl", "--threads", "3", "--json"],
            "--threads",
        ),
        (&["inspect", "e.jsonl", "--window", "0..9"], "--window"),
    ];
    for (args, flag) in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{}` does not read {flag}", args[0])),
            "{args:?}: {stderr}"
        );
    }
    assert!(!events.exists() && !ledger.exists());
}

#[test]
fn predict_prints_the_paper_and_model_gamma() {
    // Table 2's two analytic columns for 11M: the paper's measured
    // γ(11M, 1500, 2) and the closed-form `gamma_tcp_table2`.
    let out = cli(&["predict", "--rates", "11,1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("1 ") && l.contains("11M"))
        .unwrap_or_else(|| panic!("no 11M station row in:\n{stdout}"));
    let cols: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cols[cols.len() - 2..], ["5.189", "5.298"], "{row}");
}

#[test]
fn record_combines_with_events_and_ledger() {
    // `--record` once refused to share the run with `--events` or
    // `--ledger`. Each sink reads the same stream whatever rides
    // along, so one run with all three writes the same three files as
    // three runs with one flag each.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("combined_sinks");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = |name: &str| dir.join(name).display().to_string();
    let flags = [
        ("--record", "r.jsonl"),
        ("--events", "e.jsonl"),
        ("--ledger", "l.csv"),
    ];
    let base = ["run", "--rates", "11,1", "--secs", "4"];
    let mut all = base.map(String::from).to_vec();
    for (flag, name) in flags {
        all.extend([flag.to_string(), file(&format!("all.{name}"))]);
        let single = file(&format!("one.{name}"));
        let out = cli(&[&base[..], &[flag, &single]].concat());
        assert_eq!(out.status.code(), Some(0), "{flag} alone");
    }
    let all: Vec<&str> = all.iter().map(String::as_str).collect();
    let out = cli(&all);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (flag, name) in flags {
        let read = |which: &str| std::fs::read(file(&format!("{which}.{name}"))).expect("written");
        let one = read("one");
        assert!(!one.is_empty(), "{flag} wrote nothing");
        assert!(
            one == read("all"),
            "{flag}: combined run wrote a different file"
        );
    }
}

#[test]
fn run_and_sweep_print_the_same_topology_document() {
    // `run --scenario` and `sweep` go through one topology runner, so a
    // topology without a [sweep] section (which `run` refuses) prints
    // the document the sweep writes.
    let root = env!("CARGO_MANIFEST_DIR");
    let preset =
        std::fs::read_to_string(format!("{root}/examples/scenarios/roam_three_cells.toml"))
            .expect("preset readable");
    let (body, _) = preset
        .split_once("[sweep]")
        .expect("the preset sweeps its scheduler");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("roam_unswept.toml").display().to_string();
    std::fs::write(&path, body).expect("scenario file written");
    let run = cli(&["run", "--scenario", &path, "--json"]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = dir.join("roam_unswept.json");
    let sweep = cli(&["sweep", &path, "--json", &json.display().to_string()]);
    assert_eq!(sweep.status.code(), Some(0));
    let written = std::fs::read_to_string(json).expect("JSON written");
    assert!(written.contains(r#""handoffs":"#), "{written}");
    assert_eq!(String::from_utf8_lossy(&run.stdout), written);
}

/// The presets whose golden recordings live under `examples/recordings/`
/// (topologies keep one `<stem>.cell<i>.jsonl` per cell).
const GOLDEN_PRESETS: [&str; 7] = [
    "fig9_mixed_rate",
    "roam_three_cells",
    "pf_mixed_rate",
    "maxmin_mixed_rate",
    "cochannel_pair",
    "table4_bottleneck",
    "worklist_edges",
];

#[test]
fn committed_recordings_match_their_presets() {
    // A behaviour change that forgets to re-record a golden fails here,
    // not only in CI's shell loop.
    let root = env!("CARGO_MANIFEST_DIR");
    for preset in GOLDEN_PRESETS {
        let scenario = format!("{root}/examples/scenarios/{preset}.toml");
        let golden = format!("{root}/examples/recordings/{preset}.jsonl");
        let out = cli(&["verify-determinism", &scenario, "--against", &golden]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{preset}:\n{stdout}\n{stderr}");
        assert!(stdout.contains("PASS"), "{preset}:\n{stdout}");
    }
}
