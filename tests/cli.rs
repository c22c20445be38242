//! End-to-end checks of `airtime-cli` argument validation: bad input
//! exits 1 with a message instead of panicking.

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
