//! The `dlog-mc` binary's argument checks.

use std::process::Command;

/// δ = 0 never lets a client write, so a run would explore 4 states and
/// report a clean pass: the CLI refuses it as a usage error.
#[test]
fn a_zero_delta_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dlog-mc"))
        .args(["--delta", "0", "--depth", "9"])
        .output()
        .expect("dlog-mc runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--delta"), "{stderr}");
}
