//! `dlog` whose stdout reader has gone away (`dlog tail 100 | head -3`)
//! ends quietly instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_pipe_ends_dlog_quietly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_dlog"))
        .arg("--help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
