//! `dlog-lint` binary: run the workspace rule catalog.
//!
//! ```text
//! cargo run -p dlog-lint              # human-readable report
//! cargo run -p dlog-lint -- --json    # machine-readable report
//! cargo run -p dlog-lint -- --timing  # append per-rule wall time
//! cargo run -p dlog-lint -- --root /path/to/workspace
//! ```
//!
//! Exit status: 0 when clean, 1 on violations, 2 on usage or I/O
//! errors (an unknown flag included). With `--json --timing` the timing
//! table goes to stderr so stdout stays valid JSON.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut timing = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--timing" => timing = true,
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: dlog-lint [--json] [--timing] [--root PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot determine cwd: {e}");
                    return ExitCode::from(2);
                }
            };
            match dlog_lint::find_root(&cwd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    match dlog_lint::lint_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
                if timing {
                    eprint!("{}", report.timing_table());
                }
            } else {
                print!("{}", report.to_text());
                if timing {
                    print!("{}", report.timing_table());
                }
            }
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
