//! `dlog-lint` binary: run the workspace rule catalog.
//!
//! ```text
//! cargo run -p dlog-lint              # human-readable report
//! cargo run -p dlog-lint -- --json    # machine-readable report
//! cargo run -p dlog-lint -- --timing  # append per-rule wall time
//! cargo run -p dlog-lint -- --root /path/to/workspace
//! cargo run -p dlog-lint -- --callgraph          # resolved call graph
//! cargo run -p dlog-lint -- --callgraph --dot    # Graphviz rendering
//! cargo run -p dlog-lint -- --callgraph --json   # per-fn summaries
//! ```
//!
//! Exit status: 0 when clean (modulo `lint.allow`), 1 on violations,
//! 2 on usage or I/O errors (an unknown flag included). With
//! `--json --timing` the timing table goes to stderr so stdout stays
//! valid JSON. `--callgraph` dumps the interprocedural engine's view of
//! the workspace and always exits 0 on success (it reports structure,
//! not findings).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut timing = false;
    let mut callgraph = false;
    let mut dot = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--timing" => timing = true,
            "--callgraph" => callgraph = true,
            "--dot" => dot = true,
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: dlog-lint [--json] [--timing] [--root PATH] [--callgraph [--dot]]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if dot && !callgraph {
        eprintln!("error: --dot requires --callgraph");
        return ExitCode::from(2);
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

    if callgraph {
        return match dlog_lint::workspace::build_callgraph(&root) {
            Ok((graph, summaries)) => {
                if dot {
                    print!("{}", dlog_lint::summary::render_callgraph_dot(&graph));
                } else if json {
                    print!(
                        "{}",
                        dlog_lint::summary::render_callgraph_json(&graph, &summaries)
                    );
                } else {
                    print!(
                        "{}",
                        dlog_lint::summary::render_callgraph_text(&graph, &summaries)
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

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
