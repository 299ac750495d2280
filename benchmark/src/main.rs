//! dlog-benchmark: six named workloads, end-to-end metrics from an
//! untraced pass and per-layer metrics from a traced one. See
//! `benchmark/README.md` for what each number means and
//! `BENCHMARK.json` for the contract the driver holds it to.

mod cluster;
mod gen;
mod inline;
mod layers;
mod phases;
mod procfs;
mod recorder;
mod replay;
mod report;
mod run;
mod span;
mod spec;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cluster::{Mem, Transport, Udp};
use dlog_storage::store::Durability;
use phases::{write_window, Until};
use report::{short, Outcome};
use run::{boot, warm_up, Booted, Plan};
use spec::{Net, Workload, BOUNDS, END_TO_END};

const USAGE: &str = "\
usage: dlog-benchmark [--workload NAME --trace 0|1] [--only NAME] [--seed N] [--seconds S]
                      [--quick] [--aa] [--matrix] [--json] [--out DIR]

  --workload NAME --trace T   one pass over one workload; the last line of stdout is
                              the result object of BENCHMARK.json's contract
  (no --workload)             every workload (or --only NAME), untraced then traced
  --quick                     1 s on 1 cluster per workload, no traced pass
  --aa                        the untraced suite twice; non-zero exit when two runs of
                              the same code differ by more than a metric's bound
  --matrix                    shards x replicas x transport x durability on the
                              stream_mem shape, printed only
  --json                      one JSON object per pass on stdout (tables go to stderr)
  --seed N                    op stream, read positions and fault plan (default 1)
  --seconds S                 seconds measured per pass (default 8), cut into windows
  --out DIR                   scratch and trace directory (default benchmark/out)";

struct Args {
    workload: Option<String>,
    only: Option<String>,
    trace: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    aa: bool,
    matrix: bool,
    json: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        only: None,
        trace: false,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        quick: false,
        aa: false,
        matrix: false,
        json: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--only" => a.only = Some(value()?),
            "--trace" => a.trace = value()? == "1",
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => a.out = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--matrix" => a.matrix = true,
            "--json" => a.json = true,
            "--emit-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(a)
}

/// The commit `HEAD` points at, when the checkout is a git repository.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What `--quick` and `--seconds` make of workload `w`'s pass.
fn plan_of(w: &Workload, args: &Args, scratch: PathBuf) -> Plan {
    Plan {
        seed: args.seed,
        seconds: if args.quick { 1.0 } else { args.seconds },
        clusters: if args.quick { 1 } else { w.clusters },
        scratch,
    }
}

fn header(args: &Args, workloads: &[Workload]) -> String {
    let mut h = format!(
        "dlog-benchmark: nproc {} | scratch {} on {} | git {} | seed {} | {} s per pass\n",
        procfs::nproc(),
        args.out.display(),
        procfs::fs_type(&args.out),
        git_revision(),
        args.seed,
        if args.quick { 1.0 } else { args.seconds },
    );
    h.push_str(
        "closed loops; loopback is loopback and fsync is this sandbox's filesystem, not a device\n",
    );
    for w in workloads {
        let ops = gen::OpStream {
            seed: args.seed,
            client: 1,
            shape: w.shape,
        };
        let plan = plan_of(w, args, PathBuf::new());
        let windows = match w.timed {
            spec::Timed::Writes => format!(
                "{} write windows of {:?}",
                plan.windows_each(w.window),
                w.window
            ),
            spec::Timed::Reads { preload } => format!("a preload of {preload} records"),
        };
        h.push_str(&format!(
            "  {:<13} {}{} cluster(s) x {windows}, {} client thread(s), {:?}, M={} N={} \
             delta={} shards={} {:?} fsync={} coalesce={:?} lossy={} op-stream hash {:016x}\n",
            w.name,
            if w.gated { "" } else { "(not gated) " },
            plan.clusters,
            w.clients,
            w.net,
            w.cluster.servers,
            w.cluster.replicas,
            w.cluster.delta,
            w.cluster.shards,
            w.cluster.durability,
            w.cluster.fsync,
            w.cluster.coalesce,
            w.lossy,
            ops.hash(64),
        ));
    }
    h
}

/// One pass over one workload, in a scratch directory of its own.
fn pass(w: &Workload, args: &Args, traced: bool) -> Outcome {
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let plan = plan_of(w, args, scratch.clone());
    let out = match (w.net, traced) {
        (Net::Mem, false) => run::end_to_end::<Mem>(w, &plan),
        (Net::Udp, false) => run::end_to_end::<Udp>(w, &plan),
        (Net::Mem, true) => layers::per_layer::<Mem>(w, &plan, &args.out),
        (Net::Udp, true) => layers::per_layer::<Udp>(w, &plan, &args.out),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// One pass in a process of its own, the way the driver runs it: its
/// memory high-water mark and allocator state then belong to that pass
/// alone. The child's table goes to our stderr; its result line comes
/// back (`None` when it failed verification or did not finish).
fn child_pass(w: &Workload, args: &Args, traced: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe);
    child
        .args([
            "--workload",
            w.name,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if args.quick {
        child.arg("--quick");
    }
    let done = child.output().ok()?;
    let line = String::from_utf8_lossy(&done.stdout)
        .lines()
        .last()?
        .to_string();
    done.status.success().then_some(line)
}

/// The value of metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

fn suite(args: &Args, workloads: &[Workload]) -> bool {
    let mut ok = true;
    for w in workloads {
        let started = Instant::now();
        for traced in [false, true] {
            if traced && args.quick {
                continue;
            }
            match child_pass(w, args, traced) {
                Some(line) if args.json => println!(
                    "{{\"workload\": \"{}\", \"traced\": {traced}, \"result\": {line}}}",
                    w.name
                ),
                Some(_) => {}
                None => ok = false,
            }
        }
        eprintln!(
            "   ({} took {:.1} s)",
            w.name,
            started.elapsed().as_secs_f64()
        );
    }
    ok
}

/// Two untraced runs of the same code, compared against the bounds.
/// One run against one run is a harsher test than the driver's (medians
/// of ten against medians of ten): an `OVER` that does not repeat is
/// this box's noise.
fn aa(args: &Args, workloads: &[Workload]) -> bool {
    let mut ok = true;
    let runs: Vec<Vec<Option<String>>> = (0..2)
        .map(|_| {
            workloads
                .iter()
                .map(|w| child_pass(w, args, false))
                .collect()
        })
        .collect();
    println!(
        "{:<13} {:<26} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    for (w, (a, b)) in workloads.iter().zip(runs[0].iter().zip(&runs[1])) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("{:<13} a run failed", w.name);
            ok = false;
            continue;
        };
        for (m, bound) in END_TO_END.iter().zip(BOUNDS) {
            let (va, vb) = (
                metric_in(a, m.name).unwrap_or(0.0),
                metric_in(b, m.name).unwrap_or(0.0),
            );
            let diff = if va == 0.0 { 0.0 } else { (vb - va).abs() / va };
            let over = diff > *bound;
            ok &= !over;
            println!(
                "{:<13} {:<26} {:>12} {:>12} {:>7.2}% {:>6.0}%{}",
                w.name,
                m.name,
                short(va),
                short(vb),
                diff * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
    }
    ok
}

fn matrix_row<T: Transport>(w: &Workload, args: &Args, secs: f64) -> String {
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    let tracer = span::Tracer::new();
    let Booted {
        mut cluster,
        mut writers,
    } = boot::<T>(w, args.seed, false, &scratch, &tracer);
    let _ = warm_up(w, &mut writers);
    let x = write_window(&mut writers, Until::Elapsed(Duration::from_secs_f64(secs)));
    drop(writers);
    drop(cluster.stop_all());
    let _ = std::fs::remove_dir_all(&scratch);
    format!(
        "{:>6} {:>8} {:>9} {:>10} {:>12} {:>12} {:>10} {:>10} {:>6}",
        w.cluster.shards,
        w.cluster.replicas,
        T::NAME,
        if w.cluster.fsync { "fsync" } else { "nvram" },
        short(x.commit_per_s),
        short(x.rec_per_s),
        short(x.latency.percentile(0.5) as f64 / 1e3),
        short(x.latency.percentile(0.99) as f64 / 1e3),
        x.failed
    )
}

/// One factor at a time on the `stream_mem` shape; printed, not gated.
fn matrix(args: &Args, stream: &Workload) {
    let secs = if args.quick { 1.0 } else { 3.0 };
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>12} {:>12} {:>10} {:>10} {:>6}",
        "shards",
        "replicas",
        "transport",
        "durability",
        "commit/s",
        "rec/s",
        "p50 us",
        "p99 us",
        "failed"
    );
    for net in [Net::Mem, Net::Udp] {
        for fsync in [false, true] {
            for replicas in [1, 2] {
                for shards in [1, 2] {
                    let mut w = *stream;
                    w.net = net;
                    w.cluster.shards = shards;
                    w.cluster.replicas = replicas;
                    w.cluster.fsync = fsync;
                    w.cluster.durability = if fsync {
                        Durability::FsyncPerForce
                    } else {
                        Durability::Nvram
                    };
                    if net == Net::Udp {
                        w.warm_commits = 10;
                    }
                    println!(
                        "{}",
                        match net {
                            Net::Mem => matrix_row::<Mem>(&w, args, secs),
                            Net::Udp => matrix_row::<Udp>(&w, args, secs),
                        }
                    );
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = spec::workloads();
    let chosen: Vec<Workload> = match args.workload.as_ref().or(args.only.as_ref()) {
        None => all.clone(),
        Some(name) => match all.iter().find(|w| w.name == name) {
            Some(w) => vec![*w],
            None => {
                let names: Vec<&str> = all.iter().map(|w| w.name).collect();
                eprintln!("no workload {name}; there are {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    // The load generator must fit the machine: a client thread without
    // a core of its own measures the scheduler.
    if let Some(w) = chosen.iter().find(|w| w.clients > procfs::nproc()) {
        eprintln!(
            "{} wants {} client threads but this machine has {} cores",
            w.name,
            w.clients,
            procfs::nproc()
        );
        return ExitCode::from(2);
    }
    if std::fs::create_dir_all(&args.out).is_err() {
        eprintln!("cannot create {}", args.out.display());
        return ExitCode::from(2);
    }
    eprint!("{}", header(&args, &chosen));

    let ok = if args.workload.is_some() {
        // The driver's contract: the table to stderr, one object last
        // on stdout.
        let o = pass(&chosen[0], &args, args.trace);
        eprint!("{}", o.table());
        println!("{}", o.contract_json());
        o.correct()
    } else if args.matrix {
        match all.iter().find(|w| w.name == "stream_mem") {
            Some(w) => matrix(&args, w),
            None => return ExitCode::from(2),
        }
        true
    } else if args.aa {
        aa(&args, &chosen)
    } else {
        suite(&args, &chosen)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("verification failed or two runs disagreed: see above");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    /// A plan small enough for `cargo test`, in a directory of its own
    /// under `benchmark/out`.
    fn tiny(tag: &str) -> (Plan, PathBuf) {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).expect("test directory");
        let plan = Plan {
            seed: 3,
            seconds: 0.4,
            clusters: 2,
            scratch: out.join("scratch"),
        };
        (plan, out)
    }

    fn workload(name: &str) -> Workload {
        let mut w = *spec::workloads()
            .iter()
            .find(|w| w.name == name)
            .expect("workload");
        w.warm_commits = 100;
        if let spec::Timed::Reads { preload } = &mut w.timed {
            *preload = 8_000;
        }
        w
    }

    #[test]
    fn untraced_pass_reports_every_end_to_end_metric_and_verifies() {
        for name in ["et1_mem", "stream_mem", "restart_read"] {
            let (plan, out) = tiny(name);
            let o = run::end_to_end::<Mem>(&workload(name), &plan);
            assert!(
                o.correct(),
                "{name}: {} failed of {}",
                o.failed,
                o.attempted
            );
            let names: Vec<&str> = o.values.iter().map(|v| v.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{name}");
            assert!(
                o.values.iter().all(|v| v.s.value > 0.0),
                "{name}: a metric is 0"
            );
            let _ = std::fs::remove_dir_all(out);
        }
    }

    #[test]
    fn lossy_and_fsync_and_udp_lose_nothing() {
        for name in ["et1_lossy", "et1_fsync"] {
            let (plan, out) = tiny(name);
            let o = run::end_to_end::<Mem>(&workload(name), &plan);
            assert!(
                o.correct(),
                "{name}: {} failed of {}",
                o.failed,
                o.attempted
            );
            let _ = std::fs::remove_dir_all(out);
        }
        let (plan, out) = tiny("et1_udp");
        let mut udp = workload("et1_udp");
        udp.warm_commits = 2;
        let o = run::end_to_end::<Udp>(&udp, &plan);
        assert!(
            o.correct(),
            "et1_udp: {} failed of {}",
            o.failed,
            o.attempted
        );
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn traced_pass_reports_every_per_layer_metric_and_writes_the_trace() {
        let (plan, out) = tiny("traced");
        let o = layers::per_layer::<Mem>(&workload("et1_mem"), &plan, &out);
        assert!(o.correct(), "{} failed of {}", o.failed, o.attempted);
        let names: Vec<&str> = o.values.iter().map(|v| v.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        for must in [
            "core.force_self_us",
            "mem.hop_ns",
            "server.handle_ns_per_pkt",
        ] {
            assert!(o.get(must).unwrap_or(0.0) > 0.0, "{must} is 0");
        }
        assert_eq!(o.get("udp.datagrams_per_commit"), Some(0.0));
        assert!(o.get("udp.send_ns_per_call").unwrap_or(0.0) > 0.0);
        let trace = std::fs::read_to_string(out.join("et1_mem.trace.jsonl")).expect("trace file");
        assert!(trace.lines().count() > 100);
        assert!(trace.contains("\"name\":\"server.handle\""));
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn a_result_line_gives_its_metrics_back() {
        let o = Outcome {
            attempted: 1,
            values: vec![
                report::Value::one("setup_s", "s", 0.8127),
                report::Value::one("commit_per_s", "1/s", 70180.5),
            ],
            ..Outcome::default()
        };
        let line = o.contract_json();
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "commit_per_s"), Some(70180.5));
        assert_eq!(metric_in(&line, "rec_per_s"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in spec::workloads() {
            let ops = |seed| gen::OpStream {
                seed,
                client: 1,
                shape: w.shape,
            };
            assert_eq!(ops(11).hash(256), ops(11).hash(256), "{}", w.name);
            assert_ne!(ops(11).hash(256), ops(12).hash(256), "{}", w.name);
        }
    }
}
