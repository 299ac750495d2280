//! `dlog-mc` — run the explicit-state model checker from the command
//! line.
//!
//! Exhaustive BFS by default; `--walk N` switches to N seeded random
//! walks. Exit status: 0 = explored clean, 1 = invariant violated
//! (counterexample printed, and written to `--out` if given), 2 = usage
//! error.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use std::process::ExitCode;

use dlog_mc::explore::{default_scratch, Explorer};
use dlog_mc::{render_counterexample, McConfig, Mutation, Report};

const USAGE: &str = "\
dlog-mc: explicit-state model checker for the dlog protocol core

USAGE:
    dlog-mc [OPTIONS]

OPTIONS:
    --depth N        BFS depth bound in actions (default 7)
    --servers N      log servers (default 2)
    --shards N       shard event loops per server (default 1)
    --clients N      model clients (default 1)
    --delta N        client window bound δ (default 2)
    --need-n N       servers that must hold a record (default 2)
    --script S       per-client op script, w=write f=force (default \"wf\")
    --batch N        group-commit batch cap (default 2)
    --crashes N      crash budget per path (default 1)
    --dups N         duplicate budget per path (default 1)
    --rexmits N      retransmit budget per client (default 1)
    --mutation M     seeded bug: none, early-ack, skip-force,
                     lost-ack, amnesia (default none)
    --walk N         run N random walks instead of exhaustive BFS
    --walk-depth N   actions per walk (default 4 * depth)
    --seed N         walk RNG seed (default 1)
    --json           machine-readable report on stdout
    --out FILE       also write the rendered counterexample to FILE
    --help           this text
";

struct Cli {
    cfg: McConfig,
    depth: usize,
    walks: u64,
    walk_depth: usize,
    seed: u64,
    json: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: McConfig::default(),
        depth: 7,
        walks: 0,
        walk_depth: 0,
        seed: 1,
        json: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--json" => cli.json = true,
            "--depth" => cli.depth = parse_num(&take("--depth")?)? as usize,
            "--servers" => cli.cfg.servers = parse_num(&take("--servers")?)?,
            "--shards" => cli.cfg.shards = parse_num(&take("--shards")?)?.max(1),
            "--clients" => cli.cfg.clients = parse_num(&take("--clients")?)?,
            "--delta" => cli.cfg.delta = parse_num(&take("--delta")?)?,
            "--need-n" => cli.cfg.need_n = parse_num(&take("--need-n")?)? as usize,
            "--script" => cli.cfg.script = McConfig::parse_script(&take("--script")?)?,
            "--batch" => cli.cfg.coalesce_max_batch = parse_num(&take("--batch")?)? as usize,
            "--crashes" => cli.cfg.max_crashes = parse_num(&take("--crashes")?)? as u32,
            "--dups" => cli.cfg.max_dups = parse_num(&take("--dups")?)? as u32,
            "--rexmits" => cli.cfg.max_rexmits = parse_num(&take("--rexmits")?)? as u32,
            "--mutation" => cli.cfg.mutation = Mutation::parse(&take("--mutation")?)?,
            "--walk" => cli.walks = parse_num(&take("--walk")?)?,
            "--walk-depth" => cli.walk_depth = parse_num(&take("--walk-depth")?)? as usize,
            "--seed" => cli.seed = parse_num(&take("--seed")?)?,
            "--out" => cli.out = Some(take("--out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.cfg.servers == 0 || cli.cfg.clients == 0 {
        return Err("need at least one server and one client".to_string());
    }
    if cli.cfg.need_n == 0 || cli.cfg.need_n > cli.cfg.servers as usize {
        return Err(format!(
            "--need-n must be in 1..={} (the server count)",
            cli.cfg.servers
        ));
    }
    if cli.walk_depth == 0 {
        cli.walk_depth = cli.depth.saturating_mul(4);
    }
    Ok(cli)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_report(report: &Report, mode: &str) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"mode\":\"{}\",", json_escape(mode)));
    out.push_str(&format!("\"states_unique\":{},", report.states_unique));
    out.push_str(&format!("\"dedup_hits\":{},", report.dedup_hits));
    out.push_str(&format!("\"replays\":{},", report.replays));
    out.push_str(&format!("\"actions_applied\":{},", report.actions_applied));
    out.push_str(&format!("\"max_depth\":{},", report.max_depth));
    out.push_str(&format!("\"elapsed_ms\":{},", report.elapsed_ms));
    match &report.violation {
        None => out.push_str("\"violation\":null"),
        Some(ce) => {
            let trace: Vec<String> = ce
                .trace
                .iter()
                .map(|a| format!("\"{}\"", json_escape(&a.to_string())))
                .collect();
            out.push_str(&format!(
                "\"violation\":{{\"invariant\":\"{}\",\"detail\":\"{}\",\
                 \"original_len\":{},\"trace\":[{}]}}",
                json_escape(ce.violation.invariant),
                json_escape(&ce.violation.detail),
                ce.original_len,
                trace.join(",")
            ));
        }
    }
    out.push('}');
    out
}

fn run() -> Result<u8, String> {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return Ok(0);
        }
        Err(e) => {
            eprintln!("dlog-mc: {e}\n\n{USAGE}");
            return Ok(2);
        }
    };
    let explorer = Explorer::new(&cli.cfg, &default_scratch("cli"));
    let (report, mode) = if cli.walks > 0 {
        (
            explorer.run_walk(cli.walks, cli.walk_depth, cli.seed)?,
            "walk",
        )
    } else {
        (explorer.run_bfs(cli.depth)?, "bfs")
    };

    if cli.json {
        println!("{}", json_report(&report, mode));
    } else {
        println!(
            "dlog-mc ({mode}): {} unique states, {} dedup hits, {} replays, \
             {} actions, depth {}, {} ms",
            report.states_unique,
            report.dedup_hits,
            report.replays,
            report.actions_applied,
            report.max_depth,
            report.elapsed_ms
        );
    }
    let Some(ce) = &report.violation else {
        if !cli.json {
            println!("no invariant violations.");
        }
        return Ok(0);
    };
    let rendered = render_counterexample(&cli.cfg, ce, &default_scratch("render"))?;
    eprintln!("{rendered}");
    if let Some(path) = &cli.out {
        std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("counterexample written to {path}");
    }
    Ok(1)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("dlog-mc: {e}");
            ExitCode::from(2)
        }
    }
}
