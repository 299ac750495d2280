//! Interactive availability explorer: evaluate any (M, N, p)
//! configuration with the §3.2 closed forms, including how long a
//! polling initialization waits, and size M for target availabilities. The shipped client's table, up-set by up-set, is
//! `cargo test -p dlog-bench --test availability -- --nocapture`.
//!
//! Run with:
//! `cargo run -p dlog-bench --example availability_explorer -- [p] [m_max]`
//! (defaults: p = 0.05, m_max = 8 — the paper's Figure 3-4 ranges)

use dlog_analysis::availability::{
    figure_3_4, generator_availability, init_wait_mean, init_wait_quantile, max_m_for_init,
    min_m_for_write, read_availability,
};
use dlog_analysis::table::{fmt_prob, Table};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let m_max: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("Replicated-log availability, per-server unavailability p = {p}\n");
    let mut t = Table::new(vec![
        "N",
        "M",
        "write",
        "init",
        "read",
        "init wait: mean",
        "init wait: p99",
    ]);
    for row in figure_3_4(m_max, p) {
        t.row(vec![
            row.n.to_string(),
            row.m.to_string(),
            fmt_prob(row.write),
            fmt_prob(row.init),
            fmt_prob(read_availability(row.n, p)),
            format!("{:.4}", init_wait_mean(row.m, row.n, p, 1.0)),
            format!("{:.4}", init_wait_quantile(row.m, row.n, p, 1.0, 0.99)),
        ]);
    }
    println!("{}", t.render());
    println!("(a polling initialization's waits are in units of the mean repair time)\n");

    println!("Configuration sizing (the trade §3.2 describes):");
    for n in [2u64, 3] {
        for target in [0.99, 0.999, 0.9999] {
            let write_m =
                min_m_for_write(n, p, target, 20).map_or("—".to_string(), |m| m.to_string());
            let init_m =
                max_m_for_init(n, p, target, 20).map_or("—".to_string(), |m| m.to_string());
            println!(
                "  N={n}, target {target}: WriteLog needs M >= {write_m}; \
                 initialization allows M <= {init_m}"
            );
        }
    }
    println!(
        "\nGenerator availability (majority of R representatives): R=3: {}, R=5: {}",
        fmt_prob(generator_availability(3, p)),
        fmt_prob(generator_availability(5, p))
    );
}
