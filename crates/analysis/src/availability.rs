//! Replicated-log availability (§3.2) and identifier-generator
//! availability (Appendix I).
//!
//! With M log servers failing independently (each unavailable with
//! probability `p`) and records written to N of them:
//!
//! * **WriteLog** is available when M−N or fewer servers are down:
//!   `Σ_{i=0}^{M−N} C(M,i) pⁱ (1−p)^{M−i}`;
//! * **client initialization** needs M−N+1 servers, i.e. N−1 or fewer
//!   down: `Σ_{i=0}^{N−1} C(M,i) pⁱ (1−p)^{M−i}`;
//! * **ReadLog** of a record needs one of its N holders: `1 − pᴺ`;
//! * the **identifier generator** with R representatives needs a majority:
//!   `Σ_{i=0}^{⌊(R−1)/2⌋} C(R,i) pⁱ (1−p)^{R−i}`;
//! * a **polling initialization** (§3.2, closing paragraph) waits until
//!   M−N+1 distinct servers have each been up: with memoryless repairs of
//!   mean MTTR, a server down at the start is still down at `t` with
//!   probability `p·e^(−t/MTTR)`, so P(wait ≤ t) is the initialization
//!   availability at that probability.

/// Binomial coefficient C(n, k) as f64 (exact for the small n used here).
#[must_use]
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut num = 1.0f64;
    let mut den = 1.0f64;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

/// P(exactly `k` of `n` nodes are down), nodes independently down with
/// probability `p`.
#[must_use]
pub fn prob_down(n: u64, k: u64, p: f64) -> f64 {
    binomial(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// P(at most `k` of `n` nodes are down).
#[must_use]
pub fn prob_at_most_down(n: u64, k: u64, p: f64) -> f64 {
    (0..=k.min(n)).map(|i| prob_down(n, i, p)).sum()
}

/// Availability of `WriteLog` for an (M, N) replicated log.
#[must_use]
pub fn write_availability(m: u64, n: u64, p: f64) -> f64 {
    assert!(n >= 1 && n <= m, "need 1 <= N <= M");
    prob_at_most_down(m, m - n, p)
}

/// Availability of client initialization for an (M, N) replicated log.
#[must_use]
pub fn init_availability(m: u64, n: u64, p: f64) -> f64 {
    assert!(n >= 1 && n <= m, "need 1 <= N <= M");
    prob_at_most_down(m, n - 1, p)
}

/// Availability of reading a particular record stored on N servers.
#[must_use]
pub fn read_availability(n: u64, p: f64) -> f64 {
    1.0 - p.powi(n as i32)
}

/// Availability of the Appendix I replicated identifier generator with R
/// state representatives.
#[must_use]
pub fn generator_availability(r: u64, p: f64) -> f64 {
    assert!(r >= 1);
    prob_at_most_down(r, (r - 1) / 2, p)
}

/// P(a polling client initialization has heard from M−N+1 distinct
/// servers within `t` of starting), for repairs of mean `mttr`.
#[must_use]
pub fn init_wait_cdf(m: u64, n: u64, p: f64, mttr: f64, t: f64) -> f64 {
    init_availability(m, n, p * (-t / mttr).exp())
}

/// Mean wait of a polling initialization, `∫₀^∞ (1 − cdf(t)) dt`.
/// Substituting `q = p·e^(−t/MTTR)` turns it into
/// `MTTR · ∫₀^p P(N or more of M down at q) / q dq`, whose integrand is a
/// polynomial in `q`: `Σ_{k≥N} C(M,k) Σ_j C(M−k,j) (−1)ʲ q^{k+j−1}`.
#[must_use]
pub fn init_wait_mean(m: u64, n: u64, p: f64, mttr: f64) -> f64 {
    assert!(n >= 1 && n <= m, "need 1 <= N <= M");
    let mut integral = 0.0;
    for k in n..=m {
        for j in 0..=m - k {
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            let e = k + j;
            integral += sign * binomial(m, k) * binomial(m - k, j) * p.powi(e as i32) / e as f64;
        }
    }
    mttr * integral
}

/// The `quantile` wait of a polling initialization: zero when the
/// instantaneous availability already meets it, else the `t` where the
/// [`init_wait_cdf`] reaches it, by bisection.
#[must_use]
pub fn init_wait_quantile(m: u64, n: u64, p: f64, mttr: f64, quantile: f64) -> f64 {
    assert!(
        mttr > 0.0 && quantile < 1.0,
        "need MTTR > 0 and a quantile below 1"
    );
    let cdf = |t: f64| init_wait_cdf(m, n, p, mttr, t);
    let (mut lo, mut hi) = (0.0, mttr);
    if cdf(lo) >= quantile {
        return 0.0;
    }
    while cdf(hi) < quantile {
        hi *= 2.0;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) >= quantile {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Smallest M (≥ N) whose `WriteLog` availability meets `target`, or
/// `None` if no M up to `m_max` does. Sizing helper: "users of replicated
/// logs must select values of M to provide some minimum availability"
/// (§3.2).
#[must_use]
pub fn min_m_for_write(n: u64, p: f64, target: f64, m_max: u64) -> Option<u64> {
    (n..=m_max).find(|&m| write_availability(m, n, p) >= target)
}

/// Largest M whose client-initialization availability still meets
/// `target` (init availability *falls* with M), or `None` if even M = N
/// misses it.
#[must_use]
pub fn max_m_for_init(n: u64, p: f64, target: f64, m_max: u64) -> Option<u64> {
    (n..=m_max)
        .take_while(|&m| init_availability(m, n, p) >= target)
        .last()
}

/// One row of the Figure 3-4 dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig34Row {
    /// Total servers M.
    pub m: u64,
    /// Copies per record N.
    pub n: u64,
    /// WriteLog availability.
    pub write: f64,
    /// Client-initialization availability.
    pub init: f64,
}

/// The Figure 3-4 dataset: availabilities for N ∈ {2, 3}, M ∈ N..=m_max,
/// with per-server unavailability `p` (the paper uses p = 0.05).
#[must_use]
pub fn figure_3_4(m_max: u64, p: f64) -> Vec<Fig34Row> {
    let mut rows = Vec::new();
    for n in [2u64, 3] {
        for m in n..=m_max {
            rows.push(Fig34Row {
                m,
                n,
                write: write_availability(m, n, p),
                init: init_availability(m, n, p),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: f64 = 0.05;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 4), 0.0);
        assert_eq!(binomial(8, 4), 70.0);
    }

    #[test]
    fn distribution_sums_to_one() {
        for n in [1u64, 3, 7] {
            let total: f64 = (0..=n).map(|k| prob_down(n, k, 0.3)).sum();
            assert!(close(total, 1.0, 1e-12));
        }
    }

    /// Single server: everything available with probability 1−p = 0.95
    /// ("if only a single server were used, then ReadLog, WriteLog and
    /// client initialization would be available with probability 0.95").
    #[test]
    fn single_server_baseline() {
        assert!(close(write_availability(1, 1, P), 0.95, 1e-12));
        assert!(close(init_availability(1, 1, P), 0.95, 1e-12));
        assert!(close(read_availability(1, P), 0.95, 1e-12));
    }

    /// §3.2: "consider the case of dual copy replicated logs (N = 2) and
    /// M = 5 ... For WriteLog operations to be unavailable, at least four
    /// of the five servers must be down", and "four of the five log
    /// servers must be available for client initialization. This occurs
    /// with a probability of about 0.98".
    #[test]
    fn paper_n2_m5_example() {
        let w = write_availability(5, 2, P);
        assert!(w > 0.99996, "write availability {w} should be ~1");
        let i = init_availability(5, 2, P);
        assert!(
            close(i, 0.977, 2e-3),
            "init availability {i} should be about 0.98"
        );
    }

    /// §3.2: "with five log servers and triple copy replicated logs,
    /// availability for both normal processing and client initialization
    /// is about 0.999".
    #[test]
    fn paper_n3_m5_example() {
        let w = write_availability(5, 3, P);
        let i = init_availability(5, 3, P);
        assert!(close(w, 0.9988, 1e-3), "write {w}");
        assert!(close(i, 0.9988, 1e-3), "init {i}");
        // For N=3, M=5, both tolerate exactly 2 failures: identical.
        assert!(close(w, i, 1e-12));
    }

    /// §3.2: "with dual copy replicated logs, 0.95 or better availability
    /// for client initialization would be achieved using up to M = 7 log
    /// servers".
    #[test]
    fn paper_dual_copy_limit() {
        assert!(init_availability(7, 2, P) >= 0.95);
        assert!(init_availability(8, 2, P) < 0.95);
    }

    /// Write availability rises with M; init availability falls with M.
    #[test]
    fn monotonicity_in_m() {
        for n in [2u64, 3] {
            for m in n..8 {
                assert!(
                    write_availability(m + 1, n, P) >= write_availability(m, n, P) - 1e-12,
                    "write not rising at M={m} N={n}"
                );
                assert!(
                    init_availability(m + 1, n, P) <= init_availability(m, n, P) + 1e-12,
                    "init not falling at M={m} N={n}"
                );
            }
        }
    }

    #[test]
    fn read_availability_formula() {
        assert!(close(read_availability(2, P), 1.0 - 0.0025, 1e-12));
        assert!(close(read_availability(3, P), 1.0 - 0.000125, 1e-12));
    }

    /// Appendix I: majority quorum availability; R=3 tolerates 1 failure.
    #[test]
    fn generator_availability_values() {
        let g1 = generator_availability(1, P); // majority of 1 = itself
        assert!(close(g1, 0.95, 1e-12));
        let g3 = generator_availability(3, P); // ≤1 of 3 down
        assert!(close(g3, prob_at_most_down(3, 1, P), 1e-12));
        assert!(g3 > 0.992);
        let g5 = generator_availability(5, P); // ≤2 of 5 down
        assert!(g5 > g3);
    }

    /// Footnote 3: generator representatives require fewer nodes than
    /// client initialization, so the generator never limits availability
    /// (for the typical configurations in Figure 3-4).
    #[test]
    fn generator_does_not_limit_init() {
        for (m, n) in [(3u64, 2u64), (5, 2), (5, 3), (7, 2)] {
            let gen = generator_availability(m, P);
            let init = init_availability(m, n, P);
            assert!(
                gen >= init - 1e-9,
                "generator availability {gen} below init {init} for M={m} N={n}"
            );
        }
    }

    /// §3.2: "0.95 or better availability for client initialization would
    /// be achieved using up to M = 7 log servers" — the sizing helpers
    /// find exactly that bound.
    #[test]
    fn sizing_helpers() {
        assert_eq!(max_m_for_init(2, P, 0.95, 20), Some(7));
        assert_eq!(min_m_for_write(2, P, 0.999, 20), Some(4));
        // An impossible target yields None.
        assert_eq!(max_m_for_init(1, 0.5, 0.95, 20), None);
        assert_eq!(min_m_for_write(2, 0.5, 0.9999, 4), None);
    }

    #[test]
    fn figure_3_4_shape() {
        let rows = figure_3_4(8, P);
        // N=2: M=2..8 (7 rows); N=3: M=3..8 (6 rows).
        assert_eq!(rows.len(), 13);
        for r in &rows {
            // At M=N a write needs all N servers while initialization
            // needs only one, so write availability is the lower of the
            // two; the curves cross as M grows (the Figure 3-4 shape).
            if r.m == r.n {
                assert!(r.write <= r.init);
            }
            assert!(r.write >= 0.0 && r.write <= 1.0);
            assert!(r.init >= 0.0 && r.init <= 1.0);
        }
    }

    /// MTTR of E2b's table (the repair time of a 100-unit failure cycle
    /// at p = 0.05).
    const MTTR: f64 = 5.0;

    /// A client that starts polling at t = 0 has not waited at all with
    /// exactly the instantaneous probability, and eventually always
    /// completes.
    #[test]
    fn init_wait_cdf_starts_at_instant_availability() {
        for (m, n) in [(1u64, 1u64), (3, 2), (5, 2), (5, 3), (8, 3)] {
            assert_eq!(
                init_wait_cdf(m, n, P, MTTR, 0.0),
                init_availability(m, n, P)
            );
            assert!(init_wait_cdf(m, n, P, MTTR, 100.0 * MTTR) > 1.0 - 1e-12);
        }
    }

    /// One server: the wait is its residual repair time when down, so
    /// the mean is exactly p·MTTR.
    #[test]
    fn init_wait_mean_of_one_server_is_p_mttr() {
        assert!(close(init_wait_mean(1, 1, P, MTTR), P * MTTR, 1e-15));
    }

    /// The polynomial closed form equals a numerical integral of the
    /// CDF's complement.
    #[test]
    fn init_wait_mean_is_the_integral_of_the_cdf() {
        for (m, n) in [(3u64, 2u64), (5, 2), (7, 2), (5, 3), (8, 3)] {
            let dt = 1e-3;
            let integral: f64 = (0..200_000)
                .map(|i| {
                    let t = (f64::from(i) + 0.5) * dt;
                    (1.0 - init_wait_cdf(m, n, P, MTTR, t)) * dt
                })
                .sum();
            let mean = init_wait_mean(m, n, P, MTTR);
            assert!(
                close(integral, mean, 1e-6 * mean),
                "M={m} N={n}: {integral} vs {mean}"
            );
        }
    }

    /// A larger initialization quorum (N = 2 needs 4 of 5) waits longer
    /// than a smaller one (N = 3 needs 3 of 5).
    #[test]
    fn larger_quorum_waits_longer() {
        assert!(init_wait_mean(5, 2, P, MTTR) > init_wait_mean(5, 3, P, MTTR));
    }

    /// E2b: polling turns an initialization-quorum outage into a short
    /// wait. Pins the table's five rows and prints it under
    /// `cargo test -p dlog-analysis e2b -- --nocapture`.
    #[test]
    fn e2b_polling_initialization_rows() {
        use crate::table::{fmt2, fmt_prob, Table};
        // (M, N, mean wait, p99 wait), waits in the units of MTTR = 5.
        let rows = [
            (3u64, 2u64, 0.018_333_333, 0.0),
            (5, 2, 0.058_449_271, 2.125_975_5),
            (7, 2, 0.117_461_182, 3.955_990_8),
            (5, 3, 0.001_968_021, 0.0),
            (8, 3, 0.010_127_462, 0.0),
        ];
        let mut t = Table::new(vec!["M", "N", "instant", "mean wait", "p99 wait"]);
        for (m, n, mean, p99) in rows {
            let got_mean = init_wait_mean(m, n, P, MTTR);
            let got_p99 = init_wait_quantile(m, n, P, MTTR, 0.99);
            assert!(close(got_mean, mean, 1e-9), "M={m} N={n}: mean {got_mean}");
            assert!(close(got_p99, p99, 1e-6), "M={m} N={n}: p99 {got_p99}");
            t.row(vec![
                m.to_string(),
                n.to_string(),
                fmt_prob(init_availability(m, n, P)),
                format!("{got_mean:.3}"),
                fmt2(got_p99),
            ]);
        }
        println!("E2b: polling client initialization (p = {P}, MTTR = {MTTR})\n");
        println!("{}", t.render());
    }
}
