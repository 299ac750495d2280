//! Log-server response-time model (§3.2, §5.4).
//!
//! §3.2 remarks that as servers fail, "response to WriteLog operations
//! may degrade, as fewer servers remain to carry the load, but such
//! failures will hardly ever render WriteLog operations unavailable";
//! §5.4 wants load spread "so as to minimize response times". This module
//! quantifies both with standard single-server queueing formulas:
//!
//! * **M/M/1** — exponential service (a pessimistic envelope);
//! * **M/D/1** — deterministic service, the right shape for a force
//!   that is a fixed-cost NVRAM insert (Pollaczek–Khinchine).

/// Test hook: mean response time (waiting + service) of an M/M/1 queue,
/// the envelope [`md1_response`] is checked against. The discrete-event
/// queue in this module's tests is the reference for both. `lambda`: arrivals/sec; `mu`: service rate/sec. Returns
/// `None` when the queue is unstable (λ ≥ μ).
#[must_use]
pub fn mm1_response(lambda: f64, mu: f64) -> Option<f64> {
    (lambda < mu && lambda >= 0.0).then(|| 1.0 / (mu - lambda))
}

/// Mean response time of an M/D/1 queue (deterministic service time
/// `1/mu`), by Pollaczek–Khinchine: `W = 1/μ + ρ/(2μ(1−ρ))`.
#[must_use]
pub fn md1_response(lambda: f64, mu: f64) -> Option<f64> {
    if !(lambda >= 0.0 && lambda < mu) {
        return None;
    }
    let rho = lambda / mu;
    Some(1.0 / mu + rho / (2.0 * mu * (1.0 - rho)))
}

/// The §3.2 degradation scenario: `clients` nodes force `force_rate`
/// times/sec to N of the *live* servers each; each force costs the server
/// `service_us` microseconds. Returns mean per-force response time in
/// microseconds for a given number of down servers, or `None` once the
/// survivors saturate.
#[derive(Clone, Copy, Debug)]
pub struct DegradationModel {
    /// Client nodes.
    pub clients: u64,
    /// Forces per second per client.
    pub force_rate: f64,
    /// Copies per force (N).
    pub n: u64,
    /// Total servers (M).
    pub m: u64,
    /// Server service time per force, microseconds.
    pub service_us: f64,
}

impl DegradationModel {
    /// The §4.1 target: 50 clients × 10 forces/s, N = 2, M = 6, with a
    /// generous 200 µs per force (NVRAM copy + protocol processing).
    #[must_use]
    pub fn paper_target() -> Self {
        DegradationModel {
            clients: 50,
            force_rate: 10.0,
            n: 2,
            m: 6,
            service_us: 200.0,
        }
    }

    /// Mean response (µs) with `down` servers failed, M/D/1 service.
    #[must_use]
    pub fn response_with_down(&self, down: u64) -> Option<f64> {
        let live = self.m.checked_sub(down)?;
        if live < self.n {
            return None; // WriteLog unavailable outright
        }
        let total_forces = self.clients as f64 * self.force_rate * self.n as f64;
        let lambda = total_forces / live as f64;
        let mu = 1.0e6 / self.service_us;
        md1_response(lambda, mu).map(|w| w * 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_basics() {
        // λ=0: response = service time.
        assert!((mm1_response(0.0, 100.0).unwrap() - 0.01).abs() < 1e-12);
        // Half load doubles the M/M/1 response.
        assert!((mm1_response(50.0, 100.0).unwrap() - 0.02).abs() < 1e-12);
        // Unstable.
        assert_eq!(mm1_response(100.0, 100.0), None);
        assert_eq!(mm1_response(150.0, 100.0), None);
    }

    #[test]
    fn md1_below_mm1() {
        // Deterministic service halves the *waiting* component relative to
        // exponential, so M/D/1 response is strictly below M/M/1 under load.
        for lambda in [10.0, 50.0, 90.0] {
            let md1 = md1_response(lambda, 100.0).unwrap();
            let mm1 = mm1_response(lambda, 100.0).unwrap();
            assert!(md1 < mm1, "λ={lambda}: {md1} !< {mm1}");
            assert!(md1 >= 0.01, "never below the service time");
        }
        // At λ→0 both converge to the service time.
        assert!((md1_response(1e-9, 100.0).unwrap() - 0.01).abs() < 1e-6);
    }

    /// §3.2's qualitative claim, quantified: losing servers degrades
    /// response monotonically but the system stays far from saturation at
    /// the paper's load until almost every server is gone.
    #[test]
    fn degradation_is_graceful_at_paper_load() {
        let m = DegradationModel::paper_target();
        let baseline = m.response_with_down(0).unwrap();
        let mut prev = baseline;
        for down in 1..=4 {
            let r = m.response_with_down(down).unwrap();
            assert!(r > prev, "response must degrade with {down} down");
            prev = r;
        }
        // With 4 of 6 down, the two survivors carry 500 forces/s each at
        // 5000/s capacity: only 10% utilization — response grows but stays
        // within 2x of baseline. ("Hardly ever" unavailable, mild slowdown.)
        let worst = m.response_with_down(4).unwrap();
        assert!(
            worst < 2.0 * baseline,
            "worst {worst} vs baseline {baseline}"
        );
        // Below N survivors: unavailable.
        assert_eq!(m.response_with_down(5), None);
    }

    #[test]
    fn saturation_detected() {
        // Crank the load until survivors saturate.
        let m = DegradationModel {
            clients: 50,
            force_rate: 10.0,
            n: 2,
            m: 6,
            service_us: 5000.0, // slow disk-bound server: 200 forces/s
        };
        // All up: 1000 total forces over 6 servers = 167/s each < 200 ok.
        assert!(m.response_with_down(0).is_some());
        // 2 down: 250/s each > 200 capacity — unstable.
        assert_eq!(m.response_with_down(2), None);
    }

    /// The reference `md1_response` and `mm1_response` are checked
    /// against: a discrete-event single-server FIFO queue with Poisson
    /// arrivals (exponential inter-arrival times) and deterministic or
    /// exponential service.
    mod queue {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Service-time distribution.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Service {
            /// Fixed service time (M/D/1) — a force that is a bounded memory copy.
            Deterministic,
            /// Exponential service time (M/M/1).
            Exponential,
        }

        /// Queue simulation parameters.
        #[derive(Clone, Debug)]
        pub struct QueueSimParams {
            /// Arrival rate λ (jobs/sec).
            pub lambda: f64,
            /// Service rate μ (jobs/sec); mean service time is 1/μ.
            pub mu: f64,
            /// Distribution of service times.
            pub service: Service,
            /// Jobs to simulate.
            pub jobs: usize,
            /// RNG seed.
            pub seed: u64,
        }

        /// Simulation outcome.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct QueueSimReport {
            /// Mean response time (wait + service), seconds.
            pub mean_response: f64,
            /// 99th-percentile response time.
            pub p99_response: f64,
            /// Mean server utilization (busy fraction).
            pub utilization: f64,
        }

        /// Run the single-server FIFO queue.
        #[must_use]
        pub fn run(params: &QueueSimParams) -> QueueSimReport {
            assert!(params.lambda > 0.0 && params.mu > 0.0);
            let mut rng = StdRng::seed_from_u64(params.seed);
            let mut exp = |mean: f64| -> f64 {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            };
            let mut arrival = 0.0f64;
            let mut server_free_at = 0.0f64;
            let mut busy_time = 0.0f64;
            let mut responses: Vec<f64> = Vec::with_capacity(params.jobs);
            for _ in 0..params.jobs {
                arrival += exp(1.0 / params.lambda);
                let service = match params.service {
                    Service::Deterministic => 1.0 / params.mu,
                    Service::Exponential => exp(1.0 / params.mu),
                };
                let start = arrival.max(server_free_at);
                server_free_at = start + service;
                busy_time += service;
                responses.push(server_free_at - arrival);
            }
            responses.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let mean = responses.iter().sum::<f64>() / responses.len() as f64;
            let p99 = responses[(responses.len() as f64 * 0.99) as usize - 1];
            QueueSimReport {
                mean_response: mean,
                p99_response: p99,
                utilization: busy_time / server_free_at,
            }
        }
    }

    use queue::{run, QueueSimParams, QueueSimReport, Service};

    fn sim(lambda: f64, mu: f64, service: Service) -> QueueSimReport {
        run(&QueueSimParams {
            lambda,
            mu,
            service,
            jobs: 400_000,
            seed: 99,
        })
    }

    #[test]
    fn md1_matches_pollaczek_khinchine() {
        for lambda in [20.0, 50.0, 80.0] {
            let s = sim(lambda, 100.0, Service::Deterministic);
            let analytic = md1_response(lambda, 100.0).unwrap();
            let rel = (s.mean_response - analytic).abs() / analytic;
            assert!(
                rel < 0.03,
                "λ={lambda}: sim {} vs analytic {analytic} ({rel:.3})",
                s.mean_response
            );
            let rho = lambda / 100.0;
            assert!((s.utilization - rho).abs() < 0.02);
        }
    }

    #[test]
    fn mm1_matches_closed_form() {
        for lambda in [20.0, 50.0, 80.0] {
            let s = sim(lambda, 100.0, Service::Exponential);
            let analytic = mm1_response(lambda, 100.0).unwrap();
            let rel = (s.mean_response - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "λ={lambda}: sim {} vs analytic {analytic} ({rel:.3})",
                s.mean_response
            );
        }
    }

    #[test]
    fn deterministic_service_beats_exponential() {
        let d = sim(70.0, 100.0, Service::Deterministic);
        let m = sim(70.0, 100.0, Service::Exponential);
        assert!(d.mean_response < m.mean_response);
        assert!(d.p99_response < m.p99_response);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = QueueSimParams {
            lambda: 50.0,
            mu: 100.0,
            service: Service::Deterministic,
            jobs: 10_000,
            seed: 7,
        };
        assert_eq!(run(&p), run(&p));
    }
}
