//! The one fault interpreter: every transport that injects faults draws
//! each send's fate from [`Faults`], so a seed is one schedule on the
//! threaded [`MemNetwork`](crate::MemNetwork) and in a single-threaded
//! world alike. Under a faulty plan a send draws loss, then duplication
//! (if its probability is above zero), then a hold (if reordering's is);
//! one frame per destination, in either direction, is held until the
//! next send to that destination and delivered behind it. Partitions and
//! downed nodes are topology, not fates, and stay with the network.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::wire::NodeAddr;

/// Fault-injection parameters. All probabilities are per-packet.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Probability a packet is silently dropped.
    pub loss: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is held and delivered after its successor.
    pub reorder: f64,
    /// RNG seed; identical seeds give identical fault schedules.
    pub seed: u64,
}

impl FaultPlan {
    /// A perfectly reliable network.
    #[must_use]
    pub fn reliable() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            seed: 0,
        }
    }

    /// A mildly misbehaving LAN (1% loss, 0.5% duplication, 2% reorder).
    #[must_use]
    pub fn flaky(seed: u64) -> Self {
        FaultPlan {
            loss: 0.01,
            duplicate: 0.005,
            reorder: 0.02,
            seed,
        }
    }

    /// Test hook: a severely misbehaving network for stress tests.
    #[must_use]
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            loss: 0.15,
            duplicate: 0.05,
            reorder: 0.10,
            seed,
        }
    }

    /// True if a send under this plan can meet any fault.
    pub(crate) fn faulty(&self) -> bool {
        self.loss > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0
    }
}

/// One send's fate: `None` if the frame is lost, else what to deliver
/// now, each frame with its sender, in order: the frame itself (unless it
/// is held back), the frame held earlier for its destination (released
/// behind it), and a duplicate.
pub type Fate<T> = Option<[Option<(NodeAddr, T)>; 3]>;

/// A seeded fault schedule over frames of type `T`: the RNG a
/// [`FaultPlan`] seeds, and the frame held back for each destination.
pub struct Faults<T> {
    /// The plan each send is drawn under; a test may change it mid-run.
    pub plan: FaultPlan,
    rng: StdRng,
    held: HashMap<NodeAddr, (NodeAddr, T)>,
}

impl<T: Clone> Faults<T> {
    /// A schedule seeded by `plan.seed`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Faults {
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            held: HashMap::new(),
        }
    }

    /// The fate of `frame`, sent from `from` to `to`. A reliable plan
    /// draws nothing and delivers it.
    pub fn fate(&mut self, from: NodeAddr, to: NodeAddr, frame: T) -> Fate<T> {
        let plan = self.plan;
        if !plan.faulty() {
            return Some([Some((from, frame)), None, None]);
        }
        if self.rng.gen_bool(plan.loss) {
            return None;
        }
        let copy = (plan.duplicate > 0.0 && self.rng.gen_bool(plan.duplicate))
            .then(|| (from, frame.clone()));
        let hold = plan.reorder > 0.0 && self.rng.gen_bool(plan.reorder);
        Some(match self.held.remove(&to) {
            Some(released) => [Some((from, frame)), Some(released), copy],
            None if hold => {
                self.held.insert(to, (from, frame));
                [None, None, copy]
            }
            None => [Some((from, frame)), None, copy],
        })
    }

    /// One more draw from the plan's stream: true with probability `p`.
    pub fn roll(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}
