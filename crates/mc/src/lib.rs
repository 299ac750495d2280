//! `dlog-mc`: an explicit-state model checker for the protocol core.
//!
//! The paper's correctness story rests on a handful of invariants —
//! WriteLog atomicity via epoch + present flags (§3.1.2), δ-bounded
//! recovery and force-before-ack (§4.2), and the group-commit obligation
//! rule (no `ForceLog` ack without a completed durable round). The
//! property-test suites check them on the interleavings proptest
//! happens to sample; this crate checks them on **all** interleavings
//! of {deliver, drop, duplicate, client step, retransmit, group-commit
//! flush, server crash, server recover} up to a bounded depth, driving
//! the *real* `LogServer` and `LogStore` — not an abstraction — through
//! a nondeterministic packet bag.
//!
//! Layout:
//!
//! * [`spec`] — the safety spec: one abstract state whose guarded steps
//!   are every check, and [`spec::check_trace`] for real servers' traces.
//! * [`harness`] — the one thread-free server world (`ServerWorld`):
//!   boot, shard routing, group-commit flush, crash/recover over
//!   surviving NVRAM, and the spec's ack half. The synchronous
//!   cluster (`SyncWorld` / `SyncEndpoint`) holds it for
//!   `tests/trace_determinism.rs`, `tests/group_commit.rs` and the
//!   client's deterministic protocol tests (`sync_cluster`).
//! * [`model`] — the checker's world over the same `ServerWorld`: the
//!   action alphabet, a steppable model client, canonical state
//!   fingerprinting, and the map from each action onto spec steps.
//! * [`explore`] — BFS frontier exploration with visited-state dedup, a
//!   random-walk mode for beyond-frontier depths, counterexample
//!   minimization, and trace replay for pinned regressions.
//!
//! States are restored by **replay**: `LogServer` holds real files and
//! cannot be cloned, so each explored state is reached by replaying its
//! action prefix from a fresh root world in a scratch directory. Every
//! action is deterministic (the checker draws no randomness inside a
//! transition), so replay is exact — which is also what makes a found
//! counterexample a replayable artifact rather than a flaky anecdote.

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
#![warn(missing_docs)]

pub mod explore;
pub mod harness;
pub mod model;
pub mod spec;

pub use explore::{render_counterexample, replay_trace, CounterExample, Explorer, Report};
pub use model::{mc_payload, Action, ClientOp, McConfig, McWorld, Mutation};
pub use spec::Violation;
