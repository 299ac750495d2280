//! The rule catalog. Each rule is a standalone module with a `check`
//! over token streams and a timed driver block in [`crate::workspace`].
//! See `docs/LINT.md` for the catalog and rationale.

pub mod ack_after_force;
pub mod blocking_under_lock;
pub mod lock_order;

/// Every rule identifier the catalog can emit; the tier-1 gate checks
/// that each one gets a timed pass.
pub const ALL_RULES: &[&str] = &[
    lock_order::RULE,
    ack_after_force::RULE,
    blocking_under_lock::RULE,
];
