//! The rule catalog. Each rule is a standalone module; the flow-sensitive
//! rules implement [`crate::dataflow::DataflowRule`] and run on the CFG
//! engine, and every other rule keeps a bespoke driver block in
//! [`crate::workspace`]. See `docs/LINT.md` for the catalog and
//! rationale.

pub mod ack_after_force;
pub mod blocking_under_lock;
pub mod hot_path_alloc;
pub mod lock_order;
pub mod lsn_checked_arith;
pub mod seal_typestate;
pub mod status_parity;
pub mod unbounded_recursion;

/// Every rule identifier the catalog can emit, for `lint.allow`
/// validation — an allowlist entry naming an unknown rule is a typo
/// that would otherwise be silently dead forever.
pub const ALL_RULES: &[&str] = &[
    lock_order::RULE,
    ack_after_force::RULE,
    status_parity::RULE,
    blocking_under_lock::RULE,
    lsn_checked_arith::RULE,
    seal_typestate::RULE,
    hot_path_alloc::RULE,
    unbounded_recursion::RULE,
];
