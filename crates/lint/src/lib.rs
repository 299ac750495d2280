//! `dlog-lint` — workspace protocol-invariant static analysis.
//!
//! The paper's correctness story rests on ordering invariants the Rust
//! compiler cannot see: acks must never be sent before the records they
//! cover are forced to stable storage (§4.2). This crate walks the
//! workspace sources with a hand-rolled lexer (no external parser — it
//! must build offline against the vendored stubs) and enforces three
//! repo-specific rules, gated in tier-1 via
//! `tests/lint_gate.rs`. What the compiler *can* see lives in
//! `[workspace.lints]` and clippy instead: `unsafe_code` is forbidden,
//! `unused_must_use` and `unconditional_recursion` denied, and the
//! hot-path crate roots deny the panicking and result-discarding clippy
//! lints (`docs/LINT.md`). So does wire-codec exhaustiveness: each
//! message has one row in its enum's codec table in
//! `crates/net/src/wire.rs`, and a missing row or a duplicated tag fails
//! the build. And so does thread safety: with `unsafe` forbidden,
//! `Send`/`Sync` decide what crosses threads and `Mutex<T>` makes the
//! lock the only way to reach `T`, so an unsynchronised shared write
//! does not compile. Hot-path allocation is a measured count, not a
//! rule: tier-1 tests pin the server's allocations per packet. Two
//! invariants moved next to their data: a unit test in `wire.rs` checks
//! `docs/PROTOCOL.md`'s tag, Status and Stats tables against the codec
//! table, and `SegmentedStream::write_at` refuses a write below the
//! archived watermark. LSN and epoch wraparound is the compiler's as
//! well: `overflow-checks = true` in every profile makes any integer
//! overflow fail stop, and LSN arithmetic goes through `Lsn`'s checked
//! `offset`, `back` and `distance`.
//!
//! Each rule is one walk over token streams; there is no control-flow
//! graph:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `lock-order` | the `.lock()` acquisition graph is acyclic |
//! | `ack-after-force` | `NewHighLsn` construction lexically follows `.force()` or `.force_batch()` (§4.2) |
//! | `blocking-under-lock` | no blocking I/O / channel op while a `MutexGuard` is live (§4.1 latency); a guard lives until its block closes or it is dropped, so brace depth tracks it |
//!
//! There is no allowlist: every finding is fixed in code. See
//! `docs/LINT.md` for the full catalog, how to resolve a finding, and
//! how to add a rule.

#![warn(missing_docs)]

pub mod fixtures;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use report::{Report, Violation};
pub use source::SourceFile;
pub use workspace::{find_root, lint_workspace};
