//! Frontier exploration: breadth-first search over action prefixes with
//! visited-state dedup, a seeded random-walk mode for depths the
//! exhaustive frontier cannot reach, counterexample minimization, and
//! trace replay for pinned regressions.
//!
//! `LogServer` owns real files and cannot be cloned, so a state is
//! restored by replaying its action prefix from a fresh root world in
//! the scratch directory (every transition is deterministic — see the
//! crate docs). BFS therefore costs one replay per *edge*, which is
//! exactly why the model keeps its per-state footprint tiny: a replay
//! is a directory wipe, a couple of store opens, and a handful of
//! in-memory packet routes.

use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dlog_obs::ObsSnapshot;

use crate::model::{Action, McConfig, McWorld};
use crate::spec::Violation;

/// A violating action trace, minimized and replayable.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The minimized trace; replaying it from a fresh world reproduces
    /// the violation on its final action.
    pub trace: Vec<Action>,
    /// What broke.
    pub violation: Violation,
    /// Length of the trace as originally found, before minimization.
    pub original_len: usize,
}

/// What an exploration did and found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct states visited (by canonical fingerprint).
    pub states_unique: u64,
    /// Successor states that deduplicated onto an already-visited
    /// fingerprint.
    pub dedup_hits: u64,
    /// Fresh root worlds built (one per edge in BFS, one per walk in
    /// walk mode, plus minimization probes).
    pub replays: u64,
    /// Total actions applied across all replays.
    pub actions_applied: u64,
    /// Deepest trace length reached.
    pub max_depth: usize,
    /// Wall-clock time.
    pub elapsed_ms: u64,
    /// The minimized counterexample, if an invariant broke.
    pub violation: Option<CounterExample>,
}

enum Outcome {
    Clean(Box<McWorld>),
    Violated {
        at: usize,
        violation: Violation,
    },
    /// The trace is not applicable from the root state (an action
    /// referenced a bag slot or budget that does not exist) — possible
    /// only for hand-edited or minimization-candidate traces.
    Invalid(String),
}

/// Replay `trace` from a fresh root world in `dir`, stopping at the
/// first violation. Actions before index `checked_from` are applied
/// with the fast path ([`McWorld::apply_unchecked`]) — BFS uses this
/// for prefixes already verified clean when first explored; pass 0 to
/// fully check every action (pinned replays, minimization candidates).
/// Counts the replay and its actions in `report`.
fn run_trace(
    cfg: &McConfig,
    dir: &Path,
    trace: &[Action],
    checked_from: usize,
    report: &mut Report,
) -> Result<Outcome, String> {
    let mut world = McWorld::new(cfg, dir)?;
    report.replays = report.replays.saturating_add(1);
    for (at, action) in trace.iter().enumerate() {
        report.actions_applied = report.actions_applied.saturating_add(1);
        let stepped = if at < checked_from {
            world.apply_unchecked(*action)
        } else {
            world.apply(*action)
        };
        match stepped {
            Ok(None) => {}
            Ok(Some(violation)) => return Ok(Outcome::Violated { at, violation }),
            Err(e) => return Ok(Outcome::Invalid(e)),
        }
    }
    Ok(Outcome::Clean(Box::new(world)))
}

/// Replay a pinned trace from a fresh world under `dir`, returning the
/// violation it reproduces (or `None` if it runs clean).
///
/// # Errors
/// Scratch-dir failures, or a trace that is not applicable from the
/// initial state.
pub fn replay_trace(
    cfg: &McConfig,
    trace: &[Action],
    dir: &Path,
) -> Result<Option<Violation>, String> {
    match run_trace(cfg, dir, trace, 0, &mut Report::default())? {
        Outcome::Clean(_) => Ok(None),
        Outcome::Violated { violation, .. } => Ok(Some(violation)),
        Outcome::Invalid(e) => Err(format!("trace not applicable: {e}")),
    }
}

/// The bounded explorer. One instance owns one scratch directory; the
/// root world is rebuilt there for every replay.
pub struct Explorer {
    cfg: McConfig,
    scratch: PathBuf,
}

/// A scratch directory for world state: RAM-backed when the platform
/// offers `/dev/shm` (a replay is a directory wipe plus store reopens,
/// so keeping it off rotating storage is the single biggest speedup),
/// falling back to the system temp dir.
#[must_use]
pub fn default_scratch(tag: &str) -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let base = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    base.join(format!("dlog-mc-{}-{tag}", std::process::id()))
}

impl Explorer {
    /// An explorer for `cfg` working under `scratch` (created/wiped on
    /// demand).
    #[must_use]
    pub fn new(cfg: &McConfig, scratch: &Path) -> Explorer {
        Explorer {
            cfg: cfg.clone(),
            scratch: scratch.to_path_buf(),
        }
    }

    /// Exhaustive breadth-first exploration of every action
    /// interleaving up to `max_depth` actions, deduplicating on
    /// canonical fingerprints. Returns on the first invariant violation
    /// (with a minimized counterexample) or when the frontier is
    /// exhausted.
    ///
    /// # Errors
    /// Scratch-dir failures, or an internal inconsistency (an enabled
    /// action failing to apply on replay).
    pub fn run_bfs(&self, max_depth: usize) -> Result<Report, String> {
        let started = Instant::now();
        let mut report = Report::default();
        let mut visited: HashSet<u64> = HashSet::new();

        let mut root = match run_trace(&self.cfg, &self.scratch, &[], 0, &mut report)? {
            Outcome::Clean(w) => w,
            Outcome::Violated { violation, .. } => {
                // The initial state itself is broken — nothing to
                // minimize.
                report.violation = Some(CounterExample {
                    trace: Vec::new(),
                    violation,
                    original_len: 0,
                });
                return Ok(self.finish(report, started));
            }
            Outcome::Invalid(e) => return Err(e),
        };
        visited.insert(root.fingerprint());
        report.states_unique = 1;

        let mut frontier: VecDeque<(Vec<Action>, Vec<Action>)> = VecDeque::new();
        frontier.push_back((Vec::new(), root.enabled_actions()));

        while let Some((prefix, enabled)) = frontier.pop_front() {
            for action in enabled {
                let mut trace = prefix.clone();
                trace.push(action);
                report.max_depth = report.max_depth.max(trace.len());
                let outcome =
                    run_trace(&self.cfg, &self.scratch, &trace, prefix.len(), &mut report)?;
                let mut world = match outcome {
                    Outcome::Clean(w) => w,
                    Outcome::Violated { at, violation } => {
                        trace.truncate(at.saturating_add(1));
                        report.violation = Some(self.minimize(&trace, violation, &mut report)?);
                        return Ok(self.finish(report, started));
                    }
                    Outcome::Invalid(e) => {
                        return Err(format!(
                            "enabled action {action} failed on replay of {}-action \
                             prefix: {e}",
                            prefix.len()
                        ));
                    }
                };
                let fp = world.fingerprint();
                if !visited.insert(fp) {
                    report.dedup_hits = report.dedup_hits.saturating_add(1);
                    continue;
                }
                report.states_unique = report.states_unique.saturating_add(1);
                if trace.len() < max_depth {
                    let next = world.enabled_actions();
                    if !next.is_empty() {
                        frontier.push_back((trace, next));
                    }
                }
            }
        }
        Ok(self.finish(report, started))
    }

    /// Seeded random walks: `walks` independent runs of up to `depth`
    /// actions each, sampling one enabled action per step with an
    /// xorshift generator. Reaches interleaving depths the exhaustive
    /// frontier cannot, at the price of coverage guarantees.
    ///
    /// # Errors
    /// Scratch-dir failures.
    pub fn run_walk(&self, walks: u64, depth: usize, seed: u64) -> Result<Report, String> {
        let started = Instant::now();
        let mut report = Report::default();
        let mut visited: HashSet<u64> = HashSet::new();
        // Xorshift needs a nonzero state; fold seed 0 onto the golden
        // ratio constant.
        let mut s: u64 = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };

        for _ in 0..walks {
            let mut world = McWorld::new(&self.cfg, &self.scratch)?;
            report.replays = report.replays.saturating_add(1);
            let mut trace: Vec<Action> = Vec::new();
            for _ in 0..depth {
                let enabled = world.enabled_actions();
                if enabled.is_empty() {
                    break;
                }
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let idx = (s % enabled.len() as u64) as usize;
                let Some(action) = enabled.get(idx).copied() else {
                    break;
                };
                trace.push(action);
                report.max_depth = report.max_depth.max(trace.len());
                report.actions_applied = report.actions_applied.saturating_add(1);
                match world.apply(action) {
                    Ok(None) => {}
                    Ok(Some(violation)) => {
                        report.violation = Some(self.minimize(&trace, violation, &mut report)?);
                        return Ok(self.finish(report, started));
                    }
                    Err(e) => return Err(format!("enabled action {action} failed mid-walk: {e}")),
                }
                let fp = world.fingerprint();
                if visited.insert(fp) {
                    report.states_unique = report.states_unique.saturating_add(1);
                } else {
                    report.dedup_hits = report.dedup_hits.saturating_add(1);
                }
            }
        }
        Ok(self.finish(report, started))
    }

    /// Shrink a violating trace: repeatedly try removing one action at
    /// a time (right to left), keeping a removal when the replay still
    /// violates the *same* invariant. Candidates that become
    /// inapplicable (e.g. a `recover` whose `crash` was removed) are
    /// skipped. Also truncates to the violating action, since nothing
    /// after it matters.
    fn minimize(
        &self,
        trace: &[Action],
        violation: Violation,
        report: &mut Report,
    ) -> Result<CounterExample, String> {
        let original_len = trace.len();
        let invariant = violation.invariant;
        let mut current = trace.to_vec();
        let mut best = violation;
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = current.len();
            while i > 0 {
                i = i.saturating_sub(1);
                let mut candidate = current.clone();
                candidate.remove(i);
                match run_trace(&self.cfg, &self.scratch, &candidate, 0, report)? {
                    Outcome::Violated { at, violation: v } if v.invariant == invariant => {
                        candidate.truncate(at.saturating_add(1));
                        current = candidate;
                        best = v;
                        changed = true;
                        // Keep scanning from the same index in the now
                        // shorter trace.
                        i = i.min(current.len());
                    }
                    _ => {}
                }
            }
        }
        Ok(CounterExample {
            trace: current,
            violation: best,
            original_len,
        })
    }

    fn finish(&self, mut report: Report, started: Instant) -> Report {
        report.elapsed_ms = started.elapsed().as_millis() as u64;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort scratch cleanup: a directory left behind costs disk, not correctness"
        )]
        let _ = std::fs::remove_dir_all(&self.scratch);
        report
    }
}

fn push_trace_lines(out: &mut String, snap: &ObsSnapshot) {
    for e in &snap.trace {
        out.push_str(&format!(
            "  [{:>4}] {:<12} lsn={:<6} detail={}\n",
            e.seq,
            e.stage.name(),
            e.lsn,
            e.detail
        ));
    }
}

/// Replay a counterexample and render it for humans: the violated
/// invariant, the minimized action trace in replayable syntax, and the
/// world + per-server observability traces (crash/recover markers
/// inline), all through the `dlog-obs` stage machinery.
///
/// # Errors
/// Scratch-dir failures while replaying.
pub fn render_counterexample(
    cfg: &McConfig,
    ce: &CounterExample,
    dir: &Path,
) -> Result<String, String> {
    let mut world = McWorld::new(cfg, dir)?;
    let mut replayed = ce.violation.clone();
    for action in &ce.trace {
        if let Some(v) = world.apply(*action)? {
            replayed = v;
            break;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "violated invariant: {}\n  {}\n",
        replayed.invariant, replayed.detail
    ));
    out.push_str(&format!(
        "minimized trace ({} actions, found at {}):\n",
        ce.trace.len(),
        ce.original_len
    ));
    for action in &ce.trace {
        out.push_str(&format!("  {action}\n"));
    }
    if let Some(snap) = world.world_obs().snapshot() {
        out.push_str("world trace:\n");
        push_trace_lines(&mut out, &snap);
    }
    for (sid, obs) in world.server_obs() {
        if let Some(snap) = obs.snapshot() {
            out.push_str(&format!("server {sid} trace:\n"));
            push_trace_lines(&mut out, &snap);
        }
    }
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort scratch cleanup: a directory left behind costs disk, not correctness"
    )]
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}
