//! Log repair — §5.3's "repair of a log when one redundant copy is lost".
//!
//! When a log server is lost for good (media failure), the records it
//! held survive on their other holders, but with reduced redundancy. The
//! repair operation restores the invariant "every record on N live
//! servers": it re-reads every under-replicated record from a surviving
//! holder and re-replicates it under a fresh crash epoch using the same
//! `CopyLog` / `InstallCopies` machinery the restart procedure uses — a
//! higher-epoch copy wins every future interval-list merge, so the
//! repaired replicas become the record's authoritative homes.
//!
//! Repair runs on the (single) owning client, between its own writes.

use dlog_net::wire::{Request, Response};
use dlog_net::Endpoint;
use dlog_types::interval::MergedView;
use dlog_types::{DlogError, LogRecord, Lsn, Result, ServerId};

use crate::client::ReplicatedLog;
use crate::epoch::EpochGenerator;

/// Outcome of a repair pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Log servers that answered the liveness probe.
    pub live_servers: usize,
    /// Records examined (the whole merged log).
    pub records_examined: u64,
    /// Records found on fewer than N live servers.
    pub under_replicated: u64,
    /// Records re-replicated.
    pub records_copied: u64,
}

impl<E: Endpoint> ReplicatedLog<E> {
    /// Repair the log: ensure every record is stored on at least N *live*
    /// servers, re-replicating under-replicated records under a fresh
    /// epoch.
    ///
    /// Requires a quiescent client: all writes forced
    /// ([`ReplicatedLog::force`]) before repairing.
    ///
    /// # Errors
    /// Fails when unforced records are pending, when fewer than the init
    /// quorum of servers respond (the survivors cannot prove coverage), or
    /// when a record has lost *all* its copies.
    pub fn repair(&mut self) -> Result<RepairReport> {
        self.ensure_initialized()?;
        if self.has_pending_records() {
            return Err(DlogError::Protocol(
                "repair requires a quiescent log: force() first".into(),
            ));
        }
        let n = self.options().config.n;
        let need = self.options().config.init_quorum();

        // 1. Probe: which servers are alive, and what do they hold?
        let (me, servers) = (self.client_id(), self.options().config.servers.clone());
        let lists = self.net_mut().interval_lists(me, &servers, need);
        if lists.len() < need {
            return Err(DlogError::QuorumUnavailable {
                operation: "repair",
                needed: need,
                available: lists.len(),
            });
        }
        let live: Vec<ServerId> = lists.iter().map(|(s, _)| *s).collect();
        // Reads accept only the copies the client's view names, so the
        // records repair fetches must be named by the view it works from.
        self.adopt_view(MergedView::merge(&lists));

        let mut report = RepairReport {
            live_servers: live.len(),
            ..RepairReport::default()
        };

        // 2. Find under-replicated ranges.
        let mut to_copy: Vec<(Lsn, Vec<ServerId>)> = Vec::new();
        for seg in self.view().segments() {
            for lsn in seg.lo.0..=seg.hi.0 {
                report.records_examined += 1;
                // seg.servers are holders among the *live* respondents.
                if seg.servers.len() < n {
                    report.under_replicated += 1;
                    to_copy.push((Lsn(lsn), seg.servers.clone()));
                }
            }
        }
        if to_copy.is_empty() {
            return Ok(report);
        }

        // 3. Fresh epoch strictly above everything in use.
        let generator =
            EpochGenerator::new(self.client_id().0, self.options().config.servers.clone());
        let mut repair_epoch = generator.new_epoch(self.net_mut())?;
        while repair_epoch <= self.epoch() {
            repair_epoch = generator.new_epoch(self.net_mut())?;
        }

        // 4. Re-replicate each record to N live servers (preferring its
        // current holders so data movement is minimal, then filling with
        // other live servers).
        let mut staged_on: Vec<ServerId> = Vec::new();
        for (lsn, holders) in &to_copy {
            let record = self.fetch(*lsn, 1, holders).map_err(|_| {
                DlogError::Corrupt(format!(
                    "record {lsn} has lost every copy; media recovery from dumps required"
                ))
            })?;
            let mut targets: Vec<ServerId> = holders.clone();
            for &s in &live {
                if targets.len() >= n {
                    break;
                }
                if !targets.contains(&s) {
                    targets.push(s);
                }
            }
            if targets.len() < n {
                return Err(DlogError::QuorumUnavailable {
                    operation: "repair re-replication",
                    needed: n,
                    available: targets.len(),
                });
            }
            let copy = LogRecord {
                lsn: *lsn,
                epoch: repair_epoch,
                present: record.present,
                data: record.data,
            };
            for &t in &targets {
                match self.net_mut().rpc(
                    t,
                    Request::CopyLog {
                        client: me,
                        epoch: repair_epoch,
                        records: vec![copy.clone()],
                    },
                )? {
                    Response::Ok => {
                        if !staged_on.contains(&t) {
                            staged_on.push(t);
                        }
                    }
                    other => {
                        return Err(DlogError::Protocol(format!(
                            "repair CopyLog on {t}: unexpected {other:?}"
                        )))
                    }
                }
            }
            report.records_copied += 1;
        }

        // 5. Atomically install on every touched server.
        for &t in &staged_on {
            match self.net_mut().rpc(
                t,
                Request::InstallCopies {
                    client: me,
                    epoch: repair_epoch,
                },
            )? {
                Response::Ok => {}
                other => {
                    return Err(DlogError::Protocol(format!(
                        "repair InstallCopies on {t}: unexpected {other:?}"
                    )))
                }
            }
        }

        // 6. Adopt the repair epoch for future writes and re-anchor the
        // stream on the current targets (their last interval is now the
        // repair epoch, so the next write needs a declared new interval).
        self.adopt_epoch_after_repair(repair_epoch)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    // Repair is exercised end-to-end in `tests/repair.rs` (it needs a
    // live cluster); unit coverage of the helpers lives in client.rs.
}
