//! Property tests for the highest-epoch-wins interval merge (§3.1.2),
//! checked against a brute-force per-LSN reference model.

use proptest::prelude::*;

use dlog_types::interval::MergedView;
use dlog_types::{Epoch, Interval, IntervalList, Lsn, ServerId};

const MAX_LSN: u64 = 64;

/// Reference model: for each LSN, the set of (server, epoch) entries, from
/// which the winner is computed by scanning every record individually.
fn model_winner(lists: &[(ServerId, IntervalList)], lsn: Lsn) -> Option<(Vec<ServerId>, Epoch)> {
    let mut best: Option<Epoch> = None;
    for (_, list) in lists {
        for iv in list {
            if iv.contains(lsn) {
                best = Some(best.map_or(iv.epoch, |b| b.max(iv.epoch)));
            }
        }
    }
    let epoch = best?;
    let mut servers: Vec<ServerId> = lists
        .iter()
        .filter(|(_, list)| {
            list.intervals()
                .iter()
                .any(|iv| iv.epoch == epoch && iv.contains(lsn))
        })
        .map(|(sid, _)| *sid)
        .collect();
    servers.sort_unstable();
    servers.dedup();
    Some((servers, epoch))
}

/// Generate a valid interval list: non-decreasing epochs, no same-epoch
/// overlap. We mimic a server's life: a cursor walks forward within an
/// epoch; an epoch bump may rewind the cursor (CopyLog-style rewrites).
fn arb_interval_list() -> impl Strategy<Value = IntervalList> {
    proptest::collection::vec((1u64..4, 1u64..8, 0u64..6), 0..6).prop_map(|steps| {
        let mut list = IntervalList::new();
        let mut epoch = 1u64;
        let mut cursor = 1u64;
        for (epoch_bump, gap, len) in steps {
            let new_epoch = epoch + (epoch_bump - 1); // may stay equal
            if new_epoch > epoch {
                // Higher epochs may rewind the LSN cursor (recovery copies).
                cursor = cursor.saturating_sub(3).max(1);
            }
            epoch = new_epoch;
            let lo = cursor + if list.is_empty() { 0 } else { gap };
            let hi = (lo + len).min(MAX_LSN);
            if lo > MAX_LSN || lo > hi {
                continue;
            }
            let iv = Interval::new(Epoch(epoch), Lsn(lo), Lsn(hi));
            if list.push(iv).is_ok() {
                cursor = hi + 1;
            }
        }
        list
    })
}

fn arb_server_lists() -> impl Strategy<Value = Vec<(ServerId, IntervalList)>> {
    proptest::collection::vec(arb_interval_list(), 1..5).prop_map(|lists| {
        lists
            .into_iter()
            .enumerate()
            .map(|(i, l)| (ServerId(i as u64 + 1), l))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The sweep-line merge agrees with the per-LSN brute-force model on
    /// every LSN.
    #[test]
    fn merge_matches_model(lists in arb_server_lists()) {
        let view = MergedView::merge(&lists);
        for lsn in 1..=MAX_LSN {
            let lsn = Lsn(lsn);
            let expected = model_winner(&lists, lsn);
            let got = view.locate(lsn).map(|(s, e)| (s.to_vec(), e));
            prop_assert_eq!(got, expected, "disagreement at {}", lsn);
        }
        // end_of_log is the highest covered LSN.
        let expected_end = (1..=MAX_LSN)
            .rev()
            .find(|&l| model_winner(&lists, Lsn(l)).is_some())
            .map_or(Lsn::ZERO, Lsn);
        prop_assert_eq!(view.end_of_log(), expected_end);
    }

    /// Segments are disjoint, sorted, coalesced, and non-empty.
    #[test]
    fn merge_segments_canonical(lists in arb_server_lists()) {
        let view = MergedView::merge(&lists);
        let segs = view.segments();
        for s in segs {
            prop_assert!(s.lo <= s.hi);
            prop_assert!(!s.servers.is_empty());
        }
        for w in segs.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "segments overlap or are unsorted");
            // Adjacent equal segments must have been coalesced.
            if w[0].hi.precedes(w[1].lo) {
                prop_assert!(
                    w[0].epoch != w[1].epoch || w[0].servers != w[1].servers,
                    "uncoalesced adjacent segments"
                );
            }
        }
    }

    /// Merging is insensitive to the order in which server lists are given.
    #[test]
    fn merge_order_independent(mut lists in arb_server_lists()) {
        let a = MergedView::merge(&lists);
        lists.reverse();
        let b = MergedView::merge(&lists);
        prop_assert_eq!(a, b);
    }

    /// note_write on a merged view matches a re-merge that includes the new
    /// records — noted one LSN at a time, and as one range (the form an
    /// acknowledgment completing several records uses), with the servers
    /// given in either order.
    #[test]
    fn note_write_matches_remerge(lists in arb_server_lists(), count in 1u64..9) {
        let merged = MergedView::merge(&lists);
        let lo = merged.end_of_log().next();
        let hi = Lsn(lo.0 + count - 1);
        // Write the next records at a high epoch to the first two servers.
        let epoch = Epoch(100);
        let targets: Vec<ServerId> = lists.iter().take(2).map(|(s, _)| *s).collect();
        let reversed: Vec<ServerId> = targets.iter().rev().copied().collect();

        let mut one_by_one = merged.clone();
        for lsn in lo.0..=hi.0 {
            one_by_one.note_write(Lsn(lsn), epoch, &targets);
        }
        let mut ranged = merged.clone();
        ranged.note_write_range(lo, hi, epoch, &reversed);
        // Half as one range, the rest as another: the second extends the
        // first's segment instead of opening one.
        let mut split = merged;
        let mid = Lsn(lo.0 + (count - 1) / 2);
        split.note_write_range(lo, mid, epoch, &targets);
        if mid < hi {
            split.note_write_range(mid.next(), hi, epoch, &reversed);
        }
        prop_assert_eq!(&one_by_one, &ranged);
        prop_assert_eq!(&one_by_one, &split);

        let mut lists2 = lists.clone();
        for (sid, list) in &mut lists2 {
            if targets.contains(sid) {
                // A server's §3.1.2 rule: extend the last interval when the
                // range continues it in the same epoch, else start one.
                let mut ivs = list.intervals().to_vec();
                match ivs.last_mut() {
                    Some(last) if last.epoch == epoch && last.hi.precedes(lo) => last.hi = hi,
                    _ => ivs.push(Interval::new(epoch, lo, hi)),
                }
                *list = IntervalList::from_intervals(ivs).unwrap();
            }
        }
        let remerged = MergedView::merge(&lists2);
        prop_assert_eq!(ranged.end_of_log(), remerged.end_of_log());
        for lsn in lo.0..=hi.0 {
            let (s1, e1) = ranged.locate(Lsn(lsn)).unwrap();
            let (s2, e2) = remerged.locate(Lsn(lsn)).unwrap();
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(e1, e2);
        }
    }
}
