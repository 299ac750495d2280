//! Figure 3-4 (§3.2) and Appendix I, checked exactly on the shipped
//! client. For every M ∈ 2..=5, N ∈ {2, 3} with N ≤ M, and every set of
//! servers that is up, a fresh synchronous world runs the shipped
//! `ReplicatedLog` and `EpochGenerator`, and each operation's outcome is
//! asserted against the number of servers it needs:
//!
//! * `WriteLog` needs N servers up (§3.2);
//! * `ReadLog` of a record needs one of its N holders up (§3.2);
//! * `NewID` needs a majority of the M representatives (Appendix I);
//! * client initialization needs max(M − N + 1, N): §3.2's M − N + 1 to
//!   merge interval lists, and N targets to install the δ rewrite on.
//!
//! Summing pᵈᵒʷⁿ(1 − p)ᵘᵖ over the up-sets where an operation succeeded
//! gives its availability with no sampling. It is asserted against
//! `dlog_analysis::availability` and printed by
//! `cargo test -p dlog-bench --test availability -- --nocapture`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlog_analysis::availability::{
    generator_availability, init_availability, read_availability, write_availability,
};
use dlog_analysis::table::{fmt_prob, Table};
use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::epoch::EpochGenerator;
use dlog_core::net::ClientNet;
use dlog_mc::harness::{build_world, SyncEndpoint, SyncWorld, SyncWorldOptions};
use dlog_net::wire::NodeAddr;
use dlog_net::FaultPlan;
use dlog_obs::Obs;
use dlog_types::{ClientId, DlogError, Lsn, ReplicationConfig, Result, ServerId};

/// Per-server unavailability, as in Figure 3-4.
const P: f64 = 0.05;

/// The δ the `dlog` CLI uses by default.
const DELTA: u64 = 8;

/// A generator id no client uses (clients draw epochs from their own).
const GENERATOR: u64 = 1_000;

fn servers(m: u64) -> Vec<ServerId> {
    (1..=m).map(ServerId).collect()
}

/// `m` servers, all up, on a reliable sync world under a fresh directory.
fn world(tag: &str, m: u64) -> (PathBuf, Arc<Mutex<SyncWorld>>) {
    let dir = std::env::temp_dir()
        .join("dlog-availability")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SyncWorldOptions::shared(m, FaultPlan::reliable(), Obs::default());
    let world = build_world(&dir, opts).expect("build world");
    (dir, world)
}

/// A client endpoint whose RPC waits are cut to a millisecond: nothing
/// ever arrives late in a synchronous world.
fn net(world: &Arc<Mutex<SyncWorld>>, m: u64) -> ClientNet<SyncEndpoint> {
    let addrs: HashMap<ServerId, NodeAddr> =
        servers(m).into_iter().map(|s| (s, NodeAddr(s.0))).collect();
    let mut net = ClientNet::new(SyncEndpoint::new(NodeAddr(1000), Arc::clone(world)), addrs);
    net.rpc_timeout = Duration::from_millis(1);
    net.rpc_retries = 1;
    net
}

/// An incarnation of client 1 with the shipped options; only the ack
/// wait is cut, like the RPC waits.
fn client(world: &Arc<Mutex<SyncWorld>>, m: u64, n: usize) -> ReplicatedLog<SyncEndpoint> {
    let mut opts = ClientOptions::new(ReplicationConfig::new(servers(m), n, DELTA).unwrap());
    opts.ack_timeout = Duration::from_millis(1);
    ReplicatedLog::new(ClientId(1), opts, net(world, m))
}

/// Whether `result` succeeded; a failure must be a typed quorum loss.
fn succeeded<T>(result: Result<T>, what: &str) -> bool {
    match result {
        Ok(_) => true,
        Err(DlogError::QuorumUnavailable {
            needed, available, ..
        }) => {
            assert!(available < needed, "{what}: {available} of {needed} failed");
            false
        }
        Err(e) => panic!("{what}: expected QuorumUnavailable, got {e:?}"),
    }
}

/// What one up-set allowed.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Outcome {
    write: bool,
    read: bool,
    init: bool,
    new_id: bool,
}

/// One world: client A initializes, writes and forces 3 records with
/// every server up; the servers outside `up` (bit `s − 1` for server
/// `s`) crash; A writes and forces a fourth and reads the first 3; then
/// a fresh incarnation initializes and a separate generator draws
/// `NewID`.
fn run_case(m: u64, n: usize, up: u32) -> Outcome {
    let (dir, world) = world(&format!("m{m}-n{n}-up{up:05b}"), m);
    let is_up = |s: ServerId| up & (1 << (s.0 - 1)) != 0;
    let k = up.count_ones() as usize;

    let mut a = client(&world, m, n);
    a.initialize().unwrap();
    for i in 1..=3u8 {
        a.write(vec![i; 16]).unwrap();
    }
    assert_eq!(a.force().unwrap(), Lsn(3));
    let holders = a.targets().to_vec();
    for s in servers(m).into_iter().filter(|&s| !is_up(s)) {
        assert!(world.lock().unwrap().servers.crash(s.0).is_some());
    }

    a.write(vec![4u8; 16]).unwrap();
    let forced = a.force();
    if let Err(DlogError::QuorumUnavailable { available, .. }) = &forced {
        assert!(*available <= k, "write: {available} acked with {k} up");
    }
    let write = succeeded(forced, "write");
    let reads: Vec<bool> = (1..=3).map(|i| succeeded(a.read(Lsn(i)), "read")).collect();
    assert!(reads.iter().all(|&r| r == reads[0]), "reads {reads:?}");
    // A crashes: its packets still queued die with it.
    drop(a);
    world.lock().unwrap().inbox.clear();

    let init = succeeded(client(&world, m, n).initialize(), "init");
    world.lock().unwrap().inbox.clear();
    let generator = EpochGenerator::new(GENERATOR, servers(m));
    let new_id = succeeded(generator.new_id(&mut net(&world, m)), "NewID");

    let outcome = Outcome {
        write,
        read: reads[0],
        init,
        new_id,
    };
    let majority = m as usize / 2 + 1;
    let expected = Outcome {
        write: k >= n,
        read: holders.iter().any(|&s| is_up(s)),
        init: k >= (m as usize - n + 1).max(n),
        new_id: k >= majority,
    };
    assert_eq!(outcome, expected, "M={m} N={n} up={up:05b}");
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn close(got: f64, want: f64, what: &str) {
    assert!((got - want).abs() < 1e-12, "{what}: {got} vs {want}");
}

/// Every up-set of M servers for each N; asserts the availabilities
/// and prints M's rows of Figure 3-4 and Appendix I.
fn check(m: u64) {
    let mut fig = Table::new(vec![
        "N",
        "M",
        "write (shipped)",
        "write (§3.2)",
        "init (shipped)",
        "init (§3.2)",
        "read (shipped)",
    ]);
    let mut new_id_availability = None;
    for n in (2..=3).filter(|&n| n <= m as usize) {
        let (mut write, mut read, mut init, mut new_id) = (0.0, 0.0, 0.0, 0.0);
        for up in 0..1u32 << m {
            let o = run_case(m, n, up);
            let k = up.count_ones() as i32;
            let weight = P.powi(m as i32 - k) * (1.0 - P).powi(k);
            for (ok, sum) in [
                (o.write, &mut write),
                (o.read, &mut read),
                (o.init, &mut init),
                (o.new_id, &mut new_id),
            ] {
                if ok {
                    *sum += weight;
                }
            }
        }
        let n64 = n as u64;
        let paper_write = write_availability(m, n64, P);
        let paper_init = init_availability(m, n64, P);
        close(write, paper_write, "write");
        close(read, read_availability(n64, P), "read");
        close(new_id, generator_availability(m, P), "NewID");
        // Initialization needs both §3.2's M − N + 1 and N targets.
        close(init, paper_init.min(paper_write), "init");
        fig.row(vec![
            n.to_string(),
            m.to_string(),
            fmt_prob(write),
            fmt_prob(paper_write),
            fmt_prob(init),
            fmt_prob(paper_init),
            fmt_prob(read),
        ]);
        new_id_availability = Some(new_id);
    }
    let mut gen = Table::new(vec!["R", "NewID (shipped)", "Appendix I"]);
    gen.row(vec![
        m.to_string(),
        fmt_prob(new_id_availability.unwrap()),
        fmt_prob(generator_availability(m, P)),
    ]);
    println!(
        "Figure 3-4, M = {m} (p = {P}):\n{}\nAppendix I, R = {m}:\n{}",
        fig.render(),
        gen.render()
    );
}

#[test]
fn figure_3_4_m2() {
    check(2);
}

#[test]
fn figure_3_4_m3() {
    check(3);
}

#[test]
fn figure_3_4_m4() {
    check(4);
}

#[test]
fn figure_3_4_m5() {
    check(5);
}

/// Appendix I: walking every up-set of R representatives in Gray-code
/// order (one crash or recovery per step) on one world, `NewID`
/// succeeds exactly when a majority is up, and every success is larger
/// than the one before, across crashes and recoveries.
#[test]
fn new_id_increases_along_a_gray_code_walk() {
    for r in 1..=5u64 {
        let (dir, world) = world(&format!("gray-r{r}"), r);
        let generator = EpochGenerator::new(GENERATOR, servers(r));
        let mut net = net(&world, r);
        let mut down = 0u32;
        let mut last = 0u64;
        let mut successes = 0;
        for step in 0..1u32 << r {
            if step > 0 {
                let bit = step.trailing_zeros();
                down ^= 1 << bit;
                let sid = u64::from(bit) + 1;
                let mut w = world.lock().unwrap();
                if down & (1 << bit) != 0 {
                    assert!(w.servers.crash(sid).is_some());
                } else {
                    w.servers.recover(sid, false).unwrap();
                }
            }
            let up = r as usize - down.count_ones() as usize;
            let drawn = generator.new_id(&mut net);
            if let Ok(id) = drawn {
                assert!(id > last, "R={r} step {step}: {id} after {last}");
                last = id;
                successes += 1;
            }
            assert_eq!(
                succeeded(drawn, "NewID"),
                up > r as usize / 2,
                "R={r} step {step}: {up} up"
            );
        }
        assert!(successes > 0, "R={r}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Initialization's δ rewrite with fewer than N servers up must end in
/// a typed error. M = 7, N = 5 with servers 5, 6 and 7 down merges lists
/// and draws an epoch (4 of 7 up), but client 1's targets are servers
/// 2–6: a replacement walk that forgot the servers it already tried
/// would cycle through 5, 6 and 7 forever.
#[test]
fn install_gives_up_once_every_server_was_tried() {
    let (m, n) = (7, 5);
    let (dir, world) = world("install", m);
    let mut a = client(&world, m, n);
    a.initialize().unwrap();
    a.write(vec![1u8; 16]).unwrap();
    a.force().unwrap();
    assert_eq!(a.targets(), &servers(6)[1..]);
    drop(a);
    for s in 5..=7 {
        assert!(world.lock().unwrap().servers.crash(s).is_some());
    }
    world.lock().unwrap().inbox.clear();
    match client(&world, m, n).initialize() {
        Err(DlogError::QuorumUnavailable {
            operation,
            needed,
            available,
        }) => {
            assert_eq!(operation, "recovery InstallCopies");
            assert_eq!((needed, available), (5, 4));
        }
        other => panic!("expected QuorumUnavailable, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
