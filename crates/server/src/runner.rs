//! Single-server runner: a one-shard [`ShardSupervisor`].

use std::sync::Arc;

use dlog_net::Endpoint;

use crate::shard::ShardSupervisor;
use crate::LogServer;

/// Handle to a running server thread: the supervisor's N = 1 case, whose
/// loop receives from the endpoint directly.
pub struct ServerRunner(ShardSupervisor);

impl ServerRunner {
    /// Spawn a thread that receives packets from `endpoint`, feeds them to
    /// `server`, and transmits its replies, until stopped.
    #[must_use]
    pub fn spawn<E: Endpoint + Sync + 'static>(server: LogServer, endpoint: E) -> ServerRunner {
        ServerRunner(ShardSupervisor::spawn_direct(
            vec![server],
            Arc::new(endpoint),
        ))
    }

    /// Stop the thread and recover the server (with its store).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "a one-shard supervisor hands back exactly one server at shutdown; anything else is a bug in the supervisor"
    )]
    pub fn stop(self) -> LogServer {
        self.0.stop().pop().expect("one shard was spawned")
    }

    /// Simulate a hard crash ([`ShardSupervisor::crash`]); returns the durable stream end.
    pub fn crash(self) -> u64 {
        self.0.crash().pop().unwrap_or(0)
    }
}
