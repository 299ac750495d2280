//! Shared pieces of the `dlog` command-line tools: tiny hand-rolled
//! argument parsing (the workspace stays dependency-light) and client
//! construction over UDP.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::SocketAddr;

use dlog_core::client::{ClientOptions, ReplicatedLog};
use dlog_core::net::ClientNet;
use dlog_net::udp::UdpEndpoint;
use dlog_net::wire::NodeAddr;
use dlog_types::{ClientId, ReplicationConfig, ServerId};

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    options: HashMap<String, String>,
    /// Positional arguments in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()[1..]`-style input: `--key value` pairs and
    /// bare positionals, in any order.
    ///
    /// # Errors
    /// Returns a message when a `--key` lacks a value.
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                args.options.insert(key.to_string(), value);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Fetch an option, parsed.
    ///
    /// # Errors
    /// Returns a message on a malformed value.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Fetch an option or a default.
    ///
    /// # Errors
    /// Returns a message on a malformed value.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Fetch a required option.
    ///
    /// # Errors
    /// Returns a message when missing or malformed.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }
}

/// Parse `host:port,host:port,...` into server socket addresses.
///
/// # Errors
/// Returns a message on malformed addresses.
pub fn parse_server_list(list: &str) -> Result<Vec<SocketAddr>, String> {
    list.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad server address {s:?}: {e}"))
        })
        .collect()
}

/// Build a replicated-log client over UDP against the given servers.
///
/// # Errors
/// Returns a message on socket or configuration failures.
pub fn udp_client(
    client_id: u64,
    servers: &[SocketAddr],
    n: usize,
    delta: u64,
) -> Result<ReplicatedLog<UdpEndpoint>, String> {
    let ep = UdpEndpoint::bind(NodeAddr(u64::MAX), "0.0.0.0:0".parse().unwrap())
        .map_err(|e| format!("bind client socket: {e}"))?;
    let mut addrs = HashMap::new();
    let mut ids = Vec::new();
    for (i, &sock) in servers.iter().enumerate() {
        let sid = ServerId(i as u64 + 1);
        ep.add_peer(NodeAddr(sid.0), sock);
        addrs.insert(sid, NodeAddr(sid.0));
        ids.push(sid);
    }
    let config = ReplicationConfig::new(ids, n, delta).map_err(|e| e.to_string())?;
    let mut opts = ClientOptions::new(config);
    // WAN-ish budgets for a CLI.
    opts.ack_timeout = std::time::Duration::from_millis(300);
    let net = ClientNet::new(ep, addrs);
    Ok(ReplicatedLog::new(ClientId(client_id), opts, net))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn parses_options_and_positionals() {
        let a = args(&["--dir", "/tmp/x", "append", "--n", "2", "hello world"]);
        assert_eq!(a.get::<String>("dir").unwrap().unwrap(), "/tmp/x");
        assert_eq!(a.get_or::<usize>("n", 9).unwrap(), 2);
        assert_eq!(a.positional, vec!["append", "hello world"]);
        assert_eq!(a.get_or::<u64>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_value_and_bad_parse() {
        assert!(Args::parse(["--dir".to_string()].into_iter()).is_err());
        let a = args(&["--n", "abc"]);
        assert!(a.get::<usize>("n").is_err());
        assert!(a.require::<usize>("absent").is_err());
    }

    #[test]
    fn server_list() {
        let v = parse_server_list("127.0.0.1:7001, 127.0.0.1:7002").unwrap();
        assert_eq!(v.len(), 2);
        assert!(parse_server_list("nonsense").is_err());
    }
}
