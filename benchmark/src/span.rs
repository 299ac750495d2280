//! Benchmark-owned tracing: spans are taken here, around the calls into
//! each layer, never inside the crates under test. Spans stay in memory
//! and are written out when the workload ends.
//!
//! A span records its name, the node (and shard lane) whose thread ran
//! it, start and end, the span that was open on the same thread when it
//! started (its parent), and the LSN its packet or commit carried —
//! every span of one commit shares that LSN on that client's log.

use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dlog_net::wire::{NodeAddr, Packet};
use dlog_net::{Endpoint, RoutedEndpoint, ShardRx};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// 0: no span was open on this thread.
    pub parent: u32,
    pub node: u64,
    /// Shard lane of the thread (0 outside routed shard loops).
    pub lane: u32,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// LSN hint of the packet, or last LSN of the commit; 0 when none.
    pub lsn: u64,
    /// The other node of a send or receive; 0 otherwise.
    pub peer: u64,
    /// Work done: packets received, destinations sent to, records.
    pub n: u32,
    /// Encoded size of the packet a send or receive carried.
    pub bytes: u32,
    /// A receive that was allowed to sleep (timeout > 0).
    pub blocking: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    static LANE: Cell<u32> = const { Cell::new(0) };
}

type SpanBuf = Arc<Mutex<Vec<Span>>>;

/// The span sink shared by every wrapper of one workload. Off by
/// default: an untraced pass pays one relaxed load per wrapped call.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    bufs: Mutex<Vec<SpanBuf>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            bufs: Mutex::new(Vec::new()),
        })
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// A handle recording into its own buffer (one per endpoint or
    /// client thread, so recording never contends across nodes).
    pub fn handle(self: &Arc<Tracer>, node: u64) -> Handle {
        let buf: SpanBuf = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
        self.bufs.lock().expect("tracer registry").push(buf.clone());
        Handle {
            tracer: self.clone(),
            buf,
            node,
        }
    }

    /// Drain every buffer, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buf in self.bufs.lock().expect("tracer registry").iter() {
            all.append(&mut buf.lock().expect("span buffer"));
        }
        all.sort_by_key(|s| (s.start, s.id));
        all
    }
}

pub struct Handle {
    tracer: Arc<Tracer>,
    buf: SpanBuf,
    node: u64,
}

impl Handle {
    /// Open a span; `None` while tracing is off.
    #[inline]
    pub fn open(&self, name: &'static str) -> Option<Open<'_>> {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Some(Open {
            handle: self,
            span: Span {
                name,
                id,
                parent,
                node: self.node,
                lane: LANE.with(Cell::get),
                start: self.tracer.epoch.elapsed().as_nanos() as u64,
                end: 0,
                lsn: 0,
                peer: 0,
                n: 0,
                bytes: 0,
                blocking: false,
            },
        })
    }
}

/// An open span; recorded when dropped.
pub struct Open<'a> {
    handle: &'a Handle,
    pub span: Span,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.span.end = self.handle.tracer.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(self.span.parent));
        if let Ok(mut buf) = self.handle.buf.lock() {
            buf.push(self.span.clone());
        }
    }
}

/// Annotate an open span with the packet it carried.
fn carried(open: &mut Option<Open<'_>>, peer: NodeAddr, packet: &Packet, n: u32) {
    if let Some(o) = open {
        o.span.lsn = packet.lsn_hint();
        o.span.peer = peer.0;
        o.span.n = n;
        o.span.bytes = packet.encoded_len() as u32;
    }
}

/// Annotate an open receive span with how it was allowed to wait and
/// what it came back with.
fn received(open: &mut Option<Open<'_>>, timeout: Duration, got: &Option<(NodeAddr, Packet)>) {
    if let Some(o) = open {
        o.span.blocking = !timeout.is_zero();
    }
    if let Some((from, packet)) = got {
        carried(open, *from, packet, 1);
    }
}

/// An [`Endpoint`] that takes a span around every call into the
/// transport beneath it.
pub struct SpanEndpoint<E> {
    inner: E,
    trace: Handle,
}

impl<E: Endpoint> SpanEndpoint<E> {
    pub fn new(inner: E, tracer: &Arc<Tracer>) -> Self {
        let trace = tracer.handle(inner.local_addr().0);
        SpanEndpoint { inner, trace }
    }
}

impl<E: Endpoint> Endpoint for SpanEndpoint<E> {
    fn local_addr(&self) -> NodeAddr {
        self.inner.local_addr()
    }

    fn send(&self, to: NodeAddr, packet: &Packet) -> io::Result<()> {
        let mut open = self.trace.open("send");
        carried(&mut open, to, packet, 1);
        self.inner.send(to, packet)
    }

    fn recv(&self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        let mut open = self.trace.open("recv");
        let got = self.inner.recv(timeout)?;
        received(&mut open, timeout, &got);
        Ok(got)
    }

    fn send_many(&self, tos: &[NodeAddr], packet: &Packet) -> io::Result<()> {
        let mut open = self.trace.open("send");
        carried(
            &mut open,
            tos.first().copied().unwrap_or(NodeAddr(0)),
            packet,
            tos.len() as u32,
        );
        self.inner.send_many(tos, packet)
    }
}

/// One shard's receive side of a routed [`SpanEndpoint`].
pub struct SpanShardRx<R> {
    inner: R,
    trace: Handle,
    lane: u32,
}

impl<R: ShardRx> ShardRx for SpanShardRx<R> {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<(NodeAddr, Packet)>> {
        // The shard loop's thread only ever serves this lane; replies it
        // sends through the shared endpoint inherit the lane from here.
        LANE.with(|l| l.set(self.lane));
        let mut open = self.trace.open("recv");
        let got = self.inner.recv(timeout)?;
        received(&mut open, timeout, &got);
        Ok(got)
    }
}

impl<E: RoutedEndpoint> RoutedEndpoint for SpanEndpoint<E> {
    type Rx = SpanShardRx<E::Rx>;

    fn shard_rx(&self, shards: usize) -> Vec<Self::Rx> {
        self.inner
            .shard_rx(shards)
            .into_iter()
            .enumerate()
            .map(|(k, inner)| SpanShardRx {
                inner,
                trace: self.trace.tracer.handle(self.trace.node),
                lane: k as u32,
            })
            .collect()
    }
}

/// Time covered by the direct children of each span, keyed by span id:
/// a span's self time is its duration minus this.
pub fn child_nanos(spans: &[Span]) -> std::collections::HashMap<u32, u64> {
    let mut covered = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0) += s.nanos();
    }
    covered
}

/// One JSON object per line, in start order; fields that are zero or
/// false are left out.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for s in spans {
        write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"node\":{},\"start_ns\":{},\"end_ns\":{}",
            s.name, s.id, s.parent, s.node, s.start, s.end
        )?;
        for (key, v) in [
            ("lane", u64::from(s.lane)),
            ("lsn", s.lsn),
            ("peer", s.peer),
            ("n", u64::from(s.n)),
            ("bytes", u64::from(s.bytes)),
        ] {
            if v != 0 {
                write!(out, ",\"{key}\":{v}")?;
            }
        }
        if s.blocking {
            write!(out, ",\"blocking\":true")?;
        }
        writeln!(out, "}}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_thread_and_self_time_subtracts_children() {
        let tracer = Tracer::new();
        let h = tracer.handle(7);
        assert!(h.open("off").is_none());
        tracer.set(true);
        {
            let _outer = h.open("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = h.open("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let spans = tracer.take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.node, 7);
        let covered = child_nanos(&spans);
        let self_ns = outer.nanos() - covered[&outer.id];
        assert!(self_ns >= 2_000_000 && self_ns < outer.nanos());
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let tracer = Tracer::new();
        tracer.set(true);
        let h = tracer.handle(1);
        drop(h.open("a"));
        drop(h.open("b"));
        let mut out = Vec::new();
        write_jsonl(&tracer.take(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
