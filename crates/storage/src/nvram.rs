//! Simulated low-latency non-volatile memory (§4.1, §5.1).
//!
//! The paper's log servers buffer incoming log records in battery-backed
//! CMOS memory so that (a) a force can be acknowledged at memory speed and
//! (b) the disk is written **a track at a time**. The essential property is
//! that an insert is durable the moment it completes, without any disk
//! I/O.
//!
//! [`NvramDevice`] simulates the device: a cheaply clonable handle to a
//! bounded buffer whose contents survive a *simulated node crash* — tests
//! crash a [`crate::LogStore`] by dropping it while keeping the device
//! handle, exactly as a machine with standby power keeps its CMOS contents
//! across an OS crash. The buffer tracks the log-stream position its
//! pending bytes begin at, so recovery can replay them idempotently.
//!
//! The device also models the **guarded write** check of §5.1: "data in directly addressable non volatile memory may be more
//! prone to corruption by software error. Needham et al. have suggested
//! that a solution ... is to provide hardware to help check that each new
//! value for the non volatile memory was computed from a previous value."
//! [`NvramDevice::insert_at_tail`] models that hardware: every insert must
//! present the device's current *seal* (a digest of its contents), which
//! only code that read the previous state can know — a wild store from a
//! stray pointer fails the check and leaves the memory untouched.

use std::sync::Arc;

use dlog_types::{Rank, Ranked};

/// Error returned when an insert does not fit the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvramFull {
    /// Bytes the caller tried to insert.
    pub requested: usize,
    /// Bytes currently free.
    pub available: usize,
}

impl std::fmt::Display for NvramFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nvram full: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for NvramFull {}

/// Error returned by a guarded insert whose seal does not match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealMismatch {
    /// The seal the caller presented.
    pub presented: u64,
    /// The device's actual seal.
    pub current: u64,
}

impl std::fmt::Display for SealMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nvram guard rejected write: presented seal {:#x}, device seal {:#x}",
            self.presented, self.current
        )
    }
}

impl std::error::Error for SealMismatch {}

/// Error of a guarded insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardError {
    /// The presented seal is not the device's current seal.
    Mismatch(SealMismatch),
    /// The bytes do not fit the device.
    Full(NvramFull),
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Mismatch(m) => m.fmt(f),
            GuardError::Full(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GuardError {}

#[derive(Debug, Default)]
struct NvramState {
    /// Pending log-stream bytes not yet known to be on disk.
    track: Vec<u8>,
    /// Log-stream position at which `track` begins.
    base_pos: u64,
    /// The §5.1 guard seal: a running digest over every state transition,
    /// which a legitimate writer learns only by reading the device.
    seal: u64,
}

/// Where an insert landed, read under the lock that performed it: the
/// store learns its append position, the track fill and the new seal from
/// the one acquisition the insert already pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Stream position of the first inserted byte.
    pub pos: u64,
    /// Bytes pending after the insert.
    pub pending: usize,
    /// The device seal after the insert.
    pub seal: u64,
}

impl NvramState {
    fn advance_seal(&mut self, bytes: &[u8]) {
        // FNV-1a-style fold over (old seal, operation bytes), one
        // little-endian u64 word per step: cheap and stateful. The last
        // step folds the zero-padded remainder together with the length,
        // so operations differing only in trailing zeros still differ.
        const PRIME: u64 = 0x1000_0000_01b3;
        let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME).rotate_left(23);
        let mut h = self.seal ^ 0xcbf2_9ce4_8422_2325;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            h = fold(h, u64::from_le_bytes(word));
        }
        let mut word = [0u8; 8];
        for (slot, b) in word.iter_mut().zip(words.remainder()) {
            *slot = *b;
        }
        h = fold(h, u64::from_le_bytes(word));
        self.seal = fold(h, bytes.len() as u64);
    }

    /// Append `bytes` to the pending track if they fit `capacity`.
    fn admit(&mut self, capacity: usize, bytes: &[u8]) -> Result<Tail, NvramFull> {
        let available = capacity - self.track.len();
        if bytes.len() > available {
            return Err(NvramFull {
                requested: bytes.len(),
                available,
            });
        }
        let pos = self.base_pos + self.track.len() as u64;
        self.track.extend_from_slice(bytes);
        self.advance_seal(bytes);
        Ok(Tail {
            pos,
            pending: self.track.len(),
            seal: self.seal,
        })
    }
}

/// A simulated battery-backed memory device.
///
/// Clones share the same underlying memory; keep a clone across a simulated
/// crash to model the survival of the physical device.
#[derive(Clone, Debug)]
pub struct NvramDevice {
    state: Arc<Ranked<NvramState>>,
    capacity: usize,
}

impl NvramDevice {
    /// A device holding at most `capacity` pending bytes (one or a few disk
    /// tracks; the paper suggests track-sized buffering).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "nvram capacity must be positive");
        NvramDevice {
            state: Arc::new(Ranked::new(Rank::Nvram, NvramState::default())),
            capacity,
        }
    }

    /// Device capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently pending (inserted but not yet retired).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.state.lock().track.len()
    }

    /// Free space.
    #[must_use]
    pub fn available(&self) -> usize {
        self.capacity - self.pending_len()
    }

    /// Stream position at which the pending bytes begin.
    #[must_use]
    pub fn base_pos(&self) -> u64 {
        self.state.lock().base_pos
    }

    /// Durably insert `bytes` at the tail of the pending track without
    /// presenting the seal: what a stray writer does. The store inserts
    /// through [`NvramDevice::insert_at_tail`].
    ///
    /// # Errors
    /// [`NvramFull`] when the bytes do not fit; the caller must retire a
    /// track to disk first.
    pub fn insert(&self, bytes: &[u8]) -> Result<(), NvramFull> {
        self.state.lock().admit(self.capacity, bytes).map(drop)
    }

    /// The device's current guard seal (§5.1). A caller intending a
    /// guarded insert reads this first; a stray writer cannot know it.
    #[must_use]
    pub fn seal(&self) -> u64 {
        self.state.lock().seal
    }

    /// Guarded insert (§5.1, after Needham et al.) of `bytes` at the tail
    /// of the pending track: succeeds only when the caller presents the
    /// device's current seal, proving the new value "was computed from a
    /// previous value", and reports where the bytes landed and the new
    /// seal. Whatever one call inserts is one `extend` under the device
    /// lock: a crash finds all of it or none of it.
    ///
    /// # Errors
    /// [`GuardError::Mismatch`] for a wrong seal; [`GuardError::Full`]
    /// when the bytes do not fit. The memory is untouched on error.
    pub fn insert_at_tail(&self, presented: u64, bytes: &[u8]) -> Result<Tail, GuardError> {
        let mut st = self.state.lock();
        if presented != st.seal {
            return Err(GuardError::Mismatch(SealMismatch {
                presented,
                current: st.seal,
            }));
        }
        st.admit(self.capacity, bytes).map_err(GuardError::Full)
    }

    /// Snapshot the pending track for writing to disk: returns the stream
    /// position it begins at and a copy of the bytes. The data stays in the
    /// device until [`NvramDevice::retire`] confirms it reached disk —
    /// a crash between the write and the retire loses nothing.
    #[must_use]
    pub fn pending(&self) -> (u64, Vec<u8>) {
        let mut out = Vec::new();
        let base = self.pending_into(&mut out);
        (base, out)
    }

    /// Copy the pending track into `out` (cleared first) and return the
    /// stream position it begins at. The flush hot path uses this with a
    /// reused scratch buffer so retiring a track allocates nothing after
    /// warm-up.
    pub fn pending_into(&self, out: &mut Vec<u8>) -> u64 {
        let st = self.state.lock();
        out.clear();
        out.extend_from_slice(&st.track);
        st.base_pos
    }

    /// Read `len` bytes at stream position `pos` out of the pending track
    /// into `out` (cleared first), if that range is (fully) buffered. Lets
    /// the store serve reads of records that have not reached disk yet; it
    /// reads a run's window of the track this way.
    #[must_use]
    pub fn read_at_into(&self, pos: u64, len: usize, out: &mut Vec<u8>) -> Option<()> {
        let st = self.state.lock();
        let start = pos.checked_sub(st.base_pos)? as usize;
        let end = start.checked_add(len)?;
        let slice = st.track.get(start..end)?;
        out.clear();
        out.extend_from_slice(slice);
        Some(())
    }

    /// Retire the first `n` pending bytes: they are confirmed on disk and
    /// their space is reclaimed.
    ///
    /// # Panics
    /// Panics if `n` exceeds the pending length (a store logic error).
    pub fn retire(&self, n: usize) {
        let mut st = self.state.lock();
        assert!(n <= st.track.len(), "retiring more than pending");
        st.track.drain(..n);
        st.base_pos += n as u64;
        let n64 = (n as u64).to_le_bytes();
        st.advance_seal(&n64);
    }

    /// Reset the device for a freshly formatted store beginning at
    /// stream position `pos`.
    pub fn format(&self, pos: u64) {
        let mut st = self.state.lock();
        st.track.clear();
        st.base_pos = pos;
        let p = pos.to_le_bytes();
        st.advance_seal(&p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_pending_retire() {
        let dev = NvramDevice::new(16);
        assert_eq!(dev.available(), 16);
        dev.insert(b"abcd").unwrap();
        dev.insert(b"efgh").unwrap();
        assert_eq!(dev.pending_len(), 8);
        let (pos, bytes) = dev.pending();
        assert_eq!(pos, 0);
        assert_eq!(bytes, b"abcdefgh");
        dev.retire(4);
        assert_eq!(dev.base_pos(), 4);
        assert_eq!(dev.pending(), (4, b"efgh".to_vec()));
    }

    #[test]
    fn rejects_overflow() {
        let dev = NvramDevice::new(8);
        dev.insert(b"12345").unwrap();
        let err = dev.insert(b"6789").unwrap_err();
        assert_eq!(
            err,
            NvramFull {
                requested: 4,
                available: 3
            }
        );
        // Contents unchanged by the failed insert.
        assert_eq!(dev.pending().1, b"12345");
    }

    #[test]
    fn survives_clone_like_a_device() {
        let dev = NvramDevice::new(64);
        dev.insert(b"persist me").unwrap();
        let surviving_handle = dev.clone();
        drop(dev); // the "node" crashes
        assert_eq!(surviving_handle.pending().1, b"persist me");
    }

    #[test]
    fn read_at_bounds() {
        let dev = NvramDevice::new(64);
        dev.format(100);
        dev.insert(b"0123456789").unwrap();
        let mut out = Vec::new();
        assert_eq!(dev.read_at_into(100, 4, &mut out), Some(()));
        assert_eq!(out, b"0123");
        assert_eq!(dev.read_at_into(106, 4, &mut out), Some(()));
        assert_eq!(out, b"6789");
        assert_eq!(dev.read_at_into(106, 5, &mut out), None); // runs past the tail
        assert_eq!(dev.read_at_into(99, 1, &mut out), None); // before the base
    }

    #[test]
    #[should_panic(expected = "retiring more than pending")]
    fn retire_overflow_panics() {
        let dev = NvramDevice::new(8);
        dev.insert(b"ab").unwrap();
        dev.retire(3);
    }

    #[test]
    fn guarded_insert_requires_current_seal() {
        let dev = NvramDevice::new(64);
        let seal0 = dev.seal();
        let seal1 = dev.insert_at_tail(seal0, b"first").unwrap().seal;
        assert_ne!(seal0, seal1);
        // A wild writer replaying the old seal is rejected, untouched.
        let before = dev.pending();
        match dev.insert_at_tail(seal0, b"stray") {
            Err(GuardError::Mismatch(m)) => {
                assert_eq!(m.presented, seal0);
                assert_eq!(m.current, seal1);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(dev.pending(), before);
        // The legitimate writer continues from the fresh seal.
        let seal2 = dev.insert_at_tail(seal1, b"second").unwrap().seal;
        assert_ne!(seal1, seal2);
        assert_eq!(dev.pending().1, b"firstsecond");
    }

    #[test]
    fn guarded_insert_reports_full() {
        let dev = NvramDevice::new(4);
        let seal = dev.seal();
        match dev.insert_at_tail(seal, b"too large") {
            Err(GuardError::Full(f)) => assert_eq!(f.requested, 9),
            other => panic!("expected full, got {other:?}"),
        }
    }

    #[test]
    fn every_state_transition_advances_the_seal() {
        let dev = NvramDevice::new(64);
        let s0 = dev.seal();
        dev.insert(b"x").unwrap();
        let s1 = dev.seal();
        assert_ne!(s0, s1);
        dev.retire(1);
        let s2 = dev.seal();
        assert_ne!(s1, s2);
        dev.format(0);
        assert_ne!(s2, dev.seal());
    }
}
