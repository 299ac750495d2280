//! Fixed-capacity, stack-allocated string formatting.
//!
//! The ingest path formats segment file names (`seg-00000042.seg`) when
//! a track flush opens a new segment. Routing those through `format!`
//! costs a heap allocation per call; a [`NameBuf`] holds the formatted
//! text in an inline byte array instead, so name construction is
//! allocation-free. Overflow is reported through the
//! `fmt::Write` error path rather than by truncating silently — pick `N`
//! large enough for the worst case (a `u64` needs at most 20 digits).

use std::fmt::{self, Write as _};

/// A fixed-capacity string built with [`std::fmt::Write`].
#[derive(Debug, Clone, Copy)]
pub struct NameBuf<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> NameBuf<N> {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> NameBuf<N> {
        NameBuf {
            buf: [0; N],
            len: 0,
        }
    }

    /// Format `args` into a fresh buffer. Returns `None` when the
    /// rendered text does not fit in `N` bytes.
    #[must_use]
    pub fn format(args: fmt::Arguments<'_>) -> Option<NameBuf<N>> {
        let mut out = NameBuf::new();
        out.write_fmt(args).ok()?;
        Some(out)
    }

    /// The formatted text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        // The buffer only ever receives whole `&str`s, so the prefix is
        // valid UTF-8; the fallback is unreachable.
        self.buf
            .get(..self.len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("")
    }

    /// Length of the formatted text in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<const N: usize> Default for NameBuf<N> {
    fn default() -> NameBuf<N> {
        NameBuf::new()
    }
}

impl<const N: usize> fmt::Write for NameBuf<N> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len.checked_add(s.len()).ok_or(fmt::Error)?;
        let slot = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        slot.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl<const N: usize> fmt::Display for NameBuf<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl<const N: usize> AsRef<str> for NameBuf<N> {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl<const N: usize> AsRef<std::path::Path> for NameBuf<N> {
    fn as_ref(&self) -> &std::path::Path {
        std::path::Path::new(self.as_str())
    }
}

/// Format into a [`NameBuf`], falling back to an empty buffer on
/// overflow. Use when the call site can prove the capacity bound (e.g. a
/// `u64` segment index renders in ≤ 20 digits).
#[macro_export]
macro_rules! namebuf {
    ($n:literal, $($arg:tt)*) => {
        $crate::namebuf::NameBuf::<$n>::format(core::format_args!($($arg)*))
            .unwrap_or_default()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_inline() {
        let n: NameBuf<32> = namebuf!(32, "seg-{:08}.seg", 42u64);
        assert_eq!(n.as_str(), "seg-00000042.seg");
        assert_eq!(n.len(), 16);
        assert!(!n.is_empty());
    }

    #[test]
    fn max_u64_fits_in_32() {
        let n: NameBuf<32> = namebuf!(32, "seg-{:08}.seg", u64::MAX);
        assert_eq!(n.as_str(), format!("seg-{:08}.seg", u64::MAX));
    }

    #[test]
    fn overflow_is_empty_not_truncated() {
        let n: NameBuf<4> = namebuf!(4, "too long for four");
        assert!(n.is_empty());
        assert_eq!(n.as_str(), "");
    }

    #[test]
    fn as_ref_path_joins() {
        let n: NameBuf<32> = namebuf!(32, "gen-{}.val", 7u64);
        let p = std::path::Path::new("/tmp").join(n);
        assert_eq!(p, std::path::Path::new("/tmp/gen-7.val"));
    }
}
