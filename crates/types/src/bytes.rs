//! Guarded little-endian byte readers.
//!
//! Every decode path in the workspace parses length-prefixed binary
//! formats from untrusted bytes (the wire, the disk, the archive). The
//! hot-path crates deny clippy's `unwrap_used` and `indexing_slicing`
//! on those paths, so the common "read a fixed-width integer at an offset"
//! operation lives here once, returning `None` on any out-of-bounds
//! access instead of panicking. Callers map `None` to their own
//! corruption error.

/// The byte at `off`, if in bounds.
#[must_use]
pub fn u8_at(b: &[u8], off: usize) -> Option<u8> {
    b.get(off).copied()
}

/// Little-endian `u32` at `off`, if all four bytes are in bounds.
#[must_use]
pub fn u32_le_at(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    let arr: [u8; 4] = s.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Little-endian `u64` at `off`, if all eight bytes are in bounds.
#[must_use]
pub fn u64_le_at(b: &[u8], off: usize) -> Option<u64> {
    let s = b.get(off..off.checked_add(8)?)?;
    let arr: [u8; 8] = s.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// The subslice `b[off..off + len]`, if in bounds (overflow-safe).
#[must_use]
pub fn slice_at(b: &[u8], off: usize, len: usize) -> Option<&[u8]> {
    b.get(off..off.checked_add(len)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_reads() {
        let b = [1u8, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9];
        assert_eq!(u8_at(&b, 12), Some(9));
        assert_eq!(u32_le_at(&b, 0), Some(1));
        assert_eq!(u64_le_at(&b, 4), Some(2));
        assert_eq!(slice_at(&b, 4, 2), Some(&b[4..6]));
    }

    #[test]
    fn out_of_bounds_is_none() {
        let b = [0u8; 8];
        assert_eq!(u8_at(&b, 8), None);
        assert_eq!(u32_le_at(&b, 5), None);
        assert_eq!(u64_le_at(&b, 1), None);
        assert_eq!(slice_at(&b, 4, 5), None);
        // Offset + len overflow must not panic.
        assert_eq!(u32_le_at(&b, usize::MAX), None);
        assert_eq!(slice_at(&b, usize::MAX, 2), None);
    }
}
