//! CRC-32 (IEEE 802.3 polynomial), hand-rolled to keep the workspace
//! dependency-free — the one checksum of the system. The storage layer
//! frames every log record with it to detect torn track writes, and the
//! wire codec stamps every packet with it; both run it over every
//! data-plane byte, hence slice-by-8.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables (slice-by-8), built at compile time:
/// the hot loop folds eight bytes per step instead of paying one
/// dependent lookup per byte, and a track force CRCs the whole transfer.
static TABLES: [[u32; 256]; 8] = build_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time into a static: an out-of-bounds index fails the build, never a running server"
)]
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // t[j][i] extends t[j-1][i] by one zero byte, so folding eight bytes
    // through t[7]..t[0] equals eight sequential t[0] steps.
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Guarded table probe: the index is masked to 0..256 so the `None` arm
/// is unreachable and the whole call compiles to a plain load.
#[inline(always)]
fn lut(table: &[u32; 256], idx: u32) -> u32 {
    match table.get((idx & 0xFF) as usize) {
        Some(v) => *v,
        None => 0,
    }
}

/// Compute the CRC-32 of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental interface: feed `data` into a running CRC state.
///
/// Start from `0xFFFF_FFFF`, finish by XOR-ing with `0xFFFF_FFFF`.
#[must_use]
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = c else {
            break; // unreachable: chunks_exact yields 8-byte slices
        };
        let lo = state ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        state = lut(t7, lo)
            ^ lut(t6, lo >> 8)
            ^ lut(t5, lo >> 16)
            ^ lut(t4, lo >> 24)
            ^ lut(t3, hi)
            ^ lut(t2, hi >> 8)
            ^ lut(t1, hi >> 16)
            ^ lut(t0, hi >> 24);
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ lut(t0, state ^ u32::from(b));
    }
    state
}

/// Streaming CRC-32 hasher.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn write(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Final digest.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"some log record payload".to_vec();
        let original = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), original, "undetected flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
