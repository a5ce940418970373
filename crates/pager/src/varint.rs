//! LEB128 variable-length integers — the compression primitive of the
//! segment codec.
//!
//! Adjacency targets are stored as deltas between consecutive (sorted)
//! ids, and deltas in a DBLP-shaped graph are overwhelmingly small, so
//! most edges cost one or two bytes instead of four.

/// Append `value` to `out` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub(crate) fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint from `bytes` starting at `*pos`,
/// advancing `*pos` past it. Returns `None` on truncation or a varint
/// longer than 10 bytes (which cannot be a valid `u64`).
#[inline]
pub(crate) fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncation_and_overflow_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        // Truncated in the middle of a multi-byte varint.
        let mut pos = 0;
        assert_eq!(read_u64(&buf[..buf.len() - 1], &mut pos), None);
        // 11 continuation bytes can never be a u64.
        let over = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&over, &mut pos), None);
        // Empty input.
        let mut pos = 0;
        assert_eq!(read_u64(&[], &mut pos), None);
    }
}
