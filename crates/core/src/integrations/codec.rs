//! The journal record framing: length-prefixed, CRC-checked, torn-tail
//! tolerant.
//!
//! The record store ([`super::record_store`]: `data.db`, the campaign
//! journal) and `eco-store`'s model ledger append every record as one frame:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 (BE)  | crc32: u32 (BE)| payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload bytes. Recovery scans
//! frames from the start and stops at the first header that is short,
//! oversized, truncated, or whose checksum fails — everything before
//! that point is the **longest valid prefix** and survives; everything
//! after it (a torn append from a crash mid-write, or trailing junk) is
//! discarded, so either log reopens after a crash that tore its tail.

/// Hard ceiling on one journal record's payload. A corrupt length
/// prefix must surface as a truncation, never as a giant allocation.
pub const MAX_RECORD_LEN: usize = 4 * 1024 * 1024;

/// Bytes of framing overhead per record (length + checksum).
pub const RECORD_HEADER_LEN: usize = 8;

/// IEEE CRC-32 (reflected, polynomial `0xEDB8_8320`) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Appends one framed record to `out`.
///
/// Returns the number of bytes written. Payloads over
/// [`MAX_RECORD_LEN`] are rejected rather than written unreadably.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) -> Result<usize, EncodeError> {
    if payload.len() > MAX_RECORD_LEN {
        return Err(EncodeError::TooLarge { len: payload.len() });
    }
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(RECORD_HEADER_LEN + payload.len())
}

/// A payload too large to frame.
#[derive(Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The payload exceeds [`MAX_RECORD_LEN`].
    TooLarge {
        /// The offending payload length.
        len: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooLarge { len } => {
                write!(f, "journal record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// What a recovery scan of journal bytes produced.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// Every payload in the longest valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the longest valid prefix. Append resumes here;
    /// anything past it is a torn tail or junk and must be truncated.
    pub valid_len: usize,
    /// Whether bytes past `valid_len` were discarded.
    pub truncated: bool,
}

/// Scans `bytes` from the start, decoding frames until the first one
/// that is short, oversized, or checksum-corrupt.
///
/// Never panics and never errors: arbitrary junk simply yields an
/// empty (or shorter) valid prefix with `truncated` set.
pub fn recover(bytes: &[u8]) -> Recovered {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            return Recovered { records, valid_len: at, truncated: false };
        }
        if rest.len() < RECORD_HEADER_LEN {
            return Recovered { records, valid_len: at, truncated: true };
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let sum = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || rest.len() < RECORD_HEADER_LEN + len {
            return Recovered { records, valid_len: at, truncated: true };
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if crc32(payload) != sum {
            return Recovered { records, valid_len: at, truncated: true };
        }
        records.push(payload.to_vec());
        at += RECORD_HEADER_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            encode_record(p, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_order_and_bytes() {
        let wire = journal_of(&[b"alpha", b"", b"gamma"]);
        let got = recover(&wire);
        assert_eq!(got.records, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()]);
        assert_eq!(got.valid_len, wire.len());
        assert!(!got.truncated);
    }

    #[test]
    fn torn_tail_keeps_longest_valid_prefix() {
        let whole = journal_of(&[b"first", b"second"]);
        let first_len = RECORD_HEADER_LEN + 5;
        for cut in first_len + 1..whole.len() {
            let got = recover(&whole[..cut]);
            assert_eq!(got.records, vec![b"first".to_vec()], "cut at {cut}");
            assert_eq!(got.valid_len, first_len);
            assert!(got.truncated);
        }
    }

    #[test]
    fn flipped_bit_truncates_at_the_corrupt_record() {
        let mut wire = journal_of(&[b"first", b"second", b"third"]);
        let second_payload_at = (RECORD_HEADER_LEN + 5) + RECORD_HEADER_LEN;
        wire[second_payload_at] ^= 0x40;
        let got = recover(&wire);
        assert_eq!(got.records, vec![b"first".to_vec()]);
        assert!(got.truncated);
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_allocation() {
        let mut wire = journal_of(&[b"ok"]);
        let keep = wire.len();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0u8; 12]);
        let got = recover(&wire);
        assert_eq!(got.records.len(), 1);
        assert_eq!(got.valid_len, keep);
        assert!(got.truncated);
    }

    #[test]
    fn empty_journal_recovers_clean() {
        assert_eq!(recover(&[]), Recovered::default());
    }

    #[test]
    fn encode_rejects_oversized_payloads() {
        let huge = vec![0u8; MAX_RECORD_LEN + 1];
        let mut out = Vec::new();
        assert!(matches!(encode_record(&huge, &mut out), Err(EncodeError::TooLarge { .. })));
        assert!(out.is_empty(), "a rejected record must leave no partial bytes");
    }
}
