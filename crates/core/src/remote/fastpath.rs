//! The binary `PredictMany` fast path.
//!
//! JSON costs real CPU at 1M+ keys/s: serializing a 512-key batch and
//! parsing its reply caps a single core near the throughput target all
//! by itself. A connection that asks for it (see
//! [`super::Connection::fast_batch`] — today only the shared-memory
//! ring) has its `PredictMany` exchanges sent in a fixed little-endian
//! binary layout instead, and the daemon answers a binary request in
//! kind on any listener. The encoding is deliberately boring: no
//! varints, no compression, every field a fixed-width copy, so
//! encode/decode is a handful of `memcpy`s.
//!
//! A binary frame is distinguished from JSON by its first byte,
//! [`MAGIC`] (`0xB1`), which can never open a JSON document. Everything
//! else on a fast-path connection (preloads, stats, pings) stays JSON;
//! only the hot batch verb gets the treatment. This module is the
//! layout only; which frames take it is [`super::wire`]'s decision, and
//! `wire` is the only non-test caller of the four codec functions.
//!
//! ## Layout (all integers little-endian)
//!
//! Request: `B1 01 | corr u64 | flags u8 (bit0 = has deadline) |
//! deadline_ms u64 | n u32 | n × (system u64, binary u64)`
//!
//! Reply: `B1 02 | corr u64 | n u32 | n × outcome` where an outcome is
//! `00 cores u32 freq_khz u64 threads u32` (config), `01` (miss) or
//! `02 len u32 utf8` (per-key error). A whole-request failure is
//! `B1 03 | corr u64 | len u32 | utf8` (error) or `B1 04 | corr u64`
//! (deadline exceeded).

use eco_sim_node::cpu::CpuConfig;

use super::{KeyOutcome, Response, MAX_BATCH_KEYS};

/// First byte of every fast-path frame. JSON never produces it.
pub const MAGIC: u8 = 0xB1;

const VERB_REQUEST: u8 = 0x01;
const VERB_MANY: u8 = 0x02;
const VERB_ERROR: u8 = 0x03;
const VERB_DEADLINE: u8 = 0x04;

/// Whether `payload` is a fast-path frame (as opposed to JSON).
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&MAGIC)
}

/// A decoded fast-path request: a correlated `PredictMany`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Correlation id echoed in the reply (fast-path exchanges are
    /// always tagged).
    pub corr: u64,
    /// Optional deadline budget, as on [`super::RequestFrame`].
    pub deadline_ms: Option<u64>,
    /// The prediction keys, at most [`MAX_BATCH_KEYS`].
    pub keys: Vec<(u64, u64)>,
}

fn err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> std::io::Result<u8> {
        let (&b, rest) = self.0.split_first().ok_or_else(|| err("fast-path frame truncated"))?;
        self.0 = rest;
        Ok(b)
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(err("fast-path frame truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn done(&self) -> std::io::Result<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(err(format!("{} trailing bytes after fast-path frame", self.0.len())))
        }
    }
}

/// Encodes a `PredictMany` request.
pub fn encode_request(corr: u64, deadline_ms: Option<u64>, keys: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 8 + 1 + 8 + 4 + keys.len() * 16);
    out.push(MAGIC);
    out.push(VERB_REQUEST);
    out.extend_from_slice(&corr.to_le_bytes());
    out.push(deadline_ms.is_some() as u8);
    out.extend_from_slice(&deadline_ms.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for &(system, binary) in keys {
        out.extend_from_slice(&system.to_le_bytes());
        out.extend_from_slice(&binary.to_le_bytes());
    }
    out
}

/// Decodes a request frame. Rejects anything that is not a well-formed
/// fast-path request within [`MAX_BATCH_KEYS`].
pub fn decode_request(payload: &[u8]) -> std::io::Result<BatchRequest> {
    let mut c = Cursor(payload);
    if c.u8()? != MAGIC || c.u8()? != VERB_REQUEST {
        return Err(err("not a fast-path request"));
    }
    let corr = c.u64()?;
    let flags = c.u8()?;
    let raw_deadline = c.u64()?;
    let deadline_ms = (flags & 1 != 0).then_some(raw_deadline);
    let n = c.u32()? as usize;
    if n > MAX_BATCH_KEYS {
        return Err(err(format!("fast-path batch of {n} keys exceeds the {MAX_BATCH_KEYS} cap")));
    }
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push((c.u64()?, c.u64()?));
    }
    c.done()?;
    Ok(BatchRequest { corr, deadline_ms, keys })
}

/// Encodes the daemon's reply to a fast-path request. `ManyConfigs`,
/// `Error` and `DeadlineExceeded` are the only responses the daemon
/// produces for a `PredictMany`.
pub fn encode_reply(corr: u64, response: &Response) -> Vec<u8> {
    match response {
        Response::ManyConfigs { results } => {
            let mut out = Vec::with_capacity(2 + 8 + 4 + results.len() * 17);
            out.push(MAGIC);
            out.push(VERB_MANY);
            out.extend_from_slice(&corr.to_le_bytes());
            out.extend_from_slice(&(results.len() as u32).to_le_bytes());
            for outcome in results {
                match outcome {
                    KeyOutcome::Config(c) => {
                        out.push(0);
                        out.extend_from_slice(&c.cores.to_le_bytes());
                        out.extend_from_slice(&c.frequency_khz.to_le_bytes());
                        out.extend_from_slice(&c.threads_per_core.to_le_bytes());
                    }
                    KeyOutcome::Miss => out.push(1),
                    KeyOutcome::Error { message } => {
                        out.push(2);
                        out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                        out.extend_from_slice(message.as_bytes());
                    }
                }
            }
            out
        }
        Response::DeadlineExceeded => {
            let mut out = Vec::with_capacity(10);
            out.push(MAGIC);
            out.push(VERB_DEADLINE);
            out.extend_from_slice(&corr.to_le_bytes());
            out
        }
        other => {
            let message = match other {
                Response::Error { message } => message.clone(),
                unexpected => format!("unexpected fast-path response {unexpected:?}"),
            };
            let mut out = Vec::with_capacity(2 + 8 + 4 + message.len());
            out.push(MAGIC);
            out.push(VERB_ERROR);
            out.extend_from_slice(&corr.to_le_bytes());
            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
            out.extend_from_slice(message.as_bytes());
            out
        }
    }
}

/// Decodes a reply frame into `(corr, response)` — the same shape the
/// JSON [`super::ResponseFrame`] envelope decodes to, so the client's
/// echo check is codec-agnostic.
pub fn decode_reply(payload: &[u8]) -> std::io::Result<(u64, Response)> {
    let mut c = Cursor(payload);
    if c.u8()? != MAGIC {
        return Err(err("not a fast-path reply"));
    }
    let verb = c.u8()?;
    let corr = c.u64()?;
    let response = match verb {
        VERB_MANY => {
            let n = c.u32()? as usize;
            if n > MAX_BATCH_KEYS {
                return Err(err(format!("fast-path reply of {n} outcomes exceeds the {MAX_BATCH_KEYS} cap")));
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(match c.u8()? {
                    0 => {
                        let cores = c.u32()?;
                        let frequency_khz = c.u64()?;
                        let threads = c.u32()?;
                        KeyOutcome::Config(CpuConfig::new(cores, frequency_khz, threads))
                    }
                    1 => KeyOutcome::Miss,
                    2 => {
                        let len = c.u32()? as usize;
                        let raw = c.take(len)?;
                        let message = std::str::from_utf8(raw).map_err(|_| err("fast-path error not utf-8"))?;
                        KeyOutcome::Error { message: message.to_string() }
                    }
                    tag => return Err(err(format!("unknown fast-path outcome tag {tag}"))),
                });
            }
            Response::ManyConfigs { results }
        }
        VERB_ERROR => {
            let len = c.u32()? as usize;
            let raw = c.take(len)?;
            let message = std::str::from_utf8(raw).map_err(|_| err("fast-path error not utf-8"))?;
            Response::Error { message: message.to_string() }
        }
        VERB_DEADLINE => Response::DeadlineExceeded,
        tag => return Err(err(format!("unknown fast-path reply verb {tag}"))),
    };
    c.done()?;
    Ok((corr, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<(u64, u64)> {
        (0..n as u64).map(|i| (i * 7 + 1, i * 13 + 2)).collect()
    }

    #[test]
    fn request_round_trips() {
        for deadline in [None, Some(0), Some(250)] {
            let req = BatchRequest { corr: 42, deadline_ms: deadline, keys: keys(5) };
            let wire = encode_request(req.corr, req.deadline_ms, &req.keys);
            assert!(is_binary(&wire));
            assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn reply_round_trips_every_outcome() {
        let response = Response::ManyConfigs {
            results: vec![
                KeyOutcome::Config(CpuConfig::new(16, 2_600_000, 2)),
                KeyOutcome::Miss,
                KeyOutcome::Error { message: "backend exploded".into() },
            ],
        };
        let wire = encode_reply(7, &response);
        assert!(is_binary(&wire));
        assert_eq!(decode_reply(&wire).unwrap(), (7, response));

        let wire = encode_reply(8, &Response::DeadlineExceeded);
        assert_eq!(decode_reply(&wire).unwrap(), (8, Response::DeadlineExceeded));

        let wire = encode_reply(9, &Response::Error { message: "malformed".into() });
        assert_eq!(decode_reply(&wire).unwrap(), (9, Response::Error { message: "malformed".into() }));
    }

    #[test]
    fn json_is_never_mistaken_for_binary() {
        assert!(!is_binary(b"{\"Ping\":null}"));
        assert!(!is_binary(b"\"Pong\""));
        assert!(!is_binary(b""));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let wire = encode_request(1, Some(5), &keys(3));
        for cut in 1..wire.len() {
            assert!(decode_request(&wire[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut padded = wire.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        assert!(decode_request(b"").is_err());
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let wire = encode_request(1, None, &keys(MAX_BATCH_KEYS + 1));
        assert!(decode_request(&wire).is_err());
    }
}
