//! The binary layout of the two hot verbs, `Predict` and `PredictMany`.
//!
//! JSON costs real CPU on the submit path: the vendored parser builds a
//! value tree per decode, so a single prediction paid four such passes
//! per round trip, and a 512-key batch reply alone took longer to parse
//! than to serve. Every `Predict` and `PredictMany` frame therefore
//! travels in a fixed little-endian binary layout on every transport,
//! and the daemon answers a binary request in kind. The encoding is
//! deliberately boring: no varints, no compression, every field a
//! fixed-width copy, so encode/decode is a handful of `memcpy`s.
//!
//! A binary frame is distinguished from JSON by its first byte,
//! [`MAGIC`] (`0xB1`), which can never open a JSON document. The
//! control plane (pings, preloads, stats, outcome reports) stays JSON.
//! This module is the layout only; which frames take it is
//! [`super::wire`]'s decision, and `wire` is the only non-test caller of
//! the codec functions.
//!
//! ## Layout (all integers little-endian)
//!
//! Request: `B1 | verb u8 | flags u8 | tag u64 | deadline_ms u64 (iff
//! flags bit 0) | trace u64, span u64 (iff flags bit 1) | keys`, where
//! the keys are `system u64, binary u64` for verb `05` (`Predict`) and
//! `n u32 | n × (system u64, binary u64)` for verb `01` (`PredictMany`).
//! Every other flag bit is zero. A binary request always carries a tag.
//!
//! Reply: `B1 | verb u8 | tag u64 | body`, the body by verb:
//!
//! | verb | response | body |
//! |---|---|---|
//! | `06` | `Config` | `cores u32 · freq_khz u64 · threads u32` |
//! | `07` | `Miss` | `system u64 · binary u64` |
//! | `02` | `ManyConfigs` | `n u32 · n × outcome` |
//! | `03` | `Error` | `len u32 · utf8` |
//! | `04` | `DeadlineExceeded` | — |
//!
//! A batch outcome is `00` + a `Config` body, `01` (miss) or `02 len u32
//! utf8` (per-key error).

use eco_sim_node::cpu::CpuConfig;

use super::{KeyOutcome, Request, RequestFrame, Response, MAX_BATCH_KEYS};
use crate::telemetry::{SpanId, TraceContext, TraceId};

/// First byte of every fast-path frame. JSON never produces it.
pub const MAGIC: u8 = 0xB1;

const VERB_PREDICT_MANY: u8 = 0x01;
const VERB_MANY: u8 = 0x02;
const VERB_ERROR: u8 = 0x03;
const VERB_DEADLINE: u8 = 0x04;
const VERB_PREDICT: u8 = 0x05;
const VERB_CONFIG: u8 = 0x06;
const VERB_MISS: u8 = 0x07;

const FLAG_DEADLINE: u8 = 1;
const FLAG_TRACE: u8 = 2;

/// Whether `payload` is a fast-path frame (as opposed to JSON).
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&MAGIC)
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

    /// A count of at most [`MAX_BATCH_KEYS`] items.
    fn count(&mut self, what: &str) -> std::io::Result<usize> {
        let n = self.u32()? as usize;
        if n > MAX_BATCH_KEYS {
            return Err(err(format!("fast-path {what} of {n} exceeds the {MAX_BATCH_KEYS} cap")));
        }
        Ok(n)
    }

    fn config(&mut self) -> std::io::Result<CpuConfig> {
        Ok(CpuConfig::new(self.u32()?, self.u64()?, self.u32()?))
    }

    fn text(&mut self) -> std::io::Result<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        Ok(std::str::from_utf8(raw).map_err(|_| err("fast-path error not utf-8"))?.to_string())
    }

    fn done(&self) -> std::io::Result<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(err(format!("{} trailing bytes after fast-path frame", self.0.len())))
        }
    }
}

/// A request's bytes up to its keys, with room for `keys_len` more.
fn request_head(
    verb: u8,
    tag: u64,
    deadline_ms: Option<u64>,
    trace: Option<TraceContext>,
    keys_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 8 + 8 + 16 + keys_len);
    out.push(MAGIC);
    out.push(verb);
    out.push(deadline_ms.map_or(0, |_| FLAG_DEADLINE) | trace.map_or(0, |_| FLAG_TRACE));
    out.extend_from_slice(&tag.to_le_bytes());
    if let Some(ms) = deadline_ms {
        out.extend_from_slice(&ms.to_le_bytes());
    }
    if let Some(ctx) = trace {
        out.extend_from_slice(&ctx.trace.0.to_le_bytes());
        out.extend_from_slice(&ctx.span.0.to_le_bytes());
    }
    out
}

fn put_key(out: &mut Vec<u8>, (system, binary): (u64, u64)) {
    out.extend_from_slice(&system.to_le_bytes());
    out.extend_from_slice(&binary.to_le_bytes());
}

fn many(tag: u64, deadline_ms: Option<u64>, trace: Option<TraceContext>, keys: &[(u64, u64)]) -> Vec<u8> {
    let mut out = request_head(VERB_PREDICT_MANY, tag, deadline_ms, trace, 4 + keys.len() * 16);
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for &key in keys {
        put_key(&mut out, key);
    }
    out
}

/// The binary form of a `Predict` or `PredictMany` frame, trace context
/// included; `None` for every other verb, which the layout has no slot
/// for. An untagged frame goes out under tag 0.
pub fn encode_frame(frame: &RequestFrame) -> Option<Vec<u8>> {
    let tag = frame.corr.unwrap_or(0);
    match &frame.body {
        Request::Predict { system_hash, binary_hash } => {
            let mut out = request_head(VERB_PREDICT, tag, frame.deadline_ms, frame.trace, 16);
            put_key(&mut out, (*system_hash, *binary_hash));
            Some(out)
        }
        Request::PredictMany { keys } => Some(many(tag, frame.deadline_ms, frame.trace, keys)),
        _ => None,
    }
}

/// An untraced `PredictMany` frame's bytes — [`encode_frame`] of the
/// frame `corr`, `deadline_ms` and `keys` describe. Kept as its own
/// entry point because `benchmark/src/micro.rs` times it by name.
pub fn encode_request(corr: u64, deadline_ms: Option<u64>, keys: &[(u64, u64)]) -> Vec<u8> {
    many(corr, deadline_ms, None, keys)
}

/// Decodes a request frame. Rejects anything that is not a well-formed
/// fast-path request within [`MAX_BATCH_KEYS`]; what it accepts always
/// carries its tag in `corr`.
pub fn decode_request(payload: &[u8]) -> std::io::Result<RequestFrame> {
    let mut c = Cursor(payload);
    if c.u8()? != MAGIC {
        return Err(err("not a fast-path request"));
    }
    let verb = c.u8()?;
    let flags = c.u8()?;
    if flags & !(FLAG_DEADLINE | FLAG_TRACE) != 0 {
        return Err(err(format!("unknown fast-path request flags {flags:#04x}")));
    }
    let tag = c.u64()?;
    let deadline_ms = if flags & FLAG_DEADLINE != 0 { Some(c.u64()?) } else { None };
    let trace = if flags & FLAG_TRACE != 0 {
        Some(TraceContext { trace: TraceId(c.u64()?), span: SpanId(c.u64()?) })
    } else {
        None
    };
    let body = match verb {
        VERB_PREDICT => Request::Predict { system_hash: c.u64()?, binary_hash: c.u64()? },
        VERB_PREDICT_MANY => {
            let n = c.count("batch")?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push((c.u64()?, c.u64()?));
            }
            Request::PredictMany { keys }
        }
        other => return Err(err(format!("unknown fast-path request verb {other}"))),
    };
    c.done()?;
    Ok(RequestFrame { deadline_ms, trace, corr: Some(tag), body })
}

fn reply_head(verb: u8, corr: u64, body_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 8 + body_len);
    out.push(MAGIC);
    out.push(verb);
    out.extend_from_slice(&corr.to_le_bytes());
    out
}

fn put_config(out: &mut Vec<u8>, c: &CpuConfig) {
    out.extend_from_slice(&c.cores.to_le_bytes());
    out.extend_from_slice(&c.frequency_khz.to_le_bytes());
    out.extend_from_slice(&c.threads_per_core.to_le_bytes());
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Encodes the daemon's reply to a fast-path request. `Config`, `Miss`,
/// `ManyConfigs`, `Error` and `DeadlineExceeded` are the only responses
/// the daemon produces for the hot verbs; anything else goes back as an
/// `Error` naming it.
pub fn encode_reply(corr: u64, response: &Response) -> Vec<u8> {
    match response {
        Response::Config(c) => {
            let mut out = reply_head(VERB_CONFIG, corr, 16);
            put_config(&mut out, c);
            out
        }
        Response::Miss { system_hash, binary_hash } => {
            let mut out = reply_head(VERB_MISS, corr, 16);
            put_key(&mut out, (*system_hash, *binary_hash));
            out
        }
        Response::ManyConfigs { results } => {
            let mut out = reply_head(VERB_MANY, corr, 4 + results.len() * 17);
            out.extend_from_slice(&(results.len() as u32).to_le_bytes());
            for outcome in results {
                match outcome {
                    KeyOutcome::Config(c) => {
                        out.push(0);
                        put_config(&mut out, c);
                    }
                    KeyOutcome::Miss => out.push(1),
                    KeyOutcome::Error { message } => {
                        out.push(2);
                        put_text(&mut out, message);
                    }
                }
            }
            out
        }
        Response::DeadlineExceeded => reply_head(VERB_DEADLINE, corr, 0),
        other => {
            let message = match other {
                Response::Error { message } => message.clone(),
                unexpected => format!("unexpected fast-path response {unexpected:?}"),
            };
            let mut out = reply_head(VERB_ERROR, corr, 4 + message.len());
            put_text(&mut out, &message);
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
        VERB_CONFIG => Response::Config(c.config()?),
        VERB_MISS => Response::Miss { system_hash: c.u64()?, binary_hash: c.u64()? },
        VERB_MANY => {
            let n = c.count("reply")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(match c.u8()? {
                    0 => KeyOutcome::Config(c.config()?),
                    1 => KeyOutcome::Miss,
                    2 => KeyOutcome::Error { message: c.text()? },
                    tag => return Err(err(format!("unknown fast-path outcome tag {tag}"))),
                });
            }
            Response::ManyConfigs { results }
        }
        VERB_ERROR => Response::Error { message: c.text()? },
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

    /// Every hot-verb shape: both verbs × deadline or not × traced or not.
    fn frames() -> Vec<RequestFrame> {
        let ctx = TraceContext { trace: TraceId(3), span: SpanId(u64::MAX) };
        let mut out = Vec::new();
        for body in
            [Request::Predict { system_hash: u64::MAX, binary_hash: 9 }, Request::PredictMany { keys: keys(5) }]
        {
            for deadline_ms in [None, Some(0), Some(250)] {
                for trace in [None, Some(ctx)] {
                    out.push(RequestFrame { deadline_ms, trace, corr: Some(42), body: body.clone() });
                }
            }
        }
        out
    }

    #[test]
    fn request_round_trips() {
        for frame in frames() {
            let wire = encode_frame(&frame).expect("a hot verb");
            assert!(is_binary(&wire));
            assert_eq!(decode_request(&wire).unwrap(), frame);
        }
        assert_eq!(encode_frame(&RequestFrame::new(Request::Ping)), None, "the control plane stays JSON");
    }

    #[test]
    fn reply_round_trips_every_outcome() {
        let responses = [
            Response::ManyConfigs {
                results: vec![
                    KeyOutcome::Config(CpuConfig::new(16, 2_600_000, 2)),
                    KeyOutcome::Miss,
                    KeyOutcome::Error { message: "backend exploded".into() },
                ],
            },
            Response::Config(CpuConfig::new(32, 2_200_000, 1)),
            Response::Miss { system_hash: 1, binary_hash: u64::MAX },
            Response::DeadlineExceeded,
            Response::Error { message: "malformed".into() },
        ];
        for (corr, response) in responses.into_iter().enumerate() {
            let wire = encode_reply(corr as u64, &response);
            assert!(is_binary(&wire));
            assert_eq!(decode_reply(&wire).unwrap(), (corr as u64, response));
        }
    }

    #[test]
    fn json_is_never_mistaken_for_binary() {
        assert!(!is_binary(b"{\"Ping\":null}"));
        assert!(!is_binary(b"\"Pong\""));
        assert!(!is_binary(b""));
    }

    #[test]
    fn truncation_trailing_bytes_and_unknown_flags_are_rejected() {
        for frame in frames() {
            let wire = encode_frame(&frame).unwrap();
            for cut in 0..wire.len() {
                assert!(decode_request(&wire[..cut]).is_err(), "cut at {cut} accepted");
            }
            let mut padded = wire.clone();
            padded.push(0);
            assert!(decode_request(&padded).is_err());
            let mut flagged = wire;
            flagged[2] |= 4;
            assert!(decode_request(&flagged).is_err());
        }
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let wire = encode_request(1, None, &keys(MAX_BATCH_KEYS + 1));
        assert!(decode_request(&wire).is_err());
    }
}
