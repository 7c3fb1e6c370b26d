//! Property-based tests for the `chronus::remote` wire codec: arbitrary
//! frames survive encode → decode identically, arbitrary junk never
//! panics the framing layer, streaming reassembly is insensitive to
//! how the bytes are chunked, and the frame-level [`Connection`]
//! abstraction is transparent — a byte-stream transport under the
//! blanket impl and a message transport implementing the trait
//! directly produce identical exchanges.

use std::collections::VecDeque;
use std::io::{Read, Write};

use bytes::BytesMut;
use chronus::remote::{
    read_frame, take_frame, write_frame, Connection, KeyOutcome, ObservedOutcome, Request, RequestFrame, Response,
    ResponseFrame, StatsSnapshot, MAX_BATCH_KEYS, MAX_FRAME_LEN,
};
use chronus::telemetry::{SpanId, TraceContext, TraceId};
use eco_sim_node::cpu::CpuConfig;
use proptest::prelude::*;

/// A loopback byte stream: writes append to an internal buffer, reads
/// drain it. Being `Read + Write + Send`, it gets [`Connection`] from
/// the blanket impl — this is "a TCP socket" for the equivalence
/// properties, byte-exact down to the length prefixes.
#[derive(Default)]
struct ByteLoop {
    buf: VecDeque<u8>,
}

impl Read for ByteLoop {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = self.buf.pop_front().expect("n is bounded by len");
        }
        Ok(n)
    }
}

impl Write for ByteLoop {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A loopback *message* pipe implementing [`Connection`] directly, the
/// way the shared-memory ring and the simulated channels do: whole
/// payloads in, whole payloads out, no length prefixes anywhere.
#[derive(Default)]
struct FrameLoop {
    frames: VecDeque<Vec<u8>>,
}

impl Connection for FrameLoop {
    fn send_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "oversized frame"));
        }
        self.frames.push_back(payload.to_vec());
        Ok(())
    }

    fn recv_frame(&mut self) -> std::io::Result<Vec<u8>> {
        self.frames.pop_front().ok_or_else(|| std::io::Error::new(std::io::ErrorKind::WouldBlock, "no frame queued"))
    }
}

fn arb_config() -> impl Strategy<Value = CpuConfig> {
    (1u32..=64, prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]), 1u32..=2)
        .prop_map(|(c, f, t)| CpuConfig::new(c, f, t))
}

fn arb_keys() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(((0u64..=u64::MAX), (0u64..=u64::MAX)), 0..9)
}

/// Finite, in-range production observations. Finite `f64`s round-trip
/// exactly through the JSON wire (shortest-representation printing);
/// NaN/infinity are excluded because the wire maps them to `null`,
/// which the ingest side rejects as malformed rather than decodes.
fn arb_observed() -> impl Strategy<Value = ObservedOutcome> {
    (arb_config(), 0.0f64..1e9, 0.0f64..1e6, 0.0f64..1e7, "[a-z0-9-]{0,12}").prop_map(
        |(config, gflops, watts, duration_s, node_class)| ObservedOutcome {
            config,
            gflops,
            watts,
            duration_s,
            node_class,
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0u32..6, (0u64..=u64::MAX), (0u64..=u64::MAX), (-1_000i64..=1_000_000), arb_keys(), arb_observed()).prop_map(
        |(kind, a, b, id, keys, outcome)| match kind {
            0 => Request::Ping,
            1 => Request::Predict { system_hash: a, binary_hash: b },
            2 => Request::Preload { model_id: id },
            3 => Request::Stats,
            4 => Request::PredictMany { keys },
            _ => Request::ReportOutcome { system_hash: a, binary_hash: b, outcome },
        },
    )
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    ((0u64..=u64::MAX), (0u64..=u64::MAX))
        .prop_map(|(trace, span)| TraceContext { trace: TraceId(trace), span: SpanId(span) })
}

fn arb_frame() -> impl Strategy<Value = RequestFrame> {
    (arb_request(), prop::option::of(0u64..=60_000), prop::option::of(arb_trace()), prop::option::of(0u64..=u64::MAX))
        .prop_map(|(body, deadline_ms, trace, corr)| RequestFrame { deadline_ms, trace, corr, body })
}

fn arb_snapshot() -> impl Strategy<Value = StatsSnapshot> {
    (
        prop::collection::vec(0u64..=u64::MAX, 32),
        "[a-z0-9-]{0,12}",
        "[a-z0-9/._-]{0,24}",
        prop::collection::vec(("[a-z0-9-]{0,10}", 0u64..=u64::MAX), 0..4),
        "[a-z0-9 /()-]{0,24}",
    )
        .prop_map(|(v, replica, store_dir, models_by_class, canary_state)| StatsSnapshot {
            replica,
            store_dir,
            models_by_class,
            canary_state,
            requests_total: v[0],
            predictions: v[1],
            cache_hits: v[2],
            cache_misses: v[3],
            busy_rejections: v[4],
            deadline_exceeded: v[5],
            errors: v[6],
            queue_depth: v[7],
            queue_capacity: v[8],
            workers: v[9],
            models_resident: v[10],
            evictions: v[11],
            model_generation: v[12],
            stale_generation_hits: v[13],
            generation_rollbacks: v[14],
            latency_p50_us: v[15],
            latency_p99_us: v[16],
            latency_max_us: v[17],
            preloads: v[18],
            store_catchups: v[19],
            store_generation: v[20],
            batches: v[21],
            batched_keys: v[22],
            outcomes_ingested: v[23],
            outcomes_rejected: v[24],
            outcome_reservoirs: v[25],
            drift_score_milli: v[26],
            drift_trips: v[27],
            drift_clears: v[28],
            adapt_refits: v[29],
            canary_promotions: v[30],
            canary_rollbacks: v[31],
        })
}

fn arb_outcome() -> impl Strategy<Value = KeyOutcome> {
    (0u32..3, arb_config(), ".{0,40}").prop_map(|(kind, config, text)| match kind {
        0 => KeyOutcome::Config(config),
        1 => KeyOutcome::Miss,
        _ => KeyOutcome::Error { message: text },
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u32..10,
        arb_config(),
        arb_snapshot(),
        (0u64..=u64::MAX),
        (0u64..=u64::MAX),
        (-1_000i64..=1_000_000),
        (".{0,80}", prop::collection::vec(arb_outcome(), 0..9)),
    )
        .prop_map(|(kind, config, stats, a, b, id, (text, results))| match kind {
            0 => Response::Pong,
            1 => Response::Config(config),
            2 => Response::Preloaded {
                model_id: id,
                model_type: text,
                system_hash: a,
                binary_hash: b,
                generation: id.unsigned_abs(),
            },
            3 => Response::Stats(Box::new(stats)),
            4 => Response::Busy { retry_after_ms: a % 10_000 },
            5 => Response::Miss { system_hash: a, binary_hash: b },
            6 => Response::DeadlineExceeded,
            7 => Response::Error { message: text.clone() },
            8 => Response::OutcomeAck { accepted: a % 2 == 0 },
            _ => Response::ManyConfigs { results },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request frame decodes back to exactly itself.
    #[test]
    fn request_frames_roundtrip(frame in arb_frame()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let decoded: RequestFrame = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Any response decodes back to exactly itself.
    #[test]
    fn responses_roundtrip(response in arb_response()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &response).unwrap();
        let decoded: Response = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(decoded, response);
    }

    /// A pipelined burst of frames reassembles identically no matter how
    /// the byte stream is chunked on the way in.
    #[test]
    fn streaming_reassembly_is_chunking_invariant(
        frames in prop::collection::vec(arb_frame(), 1..6),
        chunk in 1usize..48,
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.put_slice(piece);
            while let Some(payload) = take_frame(&mut buf).unwrap() {
                decoded.push(serde_json::from_slice::<RequestFrame>(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert!(buf.is_empty(), "no bytes may linger after the last frame");
    }

    /// Arbitrary junk bytes never panic the decoder: every outcome is a
    /// clean `Err` or a (lucky) decoded value.
    #[test]
    fn junk_bytes_never_panic_read_frame(junk in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = read_frame::<Response>(&mut junk.as_slice());
    }

    /// Arbitrary junk never panics the streaming path either; an
    /// oversized length prefix must surface as `Err`, not an allocation.
    #[test]
    fn junk_bytes_never_panic_take_frame(junk in prop::collection::vec(0u8..=255, 0..256)) {
        let mut buf = BytesMut::new();
        buf.put_slice(&junk);
        while let Ok(Some(_)) = take_frame(&mut buf) {}
    }

    /// A truncated valid frame is "not yet" (`Ok(None)`) for the
    /// streaming decoder, never an error or a phantom frame.
    #[test]
    fn truncated_frames_wait_for_more_bytes(frame in arb_frame(), keep in 0usize..4) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let cut = wire.len().saturating_sub(keep + 1);
        let mut buf = BytesMut::new();
        buf.put_slice(&wire[..cut]);
        prop_assert!(take_frame(&mut buf).unwrap().is_none());
    }

    /// Junk in the trace header slot never panics the decoder: whatever
    /// JSON value sits under `"trace"`, the outcome is a clean `Err` or
    /// a decoded frame.
    #[test]
    fn junk_trace_header_never_panics(
        junk in prop::sample::select(vec![
            "null", "42", "-1", "\"zz\"", "[]", "[1,2,3]", "{}",
            "{\"trace\":\"x\"}", "{\"trace\":1}", "{\"span\":2}",
            "{\"trace\":18446744073709551615,\"span\":null}",
            "{\"trace\":1,\"span\":2,\"extra\":true}",
            "true", "3.5", "{\"trace\":-7,\"span\":2}",
        ]),
        deadline in prop::option::of(0u64..=60_000),
    ) {
        let deadline_json = match deadline {
            Some(ms) => ms.to_string(),
            None => "null".to_string(),
        };
        let payload = format!(
            "{{\"deadline_ms\":{deadline_json},\"trace\":{junk},\"body\":\"Ping\"}}"
        );
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload.as_bytes());

        if let Ok(frame) = read_frame::<RequestFrame>(&mut wire.as_slice()) {
            prop_assert_eq!(frame.deadline_ms, deadline);
            prop_assert_eq!(frame.body, Request::Ping);
        }
    }

    /// A maximum-size batch — the largest frame the protocol promises
    /// to carry — round-trips on both directions of the exchange.
    #[test]
    fn max_size_batches_roundtrip(seed in 0u64..=u64::MAX, outcome in arb_outcome()) {
        let keys: Vec<(u64, u64)> = (0..MAX_BATCH_KEYS as u64).map(|i| (seed ^ i, i)).collect();
        let request = RequestFrame::new(Request::PredictMany { keys: keys.clone() });
        let mut wire = Vec::new();
        write_frame(&mut wire, &request).unwrap();
        let decoded: RequestFrame = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(decoded.body, Request::PredictMany { keys });

        let reply = Response::ManyConfigs { results: vec![outcome; MAX_BATCH_KEYS] };
        let mut wire = Vec::new();
        write_frame(&mut wire, &reply).unwrap();
        let decoded: Response = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(decoded, reply);
    }

    /// Any enveloped reply decodes back to exactly itself.
    #[test]
    fn enveloped_replies_roundtrip(corr in 0u64..=u64::MAX, body in arb_response()) {
        let envelope = ResponseFrame { corr, body };
        let mut wire = Vec::new();
        write_frame(&mut wire, &envelope).unwrap();
        let decoded: ResponseFrame = read_frame(&mut wire.as_slice()).unwrap();
        prop_assert_eq!(decoded, envelope);
    }

    /// The two reply shapes can never be confused: a bare response
    /// never decodes as an envelope (it has no `corr`), and an envelope
    /// never decodes as a bare response (no enum variant is `corr`).
    /// This is what lets one connection carry tagged and untagged
    /// exchanges.
    #[test]
    fn envelopes_and_bare_replies_never_confuse(corr in 0u64..=u64::MAX, body in arb_response()) {
        let mut bare = Vec::new();
        write_frame(&mut bare, &body).unwrap();
        prop_assert!(read_frame::<ResponseFrame>(&mut bare.as_slice()).is_err());

        let mut enveloped = Vec::new();
        write_frame(&mut enveloped, &ResponseFrame { corr, body }).unwrap();
        prop_assert!(read_frame::<Response>(&mut enveloped.as_slice()).is_err());
    }

    /// Pipelining, out of order: replies tagged with correlation ids
    /// arrive in an arbitrary permutation, and matching by corr always
    /// reunites each reply with its own request — never a neighbour's.
    #[test]
    fn corr_interleaving_never_cross_wires(
        bodies in prop::collection::vec(arb_response(), 2..6),
        rot in 0usize..8,
        reverse in 0u32..2,
    ) {
        let mut order: Vec<usize> = (0..bodies.len()).collect();
        order.rotate_left(rot % bodies.len());
        if reverse == 1 {
            order.reverse();
        }
        let mut wire = Vec::new();
        for &i in &order {
            write_frame(&mut wire, &ResponseFrame { corr: i as u64, body: bodies[i].clone() }).unwrap();
        }
        let mut stream = wire.as_slice();
        for _ in 0..bodies.len() {
            let envelope: ResponseFrame = read_frame(&mut stream).unwrap();
            prop_assert_eq!(&envelope.body, &bodies[envelope.corr as usize]);
        }
    }

    /// Arbitrary junk never panics the envelope decoder either.
    #[test]
    fn junk_bytes_never_panic_envelope_decode(junk in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = read_frame::<ResponseFrame>(&mut junk.as_slice());
    }

    /// Junk in the `corr` slot never panics the decoder.
    #[test]
    fn junk_corr_never_panics(
        // (a number past u64::MAX is rejected by the JSON layer itself,
        // so it is not a corr-level concern)
        junk in prop::sample::select(vec![
            "null", "-1", "\"zz\"", "[]", "{}", "3.5", "true",
            "18446744073709551615",
        ]),
    ) {
        let payload = format!("{{\"corr\":{junk},\"body\":\"Ping\"}}");
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload.as_bytes());

        if let Ok(frame) = read_frame::<RequestFrame>(&mut wire.as_slice()) {
            prop_assert_eq!(frame.body, Request::Ping);
        }
    }

    /// Transport transparency: any burst of payloads pushed through a
    /// byte-stream connection (blanket impl, length-prefixed) and a
    /// frame-level connection (direct impl, no prefixes) comes out
    /// identical on both — same payloads, same order. This is the
    /// property that lets `TcpTransport` and `ShmTransport` sit behind
    /// one `Connection` trait without the client caring which framed.
    #[test]
    fn byte_stream_and_frame_level_connections_exchange_identically(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..512), 0..8),
    ) {
        let mut bytes = ByteLoop::default();
        let mut frames = FrameLoop::default();
        for payload in &payloads {
            bytes.send_frame(payload).unwrap();
            frames.send_frame(payload).unwrap();
        }
        for payload in &payloads {
            prop_assert_eq!(&bytes.recv_frame().unwrap(), payload);
            prop_assert_eq!(&frames.recv_frame().unwrap(), payload);
        }
        prop_assert!(bytes.buf.is_empty(), "no bytes may linger after the last frame");
        prop_assert!(frames.frames.is_empty());
    }

    /// The blanket impl speaks exactly the classic wire format: bytes
    /// produced by `send_frame` on a stream are bit-identical to
    /// `write_frame`'s, and `read_frame`/`take_frame` decode them.
    #[test]
    fn blanket_impl_preserves_the_classic_wire_format(frame in arb_frame()) {
        let mut classic = Vec::new();
        write_frame(&mut classic, &frame).unwrap();

        let mut stream = ByteLoop::default();
        stream.send_frame(&serde_json::to_vec(&frame).unwrap()).unwrap();
        let streamed: Vec<u8> = stream.buf.iter().copied().collect();
        prop_assert_eq!(&streamed, &classic, "send_frame and write_frame must emit identical bytes");

        // and the stream side decodes what write_frame produced
        let mut replay = ByteLoop::default();
        replay.buf.extend(classic.iter().copied());
        let decoded: RequestFrame = serde_json::from_slice(&replay.recv_frame().unwrap()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Full exchanges — serialize, send, receive, deserialize — agree
    /// across the two connection kinds for every message shape, both
    /// directions of the protocol.
    #[test]
    fn exchanges_agree_across_connection_kinds(frame in arb_frame(), reply in arb_response()) {
        let mut bytes = ByteLoop::default();
        let mut frames = FrameLoop::default();
        for conn in [&mut bytes as &mut dyn Connection, &mut frames as &mut dyn Connection] {
            conn.send_frame(&serde_json::to_vec(&frame).unwrap()).unwrap();
            conn.send_frame(&serde_json::to_vec(&reply).unwrap()).unwrap();
            let got_frame: RequestFrame = serde_json::from_slice(&conn.recv_frame().unwrap()).unwrap();
            let got_reply: Response = serde_json::from_slice(&conn.recv_frame().unwrap()).unwrap();
            prop_assert_eq!(&got_frame, &frame);
            prop_assert_eq!(&got_reply, &reply);
        }
    }

    /// Both connection kinds refuse an oversized frame with a clean
    /// error *before* transmitting anything — a too-large payload can
    /// never poison the stream for the frames behind it.
    #[test]
    fn oversized_frames_are_refused_without_transmitting(extra in 1usize..=16) {
        let payload = vec![0u8; MAX_FRAME_LEN + extra];
        let mut bytes = ByteLoop::default();
        prop_assert!(bytes.send_frame(&payload).is_err());
        prop_assert!(bytes.buf.is_empty(), "the refused frame must leave no bytes behind");
        let mut frames = FrameLoop::default();
        prop_assert!(frames.send_frame(&payload).is_err());
        prop_assert!(frames.frames.is_empty());
    }

    /// Sending batches in the binary layout is a connection's explicit
    /// choice: the blanket impl over byte streams never makes it, and a
    /// direct impl does not inherit it.
    #[test]
    fn byte_streams_never_claim_the_fast_path(junk in prop::collection::vec(0u8..=255, 0..16)) {
        let mut bytes = ByteLoop::default();
        bytes.buf.extend(junk);
        prop_assert!(!Connection::fast_batch(&bytes));
        prop_assert!(!FrameLoop::default().fast_batch(), "opting in is explicit, never inherited");
    }
}
