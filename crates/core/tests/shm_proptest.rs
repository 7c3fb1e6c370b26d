//! Property-based tests for two pure codecs: the slot-header codec
//! (seq | len | check) that guards shared-memory ring slots against torn
//! and stale reads, and the binary fast-path layout every `Predict` and
//! `PredictMany` frame travels in, on the ring and on TCP alike.
//!
//! The properties the ring's correctness argument leans on:
//!
//! * a header round-trips exactly, and **only** the exact encoding of
//!   the expected sequence validates — junk never yields a phantom
//!   frame, and a slot torn at any byte is rejected;
//! * the fast-path codec round-trips every request — both verbs, every
//!   combination of the deadline and trace flags, any tag — and every
//!   reply shape it promises to carry, and every truncation, trailing
//!   byte or junk frame fails with a clean `Err`;
//! * binary frames and JSON frames can never be confused (`is_binary`
//!   keys off a byte serde_json cannot emit first).

use chronus::remote::shm::{decode_slot_header, encode_slot_header, slot_check, validate_slot, SLOT_PAYLOAD};
use chronus::remote::{fastpath, KeyOutcome, Request, RequestFrame, Response, MAX_BATCH_KEYS};
use chronus::telemetry::{SpanId, TraceContext, TraceId};
use eco_sim_node::cpu::CpuConfig;
use proptest::prelude::*;

fn arb_keys() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(((0u64..=u64::MAX), (0u64..=u64::MAX)), 0..48)
}

fn arb_outcome() -> impl Strategy<Value = KeyOutcome> {
    (0u32..3, 1u32..=64, prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]), 1u32..=2, ".{0,24}")
        .prop_map(|(kind, cores, freq, threads, text)| match kind {
            0 => KeyOutcome::Config(CpuConfig::new(cores, freq, threads)),
            1 => KeyOutcome::Miss,
            _ => KeyOutcome::Error { message: text },
        })
}

/// Either hot verb under any tag, with or without a deadline and a
/// trace context.
fn arb_hot_frame() -> impl Strategy<Value = RequestFrame> {
    (
        any::<bool>(),
        0u64..=u64::MAX,
        prop::option::of(0u64..=u64::MAX),
        prop::option::of(((0u64..=u64::MAX), (0u64..=u64::MAX))),
        arb_keys(),
    )
        .prop_map(|(single, tag, deadline_ms, trace, keys)| RequestFrame {
            deadline_ms,
            trace: trace.map(|(t, s)| TraceContext { trace: TraceId(t), span: SpanId(s) }),
            corr: Some(tag),
            body: match keys.first() {
                Some(&(system_hash, binary_hash)) if single => Request::Predict { system_hash, binary_hash },
                _ => Request::PredictMany { keys },
            },
        })
}

/// The replies a daemon actually produces for a hot verb.
fn arb_reply() -> impl Strategy<Value = Response> {
    (
        0u32..5,
        prop::collection::vec(arb_outcome(), 0..48),
        ".{0,40}",
        arb_outcome(),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
    )
        .prop_map(|(kind, results, message, outcome, (system_hash, binary_hash))| match kind {
            0 => Response::ManyConfigs { results },
            1 => Response::Error { message },
            2 => match outcome {
                KeyOutcome::Config(c) => Response::Config(c),
                _ => Response::Miss { system_hash, binary_hash },
            },
            3 => Response::Miss { system_hash, binary_hash },
            _ => Response::DeadlineExceeded,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // -- slot-header codec --------------------------------------------------

    /// A published header validates for exactly the reader expecting
    /// its sequence, yielding exactly its length.
    #[test]
    fn slot_headers_round_trip(seq in 0u64..=u64::MAX, len in 0u32..=SLOT_PAYLOAD) {
        let raw = encode_slot_header(seq, len);
        prop_assert_eq!(decode_slot_header(&raw, seq, SLOT_PAYLOAD), Some(len));
    }

    /// Arbitrary junk never panics the decoder, and never yields a
    /// frame unless it is bit-for-bit the exact encoding the reader
    /// expects — the "no phantom frames" half of the seqlock argument.
    #[test]
    fn junk_headers_never_yield_unless_exact(
        raw in prop::collection::vec(0u8..=255, 16),
        expect_seq in 0u64..=u64::MAX,
    ) {
        let raw: [u8; 16] = raw.try_into().expect("the strategy emits exactly 16 bytes");
        if let Some(len) = decode_slot_header(&raw, expect_seq, SLOT_PAYLOAD) {
            prop_assert_eq!(raw, encode_slot_header(expect_seq, len));
        }
    }

    /// A torn slot — any byte of a valid header replaced by anything
    /// else, modelling a reader racing a writer mid-store — never
    /// validates. The check word folds the sequence *and* the length
    /// in, so no torn combination of old and new words survives.
    #[test]
    fn a_tear_at_any_byte_is_rejected(
        seq in 0u64..=u64::MAX,
        len in 0u32..=SLOT_PAYLOAD,
        torn_at in 0usize..16,
        garbage in 0u8..=255,
    ) {
        let mut raw = encode_slot_header(seq, len);
        prop_assume!(raw[torn_at] != garbage);
        raw[torn_at] = garbage;
        prop_assert_eq!(decode_slot_header(&raw, seq, SLOT_PAYLOAD), None);
    }

    /// A stale header from an earlier lap of the ring — same slot,
    /// older sequence — never validates for a later reader, even
    /// though its check word is internally consistent.
    #[test]
    fn stale_laps_never_validate(seq in 0u64..u64::MAX, ahead in 1u64..=1_000, len in 0u32..=SLOT_PAYLOAD) {
        let raw = encode_slot_header(seq, len);
        prop_assert_eq!(decode_slot_header(&raw, seq.saturating_add(ahead), SLOT_PAYLOAD), None);
    }

    /// Oversized lengths are rejected even when seq and check agree —
    /// a corrupt peer cannot make the reader copy past the slot.
    #[test]
    fn oversized_lengths_are_rejected(seq in 0u64..=u64::MAX, over in 1u32..=1_000) {
        let len = SLOT_PAYLOAD + over;
        prop_assert_eq!(validate_slot(seq, seq, len, slot_check(seq, len), SLOT_PAYLOAD), None);
        let raw = encode_slot_header(seq, len);
        prop_assert_eq!(decode_slot_header(&raw, seq, SLOT_PAYLOAD), None);
    }

    // -- binary fast path ---------------------------------------------------

    /// Every fast-path request round-trips exactly: both verbs, every
    /// combination of flags, any tag.
    #[test]
    fn fastpath_requests_round_trip(frame in arb_hot_frame()) {
        let wire = fastpath::encode_frame(&frame).expect("a hot verb has a binary form");
        prop_assert!(fastpath::is_binary(&wire));
        prop_assert_eq!(fastpath::decode_request(&wire).unwrap(), frame);
    }

    /// The untraced batch encoder is the frame encoder's batch.
    #[test]
    fn the_batch_encoder_is_the_untraced_frame(
        corr in 0u64..=u64::MAX,
        deadline_ms in prop::option::of(0u64..=u64::MAX),
        keys in arb_keys(),
    ) {
        let frame = RequestFrame { deadline_ms, trace: None, corr: Some(corr), body: Request::PredictMany { keys } };
        let Request::PredictMany { keys } = &frame.body else { unreachable!() };
        prop_assert_eq!(fastpath::encode_request(corr, deadline_ms, keys), fastpath::encode_frame(&frame).unwrap());
    }

    /// Every reply shape the daemon produces for a hot verb round-trips
    /// exactly, correlation id included.
    #[test]
    fn fastpath_replies_round_trip(corr in 0u64..=u64::MAX, reply in arb_reply()) {
        let wire = fastpath::encode_reply(corr, &reply);
        prop_assert!(fastpath::is_binary(&wire));
        prop_assert_eq!(fastpath::decode_reply(&wire).unwrap(), (corr, reply));
    }

    /// A cut at every byte of a valid frame — a write torn anywhere —
    /// fails with a clean `Err`, never a panic and never a short
    /// phantom decode; so does a valid frame with bytes trailing it.
    #[test]
    fn cut_or_padded_fastpath_frames_fail_cleanly(
        frame in arb_hot_frame(),
        corr in 0u64..=u64::MAX,
        reply in arb_reply(),
        trailing in prop::collection::vec(0u8..=255, 1..4),
    ) {
        let request = fastpath::encode_frame(&frame).unwrap();
        for cut in 0..request.len() {
            prop_assert!(fastpath::decode_request(&request[..cut]).is_err(), "request cut at {}", cut);
        }
        prop_assert!(fastpath::decode_request(&[&request[..], &trailing[..]].concat()).is_err());

        let wire = fastpath::encode_reply(corr, &reply);
        for cut in 0..wire.len() {
            prop_assert!(fastpath::decode_reply(&wire[..cut]).is_err(), "reply cut at {}", cut);
        }
        prop_assert!(fastpath::decode_reply(&[&wire[..], &trailing[..]].concat()).is_err());
    }

    /// Arbitrary junk never panics either decoder — neither does junk
    /// behind a valid magic, verb and flags byte.
    #[test]
    fn junk_never_panics_fastpath_decoders(
        junk in prop::collection::vec(0u8..=255, 0..256),
        verb in 0u8..=8,
        flags in 0u8..=3,
    ) {
        let _ = fastpath::decode_request(&junk);
        let _ = fastpath::decode_reply(&junk);
        let headed = [&[fastpath::MAGIC, verb, flags][..], &junk[..]].concat();
        let _ = fastpath::decode_request(&headed);
        let _ = fastpath::decode_reply(&headed);
    }

    /// A batch over the protocol cap is refused at decode, not
    /// allocated — the daemon-side guard against a hostile header.
    #[test]
    fn oversized_batches_are_refused(corr in 0u64..=u64::MAX, over in 1usize..=8) {
        let keys: Vec<(u64, u64)> = (0..(MAX_BATCH_KEYS + over) as u64).map(|i| (i, i)).collect();
        let wire = fastpath::encode_request(corr, None, &keys);
        prop_assert!(fastpath::decode_request(&wire).is_err());
    }

    /// JSON and binary frames can never be confused: no JSON payload
    /// opens with the fast-path magic byte, so a connection carrying
    /// both (every one does: hot verbs binary, the control plane JSON)
    /// always dispatches each frame to the right decoder.
    #[test]
    fn json_is_never_mistaken_for_binary(keys in arb_keys(), deadline in prop::option::of(0u64..=60_000)) {
        let mut frame = RequestFrame::new(Request::PredictMany { keys });
        frame.deadline_ms = deadline;
        let json = serde_json::to_vec(&frame).unwrap();
        prop_assert!(!fastpath::is_binary(&json));
    }
}
