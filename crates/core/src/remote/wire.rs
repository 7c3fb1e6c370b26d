//! Which bytes a frame is — decided here and nowhere else.
//!
//! The verb decides: `Predict` and `PredictMany` travel in the binary
//! layout of [`fastpath`] on every transport, trace context included,
//! and every other verb — the control plane — is JSON (a
//! [`RequestFrame`]). A reply payload is in the encoding its request
//! arrived in: binary for binary, always tagged; for JSON a
//! [`ResponseFrame`] envelope when the request was tagged and a bare
//! [`Response`] when it was not. The client's link, the daemon's
//! `PredictService::answer` and the simulated network all go through
//! these four functions.

use super::{fastpath, invalid_data, to_json, RequestFrame, Response, ResponseFrame};

/// The payload for `frame`: binary for the two hot verbs (an untagged
/// one goes out under tag 0), JSON for the rest.
pub fn encode_request(frame: &RequestFrame) -> std::io::Result<Vec<u8>> {
    match fastpath::encode_frame(frame) {
        Some(binary) => Ok(binary),
        None => to_json(frame),
    }
}

/// Whether `payload` is in the binary layout, and the frame it decodes
/// to. The flag is known even when the frame is malformed: that is the
/// encoding the error goes back in. JSON frames of every verb decode, so
/// a JSON `Predict` is served too — and answered in JSON.
pub fn decode_request(payload: &[u8]) -> (bool, std::io::Result<RequestFrame>) {
    if fastpath::is_binary(payload) {
        (true, fastpath::decode_request(payload))
    } else {
        (false, serde_json::from_slice(payload).map_err(invalid_data))
    }
}

/// The reply payload, in the encoding of the request it answers
/// (`binary` and `corr` as [`decode_request`] reported them). A binary
/// reply always carries a tag; an undecodable binary request had none
/// to echo and is answered under tag 0.
pub fn encode_reply(binary: bool, corr: Option<u64>, response: Response) -> Vec<u8> {
    if binary {
        return fastpath::encode_reply(corr.unwrap_or(0), &response);
    }
    match corr {
        Some(corr) => serde_json::to_vec(&ResponseFrame { corr, body: response }),
        None => serde_json::to_vec(&response),
    }
    .expect("wire types serialize infallibly")
}

/// The tag a reply payload echoes, if any, and the response it carries.
/// A JSON reply is parsed as an envelope first — the client tags every
/// frame, so that is the reply it expects — and a bare reply (the
/// accept loop's `Busy` bounce, which never reads the request) is
/// returned with no echo. The shapes cannot be confused: a binary reply
/// opens with a byte JSON never produces, and an envelope and a bare
/// `Response` each fail to parse as the other (see [`ResponseFrame`]).
pub fn decode_reply(payload: &[u8]) -> std::io::Result<(Option<u64>, Response)> {
    if fastpath::is_binary(payload) {
        let (tag, response) = fastpath::decode_reply(payload)?;
        return Ok((Some(tag), response));
    }
    if let Ok(envelope) = serde_json::from_slice::<ResponseFrame>(payload) {
        return Ok((Some(envelope.corr), envelope.body));
    }
    Ok((None, serde_json::from_slice(payload).map_err(invalid_data)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{KeyOutcome, Request};
    use crate::telemetry::{SpanId, TraceContext, TraceId};
    use eco_sim_node::cpu::CpuConfig;

    fn traced(body: Request) -> RequestFrame {
        RequestFrame::with_deadline(body, 80)
            .traced(Some(TraceContext { trace: TraceId(5), span: SpanId(6) }))
            .with_corr(42)
    }

    #[test]
    fn the_verb_picks_the_encoding_and_a_frame_decodes_to_itself() {
        let hot = [Request::Predict { system_hash: 1, binary_hash: 2 }, Request::PredictMany { keys: vec![(1, 2)] }];
        let control = [Request::Ping, Request::Stats, Request::Preload { model_id: 3 }];
        for (body, binary) in hot.into_iter().map(|b| (b, true)).chain(control.into_iter().map(|b| (b, false))) {
            let frame = traced(body);
            let wire = encode_request(&frame).unwrap();
            assert_eq!(fastpath::is_binary(&wire), binary, "{frame:?}");
            let (was_binary, back) = decode_request(&wire);
            assert_eq!((was_binary, back.unwrap()), (binary, frame));
        }
        // a hand-written JSON hot frame is still a frame
        let frame = traced(Request::Predict { system_hash: 1, binary_hash: 2 });
        let (binary, back) = decode_request(&to_json(&frame).unwrap());
        assert_eq!((binary, back.unwrap()), (false, frame));
    }

    #[test]
    fn a_reply_comes_back_in_its_requests_encoding_with_its_tag() {
        let body = Response::ManyConfigs { results: vec![KeyOutcome::Config(CpuConfig::new(32, 2_200_000, 1))] };
        for (binary, corr, echo) in [(true, Some(9), Some(9)), (false, Some(9), Some(9)), (false, None, None)] {
            let wire = encode_reply(binary, corr, body.clone());
            assert_eq!(fastpath::is_binary(&wire), binary);
            assert_eq!(decode_reply(&wire).unwrap(), (echo, body.clone()));
        }
        // a bare reply to a tagged request (the Busy bounce) carries no echo
        let bounce = encode_reply(false, None, Response::Busy { retry_after_ms: 5 });
        assert_eq!(decode_reply(&bounce).unwrap(), (None, Response::Busy { retry_after_ms: 5 }));
    }
}
