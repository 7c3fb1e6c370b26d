//! Which bytes a frame is — decided here and nowhere else.
//!
//! A request payload is JSON (a [`RequestFrame`]) or, for a tagged
//! `PredictMany` on a connection that asks for it, the binary batch
//! layout of [`fastpath`]. A reply payload is in the encoding its
//! request arrived in: binary for binary; for JSON a [`ResponseFrame`]
//! envelope when the request was tagged and a bare [`Response`] when it
//! was not. The client's link, the daemon's `PredictService::answer` and
//! the simulated network all go through these four functions.

use super::{fastpath, invalid_data, to_json, Request, RequestFrame, Response, ResponseFrame};

/// The payload for `frame`. `fast` asks for the binary layout, which
/// only a tagged `PredictMany` has; every other frame is JSON either
/// way (the binary layout has no slot for a trace header: a fast batch
/// travels untraced).
pub fn encode_request(frame: &RequestFrame, fast: bool) -> std::io::Result<Vec<u8>> {
    match (&frame.body, frame.corr) {
        (Request::PredictMany { keys }, Some(tag)) if fast => {
            Ok(fastpath::encode_request(tag, frame.deadline_ms, keys))
        }
        _ => to_json(frame),
    }
}

/// Whether `payload` is in the binary layout, and the frame it decodes
/// to. The flag is known even when the frame is malformed: that is the
/// encoding the error goes back in.
pub fn decode_request(payload: &[u8]) -> (bool, std::io::Result<RequestFrame>) {
    if fastpath::is_binary(payload) {
        let frame = fastpath::decode_request(payload).map(|batch| RequestFrame {
            deadline_ms: batch.deadline_ms,
            trace: None,
            corr: Some(batch.corr),
            body: Request::PredictMany { keys: batch.keys },
        });
        (true, frame)
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
/// `tagged` says whether the request was: only then can a JSON reply be
/// an envelope, so an untagged single is parsed exactly once. A tagged
/// request may still be answered bare — the accept loop's `Busy` bounce
/// never reads the request — and that reply is returned with no echo.
/// The shapes cannot be confused: a binary reply opens with a byte JSON
/// never produces, and an envelope and a bare `Response` each fail to
/// parse as the other (see [`ResponseFrame`]).
pub fn decode_reply(payload: &[u8], tagged: bool) -> std::io::Result<(Option<u64>, Response)> {
    if fastpath::is_binary(payload) {
        let (tag, response) = fastpath::decode_reply(payload)?;
        return Ok((Some(tag), response));
    }
    if tagged {
        if let Ok(envelope) = serde_json::from_slice::<ResponseFrame>(payload) {
            return Ok((Some(envelope.corr), envelope.body));
        }
    }
    Ok((None, serde_json::from_slice(payload).map_err(invalid_data)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::KeyOutcome;
    use eco_sim_node::cpu::CpuConfig;

    fn batch() -> RequestFrame {
        RequestFrame::with_deadline(Request::PredictMany { keys: vec![(1, 2), (u64::MAX, 0)] }, 80).with_corr(42)
    }

    #[test]
    fn a_request_decodes_to_itself_in_either_encoding() {
        for fast in [false, true] {
            let wire = encode_request(&batch(), fast).unwrap();
            assert_eq!(fastpath::is_binary(&wire), fast);
            let (binary, frame) = decode_request(&wire);
            assert_eq!((binary, frame.unwrap()), (fast, batch()));
        }
        // only a tagged batch has a binary form; asking for it elsewhere is JSON
        for frame in [RequestFrame::new(batch().body), RequestFrame::new(Request::Ping).with_corr(7)] {
            let (binary, back) = decode_request(&encode_request(&frame, true).unwrap());
            assert_eq!((binary, back.unwrap()), (false, frame));
        }
    }

    #[test]
    fn a_reply_comes_back_in_its_requests_encoding_with_its_tag() {
        let body = Response::ManyConfigs { results: vec![KeyOutcome::Config(CpuConfig::new(32, 2_200_000, 1))] };
        for (binary, corr, echo) in [(true, Some(9), Some(9)), (false, Some(9), Some(9)), (false, None, None)] {
            let wire = encode_reply(binary, corr, body.clone());
            assert_eq!(fastpath::is_binary(&wire), binary);
            assert_eq!(decode_reply(&wire, corr.is_some()).unwrap(), (echo, body.clone()));
        }
        // a bare reply to a tagged request (the Busy bounce) carries no echo
        let bounce = encode_reply(false, None, Response::Busy { retry_after_ms: 5 });
        assert_eq!(decode_reply(&bounce, true).unwrap(), (None, Response::Busy { retry_after_ms: 5 }));
        // an envelope is never the reply to an untagged request
        assert!(decode_reply(&encode_reply(false, Some(1), Response::Pong), false).is_err());
    }
}
