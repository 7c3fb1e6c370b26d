//! One endpoint's persistent connection — the only client code that
//! touches a [`Connection`].

use super::{wire, Connection, RemoteError, Request, RequestFrame, Response, Transport};
use crate::telemetry::TraceContext;

/// Dials lazily, holds the connection across exchanges and drops it
/// itself whenever it can no longer be trusted.
pub(super) struct Link {
    pub(super) desc: String,
    /// Cached [`Transport::is_local`].
    pub(super) local: bool,
    pub(super) transport: Box<dyn Transport>,
    conn: Option<Box<dyn Connection>>,
}

impl Link {
    pub(super) fn new(transport: Box<dyn Transport>) -> Link {
        Link { desc: transport.describe(), local: transport.is_local(), transport, conn: None }
    }

    /// One framed exchange, dialing first if necessary. Any `Err` costs
    /// the connection (dead, or desynced and reading one reply behind
    /// forever), and so does `Busy` (the daemon hangs up after a bounce).
    pub(super) fn exchange(&mut self, frame: &RequestFrame) -> Result<Response, RemoteError> {
        let result = self.round_trip(frame);
        let in_step = matches!(&result, Ok(response) if !matches!(response, Response::Busy { .. }));
        if !in_step {
            self.conn = None;
        }
        result
    }

    /// A liveness probe: whether the endpoint answers a `Ping` with
    /// `Pong`. Anything else costs the connection — even an `Error`,
    /// which [`response_matches`] lets answer any verb but which no
    /// daemon sends for a `Ping`: it is a stale reply read one ahead.
    pub(super) fn probe(&mut self, trace: Option<TraceContext>) -> bool {
        let alive = matches!(self.exchange(&RequestFrame::new(Request::Ping).traced(trace)), Ok(Response::Pong));
        if !alive {
            self.conn = None;
        }
        alive
    }

    /// A tagged frame ([`RequestFrame::corr`]; every batch frame is) is
    /// answered under the same tag, and an echo of any other tag is a
    /// stale, duplicated or foreign reply. A bare reply to a tagged
    /// frame is taken in order: the accept loop's `Busy` bounce never
    /// reads the request. Either way the reply must be a shape that can
    /// answer the verb (see [`response_matches`]).
    fn round_trip(&mut self, frame: &RequestFrame) -> Result<Response, RemoteError> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            vacant => vacant.insert(self.transport.connect().map_err(RemoteError::Connect)?),
        };
        let payload = wire::encode_request(frame, conn.fast_batch()).map_err(RemoteError::Io)?;
        conn.send_frame(&payload).map_err(RemoteError::Io)?;
        let reply = conn.recv_frame().map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                RemoteError::Protocol(e.to_string())
            } else {
                RemoteError::Io(e)
            }
        })?;
        let (echo, response) =
            wire::decode_reply(&reply, frame.corr.is_some()).map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let verb = frame.body.verb();
        if let Some(tag) = echo.filter(|&tag| Some(tag) != frame.corr) {
            return Err(RemoteError::Protocol(format!("reply to {verb} echoes tag {tag}, not this exchange's")));
        }
        if !response_matches(&frame.body, &response) {
            return Err(RemoteError::Protocol(format!("desynced reply to {verb}: got {response:?}")));
        }
        Ok(response)
    }
}

/// Whether `resp` is a shape the daemon could legitimately send for
/// `req`. `Busy`, `Error` and `DeadlineExceeded` answer any verb; every
/// other response pairs one-to-one with its request, a batch reply with
/// exactly one outcome per key. A mismatched pair means a duplicated or
/// reordered frame was consumed as this exchange's reply.
fn response_matches(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (_, Response::Busy { .. } | Response::Error { .. } | Response::DeadlineExceeded) => true,
        (Request::PredictMany { keys }, Response::ManyConfigs { results }) => keys.len() == results.len(),
        _ => matches!(
            (req, resp),
            (Request::Ping, Response::Pong)
                | (Request::Predict { .. }, Response::Config(_) | Response::Miss { .. })
                | (Request::Preload { .. }, Response::Preloaded { .. })
                | (Request::Stats, Response::Stats(_))
                | (Request::ReportOutcome { .. }, Response::OutcomeAck { .. })
        ),
    }
}
