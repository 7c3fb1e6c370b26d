//! One endpoint's persistent connection — the only client code that
//! touches a [`Connection`].

use std::sync::Arc;
use std::time::Duration;

use super::{wire, Connection, RemoteError, Request, RequestFrame, Response, Transport};
use crate::telemetry::TraceContext;

/// Dials lazily, holds the connection across exchanges and drops it
/// itself whenever it can no longer be trusted.
pub(super) struct Link {
    /// [`Transport::describe`], shared with the spans that name it.
    pub(super) desc: Arc<str>,
    /// Cached [`Transport::is_local`].
    pub(super) local: bool,
    pub(super) transport: Box<dyn Transport>,
    conn: Option<Box<dyn Connection>>,
    /// The last tag stamped on a frame; never reused, so the echo check
    /// tells this exchange's reply from any earlier one's.
    last_tag: u64,
}

impl Link {
    pub(super) fn new(transport: Box<dyn Transport>) -> Link {
        Link { desc: transport.describe().into(), local: transport.is_local(), transport, conn: None, last_tag: 0 }
    }

    /// One framed exchange under a fresh tag, dialing first if
    /// necessary, that waits at most `share` in all. Any `Err` costs the
    /// connection (dead, or desynced and reading one reply behind
    /// forever), and so does `Busy` (the daemon hangs up after a bounce).
    pub(super) fn exchange(&mut self, frame: &mut RequestFrame, share: Duration) -> Result<Response, RemoteError> {
        self.last_tag += 1;
        frame.corr = Some(self.last_tag);
        let result = self.round_trip(frame, share);
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
    pub(super) fn probe(&mut self, trace: Option<TraceContext>, share: Duration) -> bool {
        let alive =
            matches!(self.exchange(&mut RequestFrame::new(Request::Ping).traced(trace), share), Ok(Response::Pong));
        if !alive {
            self.conn = None;
        }
        alive
    }

    /// Every frame is tagged ([`RequestFrame::corr`]) and a tagged reply
    /// must echo the same tag: an echo of any other tag is a stale,
    /// duplicated or foreign reply. A bare reply is taken in order: the
    /// accept loop's `Busy` bounce never reads the request. Either way
    /// the reply must be a shape that can answer the verb (see
    /// [`response_matches`]). A dial spends from `share`; the
    /// connection is armed with what is left of it.
    fn round_trip(&mut self, frame: &RequestFrame, share: Duration) -> Result<Response, RemoteError> {
        let (conn, left) = match &mut self.conn {
            Some(conn) => (conn, share),
            vacant => {
                let dialing = self.transport.now();
                let conn = vacant.insert(self.transport.connect_within(share).map_err(RemoteError::Connect)?);
                (conn, share.saturating_sub(self.transport.now().saturating_sub(dialing)))
            }
        };
        conn.arm(left).map_err(RemoteError::Io)?;
        let payload = wire::encode_request(frame).map_err(RemoteError::Io)?;
        conn.send_frame(&payload).map_err(RemoteError::Io)?;
        let reply = conn.recv_frame().map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                RemoteError::Protocol(e.to_string())
            } else {
                RemoteError::Io(e)
            }
        })?;
        let (echo, response) = wire::decode_reply(&reply).map_err(|e| RemoteError::Protocol(e.to_string()))?;
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
