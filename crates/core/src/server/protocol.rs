//! The serving wire protocol: length-prefixed UTF-8 text frames.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian length prefix followed by that many bytes of UTF-8
//! payload. The payload is a single line of space-separated tokens,
//! mostly `key=value` pairs, chosen so a session is debuggable with a
//! few lines of any language's socket library (or `xxd`). Frames are
//! capped at [`MAX_FRAME`] bytes; violations poison the connection, not
//! the server.
//!
//! Requests ([`Request`]):
//!
//! ```text
//! QUERY id=7 seed=42 deadline_ms=25 k=10 alpha=0.85 length=6 max_memory=65536 min_precision=0.9 precision=f32
//! STATS
//! PING
//! SHUTDOWN
//! ```
//!
//! Only `seed` is mandatory on `QUERY`; `id` (default 0) is echoed on
//! the response so clients may pipeline — under deadline scheduling
//! responses complete **out of order**. `deadline_ms` defaults to the
//! server's configured deadline and must be finite, non-negative, and
//! at most [`MAX_DEADLINE_MS`].
//!
//! Responses ([`Response`]):
//!
//! ```text
//! OK id=7 backend=meloppr latency_us=1234 degraded=0 precision=exact ranking=3:0.0625,9:0.03125
//! REJECTED id=7 reason=queue-full predicted_us=- remaining_us=190
//! ERR id=7 message=no backend available: ...
//! STATS accepted=100 completed=97 ...
//! PONG
//! ```
//!
//! `precision=` on `QUERY` requests a score-arithmetic rung
//! (`exact` / `f32` / `q<N>`, see [`PrecisionClass`]); on `OK` it
//! reports the rung the query **executed** at — the admission ladder may
//! have degraded the requested one to make a tight deadline.
//!
//! Scores are rendered with Rust's shortest-roundtrip `f64` formatting,
//! so a parsed ranking is **bit-identical** to the server's (the
//! loopback integration test relies on this). The three
//! [`RejectReason`]s are the typed outcomes of deadline scheduling:
//! `queue-full` (load shed), `deadline-unmeetable` (fast-fail at
//! admission: even the cheapest calibrated backend cannot make it) and
//! `deadline-exceeded` (the deadline expired while queued).

use std::io::{self, Read, Write};

use meloppr_graph::NodeId;

use crate::backend::{BackendKind, QueryRequest};
use crate::quantized::PrecisionClass;
use crate::score_vec::Ranking;

/// Maximum frame payload size in bytes. Large enough for any sane
/// ranking, small enough that a garbage length prefix cannot make the
/// server buffer gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Largest accepted `deadline_ms` (one hour). A deadline is untrusted
/// client input that feeds straight into `Duration` arithmetic, where
/// `inf`/`NaN`/astronomical values panic — so anything non-finite,
/// negative, or beyond this cap is a protocol error at parse time, not
/// a panic in a connection thread.
pub const MAX_DEADLINE_MS: f64 = 3_600_000.0;

/// Writes one frame: 4-byte big-endian payload length, then the payload,
/// then flushes `w` (so a client writing through a `BufWriter` sends every
/// frame as it goes).
///
/// # Errors
///
/// Propagates I/O errors; oversized payloads are `InvalidInput`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    put_frame(w, payload)?;
    w.flush()
}

/// [`write_frame`] without the flush: the server's connection writer
/// queues every response already waiting and flushes them together.
pub(crate) fn put_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())
}

/// One observed event on a framed connection.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame arrived.
    Frame(String),
    /// The read timed out (or would block) before a whole frame arrived.
    /// Any partial frame stays buffered; the caller may check its own
    /// state (a server connection reader checks for shutdown) and read
    /// again.
    Idle,
    /// The peer closed the connection.
    Eof,
}

/// Incremental frame decoder that survives read timeouts.
///
/// Server connection readers read with a short [`read
/// timeout`](std::net::TcpStream::set_read_timeout) so they notice
/// shutdown while the peer is idle (responses go out on a separate
/// writer thread and never wait for a read). A timeout can split a frame
/// across reads, so the decoder buffers partial input between
/// [`FrameReader::read_event`] calls.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads until one complete frame, a timeout tick, or EOF.
    ///
    /// # Errors
    ///
    /// Non-timeout I/O errors, oversized frames and invalid UTF-8 (all
    /// of which should poison the connection).
    pub fn read_event<R: Read>(&mut self, stream: &mut R) -> io::Result<FrameEvent> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(FrameEvent::Frame(frame));
            }
            match stream.read(&mut chunk) {
                // EOF: a partial buffered frame is abandoned with the
                // connection.
                Ok(0) => return Ok(FrameEvent::Eof),
                // lint:allow(panic-freedom) -- Read's contract bounds n by chunk.len()
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(FrameEvent::Idle)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether the decoder holds a partially received frame. After
    /// [`FrameEvent::Eof`] this distinguishes a clean close (frame
    /// boundary) from a peer that died mid-frame — the server counts
    /// the latter as an aborted connection.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pops one complete frame off the buffer, if present.
    fn take_frame(&mut self) -> io::Result<Option<String>> {
        let Some(&len_bytes) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            ));
        }
        let Some(body) = self.buf.get(4..4 + len) else {
            return Ok(None);
        };
        let payload = body.to_vec();
        self.buf.drain(..4 + len);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// One `QUERY` request: the seed plus optional per-query overrides and
/// the deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Client-chosen correlation id, echoed on the response (responses
    /// complete out of order under deadline scheduling).
    pub id: u64,
    /// The personalization seed node.
    pub seed: NodeId,
    /// Optional top-`k` override.
    pub k: Option<usize>,
    /// Optional decay-factor override.
    pub alpha: Option<f64>,
    /// Optional diffusion-length override.
    pub length: Option<usize>,
    /// Per-request deadline in milliseconds (`None` = server default).
    pub deadline_ms: Option<f64>,
    /// Optional enforced working-set bound, bytes.
    pub max_memory_bytes: Option<usize>,
    /// Optional expected-precision floor for routing.
    pub min_precision: Option<f64>,
    /// Optional requested score-arithmetic rung (the admission ladder
    /// may degrade it further under a tight deadline).
    pub precision: Option<PrecisionClass>,
}

impl QuerySpec {
    /// A request for `seed` with correlation id `id`, inheriting every
    /// server default.
    pub fn new(id: u64, seed: NodeId) -> Self {
        QuerySpec {
            id,
            seed,
            k: None,
            alpha: None,
            length: None,
            deadline_ms: None,
            max_memory_bytes: None,
            min_precision: None,
            precision: None,
        }
    }

    /// Sets the per-request deadline (builder style).
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: f64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// The unified-API request this spec describes (without the latency
    /// budget, which the scheduler derives from the *remaining* deadline
    /// at admission and again at execution).
    pub fn to_query_request(&self) -> QueryRequest {
        let mut req = QueryRequest::new(self.seed);
        if let Some(k) = self.k {
            req = req.with_k(k);
        }
        if let Some(alpha) = self.alpha {
            req = req.with_alpha(alpha);
        }
        if let Some(length) = self.length {
            req = req.with_length(length);
        }
        if let Some(bytes) = self.max_memory_bytes {
            req = req.with_max_memory_bytes(bytes);
        }
        if let Some(precision) = self.min_precision {
            req = req.with_min_precision(precision);
        }
        if let Some(class) = self.precision {
            req = req.with_precision(class);
        }
        req
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Serve one PPR query under a deadline.
    Query(QuerySpec),
    /// Return a telemetry snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to shut down (responds with final stats first).
    Shutdown,
}

impl Request {
    /// Renders the wire form.
    pub fn encode(&self) -> String {
        match self {
            Request::Stats => "STATS".into(),
            Request::Ping => "PING".into(),
            Request::Shutdown => "SHUTDOWN".into(),
            Request::Query(q) => {
                let mut out = format!("QUERY id={} seed={}", q.id, q.seed);
                append_optional(&mut out, "deadline_ms", q.deadline_ms);
                append_optional(&mut out, "k", q.k);
                append_optional(&mut out, "alpha", q.alpha);
                append_optional(&mut out, "length", q.length);
                append_optional(&mut out, "max_memory", q.max_memory_bytes);
                append_optional(&mut out, "min_precision", q.min_precision);
                append_optional(&mut out, "precision", q.precision);
                out
            }
        }
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// A human-readable reason (sent back as an `ERR` response).
    pub fn parse(payload: &str) -> Result<Request, String> {
        crate::failpoint::check("frame.parse").map_err(|f| f.to_string())?;
        let mut tokens = payload.split_whitespace();
        match tokens.next() {
            Some("STATS") => Ok(Request::Stats),
            Some("PING") => Ok(Request::Ping),
            Some("SHUTDOWN") => Ok(Request::Shutdown),
            Some("QUERY") => {
                let mut spec = QuerySpec::new(0, 0);
                let mut have_seed = false;
                for token in tokens {
                    let (key, value) = token
                        .split_once('=')
                        .ok_or_else(|| format!("malformed token {token:?} (want key=value)"))?;
                    match key {
                        "id" => spec.id = parse_value(key, value)?,
                        "seed" => {
                            spec.seed = parse_value(key, value)?;
                            have_seed = true;
                        }
                        "deadline_ms" => {
                            let ms: f64 = parse_value(key, value)?;
                            if !ms.is_finite() || !(0.0..=MAX_DEADLINE_MS).contains(&ms) {
                                return Err(format!(
                                    "deadline_ms {value:?} out of range \
                                     (want finite 0..={MAX_DEADLINE_MS})"
                                ));
                            }
                            spec.deadline_ms = Some(ms);
                        }
                        "k" => spec.k = Some(parse_value(key, value)?),
                        "alpha" => spec.alpha = Some(parse_value(key, value)?),
                        "length" => spec.length = Some(parse_value(key, value)?),
                        "max_memory" => spec.max_memory_bytes = Some(parse_value(key, value)?),
                        "min_precision" => spec.min_precision = Some(parse_value(key, value)?),
                        "precision" => {
                            let class: PrecisionClass = parse_value(key, value)?;
                            class.validate().map_err(|e| e.to_string())?;
                            spec.precision = Some(class);
                        }
                        other => return Err(format!("unknown QUERY key {other:?}")),
                    }
                }
                if !have_seed {
                    return Err("QUERY needs seed=<node>".into());
                }
                Ok(Request::Query(spec))
            }
            Some(other) => Err(format!("unknown command {other:?}")),
            None => Err("empty request".into()),
        }
    }
}

fn append_optional<T: std::fmt::Display>(out: &mut String, key: &str, value: Option<T>) {
    if let Some(value) = value {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        out.push_str(&value.to_string());
    }
}

fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad {key} {value:?}: {e}"))
}

/// Why a query was refused without being served — the typed half of
/// deadline scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was saturated and this request held the most
    /// distant deadline (load shedding keeps the oldest deadlines).
    QueueFull,
    /// At admission, even the cheapest calibrated backend's estimate
    /// exceeded the remaining deadline — fail fast instead of queueing
    /// doomed work.
    DeadlineUnmeetable,
    /// The deadline expired while the request waited in the queue.
    DeadlineExceeded,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::DeadlineUnmeetable => "deadline-unmeetable",
            RejectReason::DeadlineExceeded => "deadline-exceeded",
        })
    }
}

impl std::str::FromStr for RejectReason {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "queue-full" => Ok(RejectReason::QueueFull),
            "deadline-unmeetable" => Ok(RejectReason::DeadlineUnmeetable),
            "deadline-exceeded" => Ok(RejectReason::DeadlineExceeded),
            other => Err(format!("unknown reject reason {other:?}")),
        }
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query was served.
    Ranking {
        /// Echo of the request's correlation id.
        id: u64,
        /// Which solver served it.
        backend: BackendKind,
        /// End-to-end latency (arrival → completion), microseconds.
        latency_us: u64,
        /// Whether the answer is a degraded plan: the route did not fit
        /// every budget constraint, or the backend had to shrink its
        /// working set (`memory_limited`) to fit a byte budget.
        degraded: bool,
        /// The score-arithmetic rung the query **executed** at — may be
        /// lower than the requested rung when admission walked the
        /// precision ladder to make a tight deadline.
        precision: PrecisionClass,
        /// The top-`k` ranking, scores in shortest-roundtrip form (a
        /// parsed ranking is bit-identical to the server's).
        ranking: Ranking,
    },
    /// The query was refused with a typed reason.
    Rejected {
        /// Echo of the request's correlation id.
        id: u64,
        /// Why it was refused.
        reason: RejectReason,
        /// The estimate that doomed it (admission rejections only),
        /// microseconds.
        predicted_us: Option<u64>,
        /// Deadline budget remaining when the decision was made,
        /// microseconds (0 when already expired).
        remaining_us: u64,
    },
    /// The request failed (parse error, backend error, routing error).
    Error {
        /// Echo of the request's correlation id (0 when unparseable).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// A rendered telemetry snapshot (see
    /// [`TelemetrySnapshot::render_compact`](super::TelemetrySnapshot::render_compact)).
    Stats(String),
    /// Liveness reply.
    Pong,
}

impl Response {
    /// Renders the wire form.
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => "PONG".into(),
            Response::Stats(rendered) => format!("STATS {rendered}"),
            Response::Error { id, message } => format!("ERR id={id} message={message}"),
            Response::Rejected {
                id,
                reason,
                predicted_us,
                remaining_us,
            } => {
                let predicted = predicted_us
                    .map(|us| us.to_string())
                    .unwrap_or_else(|| "-".into());
                format!(
                    "REJECTED id={id} reason={reason} predicted_us={predicted} \
                     remaining_us={remaining_us}"
                )
            }
            Response::Ranking {
                id,
                backend,
                latency_us,
                degraded,
                precision,
                ranking,
            } => {
                let rendered: String = if ranking.is_empty() {
                    "-".into()
                } else {
                    ranking
                        .iter()
                        .map(|(node, score)| format!("{node}:{score}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "OK id={id} backend={backend} latency_us={latency_us} \
                     degraded={} precision={precision} ranking={rendered}",
                    *degraded as u8
                )
            }
        }
    }

    /// Parses the wire form (the client half; servers only encode).
    ///
    /// # Errors
    ///
    /// A human-readable reason.
    pub fn parse(payload: &str) -> Result<Response, String> {
        if payload == "PONG" {
            return Ok(Response::Pong);
        }
        if let Some(rest) = payload.strip_prefix("STATS ") {
            return Ok(Response::Stats(rest.to_string()));
        }
        if let Some(rest) = payload.strip_prefix("ERR ") {
            let rest = rest
                .strip_prefix("id=")
                .ok_or_else(|| "ERR without id".to_string())?;
            let (id, rest) = rest
                .split_once(' ')
                .ok_or_else(|| "ERR without message".to_string())?;
            let id = parse_value("id", id)?;
            let message = rest
                .strip_prefix("message=")
                .ok_or_else(|| "ERR without message".to_string())?
                .to_string();
            return Ok(Response::Error { id, message });
        }
        let mut tokens = payload.split_whitespace();
        match tokens.next() {
            Some("REJECTED") => {
                let id = parse_value("id", take_kv(&mut tokens, "id")?)?;
                let reason = parse_value("reason", take_kv(&mut tokens, "reason")?)?;
                let predicted = take_kv(&mut tokens, "predicted_us")?;
                let predicted_us = if predicted == "-" {
                    None
                } else {
                    Some(parse_value("predicted_us", predicted)?)
                };
                let remaining_us =
                    parse_value("remaining_us", take_kv(&mut tokens, "remaining_us")?)?;
                Ok(Response::Rejected {
                    id,
                    reason,
                    predicted_us,
                    remaining_us,
                })
            }
            Some("OK") => {
                let id = parse_value("id", take_kv(&mut tokens, "id")?)?;
                let backend = parse_value("backend", take_kv(&mut tokens, "backend")?)?;
                let latency_us = parse_value("latency_us", take_kv(&mut tokens, "latency_us")?)?;
                let degraded = take_kv(&mut tokens, "degraded")? == "1";
                let precision = parse_value("precision", take_kv(&mut tokens, "precision")?)?;
                let rendered = take_kv(&mut tokens, "ranking")?;
                let ranking = if rendered == "-" {
                    Vec::new()
                } else {
                    rendered
                        .split(',')
                        .map(|pair| {
                            let (node, score) = pair
                                .split_once(':')
                                .ok_or_else(|| format!("malformed ranking entry {pair:?}"))?;
                            Ok((parse_value("node", node)?, parse_value("score", score)?))
                        })
                        .collect::<Result<Ranking, String>>()?
                };
                Ok(Response::Ranking {
                    id,
                    backend,
                    latency_us,
                    degraded,
                    precision,
                    ranking,
                })
            }
            Some(other) => Err(format!("unknown response {other:?}")),
            None => Err("empty response".into()),
        }
    }
}

/// Pops the next `key=value` token, returning the value.
fn take_kv<'a>(tokens: &mut impl Iterator<Item = &'a str>, key: &str) -> Result<&'a str, String> {
    let token = tokens
        .next()
        .ok_or_else(|| format!("missing {key}=<value>"))?;
    let (actual, value) = token
        .split_once('=')
        .ok_or_else(|| format!("malformed token {token:?}"))?;
    if actual != key {
        return Err(format!("expected key {key:?}, found {actual:?}"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_split_reads_reassemble() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "world").unwrap();

        // Feed the stream one byte at a time through a reader that times
        // out between bytes: every frame must still come out intact.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            parity: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.parity = !self.parity;
                if self.parity {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                }
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut stream = Trickle {
            data: &wire,
            pos: 0,
            parity: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_event(&mut stream).unwrap() {
                FrameEvent::Frame(f) => frames.push(f),
                FrameEvent::Idle => continue,
                FrameEvent::Eof => break,
            }
        }
        assert_eq!(
            frames,
            vec!["hello".to_string(), String::new(), "world".into()]
        );
    }

    #[test]
    fn oversized_frames_are_refused_both_ways() {
        let huge = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
        let mut wire = Vec::from(u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"junk");
        let mut reader = FrameReader::new();
        assert!(reader.read_event(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn requests_roundtrip() {
        let specs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query(QuerySpec::new(9, 42)),
            Request::Query(QuerySpec {
                k: Some(5),
                alpha: Some(0.5),
                length: Some(4),
                deadline_ms: Some(12.5),
                max_memory_bytes: Some(1 << 16),
                min_precision: Some(0.9),
                ..QuerySpec::new(1, 7)
            }),
            Request::Query(QuerySpec {
                precision: Some(PrecisionClass::Fast32),
                ..QuerySpec::new(2, 8)
            }),
            Request::Query(QuerySpec {
                precision: Some(PrecisionClass::Fixed(12)),
                ..QuerySpec::new(3, 9)
            }),
        ];
        for req in specs {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req, "{req:?}");
        }
        for bad in [
            "",
            "FROBNICATE",
            "QUERY",
            "QUERY id=1",
            "QUERY seed=x",
            "QUERY seed=1 unknown=2",
            "QUERY seed=1 naked-token",
            // Hostile deadlines must die at parse, not as a Duration
            // panic in a connection thread.
            "QUERY seed=1 deadline_ms=inf",
            "QUERY seed=1 deadline_ms=NaN",
            "QUERY seed=1 deadline_ms=1e25",
            "QUERY seed=1 deadline_ms=-5",
            // Out-of-range Q formats must die at parse too.
            "QUERY seed=1 precision=q0",
            "QUERY seed=1 precision=q99",
            "QUERY seed=1 precision=double",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn query_spec_maps_onto_query_request() {
        let spec = QuerySpec {
            k: Some(5),
            alpha: Some(0.5),
            length: Some(4),
            deadline_ms: Some(12.5),
            max_memory_bytes: Some(1 << 16),
            min_precision: Some(0.9),
            precision: Some(PrecisionClass::Fast32),
            ..QuerySpec::new(1, 7)
        };
        let req = spec.to_query_request();
        assert_eq!(req.seed, 7);
        assert_eq!(req.k, Some(5));
        assert_eq!(req.overrides.alpha, Some(0.5));
        assert_eq!(req.overrides.length, Some(4));
        assert_eq!(req.budget.max_memory_bytes, Some(1 << 16));
        assert_eq!(req.budget.min_precision, Some(0.9));
        assert_eq!(req.budget.precision, Some(PrecisionClass::Fast32));
        // The latency budget is the scheduler's to set from the live
        // remaining deadline.
        assert_eq!(req.budget.max_latency_ms, None);
    }

    #[test]
    fn responses_roundtrip_with_bit_identical_scores() {
        let cases = [
            Response::Pong,
            Response::Stats("accepted=3 completed=3".into()),
            Response::Error {
                id: 4,
                message: "no backend available: woe is me".into(),
            },
            Response::Rejected {
                id: 5,
                reason: RejectReason::QueueFull,
                predicted_us: None,
                remaining_us: 17,
            },
            Response::Rejected {
                id: 6,
                reason: RejectReason::DeadlineUnmeetable,
                predicted_us: Some(12345),
                remaining_us: 0,
            },
            Response::Ranking {
                id: 7,
                backend: BackendKind::Meloppr,
                latency_us: 991,
                degraded: true,
                precision: PrecisionClass::Fast32,
                ranking: vec![(3, 0.1_f64), (9, 1.0 / 3.0), (1, f64::MIN_POSITIVE)],
            },
            Response::Ranking {
                id: 8,
                backend: BackendKind::LocalPpr,
                latency_us: 1,
                degraded: false,
                precision: PrecisionClass::Exact64,
                ranking: Vec::new(),
            },
            Response::Ranking {
                id: 9,
                backend: BackendKind::FpgaHybrid,
                latency_us: 77,
                degraded: false,
                precision: PrecisionClass::Fixed(14),
                ranking: vec![(0, 0.5_f64)],
            },
        ];
        for resp in cases {
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }
}
