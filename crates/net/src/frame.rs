//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 LE length][u8 type][payload]`, where `length`
//! covers the type byte plus the payload. Multi-byte integers are
//! little-endian; floats are IEEE-754 bit patterns. The frame set:
//!
//! | type | frame          | payload                                              |
//! |-----:|----------------|------------------------------------------------------|
//! |    1 | `Hello`        | magic `u32`, version `u8`, wall µs `u64`             |
//! |    3 | `BatchSubmit`  | base req `u64`, count `u32`, `count` × query \[, trace id `u64`, span id `u64`\] |
//! |    5 | `BatchResult`  | base req `u64`, count `u32`, `count` × (tag, result\|error) |
//! |    6 | `Error`        | req `u64`, code `u8`, predicted µs `u64`, budget µs `u64`, msg len `u32`, msg |
//! |    7 | `Shutdown`     | empty                                                |
//! |    8 | `Mutate`       | req `u64`, index `u32`, count `u32`, `count` × (tag `u8`, insert: dim `u16` + dim × `f32` \| delete: id `u32`) |
//! |    9 | `MutateAck`    | req `u64`, accepted `u64`, rejected `u64`, epoch `u64`, pending `u64`, count `u32`, `count` × id `u32` |
//! |   10 | `SlowLogQuery` | req `u64`                                            |
//! |   11 | `SlowLog`      | req `u64`, json len `u32`, json                      |
//!
//! Type tags 2 and 4 are retired and decode as unknown types. A query of
//! its own is a one-query `BatchSubmit`.
//!
//! Handshake: both sides open with `Hello` of [`PROTOCOL_VERSION`] and
//! their trace-recorder wall-clock anchor (used to shift client trace
//! events onto the server timeline). The server answers a `Hello` of any
//! other version, or a wrong magic, with a `Protocol` error frame and
//! closes. The one optional field is the bracketed trace context on
//! `BatchSubmit`: client-minted trace + span ids, so server-side events
//! carry the originating client's identity; without it the frame is
//! 16 bytes shorter and decodes with `ctx: None`.
//!
//! Declared lengths above [`MAX_FRAME`] are rejected *before* any
//! allocation sized by the attacker-controlled length: [`read_frame`],
//! the one reader the server and the client share, checks the header
//! before it reads the body.

use gts_service::{IndexId, Mutation, Query, QueryKind, QueryResult, ServiceError, TraceContext};
use std::io::{Read, Write};
use std::time::Duration;

/// The one protocol version this build speaks; a peer must speak it too.
pub const PROTOCOL_VERSION: u8 = 3;

/// Magic opening every `Hello` payload (`b"GTS1"` little-endian).
pub const MAGIC: u32 = u32::from_le_bytes(*b"GTS1");

/// Hard cap on the declared frame length (type byte + payload): 16 MiB.
/// Large enough for a `BatchSubmit` of tens of thousands of 3-d queries,
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame type tags on the wire.
const T_HELLO: u8 = 1;
const T_BATCH_SUBMIT: u8 = 3;
const T_BATCH_RESULT: u8 = 5;
const T_ERROR: u8 = 6;
const T_SHUTDOWN: u8 = 7;
const T_MUTATE: u8 = 8;
const T_MUTATE_ACK: u8 = 9;
const T_SLOW_LOG_QUERY: u8 = 10;
const T_SLOW_LOG: u8 = 11;

/// Structured error category carried by `Error` frames and failed
/// `BatchResult` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Query named an unregistered index.
    UnknownIndex = 1,
    /// Position length does not match the index dimension.
    DimMismatch = 2,
    /// Parameters the kernels cannot run.
    BadQuery = 3,
    /// The service is draining; resubmit elsewhere.
    ShuttingDown = 4,
    /// Admission control rejected the query; `predicted_us` / `budget_us`
    /// carry the model.
    Overloaded = 5,
    /// Worker-side failure.
    Internal = 6,
    /// The peer violated the wire protocol.
    Protocol = 7,
}

impl ErrorCode {
    fn from_wire(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::UnknownIndex,
            2 => ErrorCode::DimMismatch,
            3 => ErrorCode::BadQuery,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Protocol,
            _ => return None,
        })
    }
}

/// A service-side failure as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable detail (the `ServiceError` display text).
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: modeled queue wait in µs; else 0.
    pub predicted_us: u64,
    /// For [`ErrorCode::Overloaded`]: the admission budget in µs; else 0.
    pub budget_us: u64,
}

impl WireError {
    /// Lower a [`ServiceError`] onto the wire.
    pub fn from_service(err: &ServiceError) -> WireError {
        let (code, predicted_us, budget_us) = match err {
            ServiceError::UnknownIndex(_) => (ErrorCode::UnknownIndex, 0, 0),
            ServiceError::DimMismatch { .. } => (ErrorCode::DimMismatch, 0, 0),
            ServiceError::BadQuery(_) => (ErrorCode::BadQuery, 0, 0),
            ServiceError::ShuttingDown => (ErrorCode::ShuttingDown, 0, 0),
            ServiceError::Overloaded {
                predicted_wait,
                budget,
            } => (
                ErrorCode::Overloaded,
                predicted_wait.as_micros() as u64,
                budget.as_micros() as u64,
            ),
            ServiceError::Internal(_) => (ErrorCode::Internal, 0, 0),
        };
        WireError {
            code,
            message: err.to_string(),
            predicted_us,
            budget_us,
        }
    }

    /// A protocol-violation error with a fixed message.
    pub fn protocol(message: impl Into<String>) -> WireError {
        WireError {
            code: ErrorCode::Protocol,
            message: message.into(),
            predicted_us: 0,
            budget_us: 0,
        }
    }

    /// The modeled wait, when this is an overload rejection.
    pub fn predicted_wait(&self) -> Option<Duration> {
        (self.code == ErrorCode::Overloaded).then(|| Duration::from_micros(self.predicted_us))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener; both directions.
    Hello {
        /// The protocol version the sender speaks.
        version: u8,
        /// Sender's trace-recorder wall-clock anchor in µs since the Unix
        /// epoch. Lets the receiver shift the sender's trace timestamps
        /// onto its own timeline.
        wall_us: u64,
    },
    /// `queries.len()` queries with implicit ids `base_req..`; answered by
    /// one `BatchResult` with the same `base_req`.
    BatchSubmit {
        /// Correlation id of the first query.
        base_req: u64,
        /// The queries, in id order.
        queries: Vec<Query>,
        /// Client-minted trace context for the whole batch (an optional
        /// trailer; `None` encodes no bytes).
        ctx: Option<TraceContext>,
    },
    /// Answer to `BatchSubmit`: one slot per query, in submission order.
    BatchResult {
        /// Correlation id of the first query.
        base_req: u64,
        /// Per-query outcomes.
        results: Vec<Result<QueryResult, WireError>>,
    },
    /// Failed answer to `Mutate` or `SlowLogQuery`, or a connection-level
    /// fault when `req == u64::MAX`.
    Error {
        /// Correlation id, or `u64::MAX` for connection-level errors.
        req: u64,
        /// The failure.
        error: WireError,
    },
    /// Graceful close. Client → server: "no more submissions, flush and
    /// close". Server → client: "flushed, closing now".
    Shutdown,
    /// A mutation batch against a mutable index; answered by `MutateAck`
    /// or `Error` with the same `req`.
    Mutate {
        /// Caller-chosen correlation id.
        req: u64,
        /// Target index.
        index: u32,
        /// The mutations, applied in order.
        muts: Vec<Mutation>,
    },
    /// Successful answer to `Mutate`.
    MutateAck {
        /// Correlation id from the `Mutate`.
        req: u64,
        /// Mutations applied.
        accepted: u64,
        /// Deletes of non-live ids skipped.
        rejected: u64,
        /// Merged epoch the batch landed on.
        epoch: u64,
        /// Delta depth after the batch.
        pending: u64,
        /// Ids assigned to the batch's inserts, in submission order.
        assigned: Vec<u32>,
    },
    /// Ask the server for its slow-query flight-recorder dump; answered
    /// by `SlowLog` or `Error` with the same `req`.
    SlowLogQuery {
        /// Caller-chosen correlation id.
        req: u64,
    },
    /// Successful answer to `SlowLogQuery`: the dump as JSON.
    SlowLog {
        /// Correlation id from the `SlowLogQuery`.
        req: u64,
        /// The slow-log dump (same schema as `serve --slow-log` files).
        json: String,
    },
}

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Declared length exceeds [`MAX_FRAME`]; detected before allocating.
    Oversized {
        /// The declared length.
        declared: u32,
    },
    /// Zero-length frame (no type byte).
    Empty,
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Payload malformed for its frame type.
    BadPayload(&'static str),
    /// `Hello` magic mismatch — the peer speaks a different protocol.
    BadMagic(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Oversized { declared } => {
                write!(f, "declared frame length {declared} exceeds {MAX_FRAME}")
            }
            DecodeError::Empty => write!(f, "zero-length frame"),
            DecodeError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::BadPayload(why) => write!(f, "malformed payload: {why}"),
            DecodeError::BadMagic(m) => write!(f, "bad hello magic {m:#010x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    // Kind tag, then a uniform 4-byte parameter slot (zero for NN).
    match q.kind {
        QueryKind::Nn => {
            out.push(0);
            put_u32(out, 0);
        }
        QueryKind::Knn { k } => {
            // A k past the slot asks for every point, as `u32::MAX` does
            // (the service clamps k to the index size).
            out.push(1);
            put_u32(out, u32::try_from(k).unwrap_or(u32::MAX));
        }
        QueryKind::Pc { radius } => {
            out.push(2);
            put_u32(out, radius.to_bits());
        }
    }
    // `Client` refuses an index or a length these slots cannot hold.
    put_u32(out, q.index as u32);
    put_u16(out, q.pos.len() as u16);
    for &c in &q.pos {
        put_f32(out, c);
    }
}

fn put_result(out: &mut Vec<u8>, r: &QueryResult) {
    match r {
        QueryResult::Nn { dist2, id } => {
            out.push(0);
            put_f32(out, *dist2);
            put_u32(out, *id);
        }
        QueryResult::Knn { dist2, ids } => {
            out.push(1);
            put_u32(out, dist2.len() as u32);
            for &d in dist2 {
                put_f32(out, d);
            }
            for &i in ids {
                put_u32(out, i);
            }
        }
        QueryResult::Pc { count } => {
            out.push(2);
            put_u32(out, *count);
        }
    }
}

fn put_ctx(out: &mut Vec<u8>, ctx: &Option<TraceContext>) {
    if let Some(ctx) = ctx {
        put_u64(out, ctx.trace_id);
        put_u64(out, ctx.span_id);
    }
}

fn put_error(out: &mut Vec<u8>, e: &WireError) {
    out.push(e.code as u8);
    put_u64(out, e.predicted_us);
    put_u64(out, e.budget_us);
    put_u32(out, e.message.len() as u32);
    out.extend_from_slice(e.message.as_bytes());
}

impl Frame {
    /// The frame's snake-case name: the `frame` tag of the trace's
    /// `frame_decode` events, and the name error messages use.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::BatchSubmit { .. } => "batch_submit",
            Frame::BatchResult { .. } => "batch_result",
            Frame::Error { .. } => "error",
            Frame::Shutdown => "shutdown",
            Frame::Mutate { .. } => "mutate",
            Frame::MutateAck { .. } => "mutate_ack",
            Frame::SlowLogQuery { .. } => "slow_log_query",
            Frame::SlowLog { .. } => "slow_log",
        }
    }

    /// Serialize the whole frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            Frame::Hello { version, wall_us } => {
                body.push(T_HELLO);
                put_u32(&mut body, MAGIC);
                body.push(*version);
                put_u64(&mut body, *wall_us);
            }
            Frame::BatchSubmit {
                base_req,
                queries,
                ctx,
            } => {
                body.push(T_BATCH_SUBMIT);
                put_u64(&mut body, *base_req);
                put_u32(&mut body, queries.len() as u32);
                for q in queries {
                    put_query(&mut body, q);
                }
                put_ctx(&mut body, ctx);
            }
            Frame::BatchResult { base_req, results } => {
                body.push(T_BATCH_RESULT);
                put_u64(&mut body, *base_req);
                put_u32(&mut body, results.len() as u32);
                for r in results {
                    match r {
                        Ok(res) => {
                            body.push(0);
                            put_result(&mut body, res);
                        }
                        Err(err) => {
                            body.push(1);
                            put_error(&mut body, err);
                        }
                    }
                }
            }
            Frame::Error { req, error } => {
                body.push(T_ERROR);
                put_u64(&mut body, *req);
                put_error(&mut body, error);
            }
            Frame::Shutdown => body.push(T_SHUTDOWN),
            Frame::Mutate { req, index, muts } => {
                body.push(T_MUTATE);
                put_u64(&mut body, *req);
                put_u32(&mut body, *index);
                put_u32(&mut body, muts.len() as u32);
                for m in muts {
                    match m {
                        Mutation::Insert { pos } => {
                            body.push(0);
                            put_u16(&mut body, pos.len() as u16);
                            for &c in pos {
                                put_f32(&mut body, c);
                            }
                        }
                        Mutation::Delete { id } => {
                            body.push(1);
                            put_u32(&mut body, *id);
                        }
                    }
                }
            }
            Frame::MutateAck {
                req,
                accepted,
                rejected,
                epoch,
                pending,
                assigned,
            } => {
                body.push(T_MUTATE_ACK);
                put_u64(&mut body, *req);
                put_u64(&mut body, *accepted);
                put_u64(&mut body, *rejected);
                put_u64(&mut body, *epoch);
                put_u64(&mut body, *pending);
                put_u32(&mut body, assigned.len() as u32);
                for &id in assigned {
                    put_u32(&mut body, id);
                }
            }
            Frame::SlowLogQuery { req } => {
                body.push(T_SLOW_LOG_QUERY);
                put_u64(&mut body, *req);
            }
            Frame::SlowLog { req, json } => {
                body.push(T_SLOW_LOG);
                put_u64(&mut body, *req);
                put_u32(&mut body, json.len() as u32);
                body.extend_from_slice(json.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }
}

// ---------------------------------------------------------------- decode

/// Bounds-checked little-endian reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::BadPayload("truncated field"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::BadPayload("trailing bytes"))
        }
    }

    /// Optional trailing trace context of a `BatchSubmit`.
    fn trailing_ctx(&mut self) -> Result<Option<TraceContext>, DecodeError> {
        if self.at == self.buf.len() {
            return Ok(None);
        }
        Ok(Some(TraceContext {
            trace_id: self.u64()?,
            span_id: self.u64()?,
        }))
    }
}

/// Upper bound on element counts implied by the frame cap: every query or
/// result element is at least 2 bytes, so a count beyond `MAX_FRAME / 2`
/// can never be satisfied and is rejected before reserving memory.
fn checked_count(n: u32) -> Result<usize, DecodeError> {
    if n > MAX_FRAME / 2 {
        return Err(DecodeError::BadPayload("element count exceeds frame cap"));
    }
    Ok(n as usize)
}

fn get_query(c: &mut Cursor) -> Result<Query, DecodeError> {
    let kind_tag = c.u8()?;
    let param = c.u32()?;
    let kind = match kind_tag {
        0 => QueryKind::Nn,
        1 => QueryKind::Knn { k: param as usize },
        2 => QueryKind::Pc {
            radius: f32::from_bits(param),
        },
        _ => return Err(DecodeError::BadPayload("unknown query kind")),
    };
    let index = c.u32()? as IndexId;
    let dim = c.u16()? as usize;
    let mut pos = Vec::with_capacity(dim);
    for _ in 0..dim {
        pos.push(c.f32()?);
    }
    Ok(Query { index, pos, kind })
}

fn get_result(c: &mut Cursor) -> Result<QueryResult, DecodeError> {
    Ok(match c.u8()? {
        0 => QueryResult::Nn {
            dist2: c.f32()?,
            id: c.u32()?,
        },
        1 => {
            let n = checked_count(c.u32()?)?;
            let mut dist2 = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                dist2.push(c.f32()?);
            }
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(c.u32()?);
            }
            QueryResult::Knn { dist2, ids }
        }
        2 => QueryResult::Pc { count: c.u32()? },
        _ => return Err(DecodeError::BadPayload("unknown result kind")),
    })
}

fn get_error(c: &mut Cursor) -> Result<WireError, DecodeError> {
    let code =
        ErrorCode::from_wire(c.u8()?).ok_or(DecodeError::BadPayload("unknown error code"))?;
    let predicted_us = c.u64()?;
    let budget_us = c.u64()?;
    let len = checked_count(c.u32()?)?;
    let bytes = c.take(len)?;
    let message = std::str::from_utf8(bytes)
        .map_err(|_| DecodeError::BadPayload("error message is not utf-8"))?
        .to_owned();
    Ok(WireError {
        code,
        message,
        predicted_us,
        budget_us,
    })
}

/// Decode one frame body (everything after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Frame, DecodeError> {
    if body.is_empty() {
        return Err(DecodeError::Empty);
    }
    let mut c = Cursor {
        buf: &body[1..],
        at: 0,
    };
    let frame = match body[0] {
        T_HELLO => {
            let magic = c.u32()?;
            if magic != MAGIC {
                return Err(DecodeError::BadMagic(magic));
            }
            Frame::Hello {
                version: c.u8()?,
                wall_us: c.u64()?,
            }
        }
        T_BATCH_SUBMIT => {
            let base_req = c.u64()?;
            let n = checked_count(c.u32()?)?;
            let mut queries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                queries.push(get_query(&mut c)?);
            }
            Frame::BatchSubmit {
                base_req,
                queries,
                ctx: c.trailing_ctx()?,
            }
        }
        T_BATCH_RESULT => {
            let base_req = c.u64()?;
            let n = checked_count(c.u32()?)?;
            let mut results = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                results.push(match c.u8()? {
                    0 => Ok(get_result(&mut c)?),
                    1 => Err(get_error(&mut c)?),
                    _ => return Err(DecodeError::BadPayload("unknown batch slot tag")),
                });
            }
            Frame::BatchResult { base_req, results }
        }
        T_ERROR => Frame::Error {
            req: c.u64()?,
            error: get_error(&mut c)?,
        },
        T_SHUTDOWN => Frame::Shutdown,
        T_MUTATE => {
            let req = c.u64()?;
            let index = c.u32()?;
            let n = checked_count(c.u32()?)?;
            let mut muts = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                muts.push(match c.u8()? {
                    0 => {
                        let dim = c.u16()? as usize;
                        let mut pos = Vec::with_capacity(dim);
                        for _ in 0..dim {
                            pos.push(c.f32()?);
                        }
                        Mutation::Insert { pos }
                    }
                    1 => Mutation::Delete { id: c.u32()? },
                    _ => return Err(DecodeError::BadPayload("unknown mutation tag")),
                });
            }
            Frame::Mutate { req, index, muts }
        }
        T_MUTATE_ACK => {
            let req = c.u64()?;
            let accepted = c.u64()?;
            let rejected = c.u64()?;
            let epoch = c.u64()?;
            let pending = c.u64()?;
            let n = checked_count(c.u32()?)?;
            let mut assigned = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                assigned.push(c.u32()?);
            }
            Frame::MutateAck {
                req,
                accepted,
                rejected,
                epoch,
                pending,
                assigned,
            }
        }
        T_SLOW_LOG_QUERY => Frame::SlowLogQuery { req: c.u64()? },
        T_SLOW_LOG => {
            let req = c.u64()?;
            let len = checked_count(c.u32()?)?;
            let bytes = c.take(len)?;
            let json = std::str::from_utf8(bytes)
                .map_err(|_| DecodeError::BadPayload("slow-log json is not utf-8"))?
                .to_owned();
            Frame::SlowLog { req, json }
        }
        t => return Err(DecodeError::UnknownType(t)),
    };
    c.done()?;
    Ok(frame)
}

// ------------------------------------------------------------- blocking io

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<usize> {
    let bytes = frame.encode();
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Read one frame from a blocking stream, however the reads fragment it.
/// `Ok(None)` on clean EOF at a frame boundary; a stream that ends inside
/// a frame, its length prefix included, is an `UnexpectedEof` error.
/// Oversized declared lengths error out before the body is read (or any
/// body-sized buffer allocated).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(Frame, usize)>> {
    let Some(body) = read_body(r)? else {
        return Ok(None);
    };
    Ok(Some((decode_body(&body)?, 4 + body.len())))
}

/// [`read_frame`] up to the body: the header checks and the body's bytes,
/// left for [`decode_body`].
pub(crate) fn read_body(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len[..1]) {
        Ok(()) => r.read_exact(&mut len[1..])?,
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let declared = u32::from_le_bytes(len);
    if declared > MAX_FRAME {
        return Err(DecodeError::Oversized { declared }.into());
    }
    if declared == 0 {
        return Err(DecodeError::Empty.into());
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}
