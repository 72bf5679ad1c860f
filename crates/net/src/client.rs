//! Blocking client with sync and pipelined batch APIs.
//!
//! Every query travels in a `BatchSubmit` frame. [`Client::query`] is the
//! simple path: a one-query frame, then wait for its one slot. The
//! throughput path is [`Client::send_batch`] / [`Client::recv_batch`]:
//! each `send_batch` puts an entire query wave in one frame and returns
//! immediately, so several frames can be in flight per connection
//! ("pipelining"). The server dispatches each frame when it ends — the
//! coherent waves the traversal kernels want. Responses arriving out of
//! order are parked until their `recv_*` is called.
//!
//! # Client-side tracing
//!
//! Every client owns a [`TraceRecorder`] and mints a per-connection trace
//! id at connect time plus a fresh span id per submitted frame. The
//! (trace, span) pair rides the `BatchSubmit` trailer, the server stamps
//! it onto every event the query leaves behind, and both sides emit
//! Chrome flow events — the client a `FlowOut` on the request flow
//! (`2·span`) as the frame departs and a `FlowIn` on the response flow
//! (`2·span+1`) as the answer lands, the server the mirror pair. Merging
//! the two trace dumps (shifted by the wall-clock anchor the server's
//! `Hello` carries) gives one Perfetto timeline where arrows join the
//! client's `send`/`await` spans to the server's batch and shard spans.
//! Phase spans (`connect`, `encode`, `send`, `await`, `decode`) are
//! recorded for every frame.

use crate::frame::{decode_body, read_body, write_frame, Frame, WireError, PROTOCOL_VERSION};
use gts_service::trace::NO_ID;
use gts_service::{
    EventKind, IndexId, Mutation, MutationAck, Query, QueryResult, TraceContext, TraceRecorder,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity of the client-side trace ring.
pub const CLIENT_TRACE_CAPACITY: usize = 4096;

/// The connection id a client's trace events carry: the `tid` its track
/// renders under.
const CLIENT_CONN: u64 = 0;

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Refuse, before anything is written, what the wire's slots would carry
/// as something else: an index id is a `u32` and a position's length a
/// `u16` there.
fn fits_the_wire(index: IndexId, pos: &[f32]) -> io::Result<()> {
    let why = if u32::try_from(index).is_err() {
        format!("index {index} does not fit the wire's u32")
    } else if u16::try_from(pos.len()).is_err() {
        format!("{} coordinates do not fit the wire's u16", pos.len())
    } else {
        return Ok(());
    };
    Err(io::Error::new(io::ErrorKind::InvalidInput, why))
}

/// Mint a nonzero per-connection trace id: a global counter mixed with
/// the wall clock (splitmix64 finalizer) so ids from concurrent clients
/// and successive runs land far apart.
fn mint_trace_id(wall_us: u64) -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut z = wall_us.wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let id = z ^ (z >> 31);
    if id == 0 {
        1
    } else {
        id
    }
}

/// A connected protocol session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req: u64,
    /// Responses read while waiting for a different correlation id.
    parked: HashMap<u64, Frame>,
    /// Client-side lifecycle recorder (phase spans + flow events).
    trace: TraceRecorder,
    /// Per-connection trace id stamped on every propagated frame.
    trace_id: u64,
    /// Next per-frame span id (flow ids derive from it).
    next_span: u64,
    /// Server trace-recorder anchor (µs since Unix epoch) from its
    /// `Hello`; the offset that maps client timestamps onto the server
    /// timeline when merging traces.
    server_wall_us: u64,
    /// Span ids of in-flight requests, for response flow events.
    span_of: HashMap<u64, u64>,
}

impl Client {
    /// Connect and exchange `Hello`s; a server of another protocol
    /// version is an `InvalidData` error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let trace = TraceRecorder::new(CLIENT_TRACE_CAPACITY);
        let trace_id = mint_trace_id(trace.wall_epoch_us());
        let t0 = trace.now_us();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client {
            reader,
            writer,
            next_req: 1,
            parked: HashMap::new(),
            trace,
            trace_id,
            next_span: 1,
            server_wall_us: 0,
            span_of: HashMap::new(),
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            wall_us: client.trace.wall_epoch_us(),
        })?;
        match client.read()? {
            Frame::Hello {
                version: PROTOCOL_VERSION,
                wall_us,
            } => client.server_wall_us = wall_us,
            Frame::Hello { version, .. } => {
                return Err(proto_err(format!(
                    "server speaks protocol version {version}"
                )))
            }
            Frame::Error { error, .. } => {
                return Err(proto_err(format!("handshake rejected: {error}")))
            }
            other => return Err(proto_err(format!("expected hello, got {}", other.name()))),
        }
        client.span(t0, "connect", NO_ID);
        Ok(client)
    }

    /// The client-side trace recorder (phase spans + flow events).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// The per-connection trace id this client stamps on its frames.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The server's trace-recorder wall anchor (µs since the Unix epoch)
    /// from its `Hello`. Shifting client event timestamps by
    /// `server_wall_us - trace().wall_epoch_us()` puts them on the server
    /// trace's timeline.
    pub fn server_wall_us(&self) -> u64 {
        self.server_wall_us
    }

    /// Mint the trace context for the next frame.
    fn mint_ctx(&mut self) -> TraceContext {
        let span_id = self.next_span;
        self.next_span += 1;
        TraceContext {
            trace_id: self.trace_id,
            span_id,
        }
    }

    /// Record a client phase span from `t0` to now.
    fn span(&self, t0: u64, name: &'static str, query: u64) {
        let now = self.trace.now_us();
        self.trace.span_traced(
            t0,
            now.saturating_sub(t0),
            query,
            NO_ID,
            self.trace_id,
            EventKind::ClientSpan {
                name,
                conn: CLIENT_CONN,
            },
        );
    }

    /// Record the departure flow event and remember the span for the
    /// response-side arrow.
    fn flow_out(&mut self, ctx: TraceContext, req: u64) {
        self.span_of.insert(req, ctx.span_id);
        self.trace.instant_traced(
            self.trace.now_us(),
            req,
            NO_ID,
            self.trace_id,
            EventKind::FlowOut {
                flow: ctx.request_flow(),
                conn: CLIENT_CONN,
                client: true,
            },
        );
    }

    /// Record the arrival flow event for a response, if it answers a
    /// `BatchSubmit` (the frame that carries a context).
    fn flow_in(&mut self, req: u64) {
        if let Some(span_id) = self.span_of.remove(&req) {
            let ctx = TraceContext {
                trace_id: self.trace_id,
                span_id,
            };
            self.trace.instant_traced(
                self.trace.now_us(),
                req,
                NO_ID,
                self.trace_id,
                EventKind::FlowIn {
                    flow: ctx.response_flow(),
                    conn: CLIENT_CONN,
                    client: true,
                },
            );
        }
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        use std::io::Write as _;
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()
    }

    /// Read one frame, timing the blocking wait and the decode separately
    /// so `await` and `decode` render as distinct client spans.
    fn read(&mut self) -> io::Result<Frame> {
        let t_await = self.trace.now_us();
        let body = read_body(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        self.span(t_await, "await", NO_ID);
        let t_decode = self.trace.now_us();
        let frame = decode_body(&body)?;
        self.span(t_decode, "decode", NO_ID);
        Ok(frame)
    }

    /// Read frames until the one correlated with `want` arrives, parking
    /// everything else.
    fn read_for(&mut self, want: u64) -> io::Result<Frame> {
        if let Some(f) = self.parked.remove(&want) {
            return Ok(f);
        }
        loop {
            let frame = self.read()?;
            let req = match &frame {
                Frame::Error { req, .. }
                | Frame::MutateAck { req, .. }
                | Frame::SlowLog { req, .. } => *req,
                Frame::BatchResult { base_req, .. } => *base_req,
                Frame::Shutdown => {
                    return Err(proto_err("server shut the session down mid-request"))
                }
                other => return Err(proto_err(format!("unexpected {} frame", other.name()))),
            };
            if let Frame::Error { req, error } = &frame {
                if *req == u64::MAX {
                    return Err(proto_err(format!("connection-level error: {error}")));
                }
            }
            self.flow_in(req);
            if req == want {
                return Ok(frame);
            }
            self.parked.insert(req, frame);
        }
    }

    /// Submit one query as a one-query `BatchSubmit` and block for its
    /// answer. Service-side failures (validation, overload, shutdown) come
    /// back as `Ok(Err(WireError))`; transport or protocol faults are the
    /// outer `io::Error`, and so is a query the wire cannot carry
    /// (`InvalidInput`, refused before anything is sent, so the session
    /// stays usable).
    pub fn query(&mut self, query: Query) -> io::Result<Result<QueryResult, WireError>> {
        let base_req = self.send_batch(std::slice::from_ref(&query))?;
        let slots = self.recv_batch(base_req)?;
        let [slot] = <[_; 1]>::try_from(slots)
            .map_err(|_| proto_err("a one-query frame came back without one slot"))?;
        Ok(slot)
    }

    /// Send one `BatchSubmit` frame and return its correlation id without
    /// waiting — call [`Client::recv_batch`] later. Interleave several
    /// sends to keep the pipeline full. A frame holding a query the wire
    /// cannot carry is refused whole, as [`Client::query`] refuses one.
    pub fn send_batch(&mut self, queries: &[Query]) -> io::Result<u64> {
        for q in queries {
            fits_the_wire(q.index, &q.pos)?;
        }
        let base_req = self.next_req;
        self.next_req += queries.len().max(1) as u64;
        let ctx = self.mint_ctx();
        let t_encode = self.trace.now_us();
        let frame = Frame::BatchSubmit {
            base_req,
            queries: queries.to_vec(),
            ctx: Some(ctx),
        };
        self.span(t_encode, "encode", base_req);
        self.flow_out(ctx, base_req);
        let t_send = self.trace.now_us();
        self.send(&frame)?;
        self.span(t_send, "send", base_req);
        Ok(base_req)
    }

    /// Block for the `BatchResult` of a previous [`Client::send_batch`].
    /// Results are in submission order, one slot per query.
    pub fn recv_batch(&mut self, base_req: u64) -> io::Result<Vec<Result<QueryResult, WireError>>> {
        match self.read_for(base_req)? {
            Frame::BatchResult { results, .. } => Ok(results),
            Frame::Error { error, .. } => Err(proto_err(format!("batch failed: {error}"))),
            _ => unreachable!("read_for returned a non-matching frame"),
        }
    }

    /// Fetch the server's slow-query flight-recorder dump as JSON.
    pub fn slow_log(&mut self) -> io::Result<Result<String, WireError>> {
        let req = self.next_req;
        self.next_req += 1;
        self.send(&Frame::SlowLogQuery { req })?;
        match self.read_for(req)? {
            Frame::SlowLog { json, .. } => Ok(Ok(json)),
            Frame::Error { error, .. } => Ok(Err(error)),
            _ => unreachable!("read_for returned a non-matching frame"),
        }
    }

    /// Apply a mutation batch to a mutable index and block for the ack.
    /// The ack's assigned ids and epoch are valid for every query sent
    /// after this returns. Service-side refusals (immutable index,
    /// shutdown, bad position) come back as `Ok(Err(WireError))`; an index
    /// or insert the wire cannot carry is refused as [`Client::query`]
    /// refuses one.
    pub fn mutate(
        &mut self,
        index: IndexId,
        muts: &[Mutation],
    ) -> io::Result<Result<MutationAck, WireError>> {
        fits_the_wire(index, &[])?;
        for m in muts {
            if let Mutation::Insert { pos } = m {
                fits_the_wire(index, pos)?;
            }
        }
        let req = self.next_req;
        self.next_req += 1;
        self.send(&Frame::Mutate {
            req,
            index: index as u32,
            muts: muts.to_vec(),
        })?;
        match self.read_for(req)? {
            Frame::MutateAck {
                accepted,
                rejected,
                epoch,
                pending,
                assigned,
                ..
            } => Ok(Ok(MutationAck {
                accepted,
                rejected,
                assigned,
                epoch,
                pending,
            })),
            Frame::Error { error, .. } => Ok(Err(error)),
            _ => unreachable!("read_for returned a non-matching frame"),
        }
    }

    /// Graceful close: tell the server no more submissions are coming,
    /// wait for its drain ack. Any still-unread responses are discarded.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.read()? {
                Frame::Shutdown => return Ok(()),
                // Late responses racing the drain ack are fine.
                Frame::BatchResult { .. }
                | Frame::Error { .. }
                | Frame::MutateAck { .. }
                | Frame::SlowLog { .. } => {}
                other => {
                    return Err(proto_err(format!(
                        "unexpected {} frame during shutdown",
                        other.name()
                    )))
                }
            }
        }
    }
}
