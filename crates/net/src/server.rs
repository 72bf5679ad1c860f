//! TCP server: one reader + one writer thread per connection, completions
//! multiplexed through ticket wakers.
//!
//! Threading model: the accept thread owns the listener; each accepted
//! connection gets exactly two threads — a reader decoding frames and
//! submitting to the service, and a writer draining a channel of outbound
//! frames. An in-flight query costs *no* thread: its
//! [`gts_service::Ticket::on_complete`] waker fires on the resolving
//! worker and pushes the response frame onto the connection's writer
//! channel. A `BatchSubmit` of `n` queries goes to the service as one unit
//! ([`gts_service::Service::submit_all`]: admitted under one front lock,
//! and flushed when the frame ends rather than at the batching deadline),
//! then registers `n` wakers that fill one shared slot table; the last
//! completion encodes a single `BatchResult` frame. A lone `Submit` waits
//! for its index to fill or for the deadline, like an in-process
//! `submit`.
//!
//! Draining: a `Shutdown` frame stops reads, waits for the connection's
//! in-flight count to reach zero (every accepted frame is answered), then
//! acks with `Shutdown` and closes. If the *service* is closed mid-stream
//! ([`gts_service::Service::close`]), already-accepted queries drain
//! through the service's own shutdown path and new submissions come back
//! `ShuttingDown`, which the reader answers with a clean `Error` frame —
//! the connection itself stays up.

use crate::frame::{read_frame, write_frame, Frame, WireError, PROTOCOL_VERSION};
use gts_service::trace::NO_ID;
use gts_service::{EventKind, Query, QueryResult, Service, TraceContext};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a draining connection waits for in-flight completions before
/// giving up and closing anyway (a safety valve, not a normal path —
/// service shutdown resolves every ticket).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Count of a connection's accepted-but-unanswered frames, with a condvar
/// for the drain wait.
struct Inflight {
    n: Mutex<u64>,
    zero: Condvar,
}

impl Inflight {
    fn new() -> Arc<Inflight> {
        Arc::new(Inflight {
            n: Mutex::new(0),
            zero: Condvar::new(),
        })
    }

    fn up(&self) {
        *self.n.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn down(&self) {
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    /// Wait until the count reaches zero; `false` on timeout.
    fn drain(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut n = self.n.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *n == 0 {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self
                .zero
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            n = g;
        }
    }
}

/// Outcome slots for one `BatchSubmit`: wakers fill their slot; the last
/// one encodes the `BatchResult` frame.
struct BatchAgg {
    base_req: u64,
    slots: Mutex<Vec<Option<Result<QueryResult, WireError>>>>,
    remaining: AtomicU64,
    tx: Sender<Frame>,
    inflight: Arc<Inflight>,
    /// For the response-side flow event when the batch carried a context.
    service: Arc<Service>,
    ctx: TraceContext,
    conn: u64,
}

impl BatchAgg {
    fn fill(self: &Arc<Self>, i: usize, outcome: Result<QueryResult, WireError>) {
        {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(slots[i].is_none(), "slot filled twice");
            slots[i] = Some(outcome);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let slots = std::mem::take(&mut *self.slots.lock().unwrap_or_else(|e| e.into_inner()));
            let results = slots
                .into_iter()
                .map(|s| s.expect("all slots filled at remaining == 0"))
                .collect();
            flow_response(&self.service, self.ctx, self.conn);
            // Send failure only means the writer is gone (peer vanished);
            // nothing to answer then.
            let _ = self.tx.send(Frame::BatchResult {
                base_req: self.base_req,
                results,
            });
            self.inflight.down();
        }
    }
}

/// Record the server → client flow start (`ph:"s"` on the response flow)
/// as a result frame departs, when the request carried a trace context.
fn flow_response(service: &Service, ctx: TraceContext, conn: u64) {
    if ctx.is_local() {
        return;
    }
    let tracer = service.tracer();
    tracer.instant_traced(
        tracer.now_us(),
        NO_ID,
        NO_ID,
        ctx.trace_id,
        EventKind::FlowOut {
            flow: ctx.response_flow(),
            conn,
            client: false,
        },
    );
}

/// Record the client → server flow finish (`ph:"f"`) as a submit frame's
/// context arrives.
fn flow_request(service: &Service, ctx: TraceContext, conn: u64) {
    if ctx.is_local() {
        return;
    }
    let tracer = service.tracer();
    tracer.instant_traced(
        tracer.now_us(),
        NO_ID,
        NO_ID,
        ctx.trace_id,
        EventKind::FlowIn {
            flow: ctx.request_flow(),
            conn,
            client: false,
        },
    );
}

/// The TCP front-end. Bind with [`NetServer::bind`], stop with
/// [`NetServer::shutdown`].
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    service: Arc<Service>,
}

impl NetServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start accepting.
    pub fn bind(addr: &str, service: Arc<Service>) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("gts-net-accept".into())
                .spawn(move || accept_loop(listener, service, stop))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            service,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stop accepting and wake the accept thread. Existing connections
    /// finish their own lifecycles (clients see `ShuttingDown` once the
    /// service closes).
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.stop_accepting();
        }
    }
}

/// Accept one connection, with Nagle's algorithm off as on the client
/// side: replies are whole frames written in one flush, and a delayed-ACK
/// peer would otherwise hold pipelined frames back ~40 ms.
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

fn accept_loop(listener: TcpListener, service: Arc<Service>, stop: Arc<AtomicBool>) {
    let mut conn_id: u64 = 0;
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = accept(&listener);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        conn_id += 1;
        let id = conn_id;
        let tracer = service.tracer();
        tracer.instant(
            tracer.now_us(),
            NO_ID,
            NO_ID,
            EventKind::Accept { conn: id },
        );
        service.metrics_registry().on_net_accept();
        let service = Arc::clone(&service);
        let h = std::thread::Builder::new()
            .name(format!("gts-net-conn-{id}"))
            .spawn(move || {
                serve_connection(stream, id, &service);
            })
            .expect("spawn connection thread");
        handles.push(h);
        // Opportunistically reap finished connections.
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Frame names for trace events.
fn frame_name(f: &Frame) -> &'static str {
    match f {
        Frame::Hello { .. } => "hello",
        Frame::Submit { .. } => "submit",
        Frame::BatchSubmit { .. } => "batch_submit",
        Frame::Result { .. } => "result",
        Frame::BatchResult { .. } => "batch_result",
        Frame::Error { .. } => "error",
        Frame::Shutdown => "shutdown",
        Frame::Mutate { .. } => "mutate",
        Frame::MutateAck { .. } => "mutate_ack",
        Frame::SlowLogQuery { .. } => "slow_log_query",
        Frame::SlowLog { .. } => "slow_log",
    }
}

fn serve_connection(stream: TcpStream, conn: u64, service: &Arc<Service>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Frame>();
    let writer = {
        let service = Arc::clone(service);
        std::thread::Builder::new()
            .name(format!("gts-net-write-{conn}"))
            .spawn(move || writer_loop(write_half, rx, &service))
            .expect("spawn writer thread")
    };

    reader_loop(stream, conn, service, &tx);

    // Dropping the sender ends the writer after it flushes the queue.
    drop(tx);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, rx: Receiver<Frame>, service: &Arc<Service>) {
    use std::io::Write as _;
    let mut w = BufWriter::new(stream);
    'outer: while let Ok(mut frame) = rx.recv() {
        // Write the frame plus everything already queued behind it, then
        // flush once: bursts coalesce into few syscalls, a lone frame
        // still goes out immediately.
        loop {
            match write_frame(&mut w, &frame) {
                Ok(bytes) => service.metrics_registry().on_net_frame_tx(bytes as u64),
                Err(_) => break 'outer,
            }
            match rx.try_recv() {
                Ok(next) => frame = next,
                Err(_) => break,
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
}

fn reader_loop(stream: TcpStream, conn: u64, service: &Arc<Service>, tx: &Sender<Frame>) {
    let inflight = Inflight::new();
    let mut r = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let metrics = service.metrics_registry();
    let tracer = service.tracer();

    // Handshake: the first frame must be Hello.
    match read_frame(&mut r) {
        Ok(Some((Frame::Hello { version, .. }, bytes))) => {
            metrics.on_net_frame_rx(bytes as u64);
            let negotiated = version.min(PROTOCOL_VERSION);
            // The wall anchor trailer is safe only once the peer is known
            // to speak v2 — a v1 decoder treats trailing bytes as fatal.
            let wall_us = (negotiated >= 2).then(|| tracer.wall_epoch_us());
            let _ = tx.send(Frame::Hello {
                version: negotiated,
                wall_us,
            });
        }
        Ok(Some(_)) | Ok(None) => {
            metrics.on_net_protocol_error();
            let _ = tx.send(Frame::Error {
                req: u64::MAX,
                error: WireError::protocol("expected Hello"),
            });
            return;
        }
        Err(_) => {
            metrics.on_net_protocol_error();
            return;
        }
    }

    loop {
        let (frame, bytes) = match read_frame(&mut r) {
            Ok(Some(f)) => f,
            Ok(None) => break, // clean EOF
            Err(_) => {
                metrics.on_net_protocol_error();
                let _ = tx.send(Frame::Error {
                    req: u64::MAX,
                    error: WireError::protocol("malformed frame"),
                });
                break;
            }
        };
        metrics.on_net_frame_rx(bytes as u64);
        tracer.instant(
            tracer.now_us(),
            NO_ID,
            NO_ID,
            EventKind::FrameDecode {
                conn,
                frame: frame_name(&frame),
                bytes: bytes as u64,
            },
        );
        match frame {
            Frame::Hello { .. } => {} // redundant Hello is harmless
            Frame::Submit { req, query, ctx } => {
                let ctx = ctx.unwrap_or(TraceContext::LOCAL);
                flow_request(service, ctx, conn);
                submit_one(service, query, req, ctx, conn, tx, &inflight);
            }
            Frame::BatchSubmit {
                base_req,
                queries,
                ctx,
            } => {
                let ctx = ctx.unwrap_or(TraceContext::LOCAL);
                flow_request(service, ctx, conn);
                submit_batch(service, queries, base_req, ctx, conn, tx, &inflight);
            }
            Frame::SlowLogQuery { req } => {
                // Served synchronously on the reader thread, like Mutate:
                // the dump is a bounded ring snapshot, not a query.
                let _ = tx.send(Frame::SlowLog {
                    req,
                    json: service.slow_log_json(),
                });
            }
            Frame::Mutate { req, index, muts } => {
                // Mutations apply synchronously on the reader thread —
                // they don't ride the query pipeline, so the ack (and the
                // epoch it names) is ordered before any later frame's
                // answers on this connection.
                let _ = tx.send(match service.mutate(index as usize, &muts) {
                    Ok(ack) => Frame::MutateAck {
                        req,
                        accepted: ack.accepted,
                        rejected: ack.rejected,
                        epoch: ack.epoch,
                        pending: ack.pending,
                        assigned: ack.assigned,
                    },
                    Err(err) => Frame::Error {
                        req,
                        error: WireError::from_service(&err),
                    },
                });
            }
            Frame::Shutdown => {
                // Drain: every accepted frame gets its answer first.
                inflight.drain(DRAIN_TIMEOUT);
                let _ = tx.send(Frame::Shutdown);
                break;
            }
            // Response frames are server → client only.
            Frame::Result { .. }
            | Frame::BatchResult { .. }
            | Frame::Error { .. }
            | Frame::MutateAck { .. }
            | Frame::SlowLog { .. } => {
                metrics.on_net_protocol_error();
                let _ = tx.send(Frame::Error {
                    req: u64::MAX,
                    error: WireError::protocol("unexpected response frame from client"),
                });
                break;
            }
        }
    }
    // Connection teardown (EOF or error): in-flight wakers hold their own
    // channel sender clones, so late completions go nowhere harmlessly.
    let _ = stream.shutdown(SockShutdown::Read);
}

fn submit_one(
    service: &Arc<Service>,
    query: Query,
    req: u64,
    ctx: TraceContext,
    conn: u64,
    tx: &Sender<Frame>,
    inflight: &Arc<Inflight>,
) {
    match service.submit_traced(query, ctx) {
        Ok(ticket) => {
            inflight.up();
            let tx = tx.clone();
            let inflight = Arc::clone(inflight);
            let service = Arc::clone(service);
            ticket.on_complete(move |r| {
                flow_response(&service, ctx, conn);
                let _ = tx.send(match r {
                    Ok(result) => Frame::Result { req, result },
                    Err(err) => Frame::Error {
                        req,
                        error: WireError::from_service(&err),
                    },
                });
                inflight.down();
            });
        }
        Err(err) => {
            let _ = tx.send(Frame::Error {
                req,
                error: WireError::from_service(&err),
            });
        }
    }
}

fn submit_batch(
    service: &Arc<Service>,
    queries: Vec<Query>,
    base_req: u64,
    ctx: TraceContext,
    conn: u64,
    tx: &Sender<Frame>,
    inflight: &Arc<Inflight>,
) {
    if queries.is_empty() {
        let _ = tx.send(Frame::BatchResult {
            base_req,
            results: Vec::new(),
        });
        return;
    }
    inflight.up();
    let n = queries.len();
    let agg = Arc::new(BatchAgg {
        base_req,
        slots: Mutex::new(vec![None; n]),
        remaining: AtomicU64::new(n as u64),
        tx: tx.clone(),
        inflight: Arc::clone(inflight),
        service: Arc::clone(service),
        ctx,
        conn,
    });
    for (i, submitted) in service.submit_all(queries, ctx).into_iter().enumerate() {
        match submitted {
            Ok(ticket) => {
                let agg = Arc::clone(&agg);
                ticket.on_complete(move |r| {
                    agg.fill(i, r.map_err(|e| WireError::from_service(&e)));
                });
            }
            Err(err) => agg.fill(i, Err(WireError::from_service(&err))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server_side = accept(&listener).unwrap();
        assert!(server_side.nodelay().unwrap());
    }
}
