//! Networked front-end for the batched traversal service.
//!
//! The paper's economics — thousands of independent traversals amortizing
//! one coherent batch — only survive a network hop if the hop itself can
//! *carry* thousands of queries. This crate is that hop: a TCP server
//! speaking a length-prefixed binary frame protocol whose `BatchSubmit`
//! frame moves an entire query wave in one write, and a client whose
//! pipelined batch API keeps several frames in flight per connection.
//!
//! Layout:
//!
//! * [`frame`] — the wire protocol: frame types, encode/decode, and the
//!   blocking [`frame::read_frame`] both ends read with, which tolerates
//!   arbitrary read fragmentation and rejects oversized frames *before*
//!   allocating.
//! * [`server`] — [`NetServer`]: one reader + one writer thread per
//!   connection; query completions are delivered through the service's
//!   [`gts_service::Ticket::on_complete`] waker edge and multiplexed onto
//!   the connection's writer channel, so in-flight queries cost no thread.
//! * [`client`] — [`Client`]: blocking `query` plus `send_batch` /
//!   `recv_batch` pipelining.
//!
//! The server threads net events (accept, frame decode, admission
//! verdicts) into the service's trace ring and Prometheus counters, so a
//! socket-path run is observable with the same tooling as an in-process
//! run.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{Client, CLIENT_TRACE_CAPACITY};
pub use frame::{ErrorCode, Frame, WireError, MAX_FRAME, PROTOCOL_VERSION};
pub use server::NetServer;
