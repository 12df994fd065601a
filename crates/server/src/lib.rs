//! `ode-server` — a wire-protocol network front end for the active
//! object-oriented database, with live trigger subscriptions.
//!
//! The server speaks newline-delimited JSON over TCP and Unix-domain
//! sockets, one session (and one optional open transaction) per
//! connection, served by a poll-driven [`reactor`] — one event-loop
//! thread owning every socket plus a worker pool — over one
//! [`ode_db::ShardedDatabase`]. Classes — including their trigger
//! events, written in the paper's §3 composite-event syntax — are
//! defined over the wire from a declarative [`spec::ClassSpec`].
//! Sessions that `subscribe` receive a push notification for every
//! trigger firing in the database, produced by the engine's firing
//! sink ([`ode_db::FiringSink`]) and fanned out without blocking the
//! engine.
//!
//! See `DESIGN.md` ("The network front end") for the protocol grammar
//! and session model, and `examples/ode_server.rs` /
//! `examples/ode_client.rs` for a runnable pair.

#![warn(missing_docs)]

pub(crate) mod background;
pub mod client;
pub mod codec;
pub mod conn;
pub mod protocol;
pub mod reactor;
pub mod repl;
pub mod server;
pub(crate) mod session;
pub mod spec;

pub use client::{backoff_delay, Client, ClientError, QueryOutcome, QuerySpec};
pub use protocol::{
    CapturedEvent, Command, Firing, Reply, ReplyResult, Request, ServerMsg, WireError, WireRow,
    WireStats,
};
pub use repl::{ReplSource, StreamFault};
pub use server::{load_schema, recover_shard, Server, ServerBuilder, ServerConfig};
pub use spec::{ActionSpec, ClassSpec, FieldSpec, MaskFnSpec, MethodOp, MethodSpec, TriggerSpec};
