//! **`tim_server`** — a concurrent, multi-graph influence-query server
//! over shared, immutable RR-set pools.
//!
//! TIM/TIM+ (Tang, Xiao, Shi; SIGMOD 2014) splits influence maximization
//! into an expensive sampling phase and a cheap greedy phase; `tim_engine`
//! already makes the sampled pool a persistent, provenance-pinned asset.
//! This crate adds the deployment shape that split makes practical: **one
//! long-lived process answering many simultaneous queries against many
//! named graphs** from pools it builds once and shares read-only.
//!
//! Five layers, each usable on its own:
//!
//! - [`protocol`] — the newline-delimited query protocol (`tim/2`, a
//!   strict superset of `tim/1`; normative spec: `docs/PROTOCOL.md`),
//!   shared verbatim with `tim query`. Parsing
//!   ([`protocol::parse_request`] / [`protocol::parse_query`]) is split
//!   from execution ([`protocol::execute`]) so a server can route a
//!   parsed query to the right graph and pool before running it;
//!   [`protocol::QueryBackend`] abstracts over an exclusive
//!   [`tim_engine::QueryEngine`], a shared [`tim_engine::SharedEngine`],
//!   and the batch read-guard backend. The module also owns the 1 MiB
//!   line framing ([`protocol::CappedLineReader`]) both transports share.
//! - [`cache`] — [`cache::PoolCache`], an LRU cache of
//!   [`tim_engine::SharedEngine`]s keyed by pool provenance
//!   `(graph checksum, model, seed, ε, ℓ)`. Distinct query mixes reuse or
//!   lazily build pools; a cold build never holds the cache lock, so it
//!   never blocks readers of other pools.
//! - [`catalog`] — [`catalog::GraphCatalog`], named graphs loaded lazily
//!   behind per-graph locks, each with its own [`cache::PoolCache`]
//!   budget, plus LRU eviction of idle graphs; [`catalog::GraphState`] is
//!   one graph's serving state.
//! - [`session`] — [`session::Session`], the per-connection `tim/2` state
//!   machine: current graph (`use`), cached default-engine handle, and
//!   `batch` execution that amortizes lock acquisition and IO without
//!   changing a single answer byte.
//! - [`server`] — [`server::Server`], a multi-threaded TCP server:
//!   [`server::ServerState`] (catalog + defaults) shared via `Arc` across
//!   worker threads that each accept and serve connections.
//!
//! Plus the event-loop serving core (Linux-only, like epoll):
//!
//! - [`reactor`] — the raw epoll substrate: a level-triggered
//!   [`reactor::Poller`] over direct libc bindings (no crates.io here,
//!   so no mio/tokio), a [`reactor::TimerWheel`] for idle deadlines, and
//!   a nonblocking TCP connect for the fan-in driver.
//! - [`event_loop`] — reactor shards driving many [`session::Session`]s
//!   per thread (`ServerConfig::event_loop`): resumable line reads,
//!   buffered writes with backpressure, pipelining, `--idle-timeout`
//!   reaping, `--max-conns` admission, graceful drain. Same state
//!   machine as the blocking server, so answer bytes are identical by
//!   construction.
//! - [`fanin`] — the client-side mirror: one thread driving thousands of
//!   concurrent scripted sessions, used by the `c10k_fanin` bench and
//!   the event-loop integration tests to diff fan-in transcripts against
//!   serial replays.
//!
//! # Determinism under concurrency
//!
//! Exact-replay `select` answers are pure functions of the pool's
//! provenance and the query — concurrent clients receive byte-identical
//! responses to a serial replay under **any** interleaving. `eval`,
//! `marginal`, and `select … fast` answers are pure functions of the
//! provenance, the query, *and the pool's current θ*; θ only changes when
//! a query demands growth, so sessions whose queries stay within the
//! warmed pool are interleaving-independent too. Graphs are isolated by
//! construction (separate pools, separate caches), so multi-tenant
//! traffic cannot perturb another graph's answers; batching is a pure
//! transport/locking optimization. See ARCHITECTURE.md §"Concurrency
//! guarantees" and the `concurrent_determinism` / `multi_graph`
//! integration tests.

pub mod cache;
pub mod catalog;
#[cfg(target_os = "linux")]
pub mod event_loop;
#[cfg(target_os = "linux")]
pub mod fanin;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod session;

pub use cache::{CacheStats, PoolCache, PoolKey};
pub use catalog::{CatalogStats, GraphCatalog, GraphState};
#[cfg(target_os = "linux")]
pub use event_loop::{AT_CAPACITY_REPLY, IDLE_TIMEOUT_REPLY};
#[cfg(target_os = "linux")]
pub use fanin::{drive_sessions, latency_stats, FaninReport, LatencyStats, SessionOutcome};
pub use protocol::{
    execute, parse_query, parse_request, CappedLine, CappedLineReader, LabelMap, ParsedLine,
    ParsedRequest, PollLine, Query, QueryBackend, Reply, Request, MAX_BATCH, MAX_BATCH_BYTES,
    MAX_LINE_BYTES, NOT_UTF8_LINE_REPLY, OVERSIZED_BATCH_REPLY, OVERSIZED_LINE_REPLY,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerState, DEFAULT_GRAPH_NAME};
pub use session::Session;
