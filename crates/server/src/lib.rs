//! # pkgrec-server
//!
//! The network front door of the `pkgrec` workspace: a TCP server, wire
//! protocol and client that put a [`SessionStore`](pkgrec_serve::SessionStore)
//! behind a socket without giving up any of its guarantees.
//!
//! Three layers compose the crate:
//!
//! * [`protocol`] — a length-prefixed, CRC32-framed JSON codec
//!   (`[len|crc32|payload]`, the durable journal's own record idiom) with a
//!   versioned `PKGSRV\0` hello; [`Request`]/[`Response`] mirror the store
//!   surface verb for verb, and failures travel as typed
//!   [`WireError`](protocol::WireError) replies that reconstruct
//!   [`CoreError`](pkgrec_core::CoreError) variants client-side.
//! * [`Server`] — an accept loop in front of per-shard worker threads.
//!   Requests route by [`shard_of`](pkgrec_serve::shard_of)`(session)`
//!   over bounded channels to the worker that owns that shard `&mut`
//!   exclusively (the [`ServingLoop`](pkgrec_serve::ServingLoop) ownership
//!   discipline, so connections never contend on a lock).  Each request
//!   runs under a deadline; malformed frames are rejected without
//!   disturbing other connections; shutdown drains and `sync()`s the
//!   durable log.  A worker serves its queue one request at a time, in
//!   arrival order.
//! * [`loadgen`] — a closed-loop load generator whose clients replay every
//!   wire operation against private in-process shadow stores: because
//!   session RNG streams derive from `(seed, op index)` alone, wire
//!   results must be byte-identical to in-process ones, and the generator
//!   counts every divergence while recording p50/p99/p999 latencies.
//!
//! ## Quick start: a store behind a socket
//!
//! ```
//! use std::sync::Arc;
//!
//! use pkgrec_core::prelude::*;
//! use pkgrec_serve::{RecommenderSpec, SessionConfig, SessionStore, StoreConfig};
//! use pkgrec_server::{Client, Server, ServerConfig};
//!
//! // An in-memory store (open a directory instead for durability).
//! let store = SessionStore::new(StoreConfig { shards: 2, capacity_per_shard: 8 }).unwrap();
//!
//! // Bind an ephemeral port, keep a control handle, serve on a thread.
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let control = server.control();
//! let handle = std::thread::spawn(move || {
//!     let mut store = store;
//!     let report = server.serve(&mut store).unwrap();
//!     (store, report)
//! });
//!
//! // A client drives the same verbs the in-process store exposes.
//! let mut client = Client::connect(addr).unwrap();
//! let catalog = Arc::new(Catalog::from_rows(vec![
//!     vec![0.6, 0.2],
//!     vec![0.4, 0.4],
//!     vec![0.2, 0.4],
//!     vec![0.9, 0.8],
//! ]).unwrap());
//! let id = client.create(SessionConfig {
//!     catalog,
//!     profile: Profile::cost_quality(),
//!     max_package_size: 2,
//!     spec: RecommenderSpec::Engine(EngineConfig {
//!         k: 2,
//!         num_random: 2,
//!         num_samples: 20,
//!         ..EngineConfig::default()
//!     }),
//!     seed: 7,
//! }).unwrap();
//! let shown = client.present(id).unwrap();
//! assert!(!shown.is_empty());
//! client.feedback(id, Feedback::Click { index: 0 }).unwrap();
//! let ranked = client.recommend(id).unwrap();
//! assert!(!ranked.is_empty());
//!
//! // Graceful shutdown: the store comes back with the session in it.
//! drop(client);
//! control.shutdown();
//! let (store, report) = handle.join().unwrap();
//! assert_eq!(store.len(), 1);
//! assert_eq!(report.requests, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use loadgen::{LatencyHistogram, LoadConfig, LoadReport};
pub use protocol::{Request, Response};
pub use server::{ServeReport, Server, ServerConfig, ServerControl};
