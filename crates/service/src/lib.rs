//! # partree-service
//!
//! A batched compression codec service on top of the paper's tree
//! pipelines — the workload layer that turns Theorem 5.1's parallel
//! Huffman construction into something traffic can hit.
//!
//! The design exploits the regime where the paper's algorithms win:
//! many small requests sharing few alphabets. Requests are drained in
//! *scheduling ticks* and grouped by `(histogram, family)`, so one
//! `O(log² n)`-depth codebook construction (parallel construction +
//! canonical code + table decoder) serves a whole group, and a sharded
//! LRU cache lets hot alphabets skip construction entirely.
//!
//! Four code families are served as first-class opcodes (see
//! [`partree_codecs`]): classic Huffman (the default, opcodes
//! `0x01`/`0x02`), Shannon–Fano (`0x08`/`0x09`), minimax
//! (`0x0A`/`0x0B`), and choosable-edge Huffman (`0x0C`/`0x0D`). Every
//! family shares the cache, the tier-1 store (family-tagged v2
//! records), and the warm-up plane.
//!
//! A fifth opcode pair (`EncodeDelta` `0x0E` / `DecodeDelta` `0x0F`)
//! serves **drifting histograms** incrementally: the client names an
//! already-cached base codebook by key and ships only sparse count
//! deltas; the [`partree_delta`] engine patches the codebook in place
//! when it can prove bit-identity with a from-scratch build, and falls
//! back to full reconstruction when it cannot.
//!
//! * [`frame`] — the length-prefixed wire protocol (spec in
//!   `EXPERIMENTS.md`), built on the vendored [`bytes`] `Buf`/`BufMut`;
//! * [`codebook`] — [`codebook::Codebook`] construction and the
//!   [`codebook::CodebookCache`];
//! * [`server`] — [`server::Service`]: bounded queue, batch workers on
//!   a [`rayon`] pool, `Busy` backpressure, per-request deadlines,
//!   graceful shutdown;
//! * [`net`] — [`net::Server`]: the loopback TCP front end, served by
//!   one epoll reactor thread for every connection;
//! * [`client`] — [`client::Client`]: a blocking loopback client;
//! * [`waker`] — the reactor's cross-thread wakeup handshake
//!   ([`waker::CompletionQueue`]), model-checked under
//!   `--cfg partree_model`;
//! * [`metrics`] — aggregate counters, including the traced work/depth
//!   of every scheduling tick, exported as JSON.
//!
//! ## Quickstart
//!
//! ```
//! use partree_service::frame::Histogram;
//! use partree_service::server::{Service, ServiceConfig};
//! use partree_service::FamilyId;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let hist = Histogram::new(vec![45, 13, 12, 16, 9, 5])?;
//! let payload = vec![0u8, 1, 2, 3, 4, 5, 0, 0];
//! let resp = svc.submit(partree_service::frame::Request::Encode {
//!     family: FamilyId::Huffman,
//!     histogram: hist.clone(),
//!     payload: payload.clone(),
//! });
//! let (bit_len, data) = match resp {
//!     partree_service::frame::Response::Encoded { bit_len, data } => (bit_len, data),
//!     other => panic!("{other:?}"),
//! };
//! let resp = svc.submit(partree_service::frame::Request::Decode {
//!     family: FamilyId::Huffman,
//!     histogram: hist,
//!     bit_len,
//!     data,
//! });
//! assert!(matches!(
//!     resp,
//!     partree_service::frame::Response::Decoded { payload: p } if p == payload
//! ));
//! svc.shutdown();
//! # Ok::<(), partree_service::frame::FrameError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod codebook;
pub mod frame;
pub mod metrics;
#[cfg(partree_model)]
pub mod model;
pub mod net;
mod reactor;
pub mod server;
mod sync;
pub mod waker;

pub use client::Client;
pub use codebook::{Codebook, CodebookCache, HotEntry};
pub use frame::{ErrorCode, FrameError, Histogram, Request, Response, WarmEntry};
pub use metrics::MetricsSnapshot;
pub use net::{FaultInjection, Server};
pub use partree_codecs::{FamilyId, FAMILY_COUNT};
pub use partree_delta::{DeltaConfig, DeltaPath};
pub use reactor::WriteOverflow;
pub use server::{Service, ServiceConfig};
