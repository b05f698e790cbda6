//! # partree-gateway
//!
//! A sharded replica router for [`partree-service`](partree_service):
//! one [`Gateway`] fronts N codec replicas on loopback TCP and gives
//! callers a single-endpoint view with strictly better availability
//! than any one replica.
//!
//! The moving parts, each in its own module:
//!
//! * [`route`] — rendezvous hashing over the histogram key. A given
//!   weight table always lands on the same *home* replica, so each
//!   replica's codebook cache stays hot for its slice of key space,
//!   and losing a replica moves only that replica's keys.
//! * [`breaker`] — a closed/open/half-open circuit breaker per replica,
//!   fed by data traffic *and* by a background `Ping` prober. Only
//!   liveness failures trip it; `Busy`/`Timeout` backpressure does not.
//! * [`gateway`] — the event loop: per-request deadline budget, bounded
//!   retries with jittered exponential backoff, and one hedged attempt
//!   after an adaptive latency threshold, first response wins.
//! * `reactor` — the RPC engine: a call runs on the calling thread over
//!   an idle pooled connection when there is one, and on one epoll
//!   thread multiplexing the replica connections otherwise (connects,
//!   hedges, retries, and calls handed over mid-wait), with the
//!   discard-on-error rule (an errored connection may be mid-frame and
//!   is never reused).
//! * `idle` — the per-replica LIFO idle pools, shared by the reactor and
//!   the calling threads, with a liveness `peek` at checkout.
//! * [`metrics`] — per-replica latency histograms and router counters,
//!   declared through the same `partree_exec::counters!` registry as the
//!   service's.
//!
//! The gateway never transforms payloads: every response is
//! byte-identical to what a direct connection to the serving replica
//! would have returned, so the service's determinism contract extends
//! through the router unchanged.
//!
//! ```no_run
//! use partree_gateway::{Gateway, GatewayConfig};
//! use partree_service::frame::Histogram;
//!
//! let addrs = vec!["127.0.0.1:7401".parse().unwrap(),
//!                  "127.0.0.1:7402".parse().unwrap(),
//!                  "127.0.0.1:7403".parse().unwrap()];
//! let gw = Gateway::start(GatewayConfig::new(addrs));
//! let payload = b"abracadabra".to_vec();
//! let hist = Histogram::of_payload(256, &payload).unwrap();
//! let (bits, data) = gw.encode(&hist, &payload).unwrap();
//! assert_eq!(gw.decode(&hist, bits, &data).unwrap(), payload);
//! gw.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod breaker;
pub mod gateway;
mod idle;
pub mod metrics;
#[cfg(partree_model)]
pub mod model;
mod reactor;
pub mod route;
mod sync;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use gateway::{Gateway, GatewayConfig};
pub use metrics::{GatewaySnapshot, ReplicaSnapshot};
