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
//! * [`pool`] — per-replica connection pools for the blocking client,
//!   with the discard-on-error rule (an errored connection may be
//!   mid-frame and is never reused).
//! * [`breaker`] — a closed/open/half-open circuit breaker per replica,
//!   fed by data traffic *and* by a background `Ping` prober. Only
//!   liveness failures trip it; `Busy`/`Timeout` backpressure does not.
//! * [`gateway`] — the event loop: per-request deadline budget, bounded
//!   retries with jittered exponential backoff, and one hedged attempt
//!   after an adaptive latency threshold, first response wins.
//!   Attempts run on per-attempt threads (blocking transport) or are
//!   multiplexed on one shared epoll reactor
//!   ([`partree_service::net::Transport`] selects, default from
//!   `PARTREE_TRANSPORT`).
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
pub mod metrics;
#[cfg(partree_model)]
pub mod model;
pub mod pool;
mod reactor;
pub mod route;
mod sync;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use gateway::{Gateway, GatewayConfig};
pub use metrics::{GatewaySnapshot, ReplicaSnapshot};
pub use pool::ConnPool;
