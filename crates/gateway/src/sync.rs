//! Primitive shim for the model-checked breaker and idle pool.
//!
//! [`crate::breaker`] and [`crate::idle`] import their mutex and
//! atomics from here: a pure `std::sync` re-export in shipping builds,
//! partree-verify's shadow types under `--cfg partree_model` — so the
//! model checker explores the exact source that ships (see
//! `crates/exec/src/sync.rs` for the same pattern over the executor
//! core).

#[cfg(not(partree_model))]
pub(crate) use std::sync::atomic::AtomicU64;
#[cfg(not(partree_model))]
pub(crate) use std::sync::{Mutex, MutexGuard};

#[cfg(partree_model)]
pub(crate) use partree_verify::sync::{AtomicU64, Mutex, MutexGuard};

pub(crate) use std::sync::atomic::Ordering;
