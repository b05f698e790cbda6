//! # partree-codes
//!
//! Prefix codes over `Σ = {0, 1}`: the deliverable the paper's tree
//! algorithms exist to produce.
//!
//! * [`analysis`] — entropy, redundancy, Kraft slack — the yardsticks
//!   of §1's optimal-code discussion;
//! * [`bitio`] — bit-granular writer/reader over byte buffers;
//! * [`prefix`] — codeword tables derived from code trees, encoding and
//!   decoding of symbol streams (uniquely decipherable by
//!   prefix-freeness — the Kraft/McMillan observation of §1);
//! * [`canonical`] — canonical codes from code lengths alone (the form
//!   used to ship a code table compactly);
//! * [`table`] — the canonical layout (codeword values from lengths)
//!   shared by the two serving kernels;
//! * [`encoder`] — the table-driven encoder, appending whole codewords
//!   through a 64-bit accumulator;
//! * [`decoder`] — the table-driven decoder: a primary lookup table for
//!   short codewords, the length-indexed walk for long ones (the
//!   DEFLATE-class fast path, no tree walking);
//! * [`shannon_fano`] — Theorem 7.4: the Shannon–Fano code built with
//!   the monotone tree construction, within one bit of Huffman
//!   (Claim 7.1).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod bitio;
pub mod canonical;
pub mod decoder;
pub mod encoder;
pub mod prefix;
pub mod shannon_fano;
pub mod table;

pub use prefix::PrefixCode;
pub use shannon_fano::{shannon_fano, ShannonFanoCode};
