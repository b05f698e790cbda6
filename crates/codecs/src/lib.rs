//! # partree-codecs
//!
//! Multiple tree-construction *code families* behind one trait, so the
//! service layer can serve more than classic Huffman.
//!
//! The paper's Theorem 7.4 already gives a second workload: Shannon–
//! Fano codes, built in parallel via the monotone leaf-pattern pipeline
//! and within one bit of Huffman (Claim 7.1). Two more families come
//! from the follow-on literature the roadmap names: **minimax trees**
//! (Golumbic's combinatorial merging; Gawrychowski–Gagie, arXiv
//! 0812.2868) minimize the *maximum* `wᵢ + lᵢ` instead of the sum, and
//! **choosable-edge Huffman** (Maßberg, arXiv 1402.3435) generalizes
//! the two unit edges of a binary code node to a chosen pair of edge
//! lengths — here the pair system `{1,3}` / `{2,2}`.
//!
//! Every family maps a histogram (`&[u32]` counts) to canonical code
//! *lengths*. Realization — canonical code, decoder tables, trees — is
//! shared downstream (`partree-codes`), exactly like the Huffman path:
//! lengths are the interchange format, and each family guarantees its
//! lengths satisfy Kraft's inequality so realization cannot fail.
//!
//! * [`family`] — [`FamilyId`], the [`CodeFamily`] trait, the registry,
//!   and the family-tagged cache key;
//! * [`shannon_fano`] — exact integer Shannon–Fano lengths (§7.3);
//! * [`two_queue`] — the two-queue merge shared by minimax and Huffman,
//!   and the exact Huffman kernel that serves family 0 wherever no node
//!   weights tie;
//! * [`tie_kernel`] — the exact sequential `A_H` kernel that serves
//!   family 0 where node weights tie, with the Theorem 5.1 pipeline's
//!   tie rule;
//! * [`minimax`] — two-queue combinatorial merging, `max(a,b)+1` rule;
//! * [`choosable`] — level-synchronous DP over open slots for the
//!   `{1,3}/{2,2}` edge-length pair system;
//! * [`oracle`] — brute-force optima for small alphabets, the ground
//!   truth the differential tests pin each family against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod choosable;
pub mod family;
pub mod minimax;
pub mod oracle;
pub mod shannon_fano;
pub mod tie_kernel;
pub mod two_queue;

pub use family::{family, CodeFamily, FamilyId, FAMILY_COUNT};
