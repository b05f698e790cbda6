//! The canonical code layout shared by the table-driven kernels.
//!
//! A canonical code is determined by its lengths alone: Theorem 7.1's
//! monotone leaf pattern, realized as codeword values without building
//! the tree. `Layout::new` computes those values once, under the same
//! convention as [`crate::canonical::canonical_code`] — deepest
//! codewords numerically smallest, equal lengths in symbol order — and
//! [`canonical_kernels`] turns one layout into both serving kernels:
//! the [`CanonicalEncoder`]'s per-symbol `(code, len)` table and the
//! [`CanonicalDecoder`]'s primary lookup table plus length-indexed
//! walk.

use crate::decoder::CanonicalDecoder;
use crate::encoder::CanonicalEncoder;
use partree_core::{Error, Result};
use partree_trees::kraft::kraft_feasible;

/// All codewords of one length: numerically consecutive, so the block
/// is its first value, its size, and where its symbols start in
/// [`Layout::symbols`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    pub(crate) len: u32,
    pub(crate) count: u64,
    pub(crate) offset: usize,
    /// The first codeword's value, left-aligned in 64 bits. Deeper
    /// blocks sit numerically lower, so `base` strictly decreases as
    /// `len` grows, and the length of the codeword a 64-bit window
    /// starts with is that of the shortest level whose `base` does not
    /// exceed the window.
    pub(crate) base: u64,
}

/// Codeword values for one vector of code lengths.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Per symbol: the codeword value (right-aligned) and its length.
    pub(crate) codes: Vec<(u64, u32)>,
    /// The lengths that carry codewords, shortest first.
    pub(crate) levels: Vec<Level>,
    /// Symbols in canonical order: each level's block, symbol
    /// ascending, at its `offset`.
    pub(crate) symbols: Vec<usize>,
    /// Longest codeword; 0 only for the single-symbol alphabet.
    pub(crate) max_len: u32,
}

impl Layout {
    /// Accepts exactly what [`crate::canonical::canonical_code`]
    /// accepts: a non-empty, Kraft-feasible vector of lengths of at
    /// most 64 bits (so `[0]`, the single-symbol alphabet, is the only
    /// vector with a zero length).
    pub(crate) fn new(lengths: &[u32]) -> Result<Layout> {
        if lengths.is_empty() {
            return Err(Error::invalid("empty alphabet"));
        }
        if let Some(&l) = lengths.iter().find(|&&l| l > 64) {
            return Err(Error::invalid(format!(
                "codeword length {l} exceeds 64 bits"
            )));
        }
        if !kraft_feasible(lengths) {
            return Err(Error::InfeasiblePattern { trees_needed: None });
        }
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u64; max_len as usize + 1];
        for &l in lengths {
            count[l as usize] += 1;
        }
        // first[l]: longer codes occupy the numerically smaller range —
        // first[l] = ⌈(first[l+1] + count[l+1]) / 2⌉ walking up from the
        // deepest level (the level-layout recurrence of
        // `trees::level_build` read as code values). Kraft feasibility
        // keeps every value below 2^l. Blocks in the canonical symbol
        // order run deepest-first.
        let top = max_len as usize;
        let mut first = vec![0u64; top + 1];
        let mut start = vec![0usize; top + 1];
        let (mut carry, mut offset) = (0u64, 0usize);
        for l in (1..=top).rev() {
            first[l] = carry;
            start[l] = offset;
            offset += count[l] as usize;
            carry = (carry + count[l]).div_ceil(2);
        }
        let levels = (1..=top)
            .filter(|&l| count[l] > 0)
            .map(|l| Level {
                len: l as u32,
                count: count[l],
                offset: start[l],
                base: first[l] << (64 - l),
            })
            .collect();

        // Place symbols by counting sort (stable, so each block is
        // symbol-ascending) and give each its codeword value.
        let mut next = start.clone();
        let mut symbols = vec![0usize; lengths.len()];
        let mut codes = Vec::with_capacity(lengths.len());
        for (s, &l) in lengths.iter().enumerate() {
            let l = l as usize;
            let at = next[l];
            next[l] += 1;
            symbols[at] = s;
            codes.push((first[l] + (at - start[l]) as u64, l as u32));
        }
        Ok(Layout {
            codes,
            levels,
            symbols,
            max_len,
        })
    }
}

/// Builds both serving kernels from one layout pass over `lengths`.
/// Errors exactly where [`crate::canonical::canonical_code`] does.
pub fn canonical_kernels(lengths: &[u32]) -> Result<(CanonicalEncoder, CanonicalDecoder)> {
    let layout = Layout::new(lengths)?;
    let decoder = CanonicalDecoder::from_layout(&layout);
    Ok((CanonicalEncoder::from_layout(layout), decoder))
}
