//! A table-driven decoder for canonical codes.
//!
//! Tree-walking decode costs one pointer chase per bit. Canonical codes
//! admit table decoding instead, built once from the code lengths
//! ([`crate::table`]), the scheme DEFLATE-class inflaters use:
//!
//! * **Primary table.** The decoder peeks a 64-bit window at the
//!   current bit position. Its top `k = min(max_len, 10)` bits index a
//!   `2^k`-entry table whose entry packs the symbol and length of the
//!   codeword those bits start with, so every codeword of at most `k`
//!   bits decodes with one lookup.
//! * **Length-indexed walk.** An entry marked "longer" hands a full
//!   window to the classic canonical walk: all codewords of one length
//!   are numerically consecutive, so the `l`-bit prefix `v` is a
//!   codeword iff `v − first[l] < count[l]`. Deeper blocks sit
//!   numerically lower, so only one length above `k` can match — the
//!   shortest whose left-aligned first codeword does not exceed the
//!   window — and the walk finds it from the window's leading-zero
//!   count. The window holds 64 bits, so every codeword up to the
//!   64-bit limit resolves from it.
//!
//! The convention is [`crate::canonical::canonical_code`]'s (deepest
//! codewords numerically smallest), and every stream decodes exactly
//! as the tree decoder [`crate::prefix::PrefixCode::decode`] does it.

use crate::prefix::PrefixCode;
use crate::table::{Layout, Level};
use partree_core::{Error, Result};

/// Bits resolved by one primary-table lookup, at most.
const PRIMARY_BITS: u32 = 10;

/// Symbols below this bound pack into a primary entry (`symbol << 8 |
/// len`); larger ones, in alphabets past 2^24 symbols, always take the
/// walk.
const PACKED_SYMBOLS: usize = 1 << 24;

/// A canonical decoder: primary lookup table plus length-indexed walk.
#[derive(Debug, Clone)]
pub struct CanonicalDecoder {
    /// Primary-table index width: `min(max_len, PRIMARY_BITS)`.
    k: u32,
    /// `2^k` entries indexed by the next `k` bits: `symbol << 8 | len`
    /// for the codeword of `len ≤ k` bits those bits start with, or 0
    /// when no such codeword exists (the codeword is longer, or the
    /// bits match none).
    primary: Vec<u32>,
    /// The lengths the walk tries (those above `k` that carry
    /// codewords), shortest first.
    levels: Vec<Level>,
    /// Per leading-zero count `z` of a window: the first level whose
    /// `base` can lie at or below a window with `z` leading zeros. The
    /// walk starts there instead of at the shortest level.
    walk_start: [u8; 65],
    /// Symbols in canonical order (see [`Level::offset`]).
    symbols: Vec<usize>,
    max_len: u32,
}

impl CanonicalDecoder {
    /// Builds the decoder from per-symbol code lengths. Accepts exactly
    /// the vectors [`crate::canonical::canonical_code`] accepts; use
    /// [`crate::table::canonical_kernels`] to build the matching
    /// encoder from the same pass.
    pub fn from_lengths(lengths: &[u32]) -> Result<CanonicalDecoder> {
        Ok(CanonicalDecoder::from_layout(&Layout::new(lengths)?))
    }

    pub(crate) fn from_layout(layout: &Layout) -> CanonicalDecoder {
        let k = layout.max_len.min(PRIMARY_BITS);
        let mut primary = vec![0u32; 1 << k];
        let packable = layout.symbols.len() <= PACKED_SYMBOLS;
        if packable {
            for (s, &(code, len)) in layout.codes.iter().enumerate() {
                if (1..=k).contains(&len) {
                    let lo = (code << (k - len)) as usize;
                    let hi = ((code + 1) << (k - len)) as usize;
                    primary[lo..hi].fill((s as u32) << 8 | len);
                }
            }
        }
        // Past 2^24 symbols every length is walked.
        let walked = if packable { k } else { 0 };
        let levels: Vec<Level> = layout
            .levels
            .iter()
            .filter(|lv| lv.len > walked)
            .copied()
            .collect();
        // At most 64 levels, so every index fits a byte.
        let walk_start = std::array::from_fn(|z| {
            let top = u64::MAX.checked_shr(z as u32).unwrap_or(0);
            levels.partition_point(|lv| lv.base > top) as u8
        });
        CanonicalDecoder {
            k,
            primary,
            levels,
            walk_start,
            symbols: layout.symbols.clone(),
            max_len: layout.max_len,
        }
    }

    /// Decodes `len_bits` bits into symbols.
    ///
    /// Hardened against untrusted input: every malformed stream — a
    /// declared length longer than the buffer, a codeword truncated at
    /// end of stream, or bits that match no codeword in the book —
    /// returns [`Error::InvalidInput`]; this method never panics.
    pub fn decode(&self, bytes: &[u8], len_bits: u64) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        self.decode_with(bytes, len_bits, |s| out.push(s))?;
        Ok(out)
    }

    /// [`CanonicalDecoder::decode`] straight into payload bytes, for
    /// alphabets of at most 256 symbols (larger ones are an error).
    pub fn decode_bytes(&self, bytes: &[u8], len_bits: u64) -> Result<Vec<u8>> {
        if self.symbols.len() > 256 {
            return Err(Error::invalid(format!(
                "alphabet of {} symbols does not fit a byte",
                self.symbols.len()
            )));
        }
        // A guess of four bits per symbol; longer outputs grow the
        // vector.
        let mut out = Vec::with_capacity(bytes.len() * 2);
        self.decode_with(bytes, len_bits, |s| out.push(s as u8))?;
        Ok(out)
    }

    /// The decode loop, handing each symbol to `emit`.
    #[inline]
    fn decode_with(&self, bytes: &[u8], len_bits: u64, mut emit: impl FnMut(usize)) -> Result<()> {
        if len_bits > bytes.len() as u64 * 8 {
            return Err(Error::invalid(format!(
                "declared length {len_bits} bits exceeds the {}-byte buffer",
                bytes.len()
            )));
        }
        if self.max_len == 0 {
            return if len_bits == 0 {
                Ok(())
            } else {
                Err(Error::invalid("unexpected bits for single-symbol code"))
            };
        }
        let no_codeword = || Error::invalid("bit sequence matches no codeword");
        let shift = 64 - self.k;
        let mut pos = 0u64;
        // Bulk: while 64 stream bits remain, peek them and decode every
        // codeword that starts while at least `k` of them are left. A
        // window of real stream bits cannot truncate a codeword.
        while len_bits - pos >= 64 {
            let mut window = peek(bytes, pos);
            let mut valid = 64u32;
            while valid >= self.k {
                let entry = self.primary[(window >> shift) as usize];
                let (symbol, len) = if entry != 0 {
                    ((entry >> 8) as usize, entry & 0xFF)
                } else if valid == 64 {
                    // Longer than `k` bits, or no codeword: walk the
                    // full window.
                    self.walk(window).ok_or_else(no_codeword)?
                } else {
                    // Re-peek a full window at this codeword first.
                    break;
                };
                emit(symbol);
                // A 64-bit codeword leaves `valid` = 0, which ends the
                // loop before the masked shift's result is read.
                window = window.wrapping_shl(len);
                valid -= len;
            }
            pos += u64::from(64 - valid);
        }
        // Tail: under 64 stream bits; the window's bits past `len_bits`
        // may be anything, so a codeword reaching into them is cut off
        // by the end of stream.
        while pos < len_bits {
            let window = peek(bytes, pos);
            let entry = self.primary[(window >> shift) as usize];
            let (symbol, len) = if entry != 0 {
                ((entry >> 8) as usize, entry & 0xFF)
            } else {
                self.walk(window).ok_or_else(no_codeword)?
            };
            if u64::from(len) > len_bits - pos {
                return Err(Error::invalid("truncated codeword at end of stream"));
            }
            emit(symbol);
            pos += u64::from(len);
        }
        Ok(())
    }

    /// The codeword `window` starts with, among the lengths the primary
    /// table does not resolve. The only length it can have is that of
    /// the shortest level whose `base` does not exceed the window; the
    /// scan for it starts at the window's leading-zero bucket, so a
    /// chain-shaped code (one level per bit of depth) finds it in one
    /// step. The canonical test `v − first[l] < count[l]`, read on the
    /// left-aligned window, then decides whether the window starts with
    /// a codeword at all.
    fn walk(&self, window: u64) -> Option<(usize, u32)> {
        let from = usize::from(self.walk_start[window.leading_zeros() as usize]);
        let lv = self
            .levels
            .get(from..)?
            .iter()
            .find(|lv| lv.base <= window)?;
        let idx = (window - lv.base) >> (64 - lv.len);
        (idx < lv.count).then(|| (self.symbols[lv.offset + idx as usize], lv.len))
    }

    /// Convenience: builds a decoder matching an existing canonical
    /// [`PrefixCode`].
    pub fn from_code(code: &PrefixCode) -> Result<CanonicalDecoder> {
        CanonicalDecoder::from_lengths(&code.lengths())
    }
}

/// The 64 bits of `bytes` starting at bit `pos`, MSB first, with zeros
/// past the end of the buffer.
#[inline]
fn peek(bytes: &[u8], pos: u64) -> u64 {
    let at = (pos / 8) as usize;
    let s = (pos % 8) as u32;
    let (hi, lo) = match bytes.get(at..at + 9) {
        Some(&[b0, b1, b2, b3, b4, b5, b6, b7, b8]) => {
            (u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]), b8)
        }
        _ => {
            let mut b = [0u8; 9];
            let tail = bytes.get(at..).unwrap_or_default();
            let n = tail.len().min(9);
            b[..n].copy_from_slice(&tail[..n]);
            (
                u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
                b[8],
            )
        }
    };
    (hi << s) | (u64::from(lo) << s >> 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_code;
    use partree_core::gen;
    use partree_huffman::sequential::huffman_heap;

    fn roundtrip(lengths: &[u32], msg: &[usize]) {
        let code = canonical_code(lengths).unwrap();
        let dec = CanonicalDecoder::from_lengths(lengths).unwrap();
        let (bytes, bits) = code.encode(msg).unwrap();
        assert_eq!(
            dec.decode(&bytes, bits).unwrap(),
            msg,
            "lengths {lengths:?}"
        );
        // And the tree decoder agrees.
        assert_eq!(code.decode(&bytes, bits).unwrap(), msg);
    }

    #[test]
    fn deflate_style_lengths() {
        let lengths = [3u32, 3, 3, 3, 3, 2, 4, 4];
        let msg: Vec<usize> = (0..8).chain([5, 5, 0, 7, 6]).collect();
        roundtrip(&lengths, &msg);
    }

    #[test]
    fn huffman_lengths_across_distributions() {
        for seed in 0..8 {
            let w = gen::zipf_weights(64, 1.1, seed);
            let h = huffman_heap(&w).unwrap();
            let msg: Vec<usize> = (0..64).chain((0..64).rev()).collect();
            roundtrip(&h.lengths, &msg);
        }
    }

    #[test]
    fn underfull_codes() {
        roundtrip(&[3, 3], &[0, 1, 1, 0]);
        roundtrip(&[2, 5, 5], &[2, 0, 1]);
    }

    #[test]
    fn single_symbol_alphabet() {
        let dec = CanonicalDecoder::from_lengths(&[0]).unwrap();
        assert!(dec.decode(&[], 0).unwrap().is_empty());
        assert!(dec.decode(&[0x80], 1).is_err());
    }

    #[test]
    fn malformed_streams_rejected() {
        let lengths = [2u32, 2, 2, 2];
        let code = canonical_code(&lengths).unwrap();
        let dec = CanonicalDecoder::from_lengths(&lengths).unwrap();
        let (bytes, bits) = code.encode(&[0, 1, 2, 3]).unwrap();
        assert!(dec.decode(&bytes, bits - 1).is_err()); // truncated
    }

    #[test]
    fn infeasible_lengths_rejected() {
        assert!(CanonicalDecoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(CanonicalDecoder::from_lengths(&[]).is_err());
        assert!(CanonicalDecoder::from_lengths(&[90]).is_err());
    }

    #[test]
    fn zero_length_beside_other_symbols_is_not_a_code() {
        // Kraft sums of 2: the empty codeword is a prefix of every
        // other one. `canonical_code` rejects both, and so must the
        // decoder (the old carry loop skipped length 0 and let them
        // through).
        for lengths in [vec![0u32, 1, 1], vec![0, 2, 2, 2, 2]] {
            assert!(canonical_code(&lengths).is_err(), "{lengths:?}");
            assert!(
                CanonicalDecoder::from_lengths(&lengths).is_err(),
                "{lengths:?}"
            );
        }
    }

    #[test]
    fn long_codes_past_the_primary_table() {
        // A chain 1, 2, …, 64, 64: every codeword past 10 bits takes
        // the walk, up to the full 64-bit window, at every bit offset.
        let lengths: Vec<u32> = (1..=64).chain([64]).collect();
        for lead in 0..9 {
            let mut msg = vec![0; lead];
            msg.extend([64, 63, 10, 11, 0, 64, 57, 58, 1]);
            roundtrip(&lengths, &msg);
        }
    }

    #[test]
    fn window_peeks_past_the_buffer_end() {
        assert_eq!(peek(&[0xAB], 0), 0xAB << 56);
        assert_eq!(peek(&[0xAB], 4), 0xB << 60);
        let bytes: Vec<u8> = (1..=10).collect();
        assert_eq!(peek(&bytes, 8), 0x0203_0405_0607_0809);
        assert_eq!(peek(&bytes, 12), 0x2030_4050_6070_8090);
        assert_eq!(peek(&bytes, 76), 0xA << 60);
    }

    #[test]
    fn bytes_decode_like_symbols() {
        let lengths = [3u32, 3, 3, 3, 3, 2, 4, 4];
        let code = canonical_code(&lengths).unwrap();
        let dec = CanonicalDecoder::from_lengths(&lengths).unwrap();
        let msg: Vec<usize> = (0..8).chain([5, 5, 0, 7, 6]).collect();
        let (bytes, bits) = code.encode(&msg).unwrap();
        let narrow: Vec<u8> = msg.iter().map(|&s| s as u8).collect();
        assert_eq!(dec.decode_bytes(&bytes, bits).unwrap(), narrow);
        let wide = CanonicalDecoder::from_lengths(&[9; 300]).unwrap();
        assert!(wide.decode_bytes(&[], 0).is_err());
    }

    #[test]
    fn overlong_declared_length_is_err_not_panic() {
        let dec = CanonicalDecoder::from_lengths(&[2, 2, 2, 2]).unwrap();
        assert!(dec.decode(&[0xFF], 9).is_err());
        assert!(dec.decode(&[], 1).is_err());
        assert!(dec.decode(&[0xFF, 0xFF], u64::MAX).is_err());
    }

    #[test]
    fn garbage_bits_rejected_without_panic() {
        // Underfull code {00, 01}: streams reaching the unassigned
        // region (1…) never complete a codeword and must error out.
        let dec = CanonicalDecoder::from_lengths(&[2, 2]).unwrap();
        assert!(dec.decode(&[0xFF], 8).is_err());
        // Mid-symbol EOF after a valid prefix.
        assert!(dec.decode(&[0b0100_0000], 3).is_err());
    }
}
