//! A table-driven encoder for canonical codes.
//!
//! Encoding a symbol is one lookup of its `(code, len)` pair in a
//! per-symbol table built once from the code lengths
//! ([`crate::table`]). Codewords are appended whole to a 64-bit
//! accumulator, which is flushed eight bytes at a time straight into
//! the output vector — no per-bit work and no intermediate buffers. The
//! output is MSB-first and zero-padded to a whole byte, byte for byte
//! what [`crate::prefix::PrefixCode::encode`] produces for the same
//! canonical code.

use crate::table::Layout;
use partree_core::Result;
use std::fmt;

/// The first symbol of an input that lies outside the encoder's
/// alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfAlphabet {
    /// The offending symbol.
    pub symbol: usize,
    /// The alphabet size (valid symbols are `0 .. alphabet`).
    pub alphabet: usize,
}

impl fmt::Display for OutOfAlphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "symbol {} outside alphabet of {}",
            self.symbol, self.alphabet
        )
    }
}

impl std::error::Error for OutOfAlphabet {}

/// A canonical-code encoder: one `(code, len)` entry per symbol.
#[derive(Debug, Clone)]
pub struct CanonicalEncoder {
    /// Per symbol: the codeword value (right-aligned) and its length.
    table: Vec<(u64, u32)>,
    /// Longest codeword; 0 only for the single-symbol alphabet.
    max_len: u32,
}

impl CanonicalEncoder {
    /// Builds the encoder from per-symbol code lengths. Accepts exactly
    /// the vectors [`crate::canonical::canonical_code`] accepts; use
    /// [`crate::table::canonical_kernels`] to build the matching
    /// decoder from the same pass.
    pub fn from_lengths(lengths: &[u32]) -> Result<CanonicalEncoder> {
        Ok(CanonicalEncoder::from_layout(Layout::new(lengths)?))
    }

    pub(crate) fn from_layout(layout: Layout) -> CanonicalEncoder {
        CanonicalEncoder {
            table: layout.codes,
            max_len: layout.max_len,
        }
    }

    /// Encodes a symbol sequence into `(bytes, bit length)`. Any
    /// symbol type that widens to `usize` works; payload bytes encode
    /// without a widened copy.
    pub fn encode<S: Copy + Into<usize>>(
        &self,
        symbols: &[S],
    ) -> std::result::Result<(Vec<u8>, u64), OutOfAlphabet> {
        let alphabet = self.table.len();
        let out_of_alphabet = |symbol| OutOfAlphabet { symbol, alphabet };
        if self.max_len == 0 {
            // Single-symbol alphabet: the empty codeword, zero bits.
            return match symbols.iter().map(|&s| s.into()).find(|&s| s >= alphabet) {
                Some(s) => Err(out_of_alphabet(s)),
                None => Ok((Vec::new(), 0)),
            };
        }
        // A guess of one byte per symbol; longer outputs grow the
        // vector.
        let mut out = Vec::with_capacity(symbols.len() + 8);
        // `acc` holds `used` (< 64) pending bits, left-aligned.
        let mut acc = 0u64;
        let mut used = 0u32;
        for &s in symbols {
            let s = s.into();
            let Some(&(code, len)) = self.table.get(s) else {
                return Err(out_of_alphabet(s));
            };
            // 1 ≤ len ≤ 64, so every shift below is in 0..=63.
            let free = 64 - used;
            if len < free {
                acc |= code << (free - len);
                used += len;
            } else {
                let rest = len - free;
                acc |= code >> rest;
                out.extend_from_slice(&acc.to_be_bytes());
                acc = if rest == 0 { 0 } else { code << (64 - rest) };
                used = rest;
            }
        }
        let len_bits = out.len() as u64 * 8 + u64::from(used);
        out.extend_from_slice(&acc.to_be_bytes()[..used.div_ceil(8) as usize]);
        Ok((out, len_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_code;

    fn agrees(lengths: &[u32], msg: &[usize]) {
        let enc = CanonicalEncoder::from_lengths(lengths).unwrap();
        let tree = canonical_code(lengths).unwrap();
        assert_eq!(
            enc.encode(msg).unwrap(),
            tree.encode(msg).unwrap(),
            "{lengths:?}"
        );
    }

    #[test]
    fn matches_the_tree_encoder() {
        agrees(&[3, 3, 3, 3, 3, 2, 4, 4], &[0, 1, 2, 3, 4, 5, 6, 7, 5, 5]);
        agrees(&[3, 3], &[0, 1, 1, 0]);
        agrees(&[2, 5, 5], &[2, 0, 1]);
        agrees(&[1, 1], &[]);
        agrees(&[1, 1], &[1; 64]);
        agrees(&[1, 1], &[1; 65]);
    }

    #[test]
    fn codewords_straddling_the_accumulator() {
        // 64-bit and 63-bit codewords after every possible fill level.
        let lengths: Vec<u32> = (1..=64).chain([64]).collect();
        for lead in 0..64 {
            let mut msg = vec![0; lead];
            msg.extend([64, 63, 62, 0, 64, 1, 0]);
            agrees(&lengths, &msg);
        }
    }

    #[test]
    fn bytes_encode_like_symbols() {
        let enc = CanonicalEncoder::from_lengths(&[2, 2, 2, 2]).unwrap();
        let bytes: Vec<u8> = vec![3, 1, 0, 2, 2];
        let wide: Vec<usize> = bytes.iter().map(|&b| usize::from(b)).collect();
        assert_eq!(enc.encode(&bytes).unwrap(), enc.encode(&wide).unwrap());
    }

    #[test]
    fn out_of_alphabet_names_the_symbol() {
        let enc = CanonicalEncoder::from_lengths(&[1, 1]).unwrap();
        let e = enc.encode(&[0u8, 1, 7, 9]).unwrap_err();
        assert_eq!(
            e,
            OutOfAlphabet {
                symbol: 7,
                alphabet: 2
            }
        );
        assert_eq!(e.to_string(), "symbol 7 outside alphabet of 2");
    }

    #[test]
    fn single_symbol_alphabet() {
        let enc = CanonicalEncoder::from_lengths(&[0]).unwrap();
        assert_eq!(enc.encode(&[0usize, 0, 0]).unwrap(), (Vec::new(), 0));
        assert!(enc.encode(&[0usize, 1]).is_err());
    }
}
