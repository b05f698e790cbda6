//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x5054 ("PT"), big-endian
//! 2       1     version      1
//! 3       1     opcode       see [`Opcode`]
//! 4       8     request id   echoed verbatim in the response
//! 12      4     body length  bytes that follow (≤ 16 MiB)
//! 16      …     body         opcode-specific, layouts below
//! ```
//!
//! All integers are big-endian, written and read through the vendored
//! [`bytes`] `BufMut`/`Buf` traits so the codec swaps onto the real
//! crate unchanged (only the fixed header is assembled as an array, so
//! a response can patch it in once its body is written). Body layouts:
//!
//! | opcode | body |
//! |---|---|
//! | `Encode` (0x01) | `n:u16` · `n × count:u32` · `payload_len:u32` · payload bytes (symbols `< n`) |
//! | `Decode` (0x02) | `n:u16` · `n × count:u32` · `bit_len:u64` · `data_len:u32` · encoded bytes |
//! | `Stats` (0x03) | empty |
//! | `Ping` (0x04) | empty — liveness/health probe, answered inline |
//! | `Drain` (0x05) | empty — stop accepting new work; in-flight completes |
//! | `WarmUp` (0x06) | `count:u16` · `count ×` warm entry (below) — adopt pre-built codebooks |
//! | `HotSet` (0x07) | `max:u16` — report the `max` hottest cached codebooks |
//! | `EncodeSf` (0x08) | as `Encode`, Shannon–Fano code family |
//! | `DecodeSf` (0x09) | as `Decode`, Shannon–Fano code family |
//! | `EncodeMinimax` (0x0A) | as `Encode`, minimax code family |
//! | `DecodeMinimax` (0x0B) | as `Decode`, minimax code family |
//! | `EncodeChoosable` (0x0C) | as `Encode`, choosable-edge code family |
//! | `DecodeChoosable` (0x0D) | as `Decode`, choosable-edge code family |
//! | `EncodeDelta` (0x0E) | `family:u8` · `base_key:u64` · deltas (below) · `payload_len:u32` · payload bytes |
//! | `DecodeDelta` (0x0F) | `family:u8` · `base_key:u64` · deltas (below) · `bit_len:u64` · `data_len:u32` · encoded bytes |
//! | `EncodeOk` (0x81) | `bit_len:u64` · `data_len:u32` · encoded bytes |
//! | `DecodeOk` (0x82) | `payload_len:u32` · payload bytes |
//! | `StatsOk` (0x83) | `json_len:u32` · UTF-8 JSON (schema in `EXPERIMENTS.md`) |
//! | `Pong` (0x84) | `status:u8` — 0 serving, 1 draining |
//! | `DrainOk` (0x85) | empty — the drain flag is set |
//! | `WarmUpOk` (0x86) | `accepted:u32` · `rejected:u32` |
//! | `HotSetOk` (0x87) | `count:u16` · `count ×` warm entry |
//! | `DeltaOk` (0x8E) | `path:u8` (0 patched, 1 rebuilt) · `bit_len:u64` · `data_len:u32` · encoded bytes |
//! | `Error` (0xE0) | `code:u16` · `msg_len:u16` · UTF-8 message |
//! | `Busy` (0xE1) | empty — the request was **not** queued; retry later |
//! | `Timeout` (0xE2) | empty — queued but missed its deadline |
//!
//! `Busy` is the backpressure signal: the server sheds load the moment
//! its bounded queue is full instead of buffering without bound, so a
//! client always learns the fate of a request within one round trip or
//! one request-timeout, whichever comes first.
//!
//! `Ping`/`Pong` exists for routers (`partree-gateway`): it is answered
//! on the connection thread without touching the request queue, so a
//! replica that is saturated but alive still answers its health checks —
//! overload surfaces as `Busy`, not as a dead replica. `Pong` carries a
//! drain bit so a draining replica can advertise "alive, but route new
//! work elsewhere" before it goes away.
//!
//! Every encode/decode pair selects a **code family**
//! ([`partree_codecs::FamilyId`]): the classic opcodes 0x01/0x02 are
//! the Huffman family, and 0x08–0x0D select Shannon–Fano, minimax, and
//! choosable-edge trees over the *same* body layout. Responses are
//! family-agnostic — the request id correlates them — so a pre-family
//! client speaking only 0x01/0x02 sees byte-identical traffic.
//!
//! A **warm entry** — shared by `WarmUp` and `HotSetOk` — is
//! `hits:u64` · `family:u8` · histogram (`n:u16` · `n × count:u32`) ·
//! `n × length:u8`: the canonical-code representation, from which a
//! codebook is realized *without* construction, tagged with the family
//! that built it. `WarmUp`/`HotSet` are the fleet warm-up path: the
//! gateway pulls a healthy replica's hot set and pushes it to a
//! replacement replica before admitting traffic.
//!
//! **Deltas** — shared by `EncodeDelta` and `DecodeDelta` — are
//! `count:u16` · `count × (symbol:u16 · delta:i32)` (the `i32` travels
//! as its two's-complement `u32`): a sparse drift against the histogram
//! of an *already cached* codebook, identified by `base_key` — the
//! family-tagged cache key (`family.tagged_key(histogram.hash64())`).
//! The server reconstructs the drifted histogram from the base plus the
//! deltas and answers with `DeltaOk` (encode) or the plain `DecodeOk`
//! (decode), so the client never re-sends a full count table it already
//! shipped once. A delta against a key the server no longer holds fails
//! with [`ErrorCode::UnknownBase`]; the client falls back to a full
//! `Encode`.

use bytes::{Buf, BufMut};
use partree_codecs::FamilyId;
use std::io::{self, Read, Write};

/// Frame magic: "PT".
pub const MAGIC: u16 = 0x5054;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame body; larger declared lengths are malformed.
pub const MAX_BODY: u32 = 16 * 1024 * 1024;
/// Alphabet-size ceiling: payload symbols travel as single bytes.
pub const MAX_ALPHABET: usize = 256;

/// Frame type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Encode request.
    Encode = 0x01,
    /// Decode request.
    Decode = 0x02,
    /// Metrics request.
    Stats = 0x03,
    /// Liveness/health probe (answered inline, never queued).
    Ping = 0x04,
    /// Ask the service to stop accepting new work.
    Drain = 0x05,
    /// Adopt pre-built codebooks (fleet warm-up push).
    WarmUp = 0x06,
    /// Report the hottest cached codebooks (fleet warm-up pull).
    HotSet = 0x07,
    /// Encode request, Shannon–Fano family.
    EncodeSf = 0x08,
    /// Decode request, Shannon–Fano family.
    DecodeSf = 0x09,
    /// Encode request, minimax family.
    EncodeMinimax = 0x0A,
    /// Decode request, minimax family.
    DecodeMinimax = 0x0B,
    /// Encode request, choosable-edge family.
    EncodeChoosable = 0x0C,
    /// Decode request, choosable-edge family.
    DecodeChoosable = 0x0D,
    /// Encode against a cached base codebook plus sparse drift deltas.
    EncodeDelta = 0x0E,
    /// Decode against a cached base codebook plus sparse drift deltas.
    DecodeDelta = 0x0F,
    /// Successful encode.
    EncodeOk = 0x81,
    /// Successful decode.
    DecodeOk = 0x82,
    /// Metrics snapshot.
    StatsOk = 0x83,
    /// Probe answer, carrying the drain bit.
    Pong = 0x84,
    /// Drain acknowledged.
    DrainOk = 0x85,
    /// Warm-up adopted (with accept/reject counts).
    WarmUpOk = 0x86,
    /// Hot-set report.
    HotSetOk = 0x87,
    /// Successful delta encode, carrying which path served it.
    DeltaOk = 0x8E,
    /// Structured failure.
    Error = 0xE0,
    /// Load shed: the bounded queue was full.
    Busy = 0xE1,
    /// The request missed its processing deadline.
    Timeout = 0xE2,
}

impl Opcode {
    fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Encode),
            0x02 => Some(Opcode::Decode),
            0x03 => Some(Opcode::Stats),
            0x04 => Some(Opcode::Ping),
            0x05 => Some(Opcode::Drain),
            0x06 => Some(Opcode::WarmUp),
            0x07 => Some(Opcode::HotSet),
            0x08 => Some(Opcode::EncodeSf),
            0x09 => Some(Opcode::DecodeSf),
            0x0A => Some(Opcode::EncodeMinimax),
            0x0B => Some(Opcode::DecodeMinimax),
            0x0C => Some(Opcode::EncodeChoosable),
            0x0D => Some(Opcode::DecodeChoosable),
            0x0E => Some(Opcode::EncodeDelta),
            0x0F => Some(Opcode::DecodeDelta),
            0x81 => Some(Opcode::EncodeOk),
            0x82 => Some(Opcode::DecodeOk),
            0x83 => Some(Opcode::StatsOk),
            0x84 => Some(Opcode::Pong),
            0x85 => Some(Opcode::DrainOk),
            0x86 => Some(Opcode::WarmUpOk),
            0x87 => Some(Opcode::HotSetOk),
            0x8E => Some(Opcode::DeltaOk),
            0xE0 => Some(Opcode::Error),
            0xE1 => Some(Opcode::Busy),
            0xE2 => Some(Opcode::Timeout),
            _ => None,
        }
    }
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame did not parse (bad magic/version/opcode/lengths).
    Malformed = 1,
    /// Alphabet outside `2..=256` symbols, or an all-zero histogram.
    UnsupportedAlphabet = 2,
    /// A payload symbol is outside the declared alphabet.
    SymbolOutOfRange = 3,
    /// Encoded data does not decode under the declared histogram.
    CorruptPayload = 4,
    /// The service is shutting down.
    ShuttingDown = 5,
    /// A server-side invariant failed.
    Internal = 6,
    /// The request was processed but its result would not fit in one
    /// frame (body over [`MAX_BODY`]), so the body was dropped.
    ResultTooLarge = 7,
    /// A delta request named a base codebook key this server holds in
    /// neither cache tier. The client should fall back to a full
    /// encode/decode carrying the histogram.
    UnknownBase = 8,
}

impl ErrorCode {
    fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedAlphabet,
            3 => ErrorCode::SymbolOutOfRange,
            4 => ErrorCode::CorruptPayload,
            5 => ErrorCode::ShuttingDown,
            7 => ErrorCode::ResultTooLarge,
            8 => ErrorCode::UnknownBase,
            _ => ErrorCode::Internal,
        }
    }
}

/// A symbol-frequency table: `counts[s]` is the weight of symbol `s`.
/// The alphabet is `0..counts.len()`, with `2..=256` symbols.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Histogram {
    counts: Vec<u32>,
}

impl Histogram {
    /// Validates and wraps a count table.
    pub fn new(counts: Vec<u32>) -> Result<Histogram, FrameError> {
        if counts.len() < 2 || counts.len() > MAX_ALPHABET {
            return Err(FrameError::new(
                ErrorCode::UnsupportedAlphabet,
                format!("alphabet size {} outside 2..=256", counts.len()),
            ));
        }
        if counts.iter().all(|&c| c == 0) {
            return Err(FrameError::new(
                ErrorCode::UnsupportedAlphabet,
                "histogram has no nonzero count",
            ));
        }
        Ok(Histogram { counts })
    }

    /// Builds the histogram of `payload` over an `n`-symbol alphabet.
    pub fn of_payload(n: usize, payload: &[u8]) -> Result<Histogram, FrameError> {
        let mut counts = vec![0u32; n];
        for &b in payload {
            let slot = counts.get_mut(b as usize).ok_or_else(|| {
                FrameError::new(
                    ErrorCode::SymbolOutOfRange,
                    format!("symbol {b} outside alphabet of {n}"),
                )
            })?;
            *slot = slot.saturating_add(1);
        }
        Histogram::new(counts)
    }

    /// The count table.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        self.counts.len()
    }

    /// 64-bit FNV-1a over the count table — the codebook cache key.
    /// Collisions are resolved by full equality in the cache, so the
    /// hash only needs to spread, not to be unique.
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &c in &self.counts {
            for b in c.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// One pre-built codebook on the wire: enough to adopt it without
/// construction. Carried by [`Request::WarmUp`] (hits are advisory)
/// and [`Response::HotSet`] (hits rank the entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmEntry {
    /// Tier-0 hits the source replica counted for this codebook.
    pub hits: u64,
    /// The code family that produced `lengths`.
    pub family: FamilyId,
    /// The source histogram.
    pub histogram: Histogram,
    /// Optimal code length per symbol (each < 256, so one byte each
    /// on the wire).
    pub lengths: Vec<u32>,
}

/// The request opcodes for a family's encode/decode pair. The Huffman
/// family keeps the original 0x01/0x02 so a default-family client's
/// wire traffic is byte-identical to the pre-family protocol.
pub fn family_opcodes(family: FamilyId) -> (Opcode, Opcode) {
    match family {
        FamilyId::Huffman => (Opcode::Encode, Opcode::Decode),
        FamilyId::ShannonFano => (Opcode::EncodeSf, Opcode::DecodeSf),
        FamilyId::Minimax => (Opcode::EncodeMinimax, Opcode::DecodeMinimax),
        FamilyId::ChoosableEdge => (Opcode::EncodeChoosable, Opcode::DecodeChoosable),
    }
}

/// Cap on entries in one `WarmUp`/`HotSetOk` frame; larger counts are
/// malformed (a warm-up push is a handful of hot keys, not a bulk
/// transfer protocol).
pub const MAX_WARM_ENTRIES: usize = 1024;

/// Cap on sparse deltas in one `EncodeDelta`/`DecodeDelta` frame.
/// Deltas to the same symbol accumulate, but a drift that needs more
/// than 16× the maximum alphabet in updates is cheaper to ship as a
/// full histogram — larger counts are malformed.
pub const MAX_DELTA_ENTRIES: usize = 16 * MAX_ALPHABET;

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Turn `payload` symbols into bits under `histogram`'s code.
    Encode {
        /// The code family to build the codebook with.
        family: FamilyId,
        /// The weight table the codebook is built from.
        histogram: Histogram,
        /// One byte per symbol, each `< histogram.alphabet()`.
        payload: Vec<u8>,
    },
    /// Turn bits back into symbols under `histogram`'s code.
    Decode {
        /// The code family to build the codebook with.
        family: FamilyId,
        /// The weight table the codebook is built from.
        histogram: Histogram,
        /// Exact number of meaningful bits in `data`.
        bit_len: u64,
        /// The encoded bytes.
        data: Vec<u8>,
    },
    /// Fetch the server's aggregate counters as JSON.
    Stats,
    /// Health probe: answered inline with [`Response::Pong`] even when
    /// the request queue is full.
    Ping,
    /// Stop accepting new work; queued work still completes. Answered
    /// with [`Response::DrainOk`].
    Drain,
    /// Adopt pre-built codebooks into the cache (and tier-1 store, if
    /// attached) without construction. Answered with
    /// [`Response::WarmedUp`].
    WarmUp {
        /// The codebooks to adopt.
        entries: Vec<WarmEntry>,
    },
    /// Report the `max` hottest cached codebooks. Answered with
    /// [`Response::HotSet`].
    HotSet {
        /// Maximum entries to report.
        max: u16,
    },
    /// Encode `payload` under the codebook for a drifted histogram,
    /// described as sparse deltas against the cached base `base_key`.
    /// Answered with [`Response::DeltaEncoded`], or an
    /// [`ErrorCode::UnknownBase`] error if the base is not resident.
    EncodeDelta {
        /// The code family of the base codebook.
        family: FamilyId,
        /// Family-tagged cache key of the base codebook.
        base_key: u64,
        /// Sparse `(symbol, signed delta)` drift against the base
        /// histogram; deltas to the same symbol accumulate.
        deltas: Vec<(u16, i32)>,
        /// One byte per symbol, each `<` the base alphabet.
        payload: Vec<u8>,
    },
    /// Decode `data` under the codebook for a drifted histogram,
    /// described as sparse deltas against the cached base `base_key`.
    /// Answered with the plain [`Response::Decoded`].
    DecodeDelta {
        /// The code family of the base codebook.
        family: FamilyId,
        /// Family-tagged cache key of the base codebook.
        base_key: u64,
        /// Sparse `(symbol, signed delta)` drift against the base
        /// histogram; deltas to the same symbol accumulate.
        deltas: Vec<(u16, i32)>,
        /// Exact number of meaningful bits in `data`.
        bit_len: u64,
        /// The encoded bytes.
        data: Vec<u8>,
    },
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Encode succeeded.
    Encoded {
        /// Exact number of meaningful bits in `data`.
        bit_len: u64,
        /// The encoded bytes (zero-padded to a whole byte).
        data: Vec<u8>,
    },
    /// Decode succeeded.
    Decoded {
        /// One byte per recovered symbol.
        payload: Vec<u8>,
    },
    /// Metrics snapshot.
    Stats {
        /// JSON document (schema in `EXPERIMENTS.md` § E13).
        json: String,
    },
    /// Probe answer.
    Pong {
        /// True when the service is draining: alive, but new work
        /// should be routed elsewhere.
        draining: bool,
    },
    /// The drain flag is set.
    DrainOk,
    /// Warm-up outcome.
    WarmedUp {
        /// Entries newly adopted.
        accepted: u32,
        /// Entries already resident or rejected as invalid.
        rejected: u32,
    },
    /// The hottest cached codebooks, hottest first.
    HotSet {
        /// The entries, ranked by tier-0 hits descending.
        entries: Vec<WarmEntry>,
    },
    /// Delta encode succeeded.
    DeltaEncoded {
        /// Which path produced the codebook: 0 the patch rule, 1 a
        /// full rebuild (see `partree_delta::DeltaPath`).
        path: u8,
        /// Exact number of meaningful bits in `data`.
        bit_len: u64,
        /// The encoded bytes (zero-padded to a whole byte).
        data: Vec<u8>,
    },
    /// Structured failure.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The bounded queue was full; the request was not accepted.
    Busy,
    /// The request was queued but missed its deadline.
    Timeout,
}

/// A protocol-level failure: what went wrong and the matching wire
/// error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Wire error code.
    pub code: ErrorCode,
    /// Detail for the `Error` frame body.
    pub message: String,
}

impl FrameError {
    /// Builds an error with an explicit code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> FrameError {
        FrameError {
            code,
            message: message.into(),
        }
    }

    fn malformed(message: impl Into<String>) -> FrameError {
        FrameError::new(ErrorCode::Malformed, message)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for Response {
    fn from(e: FrameError) -> Response {
        Response::Error {
            code: e.code,
            message: e.message,
        }
    }
}

/// A checked reader over a frame body: every under-run is a
/// [`FrameError`], never a panic, on top of the panicking [`Buf`]
/// primitives.
struct BodyReader<'a> {
    buf: &'a [u8],
}

impl<'a> BodyReader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<(), FrameError> {
        if self.buf.remaining() < n {
            return Err(FrameError::malformed(format!(
                "body truncated reading {what}: need {n} bytes, have {}",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        self.need(2, what)?;
        Ok(self.buf.get_u16())
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        self.need(4, what)?;
        Ok(self.buf.get_u32())
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64())
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<Vec<u8>, FrameError> {
        self.need(n, what)?;
        let mut out = vec![0u8; n];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    fn finish(&self) -> Result<(), FrameError> {
        if self.buf.has_remaining() {
            return Err(FrameError::malformed(format!(
                "{} trailing bytes after body",
                self.buf.remaining()
            )));
        }
        Ok(())
    }

    fn family(&mut self) -> Result<FamilyId, FrameError> {
        let tag = self.u8("code family")?;
        FamilyId::from_u8(tag)
            .ok_or_else(|| FrameError::malformed(format!("unknown code family tag {tag}")))
    }

    fn warm_entries(&mut self) -> Result<Vec<WarmEntry>, FrameError> {
        let count = self.u16("warm entry count")? as usize;
        if count > MAX_WARM_ENTRIES {
            return Err(FrameError::malformed(format!(
                "{count} warm entries exceeds the cap of {MAX_WARM_ENTRIES}"
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let hits = self.u64("warm entry hits")?;
            let family = self.family()?;
            let histogram = self.histogram()?;
            let n = histogram.alphabet();
            let lengths = self
                .bytes(n, "warm entry lengths")?
                .into_iter()
                .map(u32::from)
                .collect();
            entries.push(WarmEntry {
                hits,
                family,
                histogram,
                lengths,
            });
        }
        Ok(entries)
    }

    fn deltas(&mut self) -> Result<Vec<(u16, i32)>, FrameError> {
        let count = self.u16("delta count")? as usize;
        if count > MAX_DELTA_ENTRIES {
            return Err(FrameError::malformed(format!(
                "{count} deltas exceeds the cap of {MAX_DELTA_ENTRIES}"
            )));
        }
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            let symbol = self.u16("delta symbol")?;
            if usize::from(symbol) >= MAX_ALPHABET {
                return Err(FrameError::new(
                    ErrorCode::SymbolOutOfRange,
                    format!("delta symbol {symbol} outside the {MAX_ALPHABET}-symbol ceiling"),
                ));
            }
            // i32 travels as its two's-complement u32 (the vendored
            // `bytes` API is unsigned-only).
            let delta = self.u32("delta amount")? as i32;
            deltas.push((symbol, delta));
        }
        Ok(deltas)
    }

    fn histogram(&mut self) -> Result<Histogram, FrameError> {
        let n = self.u16("alphabet size")? as usize;
        if !(2..=MAX_ALPHABET).contains(&n) {
            return Err(FrameError::new(
                ErrorCode::UnsupportedAlphabet,
                format!("alphabet size {n} outside 2..=256"),
            ));
        }
        self.need(4 * n, "histogram counts")?;
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            counts.push(self.buf.get_u32());
        }
        Histogram::new(counts)
    }
}

fn put_histogram(out: &mut impl BufMut, h: &Histogram) {
    out.put_u16(h.alphabet() as u16);
    for &c in h.counts() {
        out.put_u32(c);
    }
}

fn put_warm_entries(out: &mut impl BufMut, entries: &[WarmEntry]) {
    out.put_u16(entries.len() as u16);
    for e in entries {
        out.put_u64(e.hits);
        out.put_u8(e.family.tag());
        put_histogram(out, &e.histogram);
        for &l in &e.lengths {
            out.put_u8(l.min(u8::MAX as u32) as u8);
        }
    }
}

fn put_deltas(out: &mut impl BufMut, deltas: &[(u16, i32)]) {
    out.put_u16(deltas.len() as u16);
    for &(symbol, delta) in deltas {
        out.put_u16(symbol);
        out.put_u32(delta as u32);
    }
}

/// The 16-byte frame header.
fn header(id: u64, opcode: Opcode, body_len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..2].copy_from_slice(&MAGIC.to_be_bytes());
    h[2] = VERSION;
    h[3] = opcode as u8;
    h[4..12].copy_from_slice(&id.to_be_bytes());
    h[12..].copy_from_slice(&(body_len as u32).to_be_bytes());
    h
}

/// Serializes one frame (header + body) into a byte vector.
pub fn encode_frame(id: u64, opcode: Opcode, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.put_slice(&header(id, opcode, body.len()));
    out.put_slice(body);
    out
}

/// Serializes a request frame into a new vector; see
/// [`encode_request_into`].
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, id, req);
    out
}

/// Appends a request frame to `out`, header and body written in place
/// (the gateway appends straight onto a connection's write buffer, or
/// onto the calling thread's reused one).
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, req: &Request) {
    let start = out.len();
    // The header is filled in once the body's opcode and length are known.
    out.resize(start + HEADER_LEN, 0);
    let opcode = match req {
        Request::Encode {
            family,
            histogram,
            payload,
        } => {
            put_histogram(out, histogram);
            out.put_u32(payload.len() as u32);
            out.put_slice(payload);
            family_opcodes(*family).0
        }
        Request::Decode {
            family,
            histogram,
            bit_len,
            data,
        } => {
            put_histogram(out, histogram);
            out.put_u64(*bit_len);
            out.put_u32(data.len() as u32);
            out.put_slice(data);
            family_opcodes(*family).1
        }
        Request::Stats => Opcode::Stats,
        Request::Ping => Opcode::Ping,
        Request::Drain => Opcode::Drain,
        Request::WarmUp { entries } => {
            put_warm_entries(out, entries);
            Opcode::WarmUp
        }
        Request::HotSet { max } => {
            out.put_u16(*max);
            Opcode::HotSet
        }
        Request::EncodeDelta {
            family,
            base_key,
            deltas,
            payload,
        } => {
            out.put_u8(family.tag());
            out.put_u64(*base_key);
            put_deltas(out, deltas);
            out.put_u32(payload.len() as u32);
            out.put_slice(payload);
            Opcode::EncodeDelta
        }
        Request::DecodeDelta {
            family,
            base_key,
            deltas,
            bit_len,
            data,
        } => {
            out.put_u8(family.tag());
            out.put_u64(*base_key);
            put_deltas(out, deltas);
            out.put_u64(*bit_len);
            out.put_u32(data.len() as u32);
            out.put_slice(data);
            Opcode::DecodeDelta
        }
    };
    let body_len = out.len() - start - HEADER_LEN;
    out[start..start + HEADER_LEN].copy_from_slice(&header(id, opcode, body_len));
}

/// Serializes a response frame into a new vector; see
/// [`encode_response_into`].
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, id, resp);
    out
}

/// Appends a response frame to `out`, header and body written in place
/// (the reactor appends straight onto a connection's write buffer).
/// Total over every [`Response`]: a body that would exceed [`MAX_BODY`]
/// (e.g. an encode of a near-limit payload under a deeply skewed code,
/// up to 255 bits per symbol) is cut back off and replaced by an
/// [`ErrorCode::ResultTooLarge`] error frame, because the peer's
/// [`read_frame`] would reject the oversized frame and desynchronize
/// the connection.
pub fn encode_response_into(out: &mut Vec<u8>, id: u64, resp: &Response) {
    let start = out.len();
    // The header is filled in once the body's opcode and length are known.
    out.resize(start + HEADER_LEN, 0);
    let opcode = match resp {
        Response::Encoded { bit_len, data } => {
            out.put_u64(*bit_len);
            out.put_u32(data.len() as u32);
            out.put_slice(data);
            Opcode::EncodeOk
        }
        Response::Decoded { payload } => {
            out.put_u32(payload.len() as u32);
            out.put_slice(payload);
            Opcode::DecodeOk
        }
        Response::Stats { json } => {
            out.put_u32(json.len() as u32);
            out.put_slice(json.as_bytes());
            Opcode::StatsOk
        }
        Response::Error { code, message } => {
            let msg = message.as_bytes();
            let take = msg.len().min(u16::MAX as usize);
            out.put_u16(*code as u16);
            out.put_u16(take as u16);
            out.put_slice(&msg[..take]);
            Opcode::Error
        }
        Response::Pong { draining } => {
            out.put_u8(u8::from(*draining));
            Opcode::Pong
        }
        Response::DrainOk => Opcode::DrainOk,
        Response::WarmedUp { accepted, rejected } => {
            out.put_u32(*accepted);
            out.put_u32(*rejected);
            Opcode::WarmUpOk
        }
        Response::HotSet { entries } => {
            put_warm_entries(out, entries);
            Opcode::HotSetOk
        }
        Response::DeltaEncoded {
            path,
            bit_len,
            data,
        } => {
            out.put_u8(*path);
            out.put_u64(*bit_len);
            out.put_u32(data.len() as u32);
            out.put_slice(data);
            Opcode::DeltaOk
        }
        Response::Busy => Opcode::Busy,
        Response::Timeout => Opcode::Timeout,
    };
    let body_len = out.len() - start - HEADER_LEN;
    if body_len > MAX_BODY as usize {
        out.truncate(start);
        return encode_response_into(
            out,
            id,
            &Response::Error {
                code: ErrorCode::ResultTooLarge,
                message: format!(
                    "response body of {body_len} bytes exceeds the {MAX_BODY}-byte frame limit"
                ),
            },
        );
    }
    out[start..start + HEADER_LEN].copy_from_slice(&header(id, opcode, body_len));
}

/// The family an encode/decode request opcode selects. Only meaningful
/// for the eight request opcodes; anything else maps to the default.
fn request_family(opcode: Opcode) -> FamilyId {
    match opcode {
        Opcode::EncodeSf | Opcode::DecodeSf => FamilyId::ShannonFano,
        Opcode::EncodeMinimax | Opcode::DecodeMinimax => FamilyId::Minimax,
        Opcode::EncodeChoosable | Opcode::DecodeChoosable => FamilyId::ChoosableEdge,
        _ => FamilyId::Huffman,
    }
}

/// Parses a request body for `opcode`.
pub fn decode_request(opcode: Opcode, body: &[u8]) -> Result<Request, FrameError> {
    let mut r = BodyReader { buf: body };
    let req = match opcode {
        Opcode::Encode | Opcode::EncodeSf | Opcode::EncodeMinimax | Opcode::EncodeChoosable => {
            let family = request_family(opcode);
            let histogram = r.histogram()?;
            let len = r.u32("payload length")? as usize;
            let payload = r.bytes(len, "payload")?;
            let n = histogram.alphabet();
            if let Some(&bad) = payload.iter().find(|&&b| b as usize >= n) {
                return Err(FrameError::new(
                    ErrorCode::SymbolOutOfRange,
                    format!("payload symbol {bad} outside alphabet of {n}"),
                ));
            }
            Request::Encode {
                family,
                histogram,
                payload,
            }
        }
        Opcode::Decode | Opcode::DecodeSf | Opcode::DecodeMinimax | Opcode::DecodeChoosable => {
            let family = request_family(opcode);
            let histogram = r.histogram()?;
            let bit_len = r.u64("bit length")?;
            let len = r.u32("data length")? as usize;
            let data = r.bytes(len, "data")?;
            if bit_len > data.len() as u64 * 8 {
                return Err(FrameError::new(
                    ErrorCode::CorruptPayload,
                    format!("bit length {bit_len} exceeds {}-byte data", data.len()),
                ));
            }
            Request::Decode {
                family,
                histogram,
                bit_len,
                data,
            }
        }
        Opcode::Stats => Request::Stats,
        Opcode::Ping => Request::Ping,
        Opcode::Drain => Request::Drain,
        Opcode::WarmUp => Request::WarmUp {
            entries: r.warm_entries()?,
        },
        Opcode::HotSet => Request::HotSet {
            max: r.u16("hot-set max")?,
        },
        Opcode::EncodeDelta => {
            let family = r.family()?;
            let base_key = r.u64("base key")?;
            let deltas = r.deltas()?;
            let len = r.u32("payload length")? as usize;
            // Payload symbols are validated against the *base* alphabet
            // server-side, once the base codebook is resolved.
            let payload = r.bytes(len, "payload")?;
            Request::EncodeDelta {
                family,
                base_key,
                deltas,
                payload,
            }
        }
        Opcode::DecodeDelta => {
            let family = r.family()?;
            let base_key = r.u64("base key")?;
            let deltas = r.deltas()?;
            let bit_len = r.u64("bit length")?;
            let len = r.u32("data length")? as usize;
            let data = r.bytes(len, "data")?;
            if bit_len > data.len() as u64 * 8 {
                return Err(FrameError::new(
                    ErrorCode::CorruptPayload,
                    format!("bit length {bit_len} exceeds {}-byte data", data.len()),
                ));
            }
            Request::DecodeDelta {
                family,
                base_key,
                deltas,
                bit_len,
                data,
            }
        }
        other => {
            return Err(FrameError::malformed(format!(
                "opcode {other:?} is not a request"
            )));
        }
    };
    r.finish()?;
    Ok(req)
}

/// Parses a response body for `opcode`.
pub fn decode_response(opcode: Opcode, body: &[u8]) -> Result<Response, FrameError> {
    let mut r = BodyReader { buf: body };
    let resp = match opcode {
        Opcode::EncodeOk => {
            let bit_len = r.u64("bit length")?;
            let len = r.u32("data length")? as usize;
            let data = r.bytes(len, "data")?;
            Response::Encoded { bit_len, data }
        }
        Opcode::DecodeOk => {
            let len = r.u32("payload length")? as usize;
            let payload = r.bytes(len, "payload")?;
            Response::Decoded { payload }
        }
        Opcode::StatsOk => {
            let len = r.u32("json length")? as usize;
            let raw = r.bytes(len, "json")?;
            let json = String::from_utf8(raw)
                .map_err(|_| FrameError::malformed("stats body is not UTF-8"))?;
            Response::Stats { json }
        }
        Opcode::Error => {
            let code = ErrorCode::from_u16(r.u16("error code")?);
            let len = r.u16("message length")? as usize;
            let raw = r.bytes(len, "message")?;
            let message = String::from_utf8_lossy(&raw).into_owned();
            Response::Error { code, message }
        }
        Opcode::Pong => Response::Pong {
            draining: r.u8("pong status")? != 0,
        },
        Opcode::DrainOk => Response::DrainOk,
        Opcode::WarmUpOk => Response::WarmedUp {
            accepted: r.u32("accepted count")?,
            rejected: r.u32("rejected count")?,
        },
        Opcode::HotSetOk => Response::HotSet {
            entries: r.warm_entries()?,
        },
        Opcode::DeltaOk => {
            let path = r.u8("delta path")?;
            if path > 1 {
                return Err(FrameError::malformed(format!(
                    "delta path tag {path} is not 0 (patched) or 1 (rebuilt)"
                )));
            }
            let bit_len = r.u64("bit length")?;
            let len = r.u32("data length")? as usize;
            let data = r.bytes(len, "data")?;
            Response::DeltaEncoded {
                path,
                bit_len,
                data,
            }
        }
        Opcode::Busy => Response::Busy,
        Opcode::Timeout => Response::Timeout,
        other => {
            return Err(FrameError::malformed(format!(
                "opcode {other:?} is not a response"
            )));
        }
    };
    r.finish()?;
    Ok(resp)
}

/// One frame as read off a stream, body not yet interpreted.
#[derive(Debug)]
pub struct RawFrame {
    /// Request id from the header.
    pub id: u64,
    /// Frame type.
    pub opcode: Opcode,
    /// Uninterpreted body bytes.
    pub body: Vec<u8>,
}

/// Validates a complete 16-byte header, returning `(id, opcode,
/// body_len)`. Shared by the one-shot [`read_frame`] and the
/// incremental [`FrameDecoder`], so the two parsers reject exactly the
/// same headers with exactly the same errors.
fn parse_header(header: &[u8; HEADER_LEN]) -> io::Result<(u64, Opcode, u32)> {
    let mut h: &[u8] = header;
    let magic = h.get_u16();
    let version = h.get_u8();
    let opcode = h.get_u8();
    let id = h.get_u64();
    let body_len = h.get_u32();
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic {magic:#06x}"),
        ));
    }
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol version {version}"),
        ));
    }
    if body_len > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body length {body_len} exceeds {MAX_BODY}"),
        ));
    }
    let opcode = Opcode::from_u8(opcode).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("opcode {opcode:#04x}"))
    })?;
    Ok((id, opcode, body_len))
}

/// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF at a
/// frame boundary; mid-frame EOF and malformed headers are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<RawFrame>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame header",
            ));
        }
        filled += n;
    }
    let (id, opcode, body_len) = parse_header(&header)?;
    let mut body = vec![0u8; body_len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(RawFrame { id, opcode, body }))
}

/// Resumable frame parser for non-blocking transports: a header/body
/// state machine that accepts input in arbitrary slices — one byte at a
/// time, or several coalesced frames per read — and yields exactly the
/// frames [`read_frame`] would yield from the concatenation of those
/// slices (the header validation is literally shared; see
/// [`parse_header`]).
///
/// Contract, proven property-style by `tests/frame_fragmentation.rs`:
/// for any byte stream and any split of it into chunks, the sequence of
/// frames (and the first error, if any) is identical to the one-shot
/// parser's, and no input — adversarial headers included — panics.
/// After the first error the decoder is poisoned: the stream may be
/// mid-garbage, so every later [`FrameDecoder::advance`] fails too and
/// the connection must be closed, just as a blocking reader drops a
/// connection whose `read_frame` errored.
#[derive(Debug)]
pub struct FrameDecoder {
    header: [u8; HEADER_LEN],
    hfill: usize,
    id: u64,
    opcode: Opcode,
    need: usize,
    body: Vec<u8>,
    in_body: bool,
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            header: [0; HEADER_LEN],
            hfill: 0,
            id: 0,
            opcode: Opcode::Ping,
            need: 0,
            body: Vec::new(),
            in_body: false,
            poisoned: false,
        }
    }

    /// Consumes a prefix of `input` — at most enough to finish the
    /// frame in progress — and returns `(bytes_consumed, frame)`.
    /// Call in a loop until all input is consumed, handling each
    /// yielded frame:
    ///
    /// ```
    /// # use partree_service::frame::{encode_request, FrameDecoder, Request};
    /// let wire = encode_request(1, &Request::Ping);
    /// let mut dec = FrameDecoder::new();
    /// let mut at = 0;
    /// while at < wire.len() {
    ///     let (used, frame) = dec.advance(&wire[at..]).unwrap();
    ///     at += used;
    ///     if let Some(f) = frame {
    ///         assert_eq!(f.id, 1);
    ///     }
    /// }
    /// ```
    ///
    /// Progress is guaranteed: on non-empty input, either bytes are
    /// consumed or a completed frame is returned. Errors are sticky
    /// (see the type docs).
    pub fn advance(&mut self, input: &[u8]) -> io::Result<(usize, Option<RawFrame>)> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame decoder already failed; the stream is desynchronized",
            ));
        }
        let mut used = 0usize;
        if !self.in_body {
            let take = (HEADER_LEN - self.hfill).min(input.len());
            self.header[self.hfill..self.hfill + take].copy_from_slice(&input[..take]);
            self.hfill += take;
            used += take;
            if self.hfill < HEADER_LEN {
                return Ok((used, None));
            }
            match parse_header(&self.header) {
                Ok((id, opcode, body_len)) => {
                    self.id = id;
                    self.opcode = opcode;
                    self.need = body_len as usize;
                    // Capped pre-allocation: a hostile header may
                    // declare up to MAX_BODY without ever sending it.
                    self.body = Vec::with_capacity(self.need.min(64 * 1024));
                    self.in_body = true;
                }
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
        let take = (self.need - self.body.len()).min(input.len() - used);
        self.body.extend_from_slice(&input[used..used + take]);
        used += take;
        if self.body.len() == self.need {
            let frame = RawFrame {
                id: self.id,
                opcode: self.opcode,
                body: std::mem::take(&mut self.body),
            };
            self.in_body = false;
            self.hfill = 0;
            return Ok((used, Some(frame)));
        }
        Ok((used, None))
    }

    /// True at a frame boundary — an EOF here is clean, exactly when
    /// [`read_frame`] would have returned `Ok(None)`; an EOF mid-frame
    /// is the `UnexpectedEof` case.
    pub fn is_idle(&self) -> bool {
        !self.in_body && self.hfill == 0 && !self.poisoned
    }
}

/// Writes one already-encoded frame to `w`.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn hist(counts: &[u32]) -> Histogram {
        Histogram::new(counts.to_vec()).unwrap()
    }

    fn roundtrip_request(req: &Request) {
        let wire = encode_request(7, req);
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(raw.id, 7);
        assert_eq!(&decode_request(raw.opcode, &raw.body).unwrap(), req);
    }

    fn roundtrip_response(resp: &Response) {
        let wire = encode_response(99, resp);
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(raw.id, 99);
        assert_eq!(&decode_response(raw.opcode, &raw.body).unwrap(), resp);
    }

    #[test]
    fn request_frames_roundtrip() {
        for family in FamilyId::ALL {
            roundtrip_request(&Request::Encode {
                family,
                histogram: hist(&[3, 1, 4, 1, 5]),
                payload: vec![0, 4, 2, 2, 1, 3],
            });
            roundtrip_request(&Request::Decode {
                family,
                histogram: hist(&[10, 20]),
                bit_len: 11,
                data: vec![0xAB, 0xC0],
            });
        }
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Drain);
        roundtrip_request(&Request::WarmUp {
            entries: vec![
                WarmEntry {
                    hits: 41,
                    family: FamilyId::Huffman,
                    histogram: hist(&[9, 3, 1]),
                    lengths: vec![1, 2, 2],
                },
                WarmEntry {
                    hits: 0,
                    family: FamilyId::Minimax,
                    histogram: hist(&[1, 1]),
                    lengths: vec![1, 1],
                },
            ],
        });
        roundtrip_request(&Request::WarmUp { entries: vec![] });
        roundtrip_request(&Request::HotSet { max: 32 });
        for family in FamilyId::ALL {
            roundtrip_request(&Request::EncodeDelta {
                family,
                base_key: 0xDEAD_BEEF_CAFE_F00D,
                deltas: vec![(0, 5), (3, -2), (0, 1)],
                payload: vec![0, 4, 2, 2, 1, 3],
            });
            roundtrip_request(&Request::DecodeDelta {
                family,
                base_key: 42,
                deltas: vec![(255, i32::MIN), (1, i32::MAX)],
                bit_len: 11,
                data: vec![0xAB, 0xC0],
            });
        }
        roundtrip_request(&Request::EncodeDelta {
            family: FamilyId::Huffman,
            base_key: 0,
            deltas: vec![],
            payload: vec![],
        });
    }

    #[test]
    fn delta_requests_reject_bad_symbols_counts_and_bits() {
        // A delta symbol at the alphabet ceiling.
        let mut body = BytesMut::new();
        body.put_u8(FamilyId::Huffman.tag());
        body.put_u64(7);
        body.put_u16(1);
        body.put_u16(MAX_ALPHABET as u16); // first symbol out of range
        body.put_u32(1u32);
        body.put_u32(0); // empty payload
        let e = decode_request(Opcode::EncodeDelta, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::SymbolOutOfRange);

        // Delta count over the cap.
        let mut body = BytesMut::new();
        body.put_u8(FamilyId::Huffman.tag());
        body.put_u64(7);
        body.put_u16((MAX_DELTA_ENTRIES + 1) as u16);
        let e = decode_request(Opcode::EncodeDelta, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Malformed);

        // An unknown family tag.
        let mut body = BytesMut::new();
        body.put_u8(9);
        let e = decode_request(Opcode::DecodeDelta, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Malformed);

        // Declared bits exceed the data buffer.
        let mut body = BytesMut::new();
        body.put_u8(FamilyId::Huffman.tag());
        body.put_u64(7);
        body.put_u16(0);
        body.put_u64(9); // bit_len
        body.put_u32(1);
        body.put_u8(0xFF);
        let e = decode_request(Opcode::DecodeDelta, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::CorruptPayload);
    }

    #[test]
    fn truncated_delta_bodies_are_frame_errors() {
        let req = Request::EncodeDelta {
            family: FamilyId::ShannonFano,
            base_key: 99,
            deltas: vec![(1, -3), (2, 8)],
            payload: vec![0, 1, 2],
        };
        let wire = encode_request(1, &req);
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        for cut in 0..raw.body.len() {
            assert!(
                decode_request(raw.opcode, &raw.body[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut long = raw.body.clone();
        long.push(0);
        assert!(decode_request(raw.opcode, &long).is_err());
    }

    #[test]
    fn family_opcode_mapping_is_stable() {
        // The wire values are a protocol commitment: Huffman keeps the
        // legacy pair, the other families take 0x08..=0x0D.
        assert_eq!(
            family_opcodes(FamilyId::Huffman),
            (Opcode::Encode, Opcode::Decode)
        );
        assert_eq!(
            family_opcodes(FamilyId::ShannonFano),
            (Opcode::EncodeSf, Opcode::DecodeSf)
        );
        assert_eq!(
            family_opcodes(FamilyId::Minimax),
            (Opcode::EncodeMinimax, Opcode::DecodeMinimax)
        );
        assert_eq!(
            family_opcodes(FamilyId::ChoosableEdge),
            (Opcode::EncodeChoosable, Opcode::DecodeChoosable)
        );
        // Default-family frames are byte-identical to the pre-family
        // protocol: same opcode byte, same body bytes.
        let req = Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist(&[3, 1]),
            payload: vec![0, 1, 0],
        };
        let wire = encode_request(5, &req);
        assert_eq!(wire[3], 0x01, "legacy Encode opcode byte");
    }

    #[test]
    fn unknown_warm_entry_family_is_malformed() {
        let mut body = BytesMut::new();
        body.put_u16(1);
        body.put_u64(3); // hits
        body.put_u8(9); // no such family
        put_histogram(&mut body, &hist(&[1, 1]));
        body.put_u8(1);
        body.put_u8(1);
        let e = decode_request(Opcode::WarmUp, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Malformed);
    }

    #[test]
    fn response_frames_roundtrip() {
        roundtrip_response(&Response::Encoded {
            bit_len: 13,
            data: vec![1, 2],
        });
        roundtrip_response(&Response::Decoded {
            payload: vec![0, 1, 1, 0],
        });
        roundtrip_response(&Response::Stats {
            json: "{\"requests\":3}".into(),
        });
        roundtrip_response(&Response::Error {
            code: ErrorCode::SymbolOutOfRange,
            message: "symbol 9 outside alphabet of 4".into(),
        });
        roundtrip_response(&Response::Pong { draining: false });
        roundtrip_response(&Response::Pong { draining: true });
        roundtrip_response(&Response::DrainOk);
        roundtrip_response(&Response::WarmedUp {
            accepted: 7,
            rejected: 2,
        });
        roundtrip_response(&Response::HotSet {
            entries: vec![WarmEntry {
                hits: 1000,
                family: FamilyId::ShannonFano,
                histogram: hist(&[4, 2, 1, 1]),
                lengths: vec![1, 2, 3, 3],
            }],
        });
        roundtrip_response(&Response::HotSet { entries: vec![] });
        roundtrip_response(&Response::DeltaEncoded {
            path: 0,
            bit_len: 13,
            data: vec![1, 2],
        });
        roundtrip_response(&Response::DeltaEncoded {
            path: 1,
            bit_len: 0,
            data: vec![],
        });
        roundtrip_response(&Response::Error {
            code: ErrorCode::UnknownBase,
            message: "no codebook under key 7".into(),
        });
        roundtrip_response(&Response::Busy);
        roundtrip_response(&Response::Timeout);
    }

    #[test]
    fn delta_ok_rejects_unknown_path_tags() {
        let mut body = BytesMut::new();
        body.put_u8(2); // only 0 and 1 are defined
        body.put_u64(0);
        body.put_u32(0);
        let e = decode_response(Opcode::DeltaOk, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Malformed);
    }

    #[test]
    fn warm_entry_count_is_capped() {
        // Hand-build a WarmUp body declaring too many entries.
        let mut body = BytesMut::new();
        body.put_u16((MAX_WARM_ENTRIES + 1) as u16);
        let e = decode_request(Opcode::WarmUp, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::Malformed);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_err() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        let wire = encode_request(1, &Request::Stats);
        assert!(read_frame(&mut &wire[..5]).is_err());
        assert!(read_frame(&mut &wire[..HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn bad_headers_rejected() {
        let mut wire = encode_request(1, &Request::Stats);
        wire[0] = 0; // magic
        assert!(read_frame(&mut &wire[..]).is_err());
        let mut wire = encode_request(1, &Request::Stats);
        wire[2] = 9; // version
        assert!(read_frame(&mut &wire[..]).is_err());
        let mut wire = encode_request(1, &Request::Stats);
        wire[3] = 0x77; // opcode
        assert!(read_frame(&mut &wire[..]).is_err());
    }

    #[test]
    fn truncated_bodies_are_frame_errors() {
        let req = Request::Encode {
            family: FamilyId::Huffman,
            histogram: hist(&[1, 2, 3]),
            payload: vec![0, 1, 2],
        };
        let wire = encode_request(1, &req);
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        for cut in 0..raw.body.len() {
            let e = decode_request(raw.opcode, &raw.body[..cut]).unwrap_err();
            assert_eq!(e.code, ErrorCode::Malformed, "cut at {cut}");
        }
        // Trailing garbage is also malformed.
        let mut long = raw.body.clone();
        long.push(0);
        assert!(decode_request(raw.opcode, &long).is_err());
    }

    #[test]
    fn semantic_checks_have_specific_codes() {
        // Symbol outside the alphabet.
        let mut body = BytesMut::new();
        put_histogram(&mut body, &hist(&[1, 1]));
        body.put_u32(1);
        body.put_u8(2); // alphabet is {0, 1}
        let e = decode_request(Opcode::Encode, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::SymbolOutOfRange);

        // Declared bits exceed the data buffer.
        let mut body = BytesMut::new();
        put_histogram(&mut body, &hist(&[1, 1]));
        body.put_u64(9);
        body.put_u32(1);
        body.put_u8(0xFF);
        let e = decode_request(Opcode::Decode, &body).unwrap_err();
        assert_eq!(e.code, ErrorCode::CorruptPayload);

        // Alphabet too small / too large.
        assert!(Histogram::new(vec![5]).is_err());
        assert!(Histogram::new(vec![0; 257]).is_err());
        assert!(Histogram::new(vec![0, 0]).is_err());
    }

    #[test]
    fn oversized_response_bodies_become_result_too_large_errors() {
        let resp = Response::Encoded {
            bit_len: 8 * (MAX_BODY as u64 + 1),
            data: vec![0u8; MAX_BODY as usize + 1],
        };
        let wire = encode_response(42, &resp);
        // The substituted frame is small and parses cleanly.
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(raw.id, 42);
        match decode_response(raw.opcode, &raw.body).unwrap() {
            Response::Error {
                code: ErrorCode::ResultTooLarge,
                ..
            } => {}
            other => panic!("expected ResultTooLarge, got {other:?}"),
        }
        // A body exactly at the limit still goes out verbatim.
        let resp = Response::Decoded {
            payload: vec![0u8; MAX_BODY as usize - 4],
        };
        let wire = encode_response(7, &resp);
        let raw = read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(decode_response(raw.opcode, &raw.body).unwrap(), resp);
    }

    /// Runs the incremental decoder over `wire` in `chunk`-byte slices
    /// and returns every frame it yields.
    fn decode_chunked(wire: &[u8], chunk: usize) -> Vec<RawFrame> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            let mut at = 0;
            while at < piece.len() {
                let (used, frame) = dec.advance(&piece[at..]).unwrap();
                at += used;
                if let Some(f) = frame {
                    out.push(f);
                }
            }
        }
        assert!(dec.is_idle(), "stream ended mid-frame");
        out
    }

    #[test]
    fn incremental_decoder_matches_one_shot_at_every_split() {
        let frames = [
            encode_request(1, &Request::Ping),
            encode_request(
                2,
                &Request::Encode {
                    family: FamilyId::Minimax,
                    histogram: hist(&[3, 1, 4]),
                    payload: vec![0, 2, 1, 1, 0],
                },
            ),
            encode_response(3, &Response::Busy),
            encode_response(
                4,
                &Response::Encoded {
                    bit_len: 11,
                    data: vec![0xAB, 0xC0],
                },
            ),
        ];
        let wire: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut reader: &[u8] = &wire;
        let mut expected = Vec::new();
        while let Some(f) = read_frame(&mut reader).unwrap() {
            expected.push((f.id, f.opcode, f.body));
        }
        for chunk in 1..=wire.len() {
            let got: Vec<_> = decode_chunked(&wire, chunk)
                .into_iter()
                .map(|f| (f.id, f.opcode, f.body))
                .collect();
            assert_eq!(got, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_decoder_rejects_bad_headers_and_stays_poisoned() {
        let mut wire = encode_request(1, &Request::Stats);
        wire[0] = 0; // magic
        let mut dec = FrameDecoder::new();
        let err = dec.advance(&wire).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Sticky: valid bytes after the failure still error.
        let good = encode_request(2, &Request::Ping);
        assert!(dec.advance(&good).is_err());
        assert!(!dec.is_idle());
    }

    #[test]
    fn incremental_decoder_yields_zero_body_frames_without_extra_input() {
        let wire = encode_request(9, &Request::Drain);
        let mut dec = FrameDecoder::new();
        // Feed exactly the header; the empty-body frame must complete.
        let (used, frame) = dec.advance(&wire).unwrap();
        assert_eq!(used, HEADER_LEN);
        let frame = frame.expect("zero-body frame completes at the header");
        assert_eq!((frame.id, frame.opcode), (9, Opcode::Drain));
        assert!(frame.body.is_empty());
        assert!(dec.is_idle());
    }

    #[test]
    fn histogram_hash_spreads_and_matches_equality() {
        let a = hist(&[1, 2, 3]);
        let b = hist(&[1, 2, 3]);
        let c = hist(&[3, 2, 1]);
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(a.hash64(), c.hash64());
        assert_eq!(Histogram::of_payload(3, &[0, 1, 1, 2, 2, 2]).unwrap(), a);
    }

    /// One response of every variant, ids 1.., plus a message past the
    /// `u16` length field and a body past `MAX_BODY`.
    fn every_response_variant() -> Vec<Response> {
        vec![
            Response::Encoded {
                bit_len: 13,
                data: vec![0xAB, 0xCD],
            },
            Response::Decoded {
                payload: vec![0, 1, 1, 0],
            },
            Response::Stats {
                json: "{\"accepted\":3}".into(),
            },
            Response::Error {
                code: ErrorCode::SymbolOutOfRange,
                message: "symbol 9 outside alphabet of 4".into(),
            },
            Response::Pong { draining: false },
            Response::Pong { draining: true },
            Response::DrainOk,
            Response::WarmedUp {
                accepted: 7,
                rejected: 2,
            },
            Response::HotSet {
                entries: vec![WarmEntry {
                    hits: 1000,
                    family: FamilyId::ShannonFano,
                    histogram: hist(&[4, 2, 1, 1]),
                    lengths: vec![1, 2, 3, 3],
                }],
            },
            Response::DeltaEncoded {
                path: 1,
                bit_len: 9,
                data: vec![0xFF, 0x80],
            },
            Response::Busy,
            Response::Timeout,
            Response::Error {
                code: ErrorCode::Internal,
                message: "é".repeat(40_000),
            },
            Response::Decoded {
                payload: vec![0x5A; MAX_BODY as usize],
            },
        ]
    }

    /// FNV-1a over a byte string: a compact golden for long frames.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    #[test]
    fn response_frames_match_their_golden_bytes_in_place_and_alone() {
        // Captured from the body-then-header encoder this one replaced.
        let golden: [(usize, &str); 12] = [
            (
                30,
                "5054018100000000000000010000000e000000000000000d00000002abcd",
            ),
            (24, "505401820000000000000002000000080000000400010100"),
            (
                34,
                "505401830000000000000003000000120000000e7b226163636570746564223a337d",
            ),
            (
                50,
                "505401e00000000000000004000000220003001e73796d626f6c2039206f757473696465\
                 20616c706861626574206f662034",
            ),
            (17, "5054018400000000000000050000000100"),
            (17, "5054018400000000000000060000000101"),
            (16, "50540185000000000000000700000000"),
            (24, "505401860000000000000008000000080000000700000002"),
            (
                49,
                "50540187000000000000000900000021000100000000000003e8010004000000040000\
                 0002000000010000000101020303",
            ),
            (
                31,
                "5054018e000000000000000a0000000f01000000000000000900000002ff80",
            ),
            (16, "505401e1000000000000000b00000000"),
            (16, "505401e2000000000000000c00000000"),
        ];
        let truncated_message = (65_555, 0x4469_7670_09fc_6f0au64);
        let too_large = "505401e0000000000000000e0000004900070045726573706f6e736520626f6479206f66\
                         2031363737373232302062797465732065786365656473207468652031363737373231\
                         362d62797465206672616d65206c696d6974";
        let hex = |w: &[u8]| w.iter().map(|b| format!("{b:02x}")).collect::<String>();
        // One buffer carries every frame back to back, as a connection's
        // write buffer does; each append must leave what precedes it.
        let mut wire = vec![0xEE; 3];
        for (i, resp) in every_response_variant().iter().enumerate() {
            let id = i as u64 + 1;
            let alone = encode_response(id, resp);
            let start = wire.len();
            encode_response_into(&mut wire, id, resp);
            assert_eq!(
                &wire[start..],
                &alone[..],
                "response {i}: in place vs alone"
            );
            match i {
                0..=11 => {
                    assert_eq!(alone.len(), golden[i].0, "response {i}");
                    assert_eq!(hex(&alone), golden[i].1, "response {i}");
                }
                12 => assert_eq!((alone.len(), fnv(&alone)), truncated_message),
                _ => assert_eq!(hex(&alone), too_large, "oversized body"),
            }
        }
        assert_eq!(&wire[..3], &[0xEE; 3]);
        let frames = decode_chunked(&wire[3..], 4096);
        assert_eq!(frames.len(), 14);
        assert!(frames.iter().zip(1..).all(|(f, id)| f.id == id));
    }

    fn every_request_variant() -> Vec<Request> {
        vec![
            Request::Encode {
                family: FamilyId::Huffman,
                histogram: hist(&[3, 1, 4]),
                payload: vec![0, 2, 1, 1, 0],
            },
            Request::Encode {
                family: FamilyId::Minimax,
                histogram: hist(&[5, 1, 1]),
                payload: vec![2, 0],
            },
            Request::Decode {
                family: FamilyId::ShannonFano,
                histogram: hist(&[4, 2, 1, 1]),
                bit_len: 9,
                data: vec![0xFF, 0x80],
            },
            Request::Decode {
                family: FamilyId::ChoosableEdge,
                histogram: hist(&[2, 2]),
                bit_len: 3,
                data: vec![0xA0],
            },
            Request::Stats,
            Request::Ping,
            Request::Drain,
            Request::WarmUp {
                entries: vec![WarmEntry {
                    hits: 1000,
                    family: FamilyId::ShannonFano,
                    histogram: hist(&[4, 2, 1, 1]),
                    lengths: vec![1, 2, 3, 3],
                }],
            },
            Request::HotSet { max: 32 },
            Request::EncodeDelta {
                family: FamilyId::Huffman,
                base_key: 0x0123_4567_89ab_cdef,
                deltas: vec![(0, 8), (2, -3)],
                payload: vec![0, 1, 2, 3],
            },
            Request::DecodeDelta {
                family: FamilyId::Minimax,
                base_key: 42,
                deltas: vec![(1, -1)],
                bit_len: 5,
                data: vec![0xF8],
            },
        ]
    }

    #[test]
    fn request_frames_match_their_golden_bytes_in_place_and_alone() {
        // Captured from the body-then-header encoder this one replaced.
        let golden: [&str; 11] = [
            "505401010000000000000001000000170003000000030000000100000004000000050002010100",
            "5054010a0000000000000002000000140003000000050000000100000001000000020200",
            "50540109000000000000000300000020000400000004000000020000000100000001000000000000\
             000900000002ff80",
            "5054010d00000000000000040000001700020000000200000002000000000000000300000001a0",
            "50540103000000000000000500000000",
            "50540104000000000000000600000000",
            "50540105000000000000000700000000",
            "50540106000000000000000800000021000100000000000003e80100040000000400000002000000\
             010000000101020303",
            "505401070000000000000009000000020020",
            "5054010e000000000000000a0000001f000123456789abcdef00020000000000080002fffffffd0000\
             000400010203",
            "5054010f000000000000000b0000001e02000000000000002a00010001ffffffff0000000000000005\
             00000001f8",
        ];
        let hex = |w: &[u8]| w.iter().map(|b| format!("{b:02x}")).collect::<String>();
        // One buffer carries every frame back to back, as a connection's
        // write buffer does; each append must leave what precedes it.
        let mut wire = vec![0xEE; 3];
        let requests = every_request_variant();
        assert_eq!(requests.len(), golden.len());
        for (i, req) in requests.iter().enumerate() {
            let id = i as u64 + 1;
            let alone = encode_request(id, req);
            let start = wire.len();
            encode_request_into(&mut wire, id, req);
            assert_eq!(&wire[start..], &alone[..], "request {i}: in place vs alone");
            assert_eq!(hex(&alone), golden[i], "request {i}");
        }
        assert_eq!(&wire[..3], &[0xEE; 3]);
        let frames = decode_chunked(&wire[3..], 4096);
        assert_eq!(frames.len(), requests.len());
        for ((f, id), req) in frames.iter().zip(1..).zip(&requests) {
            assert_eq!(f.id, id);
            assert_eq!(&decode_request(f.opcode, &f.body).unwrap(), req);
        }
    }
}
