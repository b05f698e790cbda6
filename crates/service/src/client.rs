//! A blocking loopback client: one connection, one outstanding request.
//!
//! Concurrency is per-connection — open one [`Client`] per thread. The
//! client assigns monotonically increasing request ids and checks the
//! echo on every response, so a desynchronized stream surfaces as an
//! error instead of a misattributed payload.
//!
//! This is the test and tool client: reads block without a timeout.
//! After **any** error from [`Client::request`] the stream may be
//! mid-frame, so the connection must be discarded, never reused: the
//! next response on it could belong to the previous request.

use crate::frame::{
    decode_response, encode_request, read_frame, write_frame, Histogram, Request, Response,
    WarmEntry,
};
use partree_codecs::FamilyId;
use std::io;
use std::net::{SocketAddr, TcpStream};

/// A synchronous connection to a [`crate::net::Server`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

fn bad_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Client {
    /// Connects to `addr` with no timeouts (reads block indefinitely).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 0 })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_request(id, request))?;
        let raw = read_frame(&mut self.stream)?
            .ok_or_else(|| bad_data("server closed the connection mid-request"))?;
        if raw.id != id {
            return Err(bad_data(format!(
                "response id {} does not echo request id {id}",
                raw.id
            )));
        }
        decode_response(raw.opcode, &raw.body).map_err(bad_data)
    }

    /// Encodes `payload` under `histogram`'s classic Huffman code;
    /// returns `(bit_len, bytes)`. Server-side failures (`Busy`,
    /// `Timeout`, `Error`) come back as `io::Error` with the frame's
    /// message.
    pub fn encode(&mut self, histogram: &Histogram, payload: &[u8]) -> io::Result<(u64, Vec<u8>)> {
        self.encode_with(FamilyId::Huffman, histogram, payload)
    }

    /// Decodes `bit_len` bits of `data` under `histogram`'s classic
    /// Huffman code.
    pub fn decode(
        &mut self,
        histogram: &Histogram,
        bit_len: u64,
        data: &[u8],
    ) -> io::Result<Vec<u8>> {
        self.decode_with(FamilyId::Huffman, histogram, bit_len, data)
    }

    /// Encodes `payload` under the code `family` builds for
    /// `histogram`; returns `(bit_len, bytes)`.
    pub fn encode_with(
        &mut self,
        family: FamilyId,
        histogram: &Histogram,
        payload: &[u8],
    ) -> io::Result<(u64, Vec<u8>)> {
        let resp = self.request(&Request::Encode {
            family,
            histogram: histogram.clone(),
            payload: payload.to_vec(),
        })?;
        match resp {
            Response::Encoded { bit_len, data } => Ok((bit_len, data)),
            other => Err(bad_data(format!("expected Encoded, got {other:?}"))),
        }
    }

    /// Decodes `bit_len` bits of `data` under the code `family` builds
    /// for `histogram`.
    pub fn decode_with(
        &mut self,
        family: FamilyId,
        histogram: &Histogram,
        bit_len: u64,
        data: &[u8],
    ) -> io::Result<Vec<u8>> {
        let resp = self.request(&Request::Decode {
            family,
            histogram: histogram.clone(),
            bit_len,
            data: data.to_vec(),
        })?;
        match resp {
            Response::Decoded { payload } => Ok(payload),
            other => Err(bad_data(format!("expected Decoded, got {other:?}"))),
        }
    }

    /// Encodes `payload` against a drift of the cached base codebook
    /// named by `base_key` (a family-tagged key — see
    /// [`FamilyId::tagged_key`]): the server applies the sparse count
    /// `deltas` to the base histogram and patches or rebuilds the
    /// codebook. Returns `(path, bit_len, bytes)` where `path` is a
    /// [`crate::DeltaPath`] tag (0 = patched, 1 = rebuilt). A base the
    /// server no longer holds comes back as an `UnknownBase` error —
    /// re-seed with a full [`Client::encode_with`] and retry.
    pub fn encode_delta(
        &mut self,
        family: FamilyId,
        base_key: u64,
        deltas: &[(u16, i32)],
        payload: &[u8],
    ) -> io::Result<(u8, u64, Vec<u8>)> {
        let resp = self.request(&Request::EncodeDelta {
            family,
            base_key,
            deltas: deltas.to_vec(),
            payload: payload.to_vec(),
        })?;
        match resp {
            Response::DeltaEncoded {
                path,
                bit_len,
                data,
            } => Ok((path, bit_len, data)),
            other => Err(bad_data(format!("expected DeltaEncoded, got {other:?}"))),
        }
    }

    /// Decodes `bit_len` bits of `data` under the drifted codebook
    /// named by `(base_key, deltas)` — the inverse of
    /// [`Client::encode_delta`] for the same base and drift.
    pub fn decode_delta(
        &mut self,
        family: FamilyId,
        base_key: u64,
        deltas: &[(u16, i32)],
        bit_len: u64,
        data: &[u8],
    ) -> io::Result<Vec<u8>> {
        let resp = self.request(&Request::DecodeDelta {
            family,
            base_key,
            deltas: deltas.to_vec(),
            bit_len,
            data: data.to_vec(),
        })?;
        match resp {
            Response::Decoded { payload } => Ok(payload),
            other => Err(bad_data(format!("expected Decoded, got {other:?}"))),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> io::Result<crate::metrics::MetricsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats { json } => {
                crate::metrics::MetricsSnapshot::from_json(&json).map_err(bad_data)
            }
            other => Err(bad_data(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Health probe. Returns the server's drain bit: `false` = serving,
    /// `true` = alive but draining (route new work elsewhere).
    pub fn ping(&mut self) -> io::Result<bool> {
        match self.request(&Request::Ping)? {
            Response::Pong { draining } => Ok(draining),
            other => Err(bad_data(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Asks the server to stop accepting new work (queued work still
    /// completes). Irreversible on the server side.
    pub fn drain(&mut self) -> io::Result<()> {
        match self.request(&Request::Drain)? {
            Response::DrainOk => Ok(()),
            other => Err(bad_data(format!("expected DrainOk, got {other:?}"))),
        }
    }

    /// Donates codebooks to the server's cache (fleet warm-up).
    /// Returns `(accepted, rejected)` — rejected entries were invalid
    /// or already resident, never fatal.
    pub fn warm_up(&mut self, entries: Vec<WarmEntry>) -> io::Result<(u32, u32)> {
        match self.request(&Request::WarmUp { entries })? {
            Response::WarmedUp { accepted, rejected } => Ok((accepted, rejected)),
            other => Err(bad_data(format!("expected WarmedUp, got {other:?}"))),
        }
    }

    /// Asks the server for its `max` hottest cached codebooks, ranked
    /// by tier-0 hits descending — the donor side of fleet warm-up.
    pub fn hot_set(&mut self, max: u16) -> io::Result<Vec<WarmEntry>> {
        match self.request(&Request::HotSet { max })? {
            Response::HotSet { entries } => Ok(entries),
            other => Err(bad_data(format!("expected HotSet, got {other:?}"))),
        }
    }
}
