//! Codebooks and the sharded LRU cache that amortizes their
//! construction.
//!
//! A [`Codebook`] is one `(histogram, family)` pair's worth of
//! deliverable: canonical code lengths from the requested
//! [`FamilyId`]'s construction (classic Huffman, Shannon–Fano,
//! minimax, or choosable-edge, all via `partree-codecs`; Huffman
//! serves the Theorem 5.1 pipeline's lengths from the exact two-queue
//! and tie kernels), realized as the canonical
//! code's two serving kernels, built once per codebook by
//! [`canonical_kernels`]: a [`CanonicalEncoder`] that appends whole
//! codewords through a 64-bit accumulator, and a [`CanonicalDecoder`]
//! that resolves short codewords with one primary-table lookup and
//! long ones with the length-indexed walk. Both code payload bytes
//! directly, with no widened symbol vector in between, and produce
//! exactly the bytes of the tree construction
//! (`partree_codes::canonical::canonical_code`), which stays in
//! `partree-codes` as the paper's construction and the test oracle.
//! Construction is deterministic — same histogram, same family, same
//! codebook, bit for bit, at any pool width — which is what lets the
//! cache hand the same `Arc` to racing requests without coordination
//! beyond first-insert-wins.
//!
//! [`CodebookCache`] shards by the **family-tagged** histogram hash
//! ([`FamilyId::tagged_key`]) so concurrent batch workers rarely
//! contend on one lock, and evicts least-recently-used entries per
//! shard once a shard exceeds its capacity. Tagging means two families
//! never collide on the same histogram; the Huffman tag is the
//! identity mapping, so every key a Huffman-only build ever produced
//! is unchanged.
//!
//! ## Tiering
//!
//! The cache is **tier 0**. It can sit on top of an optional
//! [`CodebookStore`] (**tier 1**, usually `partree-store`'s
//! log-structured on-disk backend): a tier-0 miss first consults the
//! store, and a stored record is *promoted* — rebuilt from its code
//! lengths via [`Codebook::from_lengths`], skipping construction
//! entirely (canonical realization from lengths is `O(n log n)` table
//! work). Only when both tiers miss does a full construction run, and
//! its result is written through to the store — tagged with the family
//! so a v2 record's nibble can be verified on the way back in.
//! Determinism (same histogram + family → bit-identical codebook) is
//! what makes the stored lengths a faithful stand-in for a rebuild.
//!
//! Every entry point — [`CodebookCache::get_or_build`],
//! [`CodebookCache::lookup_key`], [`CodebookCache::install`] and
//! [`CodebookCache::adopt`] — takes the same admission path: one
//! tier-0 probe, one tier-1 load (promotion), and one admission that
//! writes a new book through to tier 1 and then inserts it
//! first-insert-wins. The tier-1 load applies the one verification rule
//! (family nibble, counts equal to the request's histogram when known,
//! counts hashing back to the key, lengths that realize a prefix code),
//! and only a key derived from the request's own histogram may delete
//! a record that fails it; a key a client supplied never does.
//! [`CodebookCache::resident`] is the tier-0 probe alone, for a caller
//! that answers a hit itself and queues anything else.

use crate::frame::{ErrorCode, FrameError, Histogram};
use partree_codecs::family::FAMILY_COUNT;
use partree_codecs::{family, FamilyId};
use partree_codes::decoder::CanonicalDecoder;
use partree_codes::encoder::CanonicalEncoder;
use partree_codes::table::canonical_kernels;
use partree_pram::CostTracer;
use partree_store::CodebookStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A built codec for one `(histogram, family)` pair: the canonical
/// code's table encoder and table decoder.
#[derive(Debug)]
pub struct Codebook {
    /// Cache key: [`FamilyId::tagged_key`] over [`Histogram::hash64`].
    pub key: u64,
    /// The code family this book was constructed by.
    pub family: FamilyId,
    /// The histogram this codebook was built from (for hash-collision
    /// verification on lookup).
    pub histogram: Histogram,
    /// Code length per symbol, in symbol order, under the family's
    /// objective.
    pub lengths: Vec<u32>,
    encoder: CanonicalEncoder,
    decoder: CanonicalDecoder,
}

impl Codebook {
    /// Builds the codebook for `histogram` under `family_id`: one
    /// traced construction through the family registry plus the shared
    /// canonical realization. Spans for the construction phases open
    /// under `tracer`. An alphabet beyond the family's cap (the
    /// choosable-edge DP accepts at most
    /// [`partree_codecs::choosable::MAX_ALPHABET`] symbols) is an
    /// [`ErrorCode::UnsupportedAlphabet`] error, not a panic.
    pub fn build(
        histogram: &Histogram,
        family_id: FamilyId,
        tracer: &CostTracer,
    ) -> Result<Codebook, FrameError> {
        let fam = family(family_id);
        if histogram.alphabet() > fam.max_alphabet() {
            return Err(FrameError::new(
                ErrorCode::UnsupportedAlphabet,
                format!(
                    "alphabet {} exceeds the {} family's cap of {}",
                    histogram.alphabet(),
                    family_id,
                    fam.max_alphabet()
                ),
            ));
        }
        fn internal(stage: &str, e: impl std::fmt::Display) -> FrameError {
            FrameError::new(
                ErrorCode::Internal,
                format!("{stage} failed for a valid histogram: {e}"),
            )
        }
        let lengths = fam
            .lengths_traced(histogram.counts(), tracer)
            .map_err(|e| internal("construction", e))?;
        let canon_span = tracer.span("canonicalize");
        let (encoder, decoder) =
            canonical_kernels(&lengths).map_err(|e| internal("canonical code", e))?;
        canon_span.step(lengths.len() as u64);
        Ok(Codebook {
            key: family_id.tagged_key(histogram.hash64()),
            family: family_id,
            histogram: histogram.clone(),
            lengths,
            encoder,
            decoder,
        })
    }

    /// Realizes a codebook from already-known code lengths — the
    /// tier-1 promotion and warm-up path. Skips construction entirely:
    /// the encoder and decoder tables are rebuilt from the lengths,
    /// which is exactly what [`Codebook::build`] does after its
    /// construction phase, so the result is bit-identical to a
    /// from-scratch build of the same `(histogram, family)` pair.
    /// Invalid lengths (wrong count, Kraft violation) are rejected, so
    /// a forged or stale record can never produce a working codebook
    /// that disagrees with a rebuild.
    pub fn from_lengths(
        histogram: &Histogram,
        family_id: FamilyId,
        lengths: Vec<u32>,
        tracer: &CostTracer,
    ) -> Result<Codebook, FrameError> {
        if lengths.len() != histogram.alphabet() {
            return Err(FrameError::new(
                ErrorCode::Internal,
                format!(
                    "stored lengths count {} does not match alphabet {}",
                    lengths.len(),
                    histogram.alphabet()
                ),
            ));
        }
        fn invalid(stage: &str, e: impl std::fmt::Display) -> FrameError {
            FrameError::new(
                ErrorCode::Internal,
                format!("{stage} rejected stored lengths: {e}"),
            )
        }
        let span = tracer.span("canonicalize-from-lengths");
        let (encoder, decoder) =
            canonical_kernels(&lengths).map_err(|e| invalid("canonical code", e))?;
        span.step(lengths.len() as u64);
        Ok(Codebook {
            key: family_id.tagged_key(histogram.hash64()),
            family: family_id,
            histogram: histogram.clone(),
            lengths,
            encoder,
            decoder,
        })
    }

    /// Serializes the codebook for tier-1 storage: the canonical-code
    /// representation already used on the wire — alphabet size, symbol
    /// counts, and one code length per symbol. The family does **not**
    /// appear in the body; it rides in the store record's v2 flags
    /// nibble (and in the key itself via [`FamilyId::tagged_key`]), so
    /// family-0 bodies stay byte-identical to the pre-family format.
    ///
    /// ```text
    /// n:       u16 LE
    /// counts:  n × u32 LE   (the histogram, for collision verification)
    /// lengths: n × u8       (every family's depth bound is < 256)
    /// ```
    pub fn to_store_body(&self) -> Vec<u8> {
        encode_store_body(&self.histogram, &self.lengths)
    }

    /// Encodes payload symbols (one byte each) to `(bytes, bit_len)`.
    /// A byte outside the alphabet is [`ErrorCode::SymbolOutOfRange`].
    pub fn encode(&self, payload: &[u8]) -> Result<(Vec<u8>, u64), FrameError> {
        self.encoder
            .encode(payload)
            .map_err(|e| FrameError::new(ErrorCode::SymbolOutOfRange, e.to_string()))
    }

    /// Decodes `bit_len` bits of `data` back to payload symbols. Any
    /// malformed stream is [`ErrorCode::CorruptPayload`].
    pub fn decode(&self, data: &[u8], bit_len: u64) -> Result<Vec<u8>, FrameError> {
        // Alphabet ≤ 256, so every symbol index fits a byte.
        self.decoder
            .decode_bytes(data, bit_len)
            .map_err(|e| FrameError::new(ErrorCode::CorruptPayload, format!("decode failed: {e}")))
    }
}

/// Serializes a histogram + code lengths into a tier-1 record body.
/// See [`Codebook::to_store_body`] for the layout.
pub fn encode_store_body(histogram: &Histogram, lengths: &[u32]) -> Vec<u8> {
    let counts = histogram.counts();
    debug_assert_eq!(counts.len(), lengths.len());
    let mut out = Vec::with_capacity(2 + counts.len() * 5);
    out.extend_from_slice(&(counts.len() as u16).to_le_bytes());
    for &c in counts {
        out.extend_from_slice(&c.to_le_bytes());
    }
    for &l in lengths {
        debug_assert!(l <= u8::MAX as u32);
        out.push(l as u8);
    }
    out
}

/// Parses a tier-1 record body back into `(counts, lengths)`. Returns
/// `None` on any structural mismatch; the caller treats that as a miss
/// (the deterministic rebuild heals it) — never as data.
pub fn decode_store_body(body: &[u8]) -> Option<(Vec<u32>, Vec<u32>)> {
    let n = u16::from_le_bytes([*body.first()?, *body.get(1)?]) as usize;
    if body.len() != 2 + n * 5 {
        return None;
    }
    let counts = (0..n)
        .map(|i| {
            let at = 2 + i * 4;
            u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]])
        })
        .collect();
    let lengths = body[2 + n * 4..].iter().map(|&b| u32::from(b)).collect();
    Some((counts, lengths))
}

struct Entry {
    book: Arc<Codebook>,
    last_used: u64,
    /// Tier-0 hits on this entry; under HRW routing this defines the
    /// replica's hot set, which warm-up streams to a replacement.
    hits: u64,
}

struct Shard {
    map: HashMap<u64, Entry>,
}

/// One hot cache entry, as reported by [`CodebookCache::hottest`].
#[derive(Debug, Clone)]
pub struct HotEntry {
    /// Tier-0 hits the entry has absorbed.
    pub hits: u64,
    /// The code family the entry was built by.
    pub family: FamilyId,
    /// The source histogram.
    pub histogram: Histogram,
    /// The code lengths (enough to rebuild the codebook without
    /// construction, via [`Codebook::from_lengths`]).
    pub lengths: Vec<u32>,
}

/// A sharded LRU cache of [`Codebook`]s keyed by the family-tagged
/// histogram hash — tier 0 of the codebook store, optionally backed by
/// a tier-1 [`CodebookStore`].
pub struct CodebookCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    /// Per-family residency cap per shard (entries). `None` disables
    /// quotas: eviction is plain per-shard LRU. With a quota, an
    /// over-quota family evicts within itself first, so one family's
    /// burst cannot push another family's hot set out of tier 0.
    family_quota_per_shard: Option<usize>,
    tier1: Option<Arc<dyn CodebookStore>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    constructions: AtomicU64,
    tier1_hits: AtomicU64,
    tier1_promotions: AtomicU64,
    store_errors: AtomicU64,
    warmup_accepted: AtomicU64,
    family_hits: [AtomicU64; FAMILY_COUNT],
    family_constructions: [AtomicU64; FAMILY_COUNT],
}

impl std::fmt::Debug for CodebookCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodebookCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl CodebookCache {
    /// A cache with `shards` independent shards holding at most
    /// `capacity` entries in total (rounded up to a whole number per
    /// shard). Both arguments are clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> CodebookCache {
        CodebookCache::with_tier1(shards, capacity, None)
    }

    /// A cache backed by a tier-1 store: misses consult `tier1` before
    /// constructing, and constructions write through to it.
    pub fn with_tier1(
        shards: usize,
        capacity: usize,
        tier1: Option<Arc<dyn CodebookStore>>,
    ) -> CodebookCache {
        CodebookCache::with_config(shards, capacity, tier1, 100)
    }

    /// Full-control constructor: like [`CodebookCache::with_tier1`],
    /// plus a per-family residency quota of `family_pct` percent of
    /// each shard's capacity. `family_pct >= 100` disables quotas
    /// (every family may fill a whole shard — the historical LRU).
    pub fn with_config(
        shards: usize,
        capacity: usize,
        tier1: Option<Arc<dyn CodebookStore>>,
        family_pct: u32,
    ) -> CodebookCache {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        let family_quota_per_shard =
            (family_pct < 100).then(|| (capacity_per_shard * family_pct as usize / 100).max(1));
        CodebookCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            capacity_per_shard,
            family_quota_per_shard,
            tier1,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            constructions: AtomicU64::new(0),
            tier1_hits: AtomicU64::new(0),
            tier1_promotions: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            warmup_accepted: AtomicU64::new(0),
            family_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            family_constructions: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Returns the cached codebook for `(histogram, family_id)`,
    /// consulting tier 1 and building only when both tiers miss.
    /// Racing misses on the same pair may each build (the build
    /// happens outside the shard lock so a slow construction never
    /// blocks lookups of other histograms on the shard), but the first
    /// insert wins and every caller receives a bit-identical codebook
    /// — construction is deterministic per family.
    pub fn get_or_build(
        &self,
        histogram: &Histogram,
        family_id: FamilyId,
        tracer: &CostTracer,
    ) -> Result<Arc<Codebook>, FrameError> {
        let key = family_id.tagged_key(histogram.hash64());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(book) = self.probe(key, stamp, family_id, Some(histogram), true) {
            return Ok(book);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(book) = self.promote_from_tier1(key, stamp, family_id, Some(histogram), tracer)
        {
            return Ok(book);
        }
        self.constructions.fetch_add(1, Ordering::Relaxed);
        self.family_constructions[family_id.index()].fetch_add(1, Ordering::Relaxed);
        let built = Codebook::build(histogram, family_id, tracer)?;
        Ok(self.admit(stamp, built).0)
    }

    /// The tier-0 resident for `(histogram, family_id)`, counted as a
    /// hit — [`CodebookCache::get_or_build`]'s first step alone. A miss
    /// counts nothing and builds nothing: the caller queues the request
    /// and the batch worker's `get_or_build` counts the miss.
    pub fn resident(&self, histogram: &Histogram, family_id: FamilyId) -> Option<Arc<Codebook>> {
        let key = family_id.tagged_key(histogram.hash64());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.probe(key, stamp, family_id, Some(histogram), true)
    }

    /// Resolves a codebook by its **tagged key alone** — the delta
    /// path's base lookup, where the client sends a key instead of a
    /// histogram. Consults tier 0, then tier 1 (promoting on a hit),
    /// and never constructs: `None` means the base is gone and the
    /// caller must answer `UnknownBase`. When `expect` is given, the
    /// codebook must have been built from it (hash-collision defense
    /// for callers that do know the histogram); a tier-1 record must
    /// always hash back to `key`, so a damaged or mis-filed record can
    /// never serve as a base.
    pub fn lookup_key(
        &self,
        key: u64,
        family_id: FamilyId,
        expect: Option<&Histogram>,
    ) -> Option<Arc<Codebook>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.probe(key, stamp, family_id, expect, true).or_else(|| {
            self.promote_from_tier1(key, stamp, family_id, expect, &CostTracer::disabled())
        })
    }

    /// Inserts an externally built codebook (the delta engine's patched
    /// or rebuilt result) under its own key, writing through to tier 1
    /// so the drifted codebook survives a restart exactly like a
    /// constructed one. Returns the resident Arc (a racing insert of
    /// the same pair wins — constructions are deterministic, so the
    /// copies are bit-identical).
    pub fn install(&self, book: Codebook) -> Arc<Codebook> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.admit(stamp, book).0
    }

    /// Adopts a pre-built `(histogram, family, lengths)` triple pushed
    /// by the gateway's warm-up path. No construction runs; invalid
    /// lengths are rejected. Returns `true` if the entry was adopted
    /// (false: already resident, or rejected). Adopted entries are
    /// also written through to tier 1 under the family-tagged key.
    pub fn adopt(&self, histogram: &Histogram, family_id: FamilyId, lengths: Vec<u32>) -> bool {
        let key = family_id.tagged_key(histogram.hash64());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if self
            .probe(key, stamp, family_id, Some(histogram), false)
            .is_some()
        {
            return false;
        }
        let Ok(book) =
            Codebook::from_lengths(histogram, family_id, lengths, &CostTracer::disabled())
        else {
            return false;
        };
        let (_, fresh) = self.admit(stamp, book);
        if fresh {
            self.warmup_accepted.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// The tier-0 probe behind every entry point: the resident codebook
    /// under `key` if `family_id` built it (from `expect`, when given),
    /// stamped most recently used. A `serve` probe answers a lookup and
    /// counts a tier-0 hit; otherwise it only asks whether the book is
    /// resident. A resident that does not match stays put: admitting
    /// or promoting a book under the same key replaces it.
    fn probe(
        &self,
        key: u64,
        stamp: u64,
        family_id: FamilyId,
        expect: Option<&Histogram>,
        serve: bool,
    ) -> Option<Arc<Codebook>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let e = shard.map.get_mut(&key)?;
        if e.book.family != family_id || expect.is_some_and(|h| e.book.histogram != *h) {
            return None;
        }
        e.last_used = stamp;
        if serve {
            e.hits += 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.family_hits[family_id.index()].fetch_add(1, Ordering::Relaxed);
        }
        Some(Arc::clone(&e.book))
    }

    /// The one tier-1 load: fetch the record under `key`, verify it,
    /// realize the codebook from its lengths, and insert it into tier 0
    /// (no write-through: the record is already there). A record is
    /// served only if its family nibble is `family_id`'s, its counts
    /// equal `expect`'s when the caller knows the histogram, and those
    /// counts hash back to `key`; invalid lengths fail realization.
    /// Any failure is a miss. A record that fails is deleted only
    /// under a key derived from `expect` — the request's own histogram
    /// — so the write-through after the rebuild replaces it; a key a
    /// client supplied never deletes anything.
    fn promote_from_tier1(
        &self,
        key: u64,
        stamp: u64,
        family_id: FamilyId,
        expect: Option<&Histogram>,
        tracer: &CostTracer,
    ) -> Option<Arc<Codebook>> {
        let store = self.tier1.as_ref()?;
        let (tag, body) = match store.get_tagged(key) {
            Ok(Some(tagged)) => tagged,
            Ok(None) => return None,
            Err(_) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // The key is family-tagged, so a record under this key with a
        // different family nibble can only be damage or a collision.
        let book = (tag == family_id.tag())
            .then(|| decode_store_body(&body))
            .flatten()
            .and_then(|(counts, lengths)| {
                let stored;
                let histogram = match expect {
                    Some(h) if *h.counts() == counts => h,
                    Some(_) => return None,
                    None => {
                        stored = Histogram::new(counts).ok()?;
                        &stored
                    }
                };
                if family_id.tagged_key(histogram.hash64()) != key {
                    return None;
                }
                Codebook::from_lengths(histogram, family_id, lengths, tracer).ok()
            });
        let Some(book) = book else {
            if expect.is_some_and(|h| family_id.tagged_key(h.hash64()) == key) {
                let _ = store.remove(key);
            }
            return None;
        };
        self.tier1_hits.fetch_add(1, Ordering::Relaxed);
        let (winner, fresh) = self.insert_first_wins(key, stamp, Arc::new(book));
        if fresh {
            self.tier1_promotions.fetch_add(1, Ordering::Relaxed);
        }
        Some(winner)
    }

    /// Admits a codebook new to this process — built, installed or
    /// adopted: writes it through to tier 1 so the next process
    /// lifetime starts warm, then inserts it first-insert-wins. The
    /// write-through is best effort: a store failure only costs future
    /// warmth.
    fn admit(&self, stamp: u64, book: Codebook) -> (Arc<Codebook>, bool) {
        if let Some(store) = &self.tier1 {
            if store
                .put_tagged(book.key, book.family.tag(), &book.to_store_body())
                .is_err()
            {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.insert_first_wins(book.key, stamp, Arc::new(book))
    }

    /// Inserts `book` under first-insert-wins semantics and applies
    /// the per-shard LRU cap. Returns the winning Arc and whether the
    /// insert actually happened (false: a racing builder beat us).
    fn insert_first_wins(
        &self,
        key: u64,
        stamp: u64,
        book: Arc<Codebook>,
    ) -> (Arc<Codebook>, bool) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let (winner, fresh) = match shard.map.get_mut(&key) {
            // A racing builder inserted first — hand back its copy so
            // all callers share one Arc.
            Some(e) if e.book.histogram == book.histogram && e.book.family == book.family => {
                e.last_used = stamp;
                (Arc::clone(&e.book), false)
            }
            _ => {
                shard.map.insert(
                    key,
                    Entry {
                        book: Arc::clone(&book),
                        last_used: stamp,
                        hits: 0,
                    },
                );
                (book, true)
            }
        };
        if shard.map.len() > self.capacity_per_shard {
            let evictee = self.pick_evictee(&shard);
            shard.map.remove(&evictee);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (winner, fresh)
    }

    /// Chooses the entry an over-capacity shard sheds. Without quotas:
    /// the per-shard LRU (key-ordered on stamp ties, so the choice is
    /// deterministic). With quotas: the LRU *within an over-quota
    /// family* when one exists — the family that burst past its share
    /// pays its own eviction, never a family still inside its quota.
    fn pick_evictee(&self, shard: &Shard) -> u64 {
        if let Some(quota) = self.family_quota_per_shard {
            let mut per_family = [0usize; FAMILY_COUNT];
            for e in shard.map.values() {
                per_family[e.book.family.index()] += 1;
            }
            let over_quota = shard
                .map
                .iter()
                .filter(|(_, e)| per_family[e.book.family.index()] > quota)
                .min_by_key(|(&k, e)| (e.last_used, k))
                .map(|(&k, _)| k);
            if let Some(k) = over_quota {
                return k;
            }
        }
        shard
            .map
            .iter()
            .min_by_key(|(&k, e)| (e.last_used, k))
            .map(|(&k, _)| k)
            .expect("non-empty shard")
    }

    /// The `max` hottest resident entries, by tier-0 hits (descending,
    /// key-ordered on ties so the result is deterministic for a given
    /// hit profile). This is what a replica streams to a replacement
    /// during warm-up; the entries carry their family so the adopter
    /// re-files them under the same tagged keys.
    pub fn hottest(&self, max: usize) -> Vec<HotEntry> {
        let mut all: Vec<(u64, u64, HotEntry)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            for (&key, e) in shard.map.iter() {
                all.push((
                    e.hits,
                    key,
                    HotEntry {
                        hits: e.hits,
                        family: e.book.family,
                        histogram: e.book.histogram.clone(),
                        lengths: e.book.lengths.clone(),
                    },
                ));
            }
        }
        // determinism: HashMap shard iteration feeds a full sort on
        // (hits desc, key asc) before anything reaches the output.
        all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        all.truncate(max);
        all.into_iter().map(|(_, _, e)| e).collect()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= constructions attempted) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Full constructions actually performed (a miss that was answered
    /// by tier 1 does not construct).
    pub fn constructions(&self) -> u64 {
        self.constructions.load(Ordering::Relaxed)
    }

    /// Tier-0 hits broken down by code family, indexed by
    /// [`FamilyId::index`].
    pub fn family_hits(&self) -> [u64; FAMILY_COUNT] {
        std::array::from_fn(|i| self.family_hits[i].load(Ordering::Relaxed))
    }

    /// Constructions broken down by code family, indexed by
    /// [`FamilyId::index`].
    pub fn family_constructions(&self) -> [u64; FAMILY_COUNT] {
        std::array::from_fn(|i| self.family_constructions[i].load(Ordering::Relaxed))
    }

    /// Tier-0 misses answered from the tier-1 store.
    pub fn tier1_hits(&self) -> u64 {
        self.tier1_hits.load(Ordering::Relaxed)
    }

    /// Tier-1 records promoted into tier 0 (≤ `tier1_hits`; a racing
    /// insert can win the slot first).
    pub fn tier1_promotions(&self) -> u64 {
        self.tier1_promotions.load(Ordering::Relaxed)
    }

    /// Tier-1 store operations that failed (reads and write-throughs).
    pub fn store_errors(&self) -> u64 {
        self.store_errors.load(Ordering::Relaxed)
    }

    /// Warm-up entries adopted via [`CodebookCache::adopt`].
    pub fn warmup_accepted(&self) -> u64 {
        self.warmup_accepted.load(Ordering::Relaxed)
    }

    /// Whether a tier-1 store is attached.
    pub fn has_tier1(&self) -> bool {
        self.tier1.is_some()
    }

    /// Codebooks currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// `true` when no codebook is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: &[u32]) -> Histogram {
        Histogram::new(counts.to_vec()).unwrap()
    }

    fn huff(h: &Histogram, t: &CostTracer) -> Codebook {
        Codebook::build(h, FamilyId::Huffman, t).unwrap()
    }

    #[test]
    fn codebook_roundtrips_and_is_optimal() {
        let h = hist(&[45, 13, 12, 16, 9, 5]);
        let book = huff(&h, &CostTracer::disabled());
        // Textbook optimum: cost 224 → lengths [1,3,3,3,4,4] as a set.
        let mut sorted = book.lengths.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3, 3, 3, 4, 4]);
        let payload = vec![0, 1, 2, 3, 4, 5, 0, 0, 3];
        let (bytes, bits) = book.encode(&payload).unwrap();
        assert_eq!(book.decode(&bytes, bits).unwrap(), payload);
    }

    #[test]
    fn every_family_builds_a_working_codebook() {
        let h = hist(&[45, 13, 12, 16, 9, 5]);
        let payload = vec![0u8, 1, 2, 3, 4, 5, 0, 0, 3];
        for f in FamilyId::ALL {
            let book = Codebook::build(&h, f, &CostTracer::disabled()).unwrap();
            assert_eq!(book.family, f);
            assert_eq!(book.key, f.tagged_key(h.hash64()));
            let (bytes, bits) = book.encode(&payload).unwrap();
            assert_eq!(book.decode(&bytes, bits).unwrap(), payload, "{f}");
        }
    }

    #[test]
    fn oversized_alphabet_for_family_is_unsupported() {
        // 33 symbols exceeds the choosable-edge DP's cap of 32 but is
        // fine for every other family.
        let h = hist(&[1u32; 33]);
        let t = CostTracer::disabled();
        let e = Codebook::build(&h, FamilyId::ChoosableEdge, &t).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnsupportedAlphabet);
        assert!(Codebook::build(&h, FamilyId::Minimax, &t).is_ok());
    }

    #[test]
    fn encode_rejects_out_of_alphabet() {
        let book = huff(&hist(&[1, 1]), &CostTracer::disabled());
        let e = book.encode(&[0, 2]).unwrap_err();
        assert_eq!(e.code, ErrorCode::SymbolOutOfRange);
    }

    #[test]
    fn decode_rejects_garbage() {
        let book = huff(&hist(&[1, 1, 1]), &CostTracer::disabled());
        let e = book.decode(&[0xFF], 9).unwrap_err(); // declared > buffer
        assert_eq!(e.code, ErrorCode::CorruptPayload);
    }

    #[test]
    fn cache_hits_after_first_build() {
        let cache = CodebookCache::new(4, 16);
        let h = hist(&[5, 3, 2]);
        let t = CostTracer::disabled();
        let a = cache.get_or_build(&h, FamilyId::Huffman, &t).unwrap();
        let b = cache.get_or_build(&h, FamilyId::Huffman, &t).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn families_occupy_distinct_cache_slots() {
        let cache = CodebookCache::new(4, 16);
        let h = hist(&[20, 9, 8, 2, 1]);
        let t = CostTracer::disabled();
        let mut books = Vec::new();
        for f in FamilyId::ALL {
            books.push(cache.get_or_build(&h, f, &t).unwrap());
        }
        assert_eq!(cache.len(), 4, "one slot per family");
        assert_eq!(cache.misses(), 4);
        // Second pass: all hits, each family handing back its own Arc.
        for (f, first) in FamilyId::ALL.iter().zip(&books) {
            let again = cache.get_or_build(&h, *f, &t).unwrap();
            assert!(Arc::ptr_eq(first, &again), "{f} lost its slot");
        }
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.family_hits(), [1, 1, 1, 1]);
        assert_eq!(cache.family_constructions(), [1, 1, 1, 1]);
        // SF trades optimality for simplicity and choosable pays for
        // long edges — the slots really do hold different codes (on
        // this histogram minimax happens to coincide with Huffman).
        assert_ne!(books[0].lengths, books[1].lengths);
        assert_ne!(books[0].lengths, books[3].lengths);
    }

    #[test]
    fn cache_evicts_lru_per_shard() {
        // One shard, capacity 2: inserting a third histogram evicts the
        // least recently used.
        let cache = CodebookCache::new(1, 2);
        let h1 = hist(&[1, 2]);
        let h2 = hist(&[1, 3]);
        let h3 = hist(&[1, 4]);
        let t = CostTracer::disabled();
        cache.get_or_build(&h1, FamilyId::Huffman, &t).unwrap();
        cache.get_or_build(&h2, FamilyId::Huffman, &t).unwrap();
        cache.get_or_build(&h1, FamilyId::Huffman, &t).unwrap(); // refresh h1
        cache.get_or_build(&h3, FamilyId::Huffman, &t).unwrap(); // evicts h2
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        cache.get_or_build(&h1, FamilyId::Huffman, &t).unwrap();
        assert_eq!(cache.misses(), 3, "h1 still resident");
        cache.get_or_build(&h2, FamilyId::Huffman, &t).unwrap();
        assert_eq!(cache.misses(), 4, "h2 was evicted");
    }

    #[test]
    fn from_lengths_is_bit_identical_to_build() {
        let h = hist(&[45, 13, 12, 16, 9, 5]);
        let t = CostTracer::disabled();
        for f in FamilyId::ALL {
            let built = Codebook::build(&h, f, &t).unwrap();
            let loaded = Codebook::from_lengths(&h, f, built.lengths.clone(), &t).unwrap();
            let payload = vec![0, 1, 2, 3, 4, 5, 0, 0, 3, 2, 1];
            let (b1, n1) = built.encode(&payload).unwrap();
            let (b2, n2) = loaded.encode(&payload).unwrap();
            assert_eq!((n1, &b1), (n2, &b2), "{f} encode differs");
            assert_eq!(loaded.decode(&b1, n1).unwrap(), payload);
        }
    }

    #[test]
    fn from_lengths_rejects_invalid() {
        let h = hist(&[4, 2, 1, 1]);
        let t = CostTracer::disabled();
        // Wrong count.
        assert!(Codebook::from_lengths(&h, FamilyId::Huffman, vec![1, 1], &t).is_err());
        // Kraft violation: all length 1 over 4 symbols.
        assert!(Codebook::from_lengths(&h, FamilyId::Huffman, vec![1, 1, 1, 1], &t).is_err());
    }

    #[test]
    fn store_body_roundtrips() {
        let h = hist(&[45, 13, 12, 16, 9, 5]);
        let book = huff(&h, &CostTracer::disabled());
        let body = book.to_store_body();
        let (counts, lengths) = decode_store_body(&body).unwrap();
        assert_eq!(&counts, h.counts());
        assert_eq!(lengths, book.lengths);
        // Structural damage is a parse failure, not garbage data.
        assert!(decode_store_body(&body[..body.len() - 1]).is_none());
        assert!(decode_store_body(&[]).is_none());
    }

    #[test]
    fn tier1_miss_constructs_and_writes_through() {
        let store = Arc::new(partree_store::MemStore::new());
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let h = hist(&[5, 3, 2]);
        let t = CostTracer::disabled();
        cache.get_or_build(&h, FamilyId::Huffman, &t).unwrap();
        assert_eq!(cache.constructions(), 1);
        assert_eq!(cache.tier1_hits(), 0);
        // Huffman's tagged key is the raw histogram hash.
        assert!(store.contains(h.hash64()), "write-through missing");
    }

    #[test]
    fn tier1_write_through_carries_the_family_tag() {
        let store = Arc::new(partree_store::MemStore::new());
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let h = hist(&[5, 3, 2, 1]);
        let t = CostTracer::disabled();
        for f in FamilyId::ALL {
            cache.get_or_build(&h, f, &t).unwrap();
            let key = f.tagged_key(h.hash64());
            let (tag, _) = store.get_tagged(key).unwrap().expect("write-through");
            assert_eq!(tag, f.tag(), "{f}");
        }
        assert_eq!(store.len(), 4, "four distinct tagged keys");
    }

    #[test]
    fn tier1_hit_promotes_without_construction() {
        let store = Arc::new(partree_store::MemStore::new());
        let t = CostTracer::disabled();
        let h = hist(&[5, 3, 2, 1]);
        // First cache lifetime constructs and persists — one book per
        // family.
        let warm = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let originals: Vec<_> = FamilyId::ALL
            .iter()
            .map(|&f| warm.get_or_build(&h, f, &t).unwrap())
            .collect();
        drop(warm);
        // Second lifetime (same store): answered from tier 1, zero
        // constructions, bit-identical results per family.
        let cold = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        for (f, original) in FamilyId::ALL.iter().zip(&originals) {
            let promoted = cold.get_or_build(&h, *f, &t).unwrap();
            assert_eq!(promoted.lengths, original.lengths, "{f}");
            let payload = vec![0u8, 1, 2, 3, 0, 0];
            assert_eq!(
                promoted.encode(&payload).unwrap(),
                original.encode(&payload).unwrap()
            );
        }
        assert_eq!(cold.constructions(), 0, "tier-1 hits must not construct");
        assert_eq!((cold.tier1_hits(), cold.tier1_promotions()), (4, 4));
        // Second lookup is a tier-0 hit.
        cold.get_or_build(&h, FamilyId::Huffman, &t).unwrap();
        assert_eq!(cold.hits(), 1);
        assert_eq!(cold.tier1_hits(), 4);
    }

    #[test]
    fn corrupt_tier1_record_falls_back_to_construction() {
        let store = Arc::new(partree_store::MemStore::new());
        let h = hist(&[5, 3, 2]);
        store.put(h.hash64(), b"not a codebook record").unwrap();
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let book = cache
            .get_or_build(&h, FamilyId::Huffman, &CostTracer::disabled())
            .expect("rebuild heals");
        assert_eq!(cache.constructions(), 1);
        assert_eq!(cache.tier1_hits(), 0);
        // The bad record was replaced by the rebuild's write-through.
        let healed = store.get(h.hash64()).unwrap().expect("re-put");
        let (counts, lengths) = decode_store_body(&healed).expect("valid now");
        assert_eq!(&counts, h.counts());
        assert_eq!(lengths, book.lengths);
    }

    #[test]
    fn mismatched_family_tag_is_a_miss_and_heals() {
        // A structurally valid record filed under the minimax key but
        // tagged Huffman: promotion must refuse it (the lengths were
        // built under a different objective) and the rebuild replaces
        // it with a correctly-tagged record.
        let store = Arc::new(partree_store::MemStore::new());
        let t = CostTracer::disabled();
        let h = hist(&[9, 4, 2, 1]);
        let huff_book = Codebook::build(&h, FamilyId::Huffman, &t).unwrap();
        let minimax_key = FamilyId::Minimax.tagged_key(h.hash64());
        store
            .put_tagged(
                minimax_key,
                FamilyId::Huffman.tag(),
                &huff_book.to_store_body(),
            )
            .unwrap();
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let book = cache.get_or_build(&h, FamilyId::Minimax, &t).unwrap();
        assert_eq!(cache.constructions(), 1, "wrong tag must rebuild");
        assert_eq!(cache.tier1_hits(), 0);
        assert_eq!(book.family, FamilyId::Minimax);
        let (tag, _) = store.get_tagged(minimax_key).unwrap().expect("healed");
        assert_eq!(tag, FamilyId::Minimax.tag());
    }

    #[test]
    fn adopt_and_hottest_drive_warmup() {
        let cache = CodebookCache::new(2, 8);
        let t = CostTracer::disabled();
        let h1 = hist(&[9, 3, 1]);
        let h2 = hist(&[1, 1, 1, 1, 4]);
        cache.get_or_build(&h1, FamilyId::Minimax, &t).unwrap();
        for _ in 0..3 {
            cache.get_or_build(&h1, FamilyId::Minimax, &t).unwrap(); // 3 hits
        }
        cache.get_or_build(&h2, FamilyId::Huffman, &t).unwrap();
        cache.get_or_build(&h2, FamilyId::Huffman, &t).unwrap(); // 1 hit
        let hot = cache.hottest(10);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].hits, 3);
        assert_eq!(hot[0].histogram, h1);
        assert_eq!(hot[0].family, FamilyId::Minimax);
        assert_eq!(cache.hottest(1).len(), 1);

        // A second cache adopts the hot set without constructing.
        let peer = CodebookCache::new(2, 8);
        for e in &hot {
            assert!(peer.adopt(&e.histogram, e.family, e.lengths.clone()));
        }
        assert_eq!(peer.warmup_accepted(), 2);
        assert_eq!(peer.constructions(), 0);
        let book = peer.get_or_build(&h1, FamilyId::Minimax, &t).unwrap();
        assert_eq!(peer.constructions(), 0, "adopted entry serves the hit");
        let reference = cache.get_or_build(&h1, FamilyId::Minimax, &t).unwrap();
        assert_eq!(book.lengths, reference.lengths);
        // Re-adopting is a no-op.
        assert!(!peer.adopt(&hot[0].histogram, hot[0].family, hot[0].lengths.clone()));
        // Garbage lengths are rejected.
        assert!(!peer.adopt(&hist(&[2, 2, 2]), FamilyId::Huffman, vec![1, 1, 1]));
    }

    #[test]
    fn construction_records_work_and_depth() {
        let h = hist(&[8, 4, 2, 1, 1]);
        let t = CostTracer::named("build");
        Codebook::build(&h, FamilyId::Huffman, &t).unwrap();
        assert!(t.aggregate().work > 0);
        assert!(t.aggregate().depth > 0);
        assert!(t.snapshot().find("canonicalize").is_some());
    }

    #[test]
    fn lookup_key_answers_from_tier0_and_never_constructs() {
        let cache = CodebookCache::new(2, 8);
        let h = hist(&[9, 4, 2]);
        let t = CostTracer::disabled();
        let built = cache.get_or_build(&h, FamilyId::Huffman, &t).unwrap();
        let key = FamilyId::Huffman.tagged_key(h.hash64());

        let found = cache.lookup_key(key, FamilyId::Huffman, None).unwrap();
        assert!(Arc::ptr_eq(&found, &built));
        let found = cache.lookup_key(key, FamilyId::Huffman, Some(&h)).unwrap();
        assert!(Arc::ptr_eq(&found, &built));

        // Wrong family under the same raw hash, a histogram mismatch,
        // and an unknown key are all misses — and none constructs.
        assert!(cache.lookup_key(key, FamilyId::Minimax, None).is_none());
        let other = hist(&[1, 2, 3]);
        assert!(cache
            .lookup_key(key, FamilyId::Huffman, Some(&other))
            .is_none());
        assert!(cache
            .lookup_key(0xBAD_C0DE, FamilyId::Huffman, None)
            .is_none());
        assert_eq!(cache.constructions(), 1, "lookup_key never constructs");
    }

    #[test]
    fn lookup_key_promotes_from_tier1_and_verifies_the_key() {
        let store = Arc::new(partree_store::MemStore::new());
        let t = CostTracer::disabled();
        let h = hist(&[9, 4, 2, 1]);
        let warm = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let original = warm.get_or_build(&h, FamilyId::ShannonFano, &t).unwrap();
        drop(warm);

        let cold = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let key = FamilyId::ShannonFano.tagged_key(h.hash64());
        let promoted = cold
            .lookup_key(key, FamilyId::ShannonFano, None)
            .expect("tier-1 record resolves the key");
        assert_eq!(promoted.lengths, original.lengths);
        assert_eq!(cold.constructions(), 0);
        assert_eq!((cold.tier1_hits(), cold.tier1_promotions()), (1, 1));
        // Promoted into tier 0: the next lookup is a tier-0 hit.
        cold.lookup_key(key, FamilyId::ShannonFano, None).unwrap();
        assert_eq!(cold.tier1_hits(), 1);
        assert_eq!(cold.hits(), 1);

        // A record filed under a key its own counts don't hash to must
        // never serve as a base: re-file the valid body under a bogus
        // key and look that key up.
        let bogus = FamilyId::ShannonFano.tagged_key(0x1234_5678_9ABC_DEF0);
        let (tag, body) = store.get_tagged(key).unwrap().expect("record");
        store.put_tagged(bogus, tag, &body).unwrap();
        assert!(
            cold.lookup_key(bogus, FamilyId::ShannonFano, None)
                .is_none(),
            "mis-filed record must not resolve"
        );
    }

    #[test]
    fn install_writes_through_and_serves_the_key() {
        let store = Arc::new(partree_store::MemStore::new());
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let h = hist(&[7, 3, 1]);
        let t = CostTracer::disabled();
        let book = Codebook::build(&h, FamilyId::Huffman, &t).unwrap();
        let key = book.key;
        let resident = cache.install(book);
        assert_eq!(cache.constructions(), 0, "install is not a construction");
        let found = cache.lookup_key(key, FamilyId::Huffman, Some(&h)).unwrap();
        assert!(Arc::ptr_eq(&found, &resident));
        // Write-through: a cold cache on the same store resolves it.
        let cold = CodebookCache::with_tier1(2, 8, Some(store));
        let promoted = cold.lookup_key(key, FamilyId::Huffman, None).unwrap();
        assert_eq!(promoted.lengths, resident.lengths);
        assert_eq!(cold.constructions(), 0);
    }

    /// A [`MemStore`](partree_store::MemStore) that counts
    /// `put_tagged` calls, so a test can tell a write-through happened.
    #[derive(Default)]
    struct CountingStore {
        inner: partree_store::MemStore,
        puts: AtomicU64,
    }

    impl CodebookStore for CountingStore {
        fn get(&self, key: u64) -> Result<Option<Vec<u8>>, partree_store::StoreError> {
            self.inner.get(key)
        }
        fn put(&self, key: u64, body: &[u8]) -> Result<(), partree_store::StoreError> {
            self.inner.put(key, body)
        }
        fn put_tagged(
            &self,
            key: u64,
            family: u8,
            body: &[u8],
        ) -> Result<(), partree_store::StoreError> {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.inner.put_tagged(key, family, body)
        }
        fn get_tagged(&self, key: u64) -> Result<Option<(u8, Vec<u8>)>, partree_store::StoreError> {
            self.inner.get_tagged(key)
        }
        fn remove(&self, key: u64) -> Result<(), partree_store::StoreError> {
            self.inner.remove(key)
        }
        fn contains(&self, key: u64) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn sync(&self) -> Result<(), partree_store::StoreError> {
            self.inner.sync()
        }
    }

    #[test]
    fn lookup_key_for_another_family_leaves_the_record_readable() {
        // A client-supplied base key that holds a Huffman record, looked
        // up as minimax: a miss, and the Huffman record survives it.
        let store = Arc::new(partree_store::MemStore::new());
        let h = hist(&[9, 4, 2, 1]);
        let warm = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let original = warm
            .get_or_build(&h, FamilyId::Huffman, &CostTracer::disabled())
            .unwrap();
        drop(warm);
        let key = FamilyId::Huffman.tagged_key(h.hash64());

        let cold = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        assert!(cold.lookup_key(key, FamilyId::Minimax, None).is_none());
        assert!(store.contains(key), "a client key must not delete a record");
        let found = cold
            .lookup_key(key, FamilyId::Huffman, None)
            .expect("the Huffman record still resolves");
        assert_eq!(found.lengths, original.lengths);
        assert_eq!(cold.constructions(), 0);
    }

    #[test]
    fn adopting_a_resident_entry_appends_nothing_to_tier1() {
        let store = Arc::new(CountingStore::default());
        let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
        let h = hist(&[9, 3, 1]);
        let book = cache
            .get_or_build(&h, FamilyId::Minimax, &CostTracer::disabled())
            .unwrap();
        assert_eq!(store.puts.load(Ordering::Relaxed), 1, "one write-through");
        assert!(!cache.adopt(&h, FamilyId::Minimax, book.lengths.clone()));
        assert_eq!(store.puts.load(Ordering::Relaxed), 1, "resident: no append");
        assert_eq!(cache.warmup_accepted(), 0);
        assert_eq!(cache.hits(), 0, "a residency check is not a hit");
        // A new entry is adopted and written through exactly once.
        let other = hist(&[5, 5, 1]);
        let lengths = Codebook::build(&other, FamilyId::Minimax, &CostTracer::disabled())
            .unwrap()
            .lengths;
        assert!(cache.adopt(&other, FamilyId::Minimax, lengths));
        assert_eq!(store.puts.load(Ordering::Relaxed), 2);
        assert_eq!(cache.warmup_accepted(), 1);
    }

    #[test]
    fn a_record_that_fails_verification_is_never_served_and_the_rebuild_heals_it() {
        let t = CostTracer::disabled();
        let h = hist(&[6, 3, 2, 1]);
        let key = FamilyId::ShannonFano.tagged_key(h.hash64());
        let built = Codebook::build(&h, FamilyId::ShannonFano, &t).unwrap();
        let bad_records: [(&str, Vec<u8>); 3] = [
            ("truncated body", built.to_store_body()[..5].to_vec()),
            // All length 1 over four symbols violates Kraft.
            ("kraft violation", encode_store_body(&h, &[1, 1, 1, 1])),
            // Valid lengths for other counts: they do not hash to `key`.
            ("counts of another histogram", {
                let other = hist(&[6, 3, 2, 2]);
                let b = Codebook::build(&other, FamilyId::ShannonFano, &t).unwrap();
                b.to_store_body()
            }),
        ];
        for (what, body) in bad_records {
            let store = Arc::new(partree_store::MemStore::new());
            store
                .put_tagged(key, FamilyId::ShannonFano.tag(), &body)
                .unwrap();
            let cache = CodebookCache::with_tier1(2, 8, Some(store.clone()));
            // Neither a client key nor a derived key serves it.
            assert!(
                cache.lookup_key(key, FamilyId::ShannonFano, None).is_none(),
                "{what}: served under a client key"
            );
            assert!(
                cache
                    .lookup_key(key, FamilyId::ShannonFano, Some(&h))
                    .is_none(),
                "{what}: served under the derived key"
            );
            assert_eq!(cache.tier1_hits(), 0, "{what}");
            // The rebuild serves the right lengths and heals the record.
            let book = cache.get_or_build(&h, FamilyId::ShannonFano, &t).unwrap();
            assert_eq!(book.lengths, built.lengths, "{what}");
            assert_eq!(cache.constructions(), 1, "{what}");
            let cold = CodebookCache::with_tier1(2, 8, Some(store));
            let healed = cold
                .lookup_key(key, FamilyId::ShannonFano, None)
                .unwrap_or_else(|| panic!("{what}: record not healed"));
            assert_eq!(healed.lengths, built.lengths, "{what}");
        }
    }

    #[test]
    fn family_quota_protects_a_resident_family() {
        // One shard, capacity 4, 50% quota → at most 2 entries per
        // family once the shard is full. Two resident Huffman books
        // must survive a six-histogram minimax burst: every eviction
        // lands inside the bursting family.
        let t = CostTracer::disabled();
        let huff_hists = [hist(&[9, 1]), hist(&[8, 2])];
        let burst: Vec<Histogram> = (0..6).map(|i| hist(&[10 + i, 3, 1])).collect();

        let quota = CodebookCache::with_config(1, 4, None, 50);
        for h in &huff_hists {
            quota.get_or_build(h, FamilyId::Huffman, &t).unwrap();
        }
        for h in &burst {
            quota.get_or_build(h, FamilyId::Minimax, &t).unwrap();
        }
        assert_eq!(quota.evictions(), 4, "burst evicts only within minimax");
        let before = quota.constructions();
        for h in &huff_hists {
            quota.get_or_build(h, FamilyId::Huffman, &t).unwrap();
        }
        assert_eq!(
            quota.constructions(),
            before,
            "quota kept the Huffman hot set resident"
        );

        // Contrast: quotas off (pct = 100) and the same burst walks
        // straight over the Huffman entries via global LRU.
        let lru = CodebookCache::with_config(1, 4, None, 100);
        for h in &huff_hists {
            lru.get_or_build(h, FamilyId::Huffman, &t).unwrap();
        }
        for h in &burst {
            lru.get_or_build(h, FamilyId::Minimax, &t).unwrap();
        }
        let before = lru.constructions();
        for h in &huff_hists {
            lru.get_or_build(h, FamilyId::Huffman, &t).unwrap();
        }
        assert_eq!(
            lru.constructions(),
            before + 2,
            "without quotas the burst evicted both Huffman books"
        );
    }
}
