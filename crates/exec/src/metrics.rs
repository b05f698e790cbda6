//! Counter registry: every stats surface in the workspace (this pool's,
//! the service's `Stats`, the gateway's) declares its counters once, in
//! a [`counters!`](crate::counters) block, and gets from that one
//! declaration:
//!
//! * a struct of relaxed `AtomicU64` cells (the request path bumps these
//!   directly: no map, no lock, no allocation);
//! * a plain-data snapshot struct and the cell → snapshot copy (`load`);
//! * a [`Counters`] impl, from which [`write_fields`], [`to_json`] and
//!   [`from_json`] produce and parse flat integer-valued JSON (keys in
//!   declaration order; readers skip unknown keys);
//! * [`Counters::NAMES`], the counter names as declared, which the
//!   contract pass reads instead of scraping source text.
//!
//! Shared helpers ride along: [`bump`], [`raise_max`] and the log₂
//! latency histogram [`Log2Histogram`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Adds one to a counter.
#[inline]
pub fn bump(cell: &AtomicU64) {
    // ordering: Relaxed — counters count; they do not synchronize.
    cell.fetch_add(1, Ordering::Relaxed);
}

/// Raises `cell` to at least `v`.
pub fn raise_max(cell: &AtomicU64, v: u64) {
    // ordering: Relaxed — a statistical high-water mark, no
    // synchronization rides on it.
    cell.fetch_max(v, Ordering::Relaxed);
}

/// A counter cell: one `AtomicU64`, or a fixed array of them (a
/// labelled counter). `get` is the relaxed read the snapshot copy uses.
pub trait Cell {
    /// The plain-data value of the cell.
    type Value;
    /// Relaxed read of the whole cell.
    fn get(&self) -> Self::Value;
}

impl Cell for AtomicU64 {
    type Value = u64;
    fn get(&self) -> u64 {
        // ordering: Relaxed — statistical counter read.
        self.load(Ordering::Relaxed)
    }
}

impl<const N: usize> Cell for [AtomicU64; N] {
    type Value = [u64; N];
    fn get(&self) -> [u64; N] {
        std::array::from_fn(|i| self[i].get())
    }
}

/// Log₂ latency buckets in microseconds: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs); the last bucket
/// is open-ended. 2⁰µs … 2¹⁹µs ≈ 0.5 s spans loopback to deadline.
pub const LATENCY_BUCKETS: usize = 20;

/// Bucket index for a latency in microseconds.
pub fn latency_bucket(us: u64) -> usize {
    (63 - u64::leading_zeros(us.max(1)) as usize).min(LATENCY_BUCKETS - 1)
}

/// A log₂ latency histogram of relaxed counters (see [`latency_bucket`]).
#[derive(Debug, Default)]
pub struct Log2Histogram([AtomicU64; LATENCY_BUCKETS]);

impl Log2Histogram {
    /// Counts one latency of `us` microseconds.
    pub fn record(&self, us: u64) {
        bump(&self.0[latency_bucket(us)]);
    }

    /// Bucket counts, lowest bucket first.
    pub fn buckets(&self) -> Vec<u64> {
        self.0.get().to_vec()
    }
}

/// The JSON key of one counter value. A labelled counter (one slot of a
/// counter array) inserts its label after the first `_` of the field
/// name: field `family_requests`, label `sf` → key `family_sf_requests`.
#[derive(Debug, Clone, Copy)]
pub struct Key<'a> {
    name: &'static str,
    label: Option<&'a str>,
}

impl<'a> Key<'a> {
    /// The key of a scalar counter: its field name.
    pub fn new(name: &'static str) -> Key<'a> {
        Key { name, label: None }
    }

    /// The key of slot `label` of the counter array `name`.
    pub fn labelled(name: &'static str, label: &'a str) -> Key<'a> {
        Key {
            name,
            label: Some(label),
        }
    }
}

impl fmt::Display for Key<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.label {
            None => f.write_str(self.name),
            Some(label) => {
                let (head, tail) = self
                    .name
                    .split_once('_')
                    .expect("labelled counter names have the form <head>_<tail>");
                write!(f, "{head}_{label}_{tail}")
            }
        }
    }
}

/// A snapshot struct declared through [`counters!`](crate::counters):
/// its counter values, visited in declaration order.
pub trait Counters {
    /// Counter field names in declaration order; a counter array is
    /// named once, by its field name.
    const NAMES: &'static [&'static str];

    /// Calls `f` with every counter's key and value, in JSON order.
    fn visit(&self, f: &mut dyn FnMut(Key<'_>, u64));

    /// Calls `f` with every counter's key and a handle to its value.
    fn visit_mut(&mut self, f: &mut dyn FnMut(Key<'_>, &mut u64));
}

/// Appends the counters as `"key":value` pairs, comma-separated, with no
/// enclosing braces (for callers that embed them in a larger object).
pub fn write_fields<C: Counters>(c: &C, out: &mut String) {
    let mut sep = "";
    c.visit(&mut |key, v| {
        let _ = write!(out, "{sep}\"{key}\":{v}");
        sep = ",";
    });
}

/// The counters as one flat JSON object, keys in declaration order.
pub fn to_json<C: Counters>(c: &C) -> String {
    let mut out = String::with_capacity(24 * C::NAMES.len() + 2);
    out.push('{');
    write_fields(c, &mut out);
    out.push('}');
    out
}

/// Parses a flat JSON object of integer values into `C`. Unknown keys
/// are ignored and missing keys stay 0; a non-object or a non-integer
/// value is an error.
pub fn from_json<C: Counters + Default>(text: &str) -> Result<C, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or("metrics JSON must be one object")?;
    let mut values = BTreeMap::new();
    if !body.trim().is_empty() {
        for pair in body.split(',') {
            let (k, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad pair {pair:?}"))?;
            let k = k.trim().trim_matches('"');
            let v: u64 = v
                .trim()
                .parse()
                .map_err(|e| format!("bad value for {k}: {e}"))?;
            values.insert(k, v);
        }
    }
    let mut snap = C::default();
    snap.visit_mut(&mut |key, slot| {
        if let Some(&v) = values.get(key.to_string().as_str()) {
            *slot = v;
        }
    });
    Ok(snap)
}

/// Declares a counter surface once: a struct of atomic cells, its
/// snapshot struct, the copy between them, and the snapshot's
/// [`Counters`] impl.
///
/// ```ignore
/// partree_exec::counters! {
///     /// Cells (derives are the caller's; `Default` is needed).
///     #[derive(Debug, Default)]
///     pub struct Metrics;                   // or `pub struct M { pub extra: T }`
///     /// Snapshot (must implement `Default`).
///     #[derive(Debug, Clone, Default)]
///     pub struct Snapshot {
///         /// A counter: an `AtomicU64` cell and a `u64` field.
///         requests,
///         /// A `u64` field filled by the caller from elsewhere.
///         external cache_hits,
///         // Counter arrays, emitted label by label (all members of a
///         // group interleaved per label).
///         [FAMILY_COUNT; FamilyId::ALL.map(FamilyId::name)] {
///             family_requests,
///             external family_hits,
///         },
///         /// A plain field: not a counter, not emitted.
///         pub addr: String,
///     }
/// }
/// ```
///
/// The generated `Metrics::load` copies every cell into a snapshot whose
/// `external` counters and plain fields are left at their defaults;
/// callers fill those with struct-update syntax
/// (`Snapshot { cache_hits: …, ..metrics.load() }`).
#[macro_export]
macro_rules! counters {
    (
        $(#[$cm:meta])* $cv:vis struct $Cells:ident $({ $($cx:tt)* })? $(;)?
        $(#[$sm:meta])* $sv:vis struct $Snap:ident { $($body:tt)* }
    ) => {
        $crate::counters!(@munch
            [$Cells ($($($cx)*)?) $(#[$cm])* $cv struct $Cells]
            [$Snap $(#[$sm])* $sv struct $Snap]
            cells[] snap[] load[] names[] items[]
            $($body)*
        );
    };

    // All entries consumed: emit.
    (@munch
        [$Cells:ident ($($cx:tt)*) $($ch:tt)*] [$Snap:ident $($sh:tt)*]
        cells[$($cells:tt)*] snap[$($snap:tt)*] load[$($load:ident)*]
        names[$($name:ident)*] items[$($item:tt)*]
    ) => {
        $($ch)* { $($cells)* $($cx)* }

        $($sh)* { $($snap)* }

        impl $Cells {
            /// Relaxed copy of every cell; `external` counters and plain
            /// fields keep their defaults.
            pub fn load(&self) -> $Snap {
                $Snap {
                    $($load: $crate::metrics::Cell::get(&self.$load),)*
                    ..::core::default::Default::default()
                }
            }
        }

        impl $crate::metrics::Counters for $Snap {
            const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            fn visit(&self, f: &mut dyn FnMut($crate::metrics::Key<'_>, u64)) {
                $($crate::counters!(@visit self f $item);)*
            }

            fn visit_mut(&mut self, f: &mut dyn FnMut($crate::metrics::Key<'_>, &mut u64)) {
                $($crate::counters!(@visit_mut self f $item);)*
            }
        }
    };

    // `external name`: a snapshot counter the caller fills.
    (@munch $ch:tt $sh:tt
        cells[$($cells:tt)*] snap[$($snap:tt)*] load[$($load:ident)*]
        names[$($name:ident)*] items[$($item:tt)*]
        $(#[$m:meta])* external $f:ident $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@munch $ch $sh
            cells[$($cells)*]
            snap[$($snap)* $(#[$m])* pub $f: u64,]
            load[$($load)*] names[$($name)* $f] items[$($item)* ($f)]
            $($($rest)*)?
        );
    };

    // `pub name: Type`: a plain snapshot field.
    (@munch $ch:tt $sh:tt
        cells[$($cells:tt)*] snap[$($snap:tt)*] load[$($load:ident)*]
        names[$($name:ident)*] items[$($item:tt)*]
        $(#[$m:meta])* pub $f:ident : $t:ty $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@munch $ch $sh
            cells[$($cells)*]
            snap[$($snap)* $(#[$m])* pub $f: $t,]
            load[$($load)*] names[$($name)*] items[$($item)*]
            $($($rest)*)?
        );
    };

    // `name`: an atomic cell and its snapshot counter.
    (@munch $ch:tt $sh:tt
        cells[$($cells:tt)*] snap[$($snap:tt)*] load[$($load:ident)*]
        names[$($name:ident)*] items[$($item:tt)*]
        $(#[$m:meta])* $f:ident $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@munch $ch $sh
            cells[$($cells)* $(#[$m])* pub $f: ::std::sync::atomic::AtomicU64,]
            snap[$($snap)* $(#[$m])* pub $f: u64,]
            load[$($load)* $f] names[$($name)* $f] items[$($item)* ($f)]
            $($($rest)*)?
        );
    };

    // `[len; labels] { members }`: a group of counter arrays.
    (@munch $ch:tt $sh:tt
        cells $cells:tt snap $snap:tt load $load:tt names $names:tt items[$($item:tt)*]
        [$n:expr; $labels:expr] { $($members:tt)* } $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@group ($n) ($labels) []
            [$ch $sh cells $cells snap $snap load $load names $names items[$($item)*]]
            [$($($rest)*)?]
            $($members)*
        );
    };

    // Group members, one at a time; the outer state rides along.
    (@group ($n:expr) $labels:tt [$($g:ident)*]
        [$ch:tt $sh:tt cells[$($cells:tt)*] snap[$($snap:tt)*] load $load:tt
            names[$($name:ident)*] items $items:tt]
        $rest:tt
        $(#[$m:meta])* external $f:ident $(, $($more:tt)*)?
    ) => {
        $crate::counters!(@group ($n) $labels [$($g)* $f]
            [$ch $sh cells[$($cells)*] snap[$($snap)* $(#[$m])* pub $f: [u64; $n],] load $load
                names[$($name)* $f] items $items]
            $rest
            $($($more)*)?
        );
    };
    (@group ($n:expr) $labels:tt [$($g:ident)*]
        [$ch:tt $sh:tt cells[$($cells:tt)*] snap[$($snap:tt)*] load[$($load:ident)*]
            names[$($name:ident)*] items $items:tt]
        $rest:tt
        $(#[$m:meta])* $f:ident $(, $($more:tt)*)?
    ) => {
        $crate::counters!(@group ($n) $labels [$($g)* $f]
            [$ch $sh
                cells[$($cells)* $(#[$m])* pub $f: [::std::sync::atomic::AtomicU64; $n],]
                snap[$($snap)* $(#[$m])* pub $f: [u64; $n],]
                load[$($load)* $f] names[$($name)* $f] items $items]
            $rest
            $($($more)*)?
        );
    };
    (@group $n:tt ($labels:expr) [$($g:ident)*]
        [$ch:tt $sh:tt cells $cells:tt snap $snap:tt load $load:tt names $names:tt
            items[$($item:tt)*]]
        [$($rest:tt)*]
    ) => {
        $crate::counters!(@munch $ch $sh
            cells $cells snap $snap load $load names $names
            items[$($item)* (@group ($labels) $($g)*)]
            $($rest)*
        );
    };

    // Visiting one entry, by value or by `&mut`.
    (@visit $s:ident $f:ident (@group ($labels:expr) $($g:ident)*)) => {
        for (i, label) in $labels.iter().enumerate() {
            $($f($crate::metrics::Key::labelled(stringify!($g), label), $s.$g[i]);)*
        }
    };
    (@visit $s:ident $f:ident ($field:ident)) => {
        $f($crate::metrics::Key::new(stringify!($field)), $s.$field)
    };
    (@visit_mut $s:ident $f:ident (@group ($labels:expr) $($g:ident)*)) => {
        for (i, label) in $labels.iter().enumerate() {
            $($f($crate::metrics::Key::labelled(stringify!($g), label), &mut $s.$g[i]);)*
        }
    };
    (@visit_mut $s:ident $f:ident ($field:ident)) => {
        $f($crate::metrics::Key::new(stringify!($field)), &mut $s.$field)
    };
}

crate::counters! {
    /// Monotonic counters for one [`crate::Pool`]. All relaxed: they
    /// count, they do not synchronize.
    #[derive(Debug, Default)]
    pub struct Metrics;

    /// A plain-data freeze of [`Metrics`] plus instantaneous gauges.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ExecSnapshot {
        /// Successful steals from another worker's deque.
        steals,
        /// Times a worker went to sleep on the pool condvar.
        parks,
        /// Jobs submitted through the global injector queue.
        injected,
        /// Jobs executed by pool workers (blocks + join halves).
        blocks_executed,
        /// `join` calls served by the pool (counted at the fork).
        joins,
        /// OS threads spawned over the pool's lifetime (its width, for a
        /// healthy pool: spawning is eager and workers never respawn).
        workers,
        /// Jobs sitting in the injector right now (gauge).
        external injector_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: [&str; 2] = ["a", "b"];

    crate::counters! {
        #[derive(Debug, Default)]
        struct Cells { pub hist: Log2Histogram }
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        struct Snap {
            hits,
            external size,
            [2; LABELS] {
                per_req,
                external per_hit,
            },
            pub note: String,
            tail,
        }
    }

    #[test]
    fn load_copies_cells_and_leaves_the_rest_default() {
        let c = Cells::default();
        bump(&c.hits);
        c.per_req[1].store(7, Ordering::Relaxed);
        raise_max(&c.tail, 9);
        raise_max(&c.tail, 3); // no-op, 9 stays
        let s = Snap {
            size: 4,
            ..c.load()
        };
        assert_eq!(
            (s.hits, s.size, s.per_req, s.per_hit, s.tail),
            (1, 4, [0, 7], [0, 0], 9)
        );
        assert!(s.note.is_empty());
    }

    #[test]
    fn json_order_names_and_roundtrip() {
        let s = Snap {
            hits: 1,
            size: 2,
            per_req: [3, 4],
            per_hit: [5, 6],
            note: String::new(),
            tail: 7,
        };
        let json = to_json(&s);
        assert_eq!(
            json,
            "{\"hits\":1,\"size\":2,\"per_a_req\":3,\"per_a_hit\":5,\
             \"per_b_req\":4,\"per_b_hit\":6,\"tail\":7}"
        );
        assert_eq!(Snap::NAMES, ["hits", "size", "per_req", "per_hit", "tail"]);
        assert_eq!(from_json::<Snap>(&json).unwrap(), s);
    }

    #[test]
    fn from_json_skips_unknown_and_rejects_garbage() {
        let s: Snap = from_json("{\"hits\":5,\"per_c_req\":1,\"future_key\":1}").unwrap();
        assert_eq!((s.hits, s.per_req), (5, [0, 0]));
        assert!(from_json::<Snap>("nope").is_err());
        assert!(from_json::<Snap>("{\"hits\":\"x\"}").is_err());
        assert_eq!(from_json::<Snap>(" {} ").unwrap(), Snap::default());
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        let c = Cells::default();
        c.hist.record(100);
        c.hist.record(100);
        c.hist.record(5000);
        let b = c.hist.buckets();
        assert_eq!(
            (b.len(), b[latency_bucket(100)], b[latency_bucket(5000)]),
            (20, 2, 1)
        );
    }
}
