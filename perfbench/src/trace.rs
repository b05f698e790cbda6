//! In-memory spans, recorded by the benchmark around its calls into
//! each layer. A span has a name, start and end, a parent and the op
//! it belongs to; a layer's self time is its span minus its children.

use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread, times relative to a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        (id, r)
    }

    /// Self time of every span, in ns: its duration minus its
    /// children's (may be negative when a replayed child ran slower
    /// than its parent).
    pub fn self_ns(&self) -> Vec<i64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns() as i64 - c as i64)
            .collect()
    }

    /// Self times in µs of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Durations in µs of every span called `name`.
    pub fn dur_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let push = |log: &mut SpanLog, name, parent, start, end| {
            log.spans.push(Span {
                name,
                op: 0,
                parent,
                start_ns: start,
                end_ns: end,
            });
            (log.spans.len() - 1) as u32
        };
        let root = push(&mut log, "op", NO_PARENT, 0, 100);
        let g = push(&mut log, "g", root, 0, 50);
        push(&mut log, "c", g, 10, 40);
        push(&mut log, "f", root, 60, 70);
        assert_eq!(log.self_ns(), vec![40, 20, 30, 10]);
        assert_eq!(log.self_us("g"), vec![0.02]);
        assert_eq!(log.dur_us("f"), vec![0.01]);
    }
}
