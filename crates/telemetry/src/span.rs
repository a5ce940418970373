//! Per-query trace spans.
//!
//! A [`SpanBuffer`] lives inside a reusable search arena: one per worker
//! thread, cleared (not freed) between queries. When disabled — the
//! default, and always the case on the bench kernels — every call is a
//! branch on a bool and nothing else: no clock reads, no allocation.
//! When a traced query runs, phases record `(name, index, start, end)`
//! tuples as nanosecond offsets from the buffer's enable time.

use std::time::Instant;

/// One recorded phase of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name (`"parse"`, `"match"`, `"expand"`, `"score"`,
    /// `"render"`).
    pub name: &'static str,
    /// Disambiguator for repeated phases; 0 for a phase that runs once.
    pub index: u32,
    /// Start, nanoseconds since the buffer was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the buffer was enabled.
    pub end_ns: u64,
}

/// A reusable buffer of spans with near-zero disabled cost.
#[derive(Debug)]
pub struct SpanBuffer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanBuffer {
    fn default() -> Self {
        SpanBuffer::new()
    }
}

impl SpanBuffer {
    /// A disabled buffer; recording costs one predictable branch.
    pub(crate) fn new() -> SpanBuffer {
        SpanBuffer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Start recording: clears prior spans (keeping capacity) and resets
    /// the clock origin.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.spans.clear();
        self.origin = Instant::now();
    }

    /// Stop recording; existing spans stay until the next [`enable`].
    ///
    /// [`enable`]: SpanBuffer::enable
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Current offset in nanoseconds, or 0 when disabled (no clock
    /// read). Use as the `start` handle for [`end`].
    ///
    /// [`end`]: SpanBuffer::end
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.enabled {
            elapsed_ns(self.origin)
        } else {
            0
        }
    }

    /// Close a span opened with [`begin`]. No-op when disabled.
    ///
    /// [`begin`]: SpanBuffer::begin
    #[inline]
    pub fn end(&mut self, name: &'static str, index: u32, start_ns: u64) {
        if self.enabled {
            let end_ns = elapsed_ns(self.origin);
            self.spans.push(Span {
                name,
                index,
                start_ns,
                end_ns,
            });
        }
    }

    /// Push a span measured externally (e.g. a parse timed before the
    /// buffer was enabled) against this buffer's origin. No-op when
    /// disabled.
    pub fn push(&mut self, name: &'static str, index: u32, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                index,
                start_ns,
                end_ns,
            });
        }
    }

    /// Recorded spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move the recorded spans out (the buffer keeps no capacity; only
    /// called once per traced query, off the hot path).
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

#[inline]
fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut b = SpanBuffer::new();
        let s = b.begin();
        assert_eq!(s, 0);
        b.end("parse", 0, s);
        b.push("expand", 3, 10, 20);
        assert!(b.spans().is_empty());
    }

    #[test]
    fn enabled_buffer_records_ordered_spans() {
        let mut b = SpanBuffer::new();
        b.enable();
        let s = b.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        b.end("parse", 0, s);
        b.push("expand", 1, 5, 9);
        let spans = b.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[0].end_ns >= 1_000_000);
        assert_eq!(
            spans[1],
            Span {
                name: "expand",
                index: 1,
                start_ns: 5,
                end_ns: 9
            }
        );
        // enable() resets for reuse.
        b.enable();
        assert!(b.spans().is_empty());
    }
}
