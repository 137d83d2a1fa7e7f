//! Symbolic bus traces, for debugging and for Figure-5-style waveforms.
//!
//! Tracing has two independent halves that can be combined freely:
//!
//! * a bounded **in-memory buffer** (the classic [`BusTrace`]) keeping
//!   the first `capacity` events for post-run rendering — once full,
//!   further events are *counted* as dropped and the trace reports
//!   [`BusTrace::is_truncated`] instead of silently losing data;
//! * a streaming **sink** ([`TraceSink`]) that observes every event as
//!   it happens with no capacity limit: an overwrite-oldest ring
//!   ([`RingSink`]), a JSON-lines writer ([`JsonlSink`]), or a live VCD
//!   bridge ([`crate::vcd::VcdSink`]).
//!
//! Sinks never see dropped events — the capacity bound applies only to
//! the in-memory buffer.

use crate::cycle::Cycle;
use crate::ids::MasterId;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// One event on the bus, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A master won arbitration for a burst of up to `words` words.
    Grant {
        /// Cycle of the decision.
        cycle: Cycle,
        /// Winning master.
        master: MasterId,
        /// Words covered by the grant.
        words: u32,
    },
    /// One word transferred by `master` during `cycle`.
    Word {
        /// Cycle occupied by the word.
        cycle: Cycle,
        /// Transferring master.
        master: MasterId,
    },
    /// The bus idled during `cycle`.
    Idle {
        /// The idle cycle.
        cycle: Cycle,
    },
    /// An injected fault disturbed `master`'s tenure or grant during
    /// `cycle` (see [`crate::fault::FaultKind`] in the fault log for the
    /// specific cause).
    Fault {
        /// Cycle of the disturbance.
        cycle: Cycle,
        /// Master whose grant or transfer was disturbed.
        master: MasterId,
    },
}

impl TraceEvent {
    /// The cycle at which the event occurred.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Grant { cycle, .. }
            | TraceEvent::Word { cycle, .. }
            | TraceEvent::Idle { cycle }
            | TraceEvent::Fault { cycle, .. } => cycle,
        }
    }
}

/// A streaming consumer of trace events.
///
/// Sinks observe every event the bus emits, in cycle order, with no
/// capacity limit — the backpressure-free alternative to the bounded
/// in-memory buffer. Implementations latch I/O errors internally
/// (recording must stay infallible on the hot path) and surface them
/// from [`TraceSink::finish`].
pub trait TraceSink {
    /// Observes one event. Must not fail; sinks latch errors and report
    /// them from [`TraceSink::finish`].
    fn record(&mut self, event: &TraceEvent);

    /// Completes the stream: flushes buffered output and returns the
    /// first error latched during recording, if any.
    ///
    /// # Errors
    ///
    /// Returns any I/O error latched while recording or flushing.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<T: TraceSink + ?Sized> TraceSink for Box<T> {
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }

    fn finish(&mut self) -> io::Result<()> {
        (**self).finish()
    }
}

/// Sharing adapter: lets the caller keep a handle to a sink after the
/// system takes ownership of its clone (e.g. to read a [`RingSink`]
/// back after the run).
impl<S: TraceSink> TraceSink for Arc<Mutex<S>> {
    fn record(&mut self, event: &TraceEvent) {
        self.lock().expect("trace sink poisoned").record(event);
    }

    fn finish(&mut self) -> io::Result<()> {
        self.lock().expect("trace sink poisoned").finish()
    }
}

/// An in-memory ring sink: keeps the **last** `capacity` events,
/// overwriting the oldest — the complement of the bounded buffer, which
/// keeps the first.
///
/// ```
/// use socsim::{RingSink, TraceSink, TraceEvent, Cycle};
/// let mut ring = RingSink::new(2);
/// for c in 0..5 {
///     ring.record(&TraceEvent::Idle { cycle: Cycle::new(c) });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.overwritten(), 3);
/// let oldest = ring.events().next().unwrap();
/// assert_eq!(oldest.cycle(), Cycle::new(3)); // oldest kept
/// ```
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    overwritten: u64,
}

impl RingSink {
    /// A ring keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink { events: VecDeque::with_capacity(capacity), capacity, overwritten: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events (at most the capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of old events overwritten to make room for newer ones.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.overwritten += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(*event);
    }
}

/// A sink writing one JSON object per event, one per line (JSON Lines),
/// suitable for streaming multi-million-cycle traces to disk and
/// post-processing with standard tools.
///
/// Lines look like `{"cycle":3,"event":"word","master":1}`; grant lines
/// add a `"words"` field. I/O errors are latched and returned from
/// [`TraceSink::finish`].
///
/// ```
/// use socsim::{JsonlSink, TraceSink, TraceEvent, Cycle, MasterId};
/// let mut out = Vec::new();
/// let mut sink = JsonlSink::new(&mut out);
/// sink.record(&TraceEvent::Grant { cycle: Cycle::ZERO, master: MasterId::new(1), words: 4 });
/// sink.record(&TraceEvent::Idle { cycle: Cycle::new(4) });
/// sink.finish().unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert_eq!(text.lines().next().unwrap(),
///            r#"{"cycle":0,"event":"grant","master":1,"words":4}"#);
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink streaming JSON lines into `writer`. Wrap slow writers
    /// (files) in [`std::io::BufWriter`].
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, error: None, written: 0 }
    }

    /// Lines successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    fn write_line(&mut self, args: std::fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.writer.write_fmt(args) {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Grant { cycle, master, words } => self.write_line(format_args!(
                "{{\"cycle\":{},\"event\":\"grant\",\"master\":{},\"words\":{}}}\n",
                cycle.index(),
                master.index(),
                words
            )),
            TraceEvent::Word { cycle, master } => self.write_line(format_args!(
                "{{\"cycle\":{},\"event\":\"word\",\"master\":{}}}\n",
                cycle.index(),
                master.index()
            )),
            TraceEvent::Idle { cycle } => self
                .write_line(format_args!("{{\"cycle\":{},\"event\":\"idle\"}}\n", cycle.index())),
            TraceEvent::Fault { cycle, master } => self.write_line(format_args!(
                "{{\"cycle\":{},\"event\":\"fault\",\"master\":{}}}\n",
                cycle.index(),
                master.index()
            )),
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }
}

/// A bounded recording of bus activity, optionally teeing every event
/// into a streaming [`TraceSink`].
///
/// Disabled by default. When enabled with a capacity it records up to
/// that many events and then — instead of silently stopping — counts
/// the overflow: [`BusTrace::is_truncated`] and [`BusTrace::dropped`]
/// report whether and how much of the run fell off the end of the
/// buffer. An attached sink always sees the full event stream
/// regardless of the buffer capacity.
///
/// ```
/// use socsim::{BusTrace, TraceEvent, Cycle, MasterId};
/// let mut trace = BusTrace::enabled(16);
/// trace.record(TraceEvent::Word { cycle: Cycle::ZERO, master: MasterId::new(1) });
/// trace.record(TraceEvent::Idle { cycle: Cycle::new(1) });
/// assert_eq!(trace.render_owners(0..2), "1.");
/// assert!(!trace.is_truncated());
/// ```
#[derive(Debug, Default)]
pub struct BusTrace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Box<dyn TraceSink> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Box<dyn TraceSink>")
    }
}

impl Clone for BusTrace {
    /// Clones the buffered events and counters. The streaming sink, if
    /// any, is **not** cloned — the clone records to no sink.
    fn clone(&self) -> Self {
        BusTrace {
            events: self.events.clone(),
            capacity: self.capacity,
            dropped: self.dropped,
            sink: None,
        }
    }
}

impl PartialEq for BusTrace {
    /// Compares the buffered events and truncation accounting; attached
    /// sinks are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.capacity == other.capacity
            && self.dropped == other.dropped
    }
}

impl BusTrace {
    /// A disabled trace that records nothing.
    pub fn disabled() -> Self {
        BusTrace::default()
    }

    /// An enabled trace buffering at most `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        BusTrace { capacity, ..BusTrace::default() }
    }

    /// Attaches a streaming sink that observes every recorded event
    /// (builder style). A trace may have a sink without any in-memory
    /// buffer (`capacity` 0): the buffer stays empty but the sink still
    /// sees the full stream.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether this trace observes events (buffer enabled or a sink
    /// attached).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0 || self.sink.is_some()
    }

    /// Records `event`: buffers it if below capacity (counting overflow
    /// as dropped) and forwards it to the attached sink, if any.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&event);
        }
        if self.capacity > 0 {
            if self.events.len() < self.capacity {
                self.events.push(event);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Records an [`TraceEvent::Idle`] event for every cycle in
    /// `start..start + len` — the fast-forward kernel's batched form of
    /// the per-cycle idle recording the cycle kernel performs, preserving
    /// byte-identical buffers, drop counts, and sink streams across
    /// kernels. A no-op when the trace is disabled.
    pub fn record_idle_span(&mut self, start: Cycle, len: u64) {
        if !self.is_enabled() {
            return;
        }
        for offset in 0..len {
            self.record(TraceEvent::Idle { cycle: start + offset });
        }
    }

    /// Records a [`TraceEvent::Word`] event for `master` at every cycle
    /// in `start..start + words` — the fleet's batched form of the
    /// per-cycle word recording the cycle kernel performs during a
    /// burst, preserving byte-identical buffers, drop counts, and sink
    /// streams across kernels. A no-op when the trace is disabled.
    pub fn record_word_span(&mut self, start: Cycle, words: u32, master: MasterId) {
        if !self.is_enabled() {
            return;
        }
        for offset in 0..u64::from(words) {
            self.record(TraceEvent::Word { cycle: start + offset, master });
        }
    }

    /// All buffered events in time order (at most the capacity; see
    /// [`BusTrace::dropped`] for what fell off the end).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether the in-memory buffer overflowed: events beyond the
    /// capacity were counted but not kept.
    pub fn is_truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Number of events that did not fit in the in-memory buffer. An
    /// attached sink still saw them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Completes the attached sink's stream (flush + latched-error
    /// check). A trace without a sink trivially succeeds.
    ///
    /// # Errors
    ///
    /// Returns any I/O error the sink latched while recording.
    pub fn finish_sink(&mut self) -> io::Result<()> {
        self.sink.as_mut().map_or(Ok(()), TraceSink::finish)
    }

    /// Renders bus ownership over a cycle range as one character per
    /// cycle: the master's index digit (modulo 10) when a word
    /// transferred, `.` when idle, `x` when an injected fault disturbed
    /// the cycle, and space for unrecorded cycles.
    ///
    /// This is the textual equivalent of the paper's Figure 5 "Bus Trace"
    /// waveforms.
    pub fn render_owners(&self, cycles: std::ops::Range<u64>) -> String {
        let mut chars: Vec<char> = vec![' '; (cycles.end - cycles.start) as usize];
        for event in &self.events {
            let c = event.cycle().index();
            if c < cycles.start || c >= cycles.end {
                continue;
            }
            let slot = (c - cycles.start) as usize;
            match *event {
                TraceEvent::Word { master, .. } => {
                    chars[slot] = char::from_digit((master.index() % 10) as u32, 10).unwrap_or('?');
                }
                TraceEvent::Idle { .. } => {
                    if chars[slot] == ' ' {
                        chars[slot] = '.';
                    }
                }
                TraceEvent::Fault { .. } => {
                    if chars[slot] == ' ' || chars[slot] == '.' {
                        chars[slot] = 'x';
                    }
                }
                TraceEvent::Grant { .. } => {}
            }
        }
        chars.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = BusTrace::disabled();
        trace.record(TraceEvent::Idle { cycle: Cycle::ZERO });
        assert!(trace.events().is_empty());
        assert!(!trace.is_enabled());
        assert!(!trace.is_truncated());
    }

    #[test]
    fn capacity_bounds_recording_and_counts_overflow() {
        let mut trace = BusTrace::enabled(2);
        for i in 0..5 {
            trace.record(TraceEvent::Idle { cycle: Cycle::new(i) });
        }
        assert_eq!(trace.events().len(), 2);
        assert!(trace.is_truncated());
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn render_shows_owners_and_idle() {
        let mut trace = BusTrace::enabled(8);
        trace.record(TraceEvent::Grant {
            cycle: Cycle::new(0),
            master: MasterId::new(2),
            words: 2,
        });
        trace.record(TraceEvent::Word { cycle: Cycle::new(0), master: MasterId::new(2) });
        trace.record(TraceEvent::Word { cycle: Cycle::new(1), master: MasterId::new(2) });
        trace.record(TraceEvent::Idle { cycle: Cycle::new(2) });
        trace.record(TraceEvent::Word { cycle: Cycle::new(3), master: MasterId::new(0) });
        assert_eq!(trace.render_owners(0..4), "22.0");
    }

    #[test]
    fn render_marks_faulted_cycles() {
        let mut trace = BusTrace::enabled(8);
        trace.record(TraceEvent::Word { cycle: Cycle::new(0), master: MasterId::new(1) });
        trace.record(TraceEvent::Idle { cycle: Cycle::new(1) });
        trace.record(TraceEvent::Fault { cycle: Cycle::new(1), master: MasterId::new(0) });
        // A fault never overwrites a transferred word.
        trace.record(TraceEvent::Fault { cycle: Cycle::new(0), master: MasterId::new(1) });
        assert_eq!(trace.render_owners(0..3), "1x ");
    }

    #[test]
    fn sink_sees_past_the_buffer_capacity() {
        let ring = Arc::new(Mutex::new(RingSink::new(8)));
        let mut trace = BusTrace::enabled(2).with_sink(Box::new(Arc::clone(&ring)));
        for i in 0..5 {
            trace.record(TraceEvent::Idle { cycle: Cycle::new(i) });
        }
        assert_eq!(trace.events().len(), 2, "buffer keeps the first two");
        assert_eq!(trace.dropped(), 3);
        assert_eq!(ring.lock().unwrap().len(), 5, "sink saw everything");
        assert!(trace.finish_sink().is_ok());
    }

    #[test]
    fn sink_only_trace_is_enabled_with_empty_buffer() {
        let ring = Arc::new(Mutex::new(RingSink::new(4)));
        let mut trace = BusTrace::disabled().with_sink(Box::new(Arc::clone(&ring)));
        assert!(trace.is_enabled());
        trace.record(TraceEvent::Idle { cycle: Cycle::ZERO });
        assert!(trace.events().is_empty());
        assert!(!trace.is_truncated(), "no buffer, nothing to truncate");
        assert_eq!(ring.lock().unwrap().len(), 1);
    }

    #[test]
    fn idle_span_matches_per_cycle_records() {
        let ring = Arc::new(Mutex::new(RingSink::new(16)));
        let mut spanned = BusTrace::enabled(3).with_sink(Box::new(Arc::clone(&ring)));
        spanned.record_idle_span(Cycle::new(10), 5);
        let mut stepped = BusTrace::enabled(3);
        for c in 10..15 {
            stepped.record(TraceEvent::Idle { cycle: Cycle::new(c) });
        }
        assert_eq!(spanned, stepped, "buffer and drop accounting match");
        assert_eq!(spanned.dropped(), 2);
        assert_eq!(ring.lock().unwrap().len(), 5, "sink saw every cycle");

        let mut off = BusTrace::disabled();
        off.record_idle_span(Cycle::ZERO, 1_000);
        assert!(off.events().is_empty());
    }

    #[test]
    fn word_span_matches_per_cycle_records() {
        let ring = Arc::new(Mutex::new(RingSink::new(16)));
        let mut spanned = BusTrace::enabled(3).with_sink(Box::new(Arc::clone(&ring)));
        spanned.record_word_span(Cycle::new(20), 5, MasterId::new(2));
        let mut stepped = BusTrace::enabled(3);
        for c in 20..25 {
            stepped.record(TraceEvent::Word { cycle: Cycle::new(c), master: MasterId::new(2) });
        }
        assert_eq!(spanned, stepped, "buffer and drop accounting match");
        assert_eq!(spanned.dropped(), 2);
        assert_eq!(ring.lock().unwrap().len(), 5, "sink saw every word cycle");

        let mut off = BusTrace::disabled();
        off.record_word_span(Cycle::ZERO, 1_000, MasterId::new(0));
        assert!(off.events().is_empty());
    }

    #[test]
    fn ring_sink_overwrites_oldest() {
        let mut ring = RingSink::new(3);
        for i in 0..7 {
            ring.record(&TraceEvent::Idle { cycle: Cycle::new(i) });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 4);
        let kept: Vec<u64> = ring.events().map(|e| e.cycle().index()).collect();
        assert_eq!(kept, vec![4, 5, 6]);
        assert!(!ring.is_empty());
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_event() {
        let mut out = Vec::new();
        let mut sink = JsonlSink::new(&mut out);
        sink.record(&TraceEvent::Word { cycle: Cycle::new(7), master: MasterId::new(3) });
        sink.record(&TraceEvent::Fault { cycle: Cycle::new(8), master: MasterId::new(0) });
        sink.finish().unwrap();
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], r#"{"cycle":7,"event":"word","master":3}"#);
        assert_eq!(lines[1], r#"{"cycle":8,"event":"fault","master":0}"#);
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        sink.record(&TraceEvent::Idle { cycle: Cycle::ZERO });
        sink.record(&TraceEvent::Idle { cycle: Cycle::new(1) });
        assert_eq!(sink.written(), 0);
        let err = sink.finish().expect_err("latched error surfaces");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn clone_and_eq_ignore_the_sink() {
        let mut trace =
            BusTrace::enabled(4).with_sink(Box::new(Arc::new(Mutex::new(RingSink::new(1)))));
        trace.record(TraceEvent::Idle { cycle: Cycle::ZERO });
        let copy = trace.clone();
        assert_eq!(copy, trace);
        assert!(!copy.is_enabled() || copy.events().len() == 1);
    }
}
