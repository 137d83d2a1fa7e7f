//! Spans around the benchmark's calls into each layer.
//!
//! A span records a name (`<crate>::<function>`), its start and end, the
//! span that was open when it began, and the pass it belongs to. Spans
//! stay in memory and are written out when the run ends. A disabled
//! tracer records nothing and costs one branch per call, which is what
//! the untraced end-to-end passes run with.

use experiments::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>::<function>`; the layer is the crate name.
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass this span belongs to.
    pub pass: u32,
}

impl Span {
    /// Wall time covered, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The crate the span's call went into.
    pub fn layer(&self) -> &str {
        self.name.split("::").next().unwrap_or(&self.name)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// Tags spans opened from now on with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, and any span opened inside it that a panic left
    /// open.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled || !self.open.contains(&id) {
            return;
        }
        let end = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the time its direct children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration).sum();
        self.spans[id].duration() - children
    }

    /// Share of span `id` covered by its direct children.
    pub fn coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].duration();
        if total > 0.0 {
            1.0 - self.self_time(id) / total
        } else {
            0.0
        }
    }

    /// Every span with its self time, as a JSON array.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .field("id", id)
                    .field("name", s.name.as_str())
                    .field("start", s.start)
                    .field("end", s.end)
                    .field("parent", s.parent)
                    .field("pass", s.pass)
                    .field("self", self.self_time(id))
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_coverage() {
        let mut t = Tracer::on();
        t.set_pass(3);
        let root = t.enter("lbbench::pass");
        let v = t.span("socsim::run", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        t.exit(root);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!((spans[1].pass, spans[1].layer()), (3, "socsim"));
        assert!(t.self_time(1) >= 0.002);
        assert!(t.self_time(root) >= 0.0 && t.self_time(root) < spans[root].duration());
        assert!(t.coverage(root) > 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x::y");
        assert_eq!(t.span("a::b", || 1), 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
