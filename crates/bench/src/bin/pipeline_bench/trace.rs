//! In-memory spans for the traced replay.
//!
//! A span records a name, its start and end in nanoseconds since the
//! tracer was made, and the span that was open when it began. Spans
//! stay in memory until the replay ends. A tracer made with
//! [`Tracer::off`] records nothing and never reads the clock, so the
//! same replay code gives the untraced serial baseline.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `router.observe`.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start: u64,
    /// End, in ns since the tracer was made.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer part of the name: everything before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if self.on {
            let end = self.now();
            let index = self.open.pop().expect("end() matches a begin()");
            self.spans[index].end = end;
        }
    }

    /// The recorded spans, in the order they began.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Runs `$body` inside a span named `$name`.
macro_rules! span {
    ($tracer:expr, $name:expr, $body:expr) => {{
        $tracer.begin($name);
        let result = $body;
        $tracer.end();
        result
    }};
}
pub(crate) use span;

/// Each span's self time: its duration minus the part its direct
/// children cover. Children never outlive their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration());
        }
    }
    own
}
