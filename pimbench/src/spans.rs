//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code, around its calls into each layer: name,
//! start, end, parent and the frame they belong to. They stay in memory
//! and are written out once, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One closed (or still open) span. Times are ns since the recorder's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `backend.linearize`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Frame id shared by every span of one frame.
    pub frame: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Disabled recorders ignore every call, so untraced
/// code paths can hold one unconditionally.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u64,
}

/// Shared handle: the workload loop and the backend decorator record
/// into one recorder.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Token returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Recorder {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            frame: 0,
        }
    }

    /// Shared handle to a new recorder.
    pub fn shared(enabled: bool) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new(enabled)))
    }

    /// Sets the frame id stamped on spans begun from now on.
    pub fn set_frame(&mut self, frame: u64) {
        self.frame = frame;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            frame: self.frame,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Recorder::begin`] and returns its
    /// duration in ms (0 for a disabled recorder).
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(i) = id.0 else {
            return 0.0;
        };
        let now = self.now_ns();
        self.spans[i].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == i) {
            self.open.truncate(pos);
        }
        self.spans[i].ms()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines: `{"id","name","frame","start_ns","end_ns","parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"frame\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.frame, s.start_ns, s.end_ns
            );
        }
        out
    }
}
