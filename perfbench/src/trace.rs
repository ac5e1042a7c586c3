//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program (stream generation, `System::new`, `System::run`, a
//! replay through one structure, one served request). Spans stay in
//! memory and are written out once, when the benchmark ends; per-layer
//! metrics are sums over spans of one name divided by the work (refs,
//! ops, messages) the spans carry. With tracing off nothing is stored.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based id; 0 is "no span" when used as a parent.
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Spans of one served request share this id (0 elsewhere).
    pub request: u64,
    /// Layer-qualified name, e.g. `core.run` or `fabric.send.switched`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Units of work done inside the span (refs, ops, messages).
    pub work: u64,
}

/// The span store. Disabled tracers drop every record.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `[start, end)` under `name`; returns the new span's id,
    /// or 0 when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: at(start),
            end_ns: at(end),
            work,
        });
        id
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed time (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        work: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, parent, 0, t0, t1, work);
        (out, t1 - t0)
    }

    /// Total duration and total work over every span named `name`.
    pub fn totals(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, w), s| {
                (d + Duration::from_nanos(s.end_ns - s.start_ns), w + s.work)
            })
    }

    /// Mean nanoseconds per unit of work over spans named `name`.
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (d, w) = self.totals(name);
        if w == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / w as f64
        }
    }

    /// Writes every span as a tab-separated table, headed by `header`
    /// lines prefixed with `#`.
    pub fn write_tsv(&self, path: &std::path::Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for h in header {
            writeln!(out, "# {h}")?;
        }
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\twork")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}
