//! In-memory spans recorded around calls into each layer's public API.
//!
//! Spans are kept in memory while a traced run measures and written out
//! when it ends. Spans of one task share its task id; worker spans are
//! buffered per worker thread and handed over when the pool drops the
//! worker, so tracing takes no lock while the runtime serves.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smartred_runtime::{JobAssignment, Worker};

/// Task id of a span that belongs to no single task.
pub const NO_TASK: u32 = u32::MAX;

/// The public entry point a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Runtime::start` / `ShardedRuntime::start`.
    Start,
    /// `Client::submit` / `ShardedClient::submit`.
    Submit,
    /// `Client::recv` / `ShardedClient::recv` (blocked time included).
    Recv,
    /// The wrapped `Worker::execute`.
    Execute,
    /// `Runtime::finish` / `ShardedRuntime::finish`.
    Finish,
    /// `report_from_journal` (runtime or DCA replay).
    Fold,
    /// `ShardedRuntime::recover` (or the cold restart of a WAL-less run).
    Recover,
    /// `WalWriter::append` on a WAL that syncs every append.
    WalAppend,
    /// `dca::sim::run`.
    DcaRun,
    /// `volunteer::server::run`.
    VolunteerRun,
    /// `dag::monte_carlo`.
    DagMonteCarlo,
}

impl Layer {
    /// The span name written out.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Start => "runtime.start",
            Layer::Submit => "client.submit",
            Layer::Recv => "client.recv",
            Layer::Execute => "worker.execute",
            Layer::Finish => "runtime.finish",
            Layer::Fold => "report_from_journal",
            Layer::Recover => "runtime.recover",
            Layer::WalAppend => "wal.append_synced",
            Layer::DcaRun => "dca.sim.run",
            Layer::VolunteerRun => "volunteer.server.run",
            Layer::DagMonteCarlo => "dag.monte_carlo",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// The task the call served, or [`NO_TASK`].
    pub task: u32,
    /// Worker index for execute spans, 0 otherwise.
    pub worker: u32,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn ns_since(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// The client-side span buffer; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer recording when `on`, with times relative to `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// The time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a span of `layer` for `task` over `[start, end]`.
    pub fn record(&mut self, layer: Layer, task: u32, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                layer,
                task,
                worker: 0,
                start_ns: ns_since(self.origin, start),
                end_ns: ns_since(self.origin, end),
            });
        }
    }

    /// Runs `f`, recording a span of `layer`; returns its result and its
    /// duration in seconds (timed even when tracing is off).
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(layer, NO_TASK, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Appends spans recorded elsewhere (worker buffers).
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans of `layer`.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::secs)
            .collect()
    }

    /// Writes `header` and then at most `cap` spans as JSON lines to
    /// `path`, keeping every non-task span and the earliest task spans.
    pub fn write_jsonl(&self, path: &Path, header: &str, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * cap.min(self.spans.len()) + header.len());
        out.push_str(header);
        out.push('\n');
        let untasked = self.spans.iter().filter(|s| s.task == NO_TASK);
        let tasked = self.spans.iter().filter(|s| s.task != NO_TASK);
        for s in untasked.chain(tasked).take(cap) {
            let task = if s.task == NO_TASK {
                "null".to_string()
            } else {
                s.task.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"task\": {task}, \"worker\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                s.layer.name(),
                s.worker,
                s.start_ns,
                s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Where traced workers hand their span buffers when dropped.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

/// A [`Worker`] that times every `execute` call of the worker it wraps.
pub struct TracedWorker {
    inner: Box<dyn Worker>,
    index: u32,
    origin: Instant,
    spans: Vec<Span>,
    sink: SpanSink,
}

impl TracedWorker {
    /// Wraps `inner`, pool index `index`, handing spans to `sink` on drop.
    pub fn new(inner: Box<dyn Worker>, index: u32, origin: Instant, sink: SpanSink) -> Self {
        Self {
            inner,
            index,
            origin,
            spans: Vec::new(),
            sink,
        }
    }
}

impl Worker for TracedWorker {
    fn execute(&mut self, job: &JobAssignment) -> Option<(bool, bool)> {
        let start = Instant::now();
        let out = self.inner.execute(job);
        let end = Instant::now();
        self.spans.push(Span {
            layer: Layer::Execute,
            task: job.task,
            worker: self.index,
            start_ns: ns_since(self.origin, start),
            end_ns: ns_since(self.origin, end),
        });
        out
    }
}

impl Drop for TracedWorker {
    fn drop(&mut self) {
        // A poisoned sink only loses this worker's spans; never panic here.
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}
