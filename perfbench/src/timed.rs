//! The timing `DmaEngine` wrapper and the in-memory span log it feeds.
//!
//! [`TimedEngine`] replaces `SimStack::engine` for a traced pass. Every one
//! of the thirteen `DmaEngine` methods is forwarded to the wrapped engine
//! (including the ones with default bodies — falling back to a default
//! would silently change the simulation) and timed on the host clock.
//! The timings land in a [`Recorder`]: a span log (name, start, end,
//! parent, point id) kept in memory and written out when the benchmark
//! ends, plus per-engine, per-method histograms that survive the log's
//! cap.

use crate::stats::LogHist;
use dma_api::{
    CoherentBuffer, DmaBuf, DmaDirection, DmaEngine, DmaError, DmaMapping, NoIommu,
    ProtectionProfile,
};
use iommu::DeviceId;
use netsim::{SimStack, NIC_DEV};
use simcore::{CoreCtx, LockStats};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `DmaEngine` methods, in trait order; a span's name for an engine
/// call is its method name, and [`TimedEngine`] indexes this array.
pub const METHODS: [&str; 13] = [
    "name",
    "device",
    "profile",
    "map",
    "unmap",
    "map_sg",
    "unmap_sg",
    "alloc_coherent",
    "free_coherent",
    "sync_for_cpu",
    "sync_for_device",
    "flush_deferred",
    "iova_lock_stats",
];

/// One timed interval. Root spans (`setup`, `run`, `teardown`) have no
/// parent; engine calls made while a root span is open name it as parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `setup`, `run`, `teardown`, or a [`METHODS`] entry.
    pub name: &'static str,
    /// Engine (paper legend name) of the point the span belongs to.
    pub engine: &'static str,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing root span in the log.
    pub parent: Option<u32>,
    /// Which (pass, engine) point of the run the span belongs to.
    pub point: u32,
}

impl Span {
    /// Span length in host nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of one (engine, method) pair over every call, logged or not.
#[derive(Debug, Clone, Default)]
pub struct MethodStats {
    /// Calls made while a `run` span was open.
    pub calls: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Host nanoseconds spent in those calls.
    pub total_ns: u64,
    /// Per-call host nanoseconds.
    pub hist: LogHist,
}

/// Span log and per-method aggregates for one benchmark run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    cap: usize,
    calls_logged: usize,
    spans: Vec<Span>,
    dropped: u64,
    /// The open root span: (log index, name, start, point).
    open: Option<(Option<u32>, &'static str, u64, u32)>,
    /// Host ns of every closed root span, by name.
    root_ns: Vec<(&'static str, u64)>,
    /// Engine-call aggregates, keyed by engine name; only calls inside a
    /// `run` span are aggregated.
    methods: Vec<(&'static str, [MethodStats; 13])>,
    /// Host ns of engine calls nested in any root span, by root name.
    nested_ns: Vec<(&'static str, u64)>,
}

impl Recorder {
    /// A recorder logging every root span and at most `cap` engine-call
    /// spans; further calls are only aggregated and counted as dropped.
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            cap,
            calls_logged: 0,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
            open: None,
            root_ns: Vec::new(),
            methods: Vec::new(),
            nested_ns: Vec::new(),
        }
    }

    /// Host nanoseconds since the epoch.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Logs `s`. Root spans are always kept; engine calls only while
    /// fewer than `cap` of them have been logged.
    fn push(&mut self, s: Span, call: bool) -> Option<u32> {
        if !call || self.calls_logged < self.cap {
            self.calls_logged += call as usize;
            self.spans.push(s);
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        }
    }

    fn add(list: &mut Vec<(&'static str, u64)>, name: &'static str, ns: u64) {
        match list.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += ns,
            None => list.push((name, ns)),
        }
    }

    /// Records an already-measured root span (e.g. `setup`, which runs
    /// before the wrapper can be installed).
    pub fn root(
        &mut self,
        name: &'static str,
        engine: &'static str,
        point: u32,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        Self::add(&mut self.root_ns, name, end_ns.saturating_sub(start_ns));
        self.push(
            Span {
                name,
                engine,
                start_ns,
                end_ns,
                parent: None,
                point,
            },
            false,
        );
    }

    /// Opens a root span; engine calls until [`Recorder::close`] nest in
    /// it. Its log slot is reserved now so children can name it.
    pub fn open(&mut self, name: &'static str, engine: &'static str, point: u32) {
        let start_ns = self.ns(Instant::now());
        let idx = self.push(
            Span {
                name,
                engine,
                start_ns,
                end_ns: start_ns,
                parent: None,
                point,
            },
            false,
        );
        self.open = Some((idx, name, start_ns, point));
    }

    /// Closes the open root span.
    pub fn close(&mut self) {
        let end_ns = self.ns(Instant::now());
        if let Some((idx, name, start_ns, _)) = self.open.take() {
            Self::add(&mut self.root_ns, name, end_ns.saturating_sub(start_ns));
            if let Some(i) = idx {
                self.spans[i as usize].end_ns = end_ns;
            }
        }
    }

    fn call(
        &mut self,
        engine: &'static str,
        method: usize,
        start: Instant,
        end: Instant,
        err: bool,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let ns = end_ns.saturating_sub(start_ns);
        let (parent, point, root) = match self.open {
            Some((idx, root, _, point)) => (idx, point, Some(root)),
            None => (None, u32::MAX, None),
        };
        if let Some(root) = root {
            Self::add(&mut self.nested_ns, root, ns);
        }
        if root == Some("run") {
            let slot = match self.methods.iter().position(|(e, _)| *e == engine) {
                Some(i) => i,
                None => {
                    self.methods.push((engine, Default::default()));
                    self.methods.len() - 1
                }
            };
            let st = &mut self.methods[slot].1[method];
            st.calls += 1;
            st.errors += err as u64;
            st.total_ns += ns;
            st.hist.record(ns);
        }
        self.push(
            Span {
                name: METHODS[method],
                engine,
                start_ns,
                end_ns,
                parent,
                point,
            },
            true,
        );
    }

    /// Host ns of all closed root spans named `name`.
    pub fn root_ns(&self, name: &str) -> u64 {
        self.root_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |e| e.1)
    }

    /// Host ns of engine calls nested in root spans named `name`.
    pub fn nested_ns(&self, name: &str) -> u64 {
        self.nested_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |e| e.1)
    }

    /// The aggregate of `method` over calls made inside `run` spans, for
    /// one engine or (`None`) merged over all of them.
    pub fn merged(&self, method: &str, engine: Option<&str>) -> MethodStats {
        let i = METHODS
            .iter()
            .position(|m| *m == method)
            .expect("known method");
        let mut out = MethodStats::default();
        for (e, st) in &self.methods {
            if engine.is_none_or(|want| want == *e) {
                out.calls += st[i].calls;
                out.errors += st[i].errors;
                out.total_ns += st[i].total_ns;
                out.hist.merge(&st[i].hist);
            }
        }
        out
    }

    /// The logged spans, in start order of their recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Engine calls not logged because the log was full (still
    /// aggregated).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The span log as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"engine\":\"{}\",\"point\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.engine, s.point, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Shared handle to a run's recorder.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

/// A `DmaEngine` that times every call on the host clock and forwards it
/// to the engine it wraps.
pub struct TimedEngine {
    inner: Box<dyn DmaEngine>,
    engine: &'static str,
    rec: SharedRecorder,
}

impl TimedEngine {
    /// Swaps `stack.engine` for a timing wrapper around it.
    pub fn install(stack: &mut SimStack, rec: SharedRecorder) {
        let placeholder: Box<dyn DmaEngine> = Box::new(NoIommu::new(stack.mem.clone(), NIC_DEV));
        let inner = std::mem::replace(&mut stack.engine, placeholder);
        stack.engine = Box::new(TimedEngine {
            engine: inner.name(),
            inner,
            rec,
        });
    }

    fn timed<R>(
        &self,
        method: usize,
        is_err: impl Fn(&R) -> bool,
        f: impl FnOnce(&dyn DmaEngine) -> R,
    ) -> R {
        let start = Instant::now();
        let r = f(&*self.inner);
        let end = Instant::now();
        let err = is_err(&r);
        self.rec
            .lock()
            .expect("recorder")
            .call(self.engine, method, start, end, err);
        r
    }
}

fn never<R>(_: &R) -> bool {
    false
}

fn failed<T>(r: &Result<T, DmaError>) -> bool {
    r.is_err()
}

impl DmaEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.timed(0, never, |e| e.name())
    }

    fn device(&self) -> DeviceId {
        self.timed(1, never, |e| e.device())
    }

    fn profile(&self) -> ProtectionProfile {
        self.timed(2, never, |e| e.profile())
    }

    fn map(
        &self,
        ctx: &mut CoreCtx,
        buf: DmaBuf,
        dir: DmaDirection,
    ) -> Result<DmaMapping, DmaError> {
        self.timed(3, failed, |e| e.map(ctx, buf, dir))
    }

    fn unmap(&self, ctx: &mut CoreCtx, mapping: DmaMapping) -> Result<(), DmaError> {
        self.timed(4, failed, |e| e.unmap(ctx, mapping))
    }

    fn map_sg(
        &self,
        ctx: &mut CoreCtx,
        bufs: &[DmaBuf],
        dir: DmaDirection,
    ) -> Result<Vec<DmaMapping>, DmaError> {
        self.timed(5, failed, |e| e.map_sg(ctx, bufs, dir))
    }

    fn unmap_sg(&self, ctx: &mut CoreCtx, mappings: Vec<DmaMapping>) -> Result<(), DmaError> {
        self.timed(6, failed, |e| e.unmap_sg(ctx, mappings))
    }

    fn alloc_coherent(&self, ctx: &mut CoreCtx, len: usize) -> Result<CoherentBuffer, DmaError> {
        self.timed(7, failed, |e| e.alloc_coherent(ctx, len))
    }

    fn free_coherent(&self, ctx: &mut CoreCtx, buf: CoherentBuffer) -> Result<(), DmaError> {
        self.timed(8, failed, |e| e.free_coherent(ctx, buf))
    }

    fn sync_for_cpu(&self, ctx: &mut CoreCtx, mapping: &DmaMapping) {
        self.timed(9, never, |e| e.sync_for_cpu(ctx, mapping))
    }

    fn sync_for_device(&self, ctx: &mut CoreCtx, mapping: &DmaMapping) {
        self.timed(10, never, |e| e.sync_for_device(ctx, mapping))
    }

    fn flush_deferred(&self, ctx: &mut CoreCtx) {
        self.timed(11, never, |e| e.flush_deferred(ctx))
    }

    fn iova_lock_stats(&self) -> Option<(&'static str, LockStats)> {
        self.timed(12, never, |e| e.iova_lock_stats())
    }
}
