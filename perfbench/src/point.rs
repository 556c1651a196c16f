//! One point: build a `SimStack`, run the stream, read every layer's
//! counters, tear down, and check that nothing failed.

use crate::calib::Calibrator;
use crate::timed::{SharedRecorder, TimedEngine};
use crate::workload::{Direction, Workload};
use netsim::{
    tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult, SimStack, NIC_DEV,
};
use obs::RegistrySnapshot;
use simcore::{CoreCtx, CoreId, Cycles, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Counters the layers keep, read after a point's run (before teardown,
/// whose ring frees would add to them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// `dma.maps + dma.unmaps`: the DMA operations the point attempted.
    pub dma_ops: u64,
    /// `iova.tree_allocs`.
    pub iova_tree_allocs: u64,
    /// `iova.cached_allocs` (EiovaR's cache in front of the tree).
    pub iova_cached_allocs: u64,
    /// `iova.magazine_allocs` (per-core magazines).
    pub iova_magazine_allocs: u64,
    /// `iova.magazine_refills`: magazine misses that went to the tree.
    pub iova_magazine_refills: u64,
    /// Cycles spun on the engine's IOVA-allocator lock.
    pub iova_lock_spin: u64,
    /// `flush.drains`: deferred-invalidation batch drains.
    pub flush_drains: u64,
    /// `pool.acquires`.
    pub pool_acquires: u64,
    /// `pool.fallback_acquires`.
    pub pool_fallbacks: u64,
    /// `pool.magazine_hits`.
    pub pool_magazine_hits: u64,
    /// `pool.peak_shadow_bytes`.
    pub pool_peak_shadow_bytes: u64,
    /// `iotlb.hits`.
    pub iotlb_hits: u64,
    /// `iotlb.misses`.
    pub iotlb_misses: u64,
    /// `mmu.map_pages`.
    pub mmu_map_pages: u64,
    /// `mmu.faults`.
    pub mmu_faults: u64,
    /// `invalq.page_commands`.
    pub invalq_page_commands: u64,
    /// `invalq.waits`.
    pub invalq_waits: u64,
    /// Cycles spun on the invalidation-queue lock.
    pub invalq_lock_spin: u64,
    /// `Kmalloc` alloc calls.
    pub kmalloc_allocs: u64,
    /// `PhysMemory` high-water mark of allocated frames.
    pub mem_peak_frames: u64,
    /// `dmasan.violations`.
    pub dmasan_violations: u64,
    /// Cause chains the tracer sampled out.
    pub trace_sampled_out: u64,
    /// Events the tracer's ring dropped.
    pub trace_dropped: u64,
    /// `net.tx_frames`.
    pub tx_frames: u64,
    /// `net.tx_buffers`.
    pub tx_buffers: u64,
}

impl Layers {
    fn read(stack: &SimStack, snap: &RegistrySnapshot) -> Self {
        let d = Some(NIC_DEV.0);
        let c = |sub: &str, name: &str, dev: Option<u16>| snap.counter(sub, name, dev).unwrap_or(0);
        Layers {
            dma_ops: c("dma", "maps", d) + c("dma", "unmaps", d),
            iova_tree_allocs: c("iova", "tree_allocs", None),
            iova_cached_allocs: c("iova", "cached_allocs", None),
            iova_magazine_allocs: c("iova", "magazine_allocs", None),
            iova_magazine_refills: c("iova", "magazine_refills", None),
            iova_lock_spin: stack
                .engine
                .iova_lock_stats()
                .map_or(0, |(_, s)| s.total_spin.get()),
            flush_drains: c("flush", "drains", None),
            pool_acquires: c("pool", "acquires", d),
            pool_fallbacks: c("pool", "fallback_acquires", d),
            pool_magazine_hits: c("pool", "magazine_hits", d),
            pool_peak_shadow_bytes: snap
                .gauge("pool", "peak_shadow_bytes", d)
                .unwrap_or(0)
                .max(0) as u64,
            iotlb_hits: c("iotlb", "hits", None),
            iotlb_misses: c("iotlb", "misses", None),
            mmu_map_pages: c("mmu", "map_pages", None),
            mmu_faults: c("mmu", "faults", None),
            invalq_page_commands: c("invalq", "page_commands", None),
            invalq_waits: c("invalq", "waits", None),
            invalq_lock_spin: stack.mmu.invalq().lock().stats().total_spin.get(),
            kmalloc_allocs: stack.kmalloc.stats().allocs,
            mem_peak_frames: stack.mem.stats().peak_frames,
            dmasan_violations: c("dmasan", "violations", None),
            trace_sampled_out: stack.obs.tracer().sampled_out(),
            trace_dropped: stack.obs.tracer().dropped(),
            tx_frames: c("net", "tx_frames", d),
            tx_buffers: c("net", "tx_buffers", d),
        }
    }
}

/// The outcome of one point.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The engine.
    pub kind: EngineKind,
    /// The experiment result; `None` when the run panicked.
    pub result: Option<ExpResult>,
    /// Registry snapshot after the run.
    pub snapshot: RegistrySnapshot,
    /// Layer counters after the run.
    pub layers: Layers,
    /// Host ns in `SimStack::new`.
    pub setup_ns: u64,
    /// Host ns in `tcp_stream_*_on`.
    pub run_ns: u64,
    /// Simulated items, warm-up included.
    pub items: u64,
    /// DMA operations attempted.
    pub ops: u64,
    /// Failed operations: MMU faults, dmasan violations, teardown leaks;
    /// every operation when the point panicked (a dma-api `Err` or a
    /// payload mismatch panics in netsim's NIC driver).
    pub failed: u64,
    /// Why the point failed, if it did.
    pub failure: Option<String>,
    /// Host ns of the workload's calibration kernel, averaged over one
    /// sample right before and one right after the run.
    pub cal_ns: u64,
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one point of `w` on `kind`, sampling `cal` around the run. With a
/// recorder, the engine is wrapped in a [`TimedEngine`] and the point's
/// setup, run and teardown are logged as root spans under `point`.
pub fn run_point(
    w: &Workload,
    kind: EngineKind,
    cfg: &ExpConfig,
    cal: &mut Calibrator,
    trace: Option<(&SharedRecorder, u32)>,
) -> PointRun {
    let engine = kind.name();
    let t0 = Instant::now();
    let mut stack = SimStack::new(kind, cfg);
    let t1 = Instant::now();
    let cal_before = cal.sample();
    if let Some((rec, point)) = trace {
        rec.lock()
            .expect("recorder")
            .root("setup", engine, point, t0, t1);
        TimedEngine::install(&mut stack, rec.clone());
        rec.lock().expect("recorder").open("run", engine, point);
    }
    let t2 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match w.dir {
        Direction::Rx => tcp_stream_rx_on(&stack, cfg),
        Direction::Tx => tcp_stream_tx_on(&stack, cfg),
    }));
    let run_ns = t2.elapsed().as_nanos() as u64;
    if let Some((rec, _)) = trace {
        rec.lock().expect("recorder").close();
    }
    let cal_after = cal.sample();
    let snapshot = stack.obs.registry().snapshot();
    let layers = Layers::read(&stack, &snapshot);
    let mut run = PointRun {
        kind,
        result: None,
        snapshot,
        setup_ns: t1.duration_since(t0).as_nanos() as u64,
        run_ns,
        items: w.items_per_point(),
        ops: layers.dma_ops.max(1),
        layers,
        failed: 0,
        failure: None,
        cal_ns: (cal_before + cal_after) / 2,
    };
    match outcome {
        Ok(r) => run.result = Some(r),
        Err(e) => {
            // The stack is mid-packet; it is dropped, not torn down. Every
            // operation the point would have made (a map and an unmap per
            // item) counts as failed.
            run.ops = run.ops.max(2 * run.items);
            run.failed = run.ops;
            run.failure = Some(format!("{engine}: run panicked: {}", panic_text(&*e)));
            return run;
        }
    }

    if let Some((rec, point)) = trace {
        rec.lock()
            .expect("recorder")
            .open("teardown", engine, point);
    }
    let torn = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
        ctx.seek(Cycles(2));
        stack.teardown(&mut ctx);
    }));
    if let Some((rec, _)) = trace {
        rec.lock().expect("recorder").close();
    }
    if let Err(e) = torn {
        run.failed = 1;
        run.failure = Some(format!("{engine}: teardown panicked: {}", panic_text(&*e)));
        return run;
    }
    let leaks = stack.san.check_teardown() as u64;
    let violations = stack.san.violation_count();
    let faults = stack.mmu.fault_count() as u64;
    run.failed = leaks + violations + faults;
    if run.failed > 0 {
        run.failure = Some(format!(
            "{engine}: {leaks} teardown leaks, {violations} dmasan violations, {faults} MMU faults"
        ));
    }
    run
}

/// Bit-for-bit equality of two experiment results.
pub fn same_result(a: &ExpResult, b: &ExpResult) -> bool {
    a.engine == b.engine
        && a.gbps.to_bits() == b.gbps.to_bits()
        && a.cpu.to_bits() == b.cpu.to_bits()
        && a.items == b.items
        && a.bytes == b.bytes
        && a.per_item == b.per_item
        && a.shadow_bytes_peak == b.shadow_bytes_peak
}

/// Equality of two registry snapshots: every counter, gauge and histogram.
pub fn same_snapshot(a: &RegistrySnapshot, b: &RegistrySnapshot) -> bool {
    a.counters == b.counters && a.gauges == b.gauges && a.histograms == b.histograms
}

/// Equality of two points' simulated outcomes: result, registry, layers.
pub fn same_simulation(a: &PointRun, b: &PointRun) -> bool {
    let results = match (&a.result, &b.result) {
        (Some(x), Some(y)) => same_result(x, y),
        _ => false,
    };
    results && same_snapshot(&a.snapshot, &b.snapshot) && a.layers == b.layers
}

/// Spin cycles charged per measured item (`Phase::Spinlock`), times the
/// measured items: the weight used to average across points.
pub fn spin_cycles(r: &ExpResult) -> u64 {
    r.per_item.get(Phase::Spinlock).get() * r.items
}
