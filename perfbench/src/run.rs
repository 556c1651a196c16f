//! One benchmark run: repeated passes over a workload's points for the
//! requested host time, correctness checks, and the metrics.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced
//! run (`--trace 1`) interleaves untraced and traced passes — so the
//! tracing overhead is measured against the same host conditions — and
//! reports the per-layer metrics: host spans from the [`TimedEngine`]
//! wrapper, the counters every layer keeps, and the isolated probes.
//!
//! [`TimedEngine`]: crate::timed::TimedEngine

use crate::calib::{Calibrator, Kernel};
use crate::point::{run_point, same_simulation, spin_cycles, PointRun};
use crate::probes;
use crate::stats::median;
use crate::timed::{Recorder, SharedRecorder, METHODS};
use crate::workload::Workload;
use netsim::{EngineKind, ExpResult};
use simcore::Phase;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine-call spans kept in the in-memory log of a traced run; later
/// calls are aggregated but not logged (root spans are always logged).
pub const SPAN_LOG_CAP: usize = 1 << 15;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Measured passes (untraced, traced).
    pub passes: (usize, usize),
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// DMA operations attempted over every pass.
    pub attempted: u64,
    /// DMA operations that failed.
    pub failed: u64,
    /// Correctness problems (failures, non-reproducible simulations).
    pub problems: Vec<String>,
    /// The traced run's self-time table.
    pub self_time: Option<String>,
    /// The traced run's span log.
    pub recorder: Option<Recorder>,
}

impl Report {
    /// No operation failed and every simulation reproduced.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics by
/// name, each with its value (non-finite values, which only a failed
/// point produces, print as 0) and unit.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    out.push_str("}}");
    out
}

type Pass = Vec<PointRun>;

fn run_pass(
    w: &Workload,
    seed: u64,
    cal: &mut Calibrator,
    trace: Option<(&SharedRecorder, u32)>,
) -> Pass {
    let cfg = w.cfg(seed);
    let n = w.engines.len() as u32;
    w.engines
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            run_point(
                w,
                k,
                &cfg,
                cal,
                trace.map(|(r, pass)| (r, pass * n + i as u32)),
            )
        })
        .collect()
}

fn point(pass: &Pass, kind: EngineKind) -> Option<&PointRun> {
    pass.iter().find(|p| p.kind == kind)
}

fn result(pass: &Pass, kind: EngineKind) -> Option<&ExpResult> {
    point(pass, kind).and_then(|p| p.result.as_ref())
}

/// The host-time figures of one pass, in calibrated seconds.
#[derive(Debug, Clone, Copy)]
struct PassTime {
    /// Items over every point per calibrated second of `tcp_stream_*_on`.
    items_per_s: f64,
    /// The same for the copy point alone.
    copy_items_per_s: f64,
    /// Calibrated seconds in `SimStack::new`, over every point.
    setup_s: f64,
    /// Items per wall-clock second, uncalibrated.
    raw_items_per_s: f64,
    /// Median calibration-kernel time of the pass's points.
    cal_ns: f64,
}

impl PassTime {
    fn of(pass: &Pass, kernel: Kernel) -> Self {
        let calibrated =
            |ns: u64, p: &PointRun| ns as f64 * kernel.ref_ns() / p.cal_ns.max(1) as f64 / 1e9;
        let items: u64 = pass.iter().map(|p| p.items).sum();
        let run_s: f64 = pass.iter().map(|p| calibrated(p.run_ns, p)).sum();
        let raw_s = pass.iter().map(|p| p.run_ns).sum::<u64>() as f64 / 1e9;
        PassTime {
            items_per_s: items as f64 / run_s,
            copy_items_per_s: point(pass, EngineKind::Copy)
                .map_or(f64::NAN, |p| p.items as f64 / calibrated(p.run_ns, p)),
            setup_s: pass.iter().map(|p| calibrated(p.setup_ns, p)).sum(),
            raw_items_per_s: items as f64 / raw_s,
            cal_ns: median(&pass.iter().map(|p| p.cal_ns as f64).collect::<Vec<_>>()),
        }
    }
}

fn median_of(times: &[PassTime], f: impl Fn(&PassTime) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// Problems listed in a report; further ones are only counted.
const MAX_PROBLEMS: usize = 20;

/// Tallies operations and failures and checks that every pass reproduces
/// the reference pass bit for bit: experiment results, registry
/// snapshots, layer counters — so traced and untraced `sim_*` metrics
/// are compared too.
struct Checker {
    reference: Pass,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    unlisted: usize,
}

impl Checker {
    fn new(reference: Pass) -> Self {
        let mut c = Checker {
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            unlisted: 0,
        };
        c.check("warm-up", 0, &reference);
        c.reference = reference;
        c
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(p);
        } else {
            self.unlisted += 1;
        }
    }

    fn check(&mut self, label: &str, k: usize, pass: &Pass) {
        for (i, p) in pass.iter().enumerate() {
            self.attempted += p.ops;
            self.failed += p.failed;
            if let Some(f) = &p.failure {
                self.problem(format!("{label} pass {k}: {f}"));
            } else if self
                .reference
                .get(i)
                .is_some_and(|r| !same_simulation(p, r))
            {
                self.problem(format!(
                    "{label} pass {k}: {} simulation differs from the warm-up pass",
                    p.kind
                ));
            }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; `NaN` where
/// the kernel does not report it. (`getrusage`'s `ru_maxrss` would carry
/// the high-water mark of whatever process exec'd this one.)
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The simulated end-to-end metrics of a pass: copy's goodput, copy
/// against identity+, copy's Fig. 5 per-item total.
fn sim_metrics(pass: &Pass) -> [Metric; 3] {
    let copy = result(pass, EngineKind::Copy);
    let idp = result(pass, EngineKind::IdentityPlus);
    let gbps = copy.map_or(f64::NAN, |r| r.gbps);
    [
        Metric {
            name: "sim_copy_gbps",
            value: gbps,
            unit: "Gb/s",
        },
        Metric {
            name: "sim_copy_vs_identity_plus",
            value: gbps / idp.map_or(f64::NAN, |r| r.gbps),
            unit: "ratio",
        },
        Metric {
            name: "sim_copy_cycles_per_item",
            value: copy.map_or(f64::NAN, |r| r.per_item.total().get() as f64),
            unit: "cycles",
        },
    ]
}

/// Runs `w` for about `seconds` of host time.
pub fn run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut cal = Calibrator::new(w.calibration);
    // The warm-up pass is the reference every measured pass must
    // reproduce; its host times (cold caches, first-touch page faults)
    // are not reported.
    let mut checker = Checker::new(run_pass(w, seed, &mut cal, None));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let rec: SharedRecorder = Arc::new(Mutex::new(Recorder::new(SPAN_LOG_CAP)));
    let mut plain: Vec<PassTime> = Vec::new();
    let mut timed: Vec<PassTime> = Vec::new();
    let mut first_traced: Option<Pass> = None;
    loop {
        let pass = run_pass(w, seed, &mut cal, None);
        checker.check("untraced", plain.len(), &pass);
        plain.push(PassTime::of(&pass, w.calibration));
        if traced {
            let pass = run_pass(w, seed, &mut cal, Some((&rec, timed.len() as u32)));
            checker.check("traced", timed.len(), &pass);
            timed.push(PassTime::of(&pass, w.calibration));
            first_traced.get_or_insert(pass);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if checker.unlisted > 0 {
        let more = format!("... and {} more", checker.unlisted);
        checker.problems.push(more);
    }

    let mut report = Report {
        workload: w.name,
        traced,
        passes: (plain.len(), timed.len()),
        metrics: Vec::new(),
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems,
        self_time: None,
        recorder: None,
    };
    let rate = median_of(&plain, |t| t.items_per_s);
    if !traced {
        report.metrics.extend([
            Metric {
                name: "host_items_per_s",
                value: rate,
                unit: "1/s",
            },
            Metric {
                name: "host_copy_items_per_s",
                value: median_of(&plain, |t| t.copy_items_per_s),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median_of(&plain, |t| t.setup_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss_mib(),
                unit: "MiB",
            },
        ]);
        report.metrics.extend(sim_metrics(&checker.reference));
        return report;
    }

    let rec = Arc::try_unwrap(rec)
        .expect("sole owner")
        .into_inner()
        .expect("recorder");
    let traced_pass = first_traced.expect("at least one traced pass");
    let traced_rate = median_of(&timed, |t| t.items_per_s);
    report.metrics = layer_metrics(w, &traced_pass, &rec, timed.len() as u64);
    report.metrics.extend([
        Metric {
            name: "failed_op_frac",
            value: ratio(report.failed, report.attempted),
            unit: "ratio",
        },
        Metric {
            name: "host.raw_items_per_s",
            value: median_of(&plain, |t| t.raw_items_per_s),
            unit: "1/s",
        },
        Metric {
            name: "host.calibration_ns",
            value: median_of(&plain, |t| t.cal_ns),
            unit: "ns",
        },
        Metric {
            name: "trace.host_items_per_s",
            value: traced_rate,
            unit: "1/s",
        },
        Metric {
            name: "trace.relative_speed",
            value: traced_rate / rate,
            unit: "ratio",
        },
    ]);
    report.metrics.extend(probes::run_all());
    let (table, sums_ok) = self_time_table(w, &rec, timed.len() as u64);
    if !sums_ok {
        report
            .problems
            .push("per-layer self times do not add up to the point spans".into());
    }
    report.self_time = Some(table);
    report.recorder = Some(rec);
    report
}

/// The per-layer metrics of a traced run: host spans from `rec`
/// (`passes` traced passes), simulated counters from one traced pass.
fn layer_metrics(w: &Workload, pass: &Pass, rec: &Recorder, passes: u64) -> Vec<Metric> {
    let items = w.items_per_point() * w.engines.len() as u64;
    let run_ns = rec.root_ns("run");
    let engine_ns = rec.nested_ns("run");
    let map = rec.merged("map", None);
    let unmap = rec.merged("unmap", None);
    let calls: u64 = METHODS.iter().map(|m| rec.merged(m, None).calls).sum();
    let errors: u64 = METHODS.iter().map(|m| rec.merged(m, None).errors).sum();
    let sum = |f: fn(&PointRun) -> u64| pass.iter().map(f).sum::<u64>();
    let max = |f: fn(&PointRun) -> u64| pass.iter().map(f).max().unwrap_or(0);
    let copy = result(pass, EngineKind::Copy);
    let copy_phase = |ph: Phase| copy.map_or(f64::NAN, |r| r.per_item.get(ph).get() as f64);
    let measured: u64 = pass
        .iter()
        .filter_map(|p| p.result.as_ref())
        .map(|r| r.items)
        .sum();
    let spin: u64 = pass
        .iter()
        .filter_map(|p| p.result.as_ref())
        .map(spin_cycles)
        .sum();
    let iova_hits = sum(|p| {
        p.layers.iova_cached_allocs + p.layers.iova_magazine_allocs - p.layers.iova_magazine_refills
    });
    let iova_all = sum(|p| {
        p.layers.iova_tree_allocs + p.layers.iova_cached_allocs + p.layers.iova_magazine_allocs
    });
    let acquires = sum(|p| p.layers.pool_acquires);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "netsim.self_ns_per_item",
            (run_ns - engine_ns) as f64 / (items * passes) as f64,
            "ns",
        ),
        m("netsim.items", items as f64, "count"),
        m("dma-api.map_ns_p50", map.hist.quantile(0.5), "ns"),
        m("dma-api.map_ns_p99", map.hist.quantile(0.99), "ns"),
        m("dma-api.unmap_ns_p50", unmap.hist.quantile(0.5), "ns"),
        m("dma-api.unmap_ns_p99", unmap.hist.quantile(0.99), "ns"),
        m(
            "dma-api.copy.map_ns_p50",
            rec.merged("map", Some("copy")).hist.quantile(0.5),
            "ns",
        ),
        m(
            "dma-api.copy.unmap_ns_p50",
            rec.merged("unmap", Some("copy")).hist.quantile(0.5),
            "ns",
        ),
        m("dma-api.host_share", ratio(engine_ns, run_ns), "ratio"),
        m("dma-api.calls", (calls / passes) as f64, "count"),
        m("dma-api.errors", errors as f64, "count"),
        m("iova.cache_hit_ratio", ratio(iova_hits, iova_all), "ratio"),
        m(
            "iova.lock_spin_cycles_per_item",
            ratio(sum(|p| p.layers.iova_lock_spin), items),
            "cycles",
        ),
        m(
            "flush.drains",
            sum(|p| p.layers.flush_drains) as f64,
            "count",
        ),
        m("pool.acquires", acquires as f64, "count"),
        m(
            "pool.fallback_ratio",
            ratio(sum(|p| p.layers.pool_fallbacks), acquires),
            "ratio",
        ),
        m(
            "pool.magazine_hit_ratio",
            ratio(sum(|p| p.layers.pool_magazine_hits), acquires),
            "ratio",
        ),
        m(
            "pool.peak_shadow_bytes",
            max(|p| p.layers.pool_peak_shadow_bytes) as f64,
            "bytes",
        ),
        m(
            "copy.memcpy_cycles_per_item",
            copy_phase(Phase::Memcpy),
            "cycles",
        ),
        m(
            "copy.copy_mgmt_cycles_per_item",
            copy_phase(Phase::CopyMgmt),
            "cycles",
        ),
        m(
            "iotlb.hit_ratio",
            ratio(
                sum(|p| p.layers.iotlb_hits),
                sum(|p| p.layers.iotlb_hits + p.layers.iotlb_misses),
            ),
            "ratio",
        ),
        m(
            "mmu.map_pages",
            sum(|p| p.layers.mmu_map_pages) as f64,
            "count",
        ),
        m("mmu.faults", sum(|p| p.layers.mmu_faults) as f64, "count"),
        m(
            "invalq.page_commands",
            sum(|p| p.layers.invalq_page_commands) as f64,
            "count",
        ),
        m(
            "invalq.waits",
            sum(|p| p.layers.invalq_waits) as f64,
            "count",
        ),
        m(
            "invalq.lock_spin_cycles_per_item",
            ratio(sum(|p| p.layers.invalq_lock_spin), items),
            "cycles",
        ),
        m(
            "kmalloc.allocs",
            sum(|p| p.layers.kmalloc_allocs) as f64,
            "count",
        ),
        m(
            "mem.peak_frames",
            max(|p| p.layers.mem_peak_frames) as f64,
            "frames",
        ),
        m(
            "simcore.spinlock_cycles_per_item",
            ratio(spin, measured),
            "cycles",
        ),
        m(
            "simcore.copy_cpu_util",
            copy.map_or(f64::NAN, |r| r.cpu),
            "ratio",
        ),
        m(
            "dmasan.violations",
            sum(|p| p.layers.dmasan_violations) as f64,
            "count",
        ),
        m(
            "obs.trace_sampled_out",
            sum(|p| p.layers.trace_sampled_out) as f64,
            "count",
        ),
        m(
            "obs.trace_dropped",
            sum(|p| p.layers.trace_dropped) as f64,
            "count",
        ),
        m(
            "net.tx_frames_per_buffer",
            ratio(sum(|p| p.layers.tx_frames), sum(|p| p.layers.tx_buffers)),
            "ratio",
        ),
    ]
}

/// Renders where the traced passes' point spans went: netsim's self time
/// (point span minus engine calls) and the engine calls by method. The
/// second value is whether the rows add up to the point spans exactly.
fn self_time_table(w: &Workload, rec: &Recorder, passes: u64) -> (String, bool) {
    let run_ns = rec.root_ns("run");
    let items = (w.items_per_point() * w.engines.len() as u64 * passes).max(1);
    let mut rows: Vec<(String, &str, u64, u64)> = Vec::new();
    let mut engine_ns = 0;
    for method in METHODS {
        let st = rec.merged(method, None);
        if st.calls > 0 {
            engine_ns += st.total_ns;
            rows.push((method.to_string(), "dma-api", st.calls, st.total_ns));
        }
    }
    let self_ns = run_ns.saturating_sub(engine_ns);
    rows.insert(0, ("stack outside the engine".into(), "netsim", 0, self_ns));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self time over {passes} traced passes of {} ({} point spans, {:.1} ms)",
        w.name,
        passes * w.engines.len() as u64,
        run_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:>10} {:>11} {:>7} {:>9}",
        "layer", "span", "calls", "host ms", "share", "ns/item"
    );
    let mut total = 0;
    for (span, layer, calls, ns) in &rows {
        total += ns;
        let _ = writeln!(
            out,
            "{:<10} {:<26} {:>10} {:>11.2} {:>6.1}% {:>9.1}",
            layer,
            span,
            calls,
            *ns as f64 / 1e6,
            100.0 * ratio(*ns, run_ns),
            *ns as f64 / items as f64
        );
    }
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:>10} {:>11.2} {:>6.1}%",
        "total",
        "= point spans",
        "",
        total as f64 / 1e6,
        100.0 * ratio(total, run_ns)
    );
    let _ = writeln!(
        out,
        "outside point spans: setup {:.2} ms, teardown {:.2} ms; span log {} kept, {} aggregated only",
        rec.root_ns("setup") as f64 / 1e6,
        rec.root_ns("teardown") as f64 / 1e6,
        rec.spans().len(),
        rec.dropped()
    );
    (out, total == run_ns && engine_ns == rec.nested_ns("run"))
}
