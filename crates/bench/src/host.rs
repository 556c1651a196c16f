//! Host wall-clock perf harness (`cargo bench -p bench --bench host`).
//!
//! Every other bench target reports **simulated** numbers, which are
//! deterministic and never regress by accident. This one times how long
//! the *host* takes to grind through the paper's hot loops — the fig1
//! 16-core stream, the fig5 breakdown run, the fig4 64 KB TSO transmit
//! (the memsim byte path), and the map/unmap micro loops — and records the result as one JSON line in `BENCH_HOST.json`
//! at the workspace root (the perf trajectory: one entry per recorded
//! run, oldest first).
//!
//! Modes (arguments after `--`):
//!
//! - *(none)* — run the workloads and print a table.
//! - `--record <label>` — run, print, and append an entry to the
//!   trajectory.
//! - `--check <label>` — run, compare against the trajectory entry
//!   **pinned by that label**, and exit non-zero if any workload is more
//!   than [`REGRESSION_THRESHOLD`] slower (the `ci.sh` gate). A missing
//!   or ambiguous label fails loudly: comparing against "whatever entry
//!   happens to be last" would let any `--record` silently move the
//!   goalposts.
//!
//! Host time is inherently noisy; each workload is timed [`RUNS`] times
//! and the minimum reported, and the 25% gate plus multi-second
//! workloads keeps the signal well above scheduler jitter.

// lint: allow(ambient-io) — the perf-trajectory harness must read/write BENCH_HOST.json at the workspace root
// lint: allow(panic) — a harness aborts loudly on malformed trajectory files or unwritable output

use crate::figure_cfg;
use dma_api::DmaBuf;
use iommu::{DeviceId, IoPageTable, Iotlb, IovaPage, Perms, PtEntry};
use memsim::{NumaDomain, NumaTopology, Pfn, PhysMemory};
use netsim::{tcp_stream_rx, tcp_stream_tx, EngineKind};
use obs::Json;
use shadow_core::{PoolConfig, ShadowPool};
use simcore::{CoreCtx, CoreId, CostModel, Cycles};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Relative slowdown vs. the checked-in baseline that fails `--check`.
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// Trajectory file name, kept at the workspace root next to the other
/// `BENCH_*.json` artifacts.
pub const BASELINE_FILE: &str = "BENCH_HOST.json";

const DEV: DeviceId = DeviceId(0);

fn zero_ctx() -> CoreCtx {
    let mut c = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
    c.seek(Cycles(1));
    c
}

fn fig1_loop(cores: usize) {
    let cfg = figure_cfg(cores, 1500);
    for &k in EngineKind::ALL.iter() {
        std::hint::black_box(tcp_stream_rx(k, &cfg));
    }
}

fn fig5_loop() {
    let cfg = figure_cfg(1, 64 * 1024);
    for &k in EngineKind::FIGURE_SET.iter() {
        std::hint::black_box(tcp_stream_rx(k, &cfg));
    }
}

fn fig4_tx_loop() {
    let cfg = figure_cfg(1, 64 * 1024);
    for &k in EngineKind::FIGURE_SET.iter() {
        std::hint::black_box(tcp_stream_tx(k, &cfg));
    }
}

fn micro_pool_loop() {
    let mem = Arc::new(PhysMemory::new(NumaTopology::dual_socket_haswell()));
    let mmu = Arc::new(iommu::Iommu::new());
    let pool = ShadowPool::new(mem.clone(), mmu, DEV, PoolConfig::default());
    let pfn = mem.alloc_frames(NumaDomain(0), 1).expect("frame");
    let buf = DmaBuf::new(pfn.base(), 1500);
    let mut cx = zero_ctx();
    for _ in 0..200_000 {
        let iova = pool
            .acquire_shadow(&mut cx, buf, Perms::Write)
            .expect("acquire");
        pool.release_shadow(&mut cx, iova).expect("release");
    }
}

fn micro_iotlb_loop() {
    let mut tlb = Iotlb::default_hw();
    let e = PtEntry {
        pfn: Pfn(7),
        perms: Perms::ReadWrite,
    };
    for i in 0..1024u64 {
        tlb.insert(DEV, IovaPage(i), e);
    }
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        if tlb.lookup(DEV, IovaPage(i & 1023)).is_some() {
            acc += 1;
        }
        if i % 64 == 0 {
            tlb.insert(DEV, IovaPage(4096 + i), e);
        }
    }
    std::hint::black_box(acc);
}

fn micro_pagetable_loop() {
    let mut pt = IoPageTable::new();
    for i in 0..512u64 {
        pt.map(IovaPage(i << 12), Pfn(i), Perms::ReadWrite)
            .expect("map");
    }
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        let page = IovaPage((i & 511) << 12);
        if pt.translate(page).is_some() {
            acc += 1;
        }
        if i % 32 == 0 {
            let p = IovaPage(0x9_0000_0000 + i);
            pt.map(p, Pfn(1), Perms::Read).expect("map");
            pt.unmap(p).expect("unmap");
        }
    }
    std::hint::black_box(acc);
}

fn micro_obs_loop() {
    // Profiler self-overhead: a task root with nested scopes and phase
    // charges per iteration, everything the hot paths do per packet. The
    // trajectory gate keeps the instrumentation from quietly getting
    // slower.
    use obs::profile;
    use simcore::Phase;
    let o = obs::Obs::isolated();
    o.profiler().set_enabled(true);
    let mut cx = zero_ctx();
    for i in 0..200_000u64 {
        profile::task_scope(&o, &mut cx, "bench", Some(0), "task", |cx| {
            profile::scope(cx, "map", |cx| {
                cx.charge(Phase::CopyMgmt, Cycles(10));
                profile::scope(cx, "inner", |cx| {
                    cx.charge(Phase::Memcpy, Cycles(i & 7));
                });
            });
            profile::scope(cx, "unmap", |cx| {
                cx.charge(Phase::Other, Cycles(5));
            });
        });
    }
    std::hint::black_box(o.profiler().snapshot());
}

fn micro_sched_loop() {
    // Scheduler-only churn: tasks do nothing but charge pseudo-random
    // increments, so wall-clock is dominated by timing-wheel push/pop —
    // once at the figure population (16 cores), once at the scaling-sweep
    // ceiling (256 cores), where the old `BinaryHeap` paid log(n) per
    // reschedule.
    use simcore::{CoreTask, MultiCoreSim, Phase, StepOutcome};
    for &(cores, steps_per_core) in &[(16usize, 60_000u64), (256, 4_000)] {
        let mut sim = MultiCoreSim::new(Arc::new(CostModel::zero()), cores);
        let mut tasks: Vec<Box<dyn CoreTask>> = (0..cores)
            .map(|i| {
                let mut remaining = steps_per_core;
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ ((i as u64) << 32);
                Box::new(move |ctx: &mut CoreCtx| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    // Mixed near/far deltas exercise same-slot pushes,
                    // level cascades, and the overflow heap.
                    ctx.charge(Phase::Other, Cycles(1 + (seed % 700)));
                    remaining -= 1;
                    if remaining == 0 {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Continue
                    }
                }) as Box<dyn CoreTask>
            })
            .collect();
        std::hint::black_box(sim.run(&mut tasks, Cycles::MAX));
    }
}

/// The harness workloads, in reporting order. `fig1_16core` is the
/// headline number the perf trajectory tracks.
pub fn workloads() -> Vec<(&'static str, fn())> {
    vec![
        ("fig1_16core", (|| fig1_loop(16)) as fn()),
        ("fig1_1core", || fig1_loop(1)),
        ("fig5_rx", fig5_loop),
        ("fig4_tx", fig4_tx_loop),
        ("micro_pool", micro_pool_loop),
        ("micro_iotlb", micro_iotlb_loop),
        ("micro_pagetable", micro_pagetable_loop),
        ("micro_obs", micro_obs_loop),
        ("micro_sched", micro_sched_loop),
    ]
}

/// Repetitions per workload; the minimum is reported. Host wall-clock is
/// one-sided noise (scheduler preemption only ever adds time), so the
/// fastest of a few runs is the most reproducible statistic.
pub const RUNS: usize = 3;

/// Runs every workload [`RUNS`] times, returning `(name, best host
/// milliseconds)` rows.
pub fn measure_all() -> Vec<(String, f64)> {
    workloads()
        .into_iter()
        .map(|(name, f)| {
            let mut best = f64::INFINITY;
            for _ in 0..RUNS {
                let start = Instant::now();
                f();
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
            }
            println!("{name:<18} {best:>10.1} ms");
            (name.to_string(), best)
        })
        .collect()
}

/// One trajectory entry as a JSON-lines object (schema follows the
/// `BENCH_*.json` convention of a `type` discriminator per line).
pub fn entry_json(label: &str, results: &[(String, f64)]) -> Json {
    let ms = results
        .iter()
        .map(|(k, v)| (k.clone(), Json::Float((*v * 10.0).round() / 10.0)))
        .collect();
    Json::Obj(vec![
        ("type".into(), Json::Str("host-bench".into())),
        ("label".into(), Json::Str(label.into())),
        ("ms".into(), Json::Obj(ms)),
    ])
}

/// Parses a trajectory file's JSON lines, oldest first.
pub fn parse_trajectory(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect()
}

/// Workloads in `current` that regressed more than `threshold` vs. the
/// baseline entry's `ms` object. Workloads absent from the baseline are
/// ignored (they are new).
pub fn regressions(current: &[(String, f64)], baseline: &Json, threshold: f64) -> Vec<String> {
    let mut out = Vec::new();
    let Some(Json::Obj(base_ms)) = baseline.get("ms") else {
        return vec!["baseline entry has no `ms` object".into()];
    };
    for (name, now) in current {
        let base = base_ms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| match v {
                Json::Float(f) => *f,
                Json::UInt(u) => *u as f64,
                Json::Int(i) => *i as f64,
                _ => f64::NAN,
            });
        if let Some(base) = base {
            if base.is_finite() && base > 0.0 && *now > base * (1.0 + threshold) {
                out.push(format!(
                    "{name}: {now:.1} ms vs baseline {base:.1} ms (+{:.0}%, limit +{:.0}%)",
                    (now / base - 1.0) * 100.0,
                    threshold * 100.0
                ));
            }
        }
    }
    out
}

fn ms_of(entry: &Json, workload: &str) -> Option<f64> {
    let Some(Json::Obj(ms)) = entry.get("ms") else {
        return None;
    };
    ms.iter()
        .find(|(k, _)| k == workload)
        .map(|(_, v)| match v {
            Json::Float(f) => *f,
            Json::UInt(u) => *u as f64,
            Json::Int(i) => *i as f64,
            _ => f64::NAN,
        })
}

/// Renders the perf-trajectory trend: one line per workload walking the
/// labeled entries oldest→newest with the per-step delta, and a flag on
/// every workload whose latest entry is slower than its historical best
/// (the improvement trajectory went backwards and nobody re-recorded a
/// faster baseline).
pub fn trend_report(trajectory: &[Json]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "host-bench trend ({} entries)", trajectory.len());
    // Workload names in first-seen order across all entries.
    let mut names: Vec<String> = Vec::new();
    for e in trajectory {
        if let Some(Json::Obj(ms)) = e.get("ms") {
            for (k, _) in ms {
                if !names.contains(k) {
                    names.push(k.clone());
                }
            }
        }
    }
    let mut flagged = Vec::new();
    for name in &names {
        let mut line = format!("{name:<16}");
        let mut prev: Option<f64> = None;
        let mut best: Option<(f64, &str)> = None;
        let mut latest: Option<f64> = None;
        for e in trajectory {
            let label = e.get("label").and_then(Json::as_str).unwrap_or("?");
            let Some(v) = ms_of(e, name) else { continue };
            match prev {
                None => {
                    let _ = write!(line, " {v:.1} [{label}]");
                }
                Some(p) => {
                    let _ = write!(
                        line,
                        " -> {v:.1} ({:+.1}%) [{label}]",
                        (v / p - 1.0) * 100.0
                    );
                }
            }
            prev = Some(v);
            latest = Some(v);
            if best.is_none_or(|(b, _)| v < b) {
                best = Some((v, label));
            }
        }
        let _ = writeln!(out, "{line}");
        if let (Some((b, blabel)), Some(l)) = (best, latest) {
            if l > b {
                flagged.push(format!(
                    "  {name}: latest {l:.1} ms is +{:.1}% over its best \
                     {b:.1} ms [{blabel}]",
                    (l / b - 1.0) * 100.0
                ));
            }
        }
    }
    if flagged.is_empty() {
        let _ = writeln!(out, "no workload is slower than its historical best");
    } else {
        let _ = writeln!(out, "regressed since best:");
        for f in flagged {
            let _ = writeln!(out, "{f}");
        }
    }
    out
}

/// The unique trajectory entry labeled `label`. The check gate pins its
/// baseline by label so appending new entries (`--record`) can never
/// silently change what `--check` compares against.
pub fn find_baseline<'a>(trajectory: &'a [Json], label: &str) -> Result<&'a Json, String> {
    let hits: Vec<&Json> = trajectory
        .iter()
        .filter(|e| e.get("label").and_then(Json::as_str) == Some(label))
        .collect();
    match hits.len() {
        0 => {
            let known: Vec<&str> = trajectory
                .iter()
                .filter_map(|e| e.get("label").and_then(Json::as_str))
                .collect();
            Err(format!(
                "no trajectory entry labeled '{label}' (recorded labels: {})",
                if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                }
            ))
        }
        1 => Ok(hits[0]),
        n => Err(format!(
            "{n} trajectory entries labeled '{label}'; labels must be \
             unique to pin a baseline — re-record under a fresh label"
        )),
    }
}

/// Workspace-root path of the trajectory file.
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../".to_string() + BASELINE_FILE)
}

/// Entry point for the `host` bench target. Returns the process exit
/// code. Unrecognized arguments (e.g. cargo's own `--bench`) are
/// ignored.
pub fn run(args: &[String]) -> i32 {
    let record_label = args
        .iter()
        .position(|a| a == "--record")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // `--check` requires the baseline label to pin against; reject the
    // bare form before spending minutes measuring.
    let check_label = match args.iter().position(|a| a == "--check") {
        Some(i) => match args.get(i + 1).filter(|a| !a.starts_with("--")) {
            Some(l) => Some(l.clone()),
            None => {
                eprintln!(
                    "--check requires a baseline label, e.g. \
                     `--check post-percore`; see {BASELINE_FILE} for \
                     recorded labels"
                );
                return 1;
            }
        },
        None => None,
    };
    let path = baseline_path();

    // `--trend <out-path>` renders the trajectory report without running
    // any workload — it only reads BENCH_HOST.json, so CI can produce the
    // artifact cheaply before the measuring gate.
    if let Some(i) = args.iter().position(|a| a == "--trend") {
        let Some(out_path) = args.get(i + 1).filter(|a| !a.starts_with("--")) else {
            eprintln!("--trend requires an output path, e.g. `--trend target/bench_trend.txt`");
            return 1;
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("no {BASELINE_FILE} at {} ({e})", path.display());
                return 1;
            }
        };
        let trajectory = match parse_trajectory(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("malformed {BASELINE_FILE}: {e}");
                return 1;
            }
        };
        let report = trend_report(&trajectory);
        print!("{report}");
        // Cargo runs bench binaries from the package dir, so anchor a
        // relative out-path at the workspace root (like BENCH_HOST.json).
        let out = if Path::new(out_path).is_absolute() {
            PathBuf::from(out_path)
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(out_path)
        };
        if let Err(e) = std::fs::write(&out, &report) {
            eprintln!("failed to write {}: {e}", out.display());
            return 1;
        }
        println!("trend report written to {out_path}");
        return 0;
    }

    println!("host-time harness ({} workloads)", workloads().len());
    let results = measure_all();

    if let Some(label) = record_label {
        let line = entry_json(&label, &results).encode();
        let mut text = std::fs::read_to_string(&path).unwrap_or_default();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&line);
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {}: {e}", path.display());
            return 1;
        }
        println!("recorded entry '{label}' in {}", path.display());
    }

    if let Some(label) = check_label {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "no {BASELINE_FILE} baseline at {} ({e}); record one with \
                     `cargo bench -p bench --bench host -- --record <label>`",
                    path.display()
                );
                return 1;
            }
        };
        let trajectory = match parse_trajectory(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("malformed {BASELINE_FILE}: {e}");
                return 1;
            }
        };
        let baseline = match find_baseline(&trajectory, &label) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{BASELINE_FILE}: {e}");
                return 1;
            }
        };
        let bad = regressions(&results, baseline, REGRESSION_THRESHOLD);
        if bad.is_empty() {
            println!(
                "within {:.0}% of baseline '{label}'",
                REGRESSION_THRESHOLD * 100.0
            );
        } else {
            eprintln!("host-time regression vs baseline '{label}':");
            for b in &bad {
                eprintln!("  {b}");
            }
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn entry_roundtrips_through_json_lines() {
        let e = entry_json(
            "pre",
            &res(&[("fig1_16core", 1234.56), ("micro_pool", 7.0)]),
        );
        let text = format!("{}\n{}\n", e.encode(), e.encode());
        let t = parse_trajectory(&text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].get("label").unwrap().as_str(), Some("pre"));
        assert_eq!(
            t[1].get("ms").unwrap().get("fig1_16core"),
            Some(&Json::Float(1234.6)),
            "milliseconds rounded to one decimal"
        );
    }

    #[test]
    fn regression_gate_math() {
        let base = entry_json("base", &res(&[("a", 100.0), ("b", 100.0)]));
        // Under the limit: pass.
        assert!(regressions(&res(&[("a", 120.0), ("b", 90.0)]), &base, 0.25).is_empty());
        // 30% slower on `a`: fail, naming the workload.
        let bad = regressions(&res(&[("a", 130.0), ("b", 100.0)]), &base, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("a:"), "{bad:?}");
        // Workloads unknown to the baseline are ignored.
        assert!(regressions(&res(&[("new", 9e9)]), &base, 0.25).is_empty());
    }

    #[test]
    fn malformed_baseline_is_reported() {
        let no_ms = Json::Obj(vec![("label".into(), Json::Str("x".into()))]);
        assert_eq!(regressions(&res(&[("a", 1.0)]), &no_ms, 0.25).len(), 1);
    }

    #[test]
    fn check_pins_its_baseline_by_label() {
        let t = vec![
            entry_json("pre", &res(&[("a", 100.0)])),
            entry_json("post", &res(&[("a", 50.0)])),
        ];
        // The pinned entry is found regardless of trajectory position —
        // appending newer entries cannot move the goalposts.
        let b = find_baseline(&t, "pre").unwrap();
        assert_eq!(b.get("ms").unwrap().get("a"), Some(&Json::Float(100.0)));
        let b = find_baseline(&t, "post").unwrap();
        assert_eq!(b.get("ms").unwrap().get("a"), Some(&Json::Float(50.0)));
    }

    #[test]
    fn missing_baseline_label_fails_loudly() {
        let t = vec![entry_json("pre", &res(&[("a", 1.0)]))];
        let e = find_baseline(&t, "nope").unwrap_err();
        assert!(e.contains("nope") && e.contains("pre"), "{e}");
        let e = find_baseline(&[], "nope").unwrap_err();
        assert!(e.contains("none"), "{e}");
    }

    #[test]
    fn ambiguous_baseline_label_fails_loudly() {
        let t = vec![
            entry_json("dup", &res(&[("a", 1.0)])),
            entry_json("dup", &res(&[("a", 2.0)])),
        ];
        let e = find_baseline(&t, "dup").unwrap_err();
        assert!(e.contains("2") && e.contains("unique"), "{e}");
    }

    #[test]
    fn trend_walks_labels_and_flags_regressions_since_best() {
        let t = vec![
            entry_json("pre", &res(&[("a", 100.0), ("b", 10.0)])),
            entry_json("mid", &res(&[("a", 50.0), ("b", 12.0)])),
            entry_json("now", &res(&[("a", 60.0), ("b", 9.0)])),
        ];
        let r = trend_report(&t);
        // Walks oldest→newest with per-step deltas.
        assert!(r.contains("100.0 [pre]"), "{r}");
        assert!(r.contains("-> 50.0 (-50.0%) [mid]"), "{r}");
        assert!(r.contains("-> 60.0 (+20.0%) [now]"), "{r}");
        // `a` is above its best (50.0 at mid) — flagged; `b` is at its
        // best — not flagged.
        assert!(r.contains("regressed since best"), "{r}");
        assert!(
            r.contains("a: latest 60.0 ms is +20.0% over its best 50.0 ms [mid]"),
            "{r}"
        );
        assert!(!r.contains("b: latest"), "{r}");
    }

    #[test]
    fn trend_with_monotone_improvement_has_no_flags() {
        let t = vec![
            entry_json("pre", &res(&[("a", 100.0)])),
            entry_json("now", &res(&[("a", 80.0)])),
        ];
        let r = trend_report(&t);
        assert!(
            r.contains("no workload is slower than its historical best"),
            "{r}"
        );
    }

    #[test]
    fn trend_handles_workloads_added_mid_history() {
        // `micro_obs` first appears at post-profiler; its line must start
        // at that entry rather than misaligning deltas.
        let t = vec![
            entry_json("pre", &res(&[("a", 100.0)])),
            entry_json("now", &res(&[("a", 90.0), ("new", 5.0)])),
        ];
        let r = trend_report(&t);
        assert!(r.contains("new") && r.contains("5.0 [now]"), "{r}");
    }
}
