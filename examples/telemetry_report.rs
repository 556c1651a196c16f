//! Telemetry walk-through: runs netperf-style workloads with the whole
//! stack reporting into one shared [`obs::Obs`] handle, then emits
//!
//! 1. the paper's Figure 5 per-phase packet-time breakdown, summed over
//!    both runs (all 8 phase categories),
//! 2. the metric table (`subsystem.name{device}` rows), and
//! 3. a JSON-lines trajectory file (`BENCH_*.json` schema) in which every
//!    `DmaMap` has a matching `DmaUnmap` and every blocked probe from a
//!    malicious device appears as an `AttackBlocked` event — both
//!    properties are re-verified here by parsing the file back, and
//! 4. the virtual-time profile tree (the Figure 5 breakdown refined into
//!    per-scope self/total time), whose depth-1 cut must agree with the
//!    runs' breakdown cycle-for-cycle.
//!
//! Run with: `cargo run --release --example telemetry_report`

use dma_shadowing::devices::MaliciousDevice;
use dma_shadowing::dma_api::Bus;
use dma_shadowing::iommu::DeviceId;
use dma_shadowing::netsim::{
    tcp_stream_rx_on, EngineKind, ExpConfig, ExpResult, SimStack, NIC_DEV,
};
use dma_shadowing::obs::json::Json;
use dma_shadowing::obs::sink::{event_from_json, export_jsonl, parse_jsonl, render_table};
use dma_shadowing::obs::trace::EventKind;
use dma_shadowing::obs::Obs;
use dma_shadowing::simcore::Phase;
use std::collections::HashMap;

/// The rogue peripheral's requester id (distinct from the NIC's).
const EVIL_DEV: DeviceId = DeviceId(13);

fn run_workload(kind: EngineKind, obs: &Obs, cfg: &ExpConfig) -> (ExpResult, SimStack) {
    let stack = SimStack::with_obs(kind, cfg, obs.clone());
    let result = tcp_stream_rx_on(&stack, cfg);
    (result, stack)
}

fn main() {
    // One telemetry handle for everything; a large trace ring so the full
    // run fits without wraparound.
    let obs = Obs::with_trace_capacity(1 << 20);
    obs.profiler().set_enabled(true);
    let cfg = ExpConfig {
        cores: 4,
        msg_size: 64 * 1024,
        items_per_core: 400,
        warmup_per_core: 50,
        // This report parses the full trajectory back out of the trace
        // ring, so chain sampling must be off.
        trace_sample: 1,
        ..ExpConfig::default()
    };

    // The Figure 5 comparison set: copy exercises CopyMgmt/Memcpy, the
    // strict zero-copy engine exercises InvalidateIotlb/IommuPageTableMgmt
    // and (multi-core) Spinlock; both exercise RxParsing/CopyUser/Other.
    println!(
        "running tcp_stream_rx: copy ({} cores, {} B messages)...",
        cfg.cores, cfg.msg_size
    );
    let (copy_result, mut copy_stack) = run_workload(EngineKind::Copy, &obs, &cfg);
    println!("running tcp_stream_rx: identity+ (same config)...");
    let (idp_result, mut idp_stack) = run_workload(EngineKind::IdentityPlus, &obs, &cfg);

    // A malicious peripheral probes the copy stack's address space; the
    // IOMMU blocks everything unmapped and traces each blocked DMA.
    let evil = MaliciousDevice::new(
        EVIL_DEV,
        Bus::Iommu {
            mmu: copy_stack.mmu.clone(),
            mem: copy_stack.mem.clone(),
        },
    );
    let scan = evil.scan(0, 64 * 4096, 4096);
    assert!(
        !scan.any_accessible(),
        "the rogue device must see nothing through its own (empty) domain"
    );

    // Tear both stacks down like a driver `remove()` — every RX/TX
    // descriptor ring is explicitly `dma_free_coherent`d — then let the
    // sanitizer audit the whole run: zero leaked mappings, zero
    // violations.
    use dma_shadowing::simcore::{CoreCtx, CoreId};
    let mut ctx = CoreCtx::new(CoreId(0), copy_stack.cost.clone());
    copy_stack.teardown(&mut ctx);
    idp_stack.teardown(&mut ctx);
    for stack in [&copy_stack, &idp_stack] {
        assert_eq!(
            stack.san.check_teardown(),
            0,
            "{}: rings or mappings leaked at teardown",
            stack.kind
        );
        assert_eq!(
            stack.san.violation_count(),
            0,
            "{}: sanitizer violations during the run: {:?}",
            stack.kind,
            stack.san.violations()
        );
    }
    println!("dmasan: teardown clean on both stacks (0 leaks, 0 violations)");

    // ---- (1) Figure 5: per-phase breakdown over both runs ----
    let merged = copy_result.phases + idp_result.phases;
    let total = merged.total();
    println!("\n=== Figure 5 phase breakdown (copy + identity+, cycles) ===");
    for p in Phase::ALL {
        let c = merged.get(p);
        println!(
            "  {:<22} {:>14}  {:>5.1}%",
            p.label(),
            c.get(),
            100.0 * c.get() as f64 / total.get().max(1) as f64
        );
        assert!(
            c.get() > 0,
            "phase '{}' missing from the merged breakdown",
            p.label()
        );
    }
    println!(
        "\n  copy:      {:>6.2} Gb/s at {:>4.1}% cpu",
        copy_result.gbps,
        copy_result.cpu * 100.0
    );
    println!(
        "  identity+: {:>6.2} Gb/s at {:>4.1}% cpu",
        idp_result.gbps,
        idp_result.cpu * 100.0
    );

    // ---- (2) metric table ----
    let snap = obs.registry().snapshot();
    let trace_stats = obs.tracer().stats();
    println!("\n=== registry ===");
    print!("{}", render_table(&snap, Some(&trace_stats)));

    // ---- (3) JSON-lines trajectory ----
    let events = obs.tracer().events();
    assert_eq!(obs.tracer().dropped(), 0, "trace ring must not wrap");
    let doc = export_jsonl(
        &[
            ("workload", Json::Str("tcp_stream_rx".into())),
            ("engines", Json::Str("copy,identity+".into())),
            ("cores", Json::UInt(cfg.cores as u64)),
            ("msg_size", Json::UInt(cfg.msg_size as u64)),
        ],
        &snap,
        &events,
        &trace_stats,
    );
    let path = std::path::Path::new("target").join("telemetry_report.jsonl");
    std::fs::create_dir_all("target").expect("mkdir target");
    std::fs::write(&path, &doc).expect("write jsonl");

    // Re-verify the acceptance properties from the file itself.
    let lines = parse_jsonl(&doc).expect("jsonl parses");
    let parsed: Vec<_> = lines
        .iter()
        .filter(|l| l.get("type").and_then(Json::as_str) == Some("event"))
        .map(|l| event_from_json(l).expect("event decodes"))
        .collect();
    assert_eq!(parsed.len(), events.len(), "all events exported");

    let mut maps: HashMap<(Option<u16>, u64), i64> = HashMap::new();
    let mut blocked = 0u64;
    let (mut n_maps, mut n_unmaps) = (0u64, 0u64);
    for e in &parsed {
        match &e.kind {
            EventKind::DmaMap { iova, .. } => {
                n_maps += 1;
                *maps.entry((e.device, *iova)).or_insert(0) += 1;
            }
            EventKind::DmaUnmap { iova, .. } => {
                n_unmaps += 1;
                *maps.entry((e.device, *iova)).or_insert(0) -= 1;
            }
            EventKind::AttackBlocked { .. } => blocked += 1,
            _ => {}
        }
    }
    assert_eq!(n_maps, n_unmaps, "every DmaMap has a matching DmaUnmap");
    assert!(
        maps.values().all(|&v| v == 0),
        "map/unmap balance holds per (device, iova)"
    );
    assert_eq!(
        blocked, scan.blocked,
        "every blocked malicious access appears as AttackBlocked"
    );

    println!("\n=== trajectory ===");
    println!("  {} events -> {}", parsed.len(), path.display());
    println!(
        "  {n_maps} DmaMap / {n_unmaps} DmaUnmap (balanced), {blocked} AttackBlocked (all {} probes blocked)",
        scan.blocked
    );

    // ---- (4) profile tree: Figure 5 refined into per-scope time ----
    let prof = obs.profiler().snapshot();
    assert!(!prof.is_empty(), "the profiler was enabled for both runs");
    println!("\n=== profile tree (virtual time) ===");
    print!("{}", prof.render(cfg.cost.clock_ghz));
    // The depth-1 cut of the tree IS the runs' breakdown: same cycles,
    // same phases, just attributed to scopes.
    let cut = prof.breakdown_cut(Some(NIC_DEV.0));
    for p in Phase::ALL {
        assert_eq!(
            cut.get(p),
            merged.get(p),
            "profile depth-1 cut disagrees with the runs' breakdown on '{}'",
            p.label()
        );
    }
    println!("\n  profile depth-1 cut == runs' breakdown (all 8 phases)");
}
