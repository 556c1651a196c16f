//! The timing wrapper must be invisible to the simulation.
//!
//! For every engine, with `percore` both off and on, a stack whose engine
//! is wrapped in `TimedEngine` and an unwrapped one must produce
//! bit-identical experiment results and registry snapshots — and the
//! wrapper must forward all thirteen `DmaEngine` methods, including the
//! ones with default bodies (a default would silently change the
//! simulation, e.g. skip the sanitizer's sync hooks).

use dma_api::{DmaBuf, DmaDirection};
use memsim::NumaDomain;
use netsim::{tcp_stream_rx_on, tcp_stream_tx_on, EngineKind, ExpConfig, ExpResult, SimStack};
use obs::RegistrySnapshot;
use perfbench::point::{same_result, same_snapshot};
use perfbench::timed::{Recorder, SharedRecorder, Span, TimedEngine, METHODS};
use simcore::{CoreCtx, CoreId, Cycles};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Table 1's engines plus the self-invalidating-hardware ablation.
fn engines() -> Vec<EngineKind> {
    let mut v = EngineKind::ALL.to_vec();
    v.push(EngineKind::SelfInvalHw);
    v
}

fn cfg(percore: bool, sg_frags: usize) -> ExpConfig {
    ExpConfig {
        cores: 4,
        msg_size: 16 * 1024,
        items_per_core: 60,
        warmup_per_core: 10,
        tx_sg_frags: sg_frags,
        percore,
        ..ExpConfig::quick()
    }
}

fn recorder() -> SharedRecorder {
    Arc::new(Mutex::new(Recorder::new(1 << 12)))
}

#[derive(Clone, Copy, Debug)]
enum Path {
    Rx,
    Tx,
    TxScatterGather,
}

type StreamOutcome = (ExpResult, RegistrySnapshot, Option<simcore::LockStats>);

/// Runs one stream; a panic (netsim's payload check) is returned as
/// its message.
fn stream(
    kind: EngineKind,
    percore: bool,
    path: Path,
    rec: Option<&SharedRecorder>,
) -> Result<StreamOutcome, String> {
    let cfg = cfg(
        percore,
        if matches!(path, Path::TxScatterGather) {
            3
        } else {
            1
        },
    );
    let mut stack = SimStack::new(kind, &cfg);
    if let Some(rec) = rec {
        TimedEngine::install(&mut stack, rec.clone());
        rec.lock().unwrap().open("run", kind.name(), 0);
    }
    let r = catch_unwind(AssertUnwindSafe(|| match path {
        Path::Rx => tcp_stream_rx_on(&stack, &cfg),
        Path::Tx | Path::TxScatterGather => tcp_stream_tx_on(&stack, &cfg),
    }));
    if let Some(rec) = rec {
        rec.lock().unwrap().close();
    }
    let r = r.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })?;
    let lock = stack.engine.iova_lock_stats().map(|(_, s)| s);
    Ok((r, stack.obs.registry().snapshot(), lock))
}

/// Where the program itself fails (at the time of writing, the
/// scatter/gather transmit path with `percore` on corrupts payloads on
/// eiovar+ and strict), the wrapped stack must fail the same way.
#[test]
fn wrapped_streams_are_bit_identical_for_every_engine() {
    for kind in engines() {
        for percore in [false, true] {
            for path in [Path::Rx, Path::Tx, Path::TxScatterGather] {
                let rec = recorder();
                let what = format!("{kind} percore={percore} {path:?}");
                let ((a, sa, la), (b, sb, lb)) = match (
                    stream(kind, percore, path, None),
                    stream(kind, percore, path, Some(&rec)),
                ) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{what}: the runs failed differently");
                        eprintln!("{what}: fails with and without the wrapper: {a}");
                        continue;
                    }
                    (a, b) => panic!("{what}: unwrapped {:?}, wrapped {:?}", a.err(), b.err()),
                };
                assert!(same_result(&a, &b), "{what}: results differ\n{a:?}\n{b:?}");
                assert!(same_snapshot(&sa, &sb), "{what}: registry snapshots differ");
                assert_eq!(la, lb, "{what}: IOVA lock stats differ");
                let rec = rec.lock().unwrap();
                let (maps, unmaps) = match path {
                    Path::TxScatterGather => ("map_sg", "unmap_sg"),
                    _ => ("map", "unmap"),
                };
                assert!(rec.merged(maps, None).calls > 0, "{what}: no {maps} timed");
                assert!(
                    rec.merged(unmaps, None).calls > 0,
                    "{what}: no {unmaps} timed"
                );
                assert!(
                    rec.merged("flush_deferred", None).calls > 0,
                    "{what}: flush_deferred not timed"
                );
            }
        }
    }
}

/// Drives every `DmaEngine` method once, in a protocol-correct order, and
/// returns what the stack recorded.
fn every_method(
    kind: EngineKind,
    percore: bool,
    rec: Option<&SharedRecorder>,
) -> (RegistrySnapshot, usize, u64, String) {
    let cfg = cfg(percore, 1);
    let mut stack = SimStack::new(kind, &cfg);
    if let Some(rec) = rec {
        TimedEngine::install(&mut stack, rec.clone());
        rec.lock().unwrap().open("run", kind.name(), 0);
    }
    let mut ctx = CoreCtx::new(CoreId(0), stack.cost.clone());
    ctx.seek(Cycles(1));
    let eng = &stack.engine;
    let ident = format!(
        "{} {:?} {:?} {:?}",
        eng.name(),
        eng.device(),
        eng.profile(),
        eng.iova_lock_stats()
    );
    let skb = |len| stack.kmalloc.alloc(len, NumaDomain(0)).unwrap();

    let rx = skb(1500);
    let m = eng
        .map(&mut ctx, DmaBuf::new(rx, 1500), DmaDirection::FromDevice)
        .unwrap();
    eng.sync_for_cpu(&mut ctx, &m);
    eng.sync_for_device(&mut ctx, &m);
    eng.unmap(&mut ctx, m).unwrap();

    let frags: Vec<DmaBuf> = (0..3).map(|_| DmaBuf::new(skb(600), 600)).collect();
    let ms = eng
        .map_sg(&mut ctx, &frags, DmaDirection::ToDevice)
        .unwrap();
    eng.unmap_sg(&mut ctx, ms).unwrap();

    let ring = eng.alloc_coherent(&mut ctx, 4096).unwrap();
    eng.free_coherent(&mut ctx, ring).unwrap();
    eng.flush_deferred(&mut ctx);
    if let Some(rec) = rec {
        rec.lock().unwrap().close();
    }
    stack.teardown(&mut ctx);
    let leaks = stack.san.check_teardown();
    (
        stack.obs.registry().snapshot(),
        leaks,
        stack.san.violation_count(),
        ident,
    )
}

#[test]
fn wrapper_forwards_all_thirteen_methods() {
    for kind in engines() {
        for percore in [false, true] {
            let rec = recorder();
            let (sa, leaks_a, viol_a, id_a) = every_method(kind, percore, None);
            let (sb, leaks_b, viol_b, id_b) = every_method(kind, percore, Some(&rec));
            let what = format!("{kind} percore={percore}");
            assert!(same_snapshot(&sa, &sb), "{what}: registry snapshots differ");
            assert_eq!((leaks_a, viol_a), (0, 0), "{what}: unwrapped run not clean");
            assert_eq!((leaks_b, viol_b), (0, 0), "{what}: wrapped run not clean");
            assert_eq!(id_a, id_b, "{what}: identity methods differ");
            let rec = rec.lock().unwrap();
            for m in METHODS {
                assert!(
                    rec.merged(m, Some(kind.name())).calls >= 1,
                    "{what}: `{m}` was not forwarded through the timer"
                );
            }
        }
    }
}

#[test]
fn spans_nest_under_their_point() {
    let rec = recorder();
    stream(EngineKind::Copy, false, Path::Rx, Some(&rec)).expect("copy RX runs");
    let rec = rec.lock().unwrap();
    let spans = rec.spans();
    assert_eq!(spans[0].name, "run");
    // Everything the run called nests in the run span; the one call after
    // it (reading the IOVA lock stats) has no parent.
    let (inside, outside): (Vec<&Span>, Vec<&Span>) =
        spans[1..].iter().partition(|s| s.parent.is_some());
    assert!(!inside.is_empty());
    for s in &inside {
        assert_eq!(s.parent, Some(0), "{s:?}");
        assert!(
            s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns,
            "{s:?}"
        );
    }
    assert_eq!(
        outside.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["iova_lock_stats"]
    );
    let nested: u64 = inside.iter().map(|s| s.ns()).sum();
    assert_eq!(rec.dropped(), 0);
    assert_eq!(nested, rec.nested_ns("run"));
    assert!(rec.nested_ns("run") <= rec.root_ns("run"));
    assert_eq!(rec.to_json_lines().lines().count(), spans.len());
}
