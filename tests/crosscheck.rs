//! Static ↔ dynamic crosscheck: each DMA-API protocol bug class is
//! replayed here as the equivalent runtime event sequence against the DMA
//! sanitizer, pinning which checker catches it before run time:
//!
//! | bug class            | caught statically by                   | dmasan rule    |
//! |----------------------|----------------------------------------|----------------|
//! | use-after-unmap      | the compiler (E0382, move-only handle) | `stale_access` |
//! | double-unmap         | the compiler (E0382, move-only handle) | `double_unmap` |
//! | leak-on-exit         | lint `leak-on-exit`                    | `leak`         |
//! | sync-before-cpu-read | lint `sync-before-cpu-read`            | *(none)*       |
//! | device taint         | lint `device-taint`                    | *(none)*       |
//!
//! The compile-time rows are pinned by the `compile_fail` doctests on
//! `dma_api::DmaMapping` and `CoherentBuffer`; the lint rows by the planted
//! fixture in `tests/fixtures/lint-bad/crates/badcrate/src/`, whose static
//! counts must equal the replayed runtime counts below. The last rows are
//! the documented precision gaps (the paper's §5.2 `StaleAccess`
//! discussion applies in reverse): the sanitizer observes device-side bus
//! accesses, so a *CPU* read of an un-synced streaming buffer — or a
//! tainted length steering CPU-side indexing — is invisible at runtime;
//! only the static checker sees those. In the other direction, the lint
//! stops tracking a handle at its first move (into a helper, a
//! collection, a closure), so a leak behind a move is covered only by
//! dmasan's teardown check.

use dma_shadowing::dma_api::{BusObserver, DmaDirection, DmaMapping, DmaObserver};
use dma_shadowing::dmasan::{DmaSan, ViolationKind};
use dma_shadowing::iommu::{DeviceId, Iova};
use dma_shadowing::lint::{lint_workspace, LintViolation};
use dma_shadowing::memsim::PhysAddr;
use dma_shadowing::obs::Obs;
use dma_shadowing::simcore::{CoreCtx, CoreId, CostModel};
use std::path::Path;
use std::sync::Arc;

const DEV: DeviceId = DeviceId(0);

fn ctx() -> CoreCtx {
    CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()))
}

fn san() -> (DmaSan, CoreCtx) {
    // Lenient so the crosscheck also runs under `--features dmasan-strict`
    // (the violations here are the point, not a test failure).
    (DmaSan::lenient(Obs::isolated()), ctx())
}

fn mapping(iova: u64, len: usize, dir: DmaDirection, os_pa: u64) -> DmaMapping {
    DmaMapping {
        iova: Iova::new(iova),
        len,
        dir,
        os_pa: PhysAddr(os_pa),
    }
}

/// The static findings from the planted fixture, by lint rule.
fn static_count(rule: &str) -> usize {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint-bad");
    let violations: Vec<LintViolation> = lint_workspace(&fixture).expect("scan fixture");
    violations.iter().filter(|v| v.rule == rule).count()
}

/// Use after unmap: the driver keeps the IOVA after `dma_unmap` and the
/// device uses it. Reading the field off the unmapped handle does not
/// compile (`DmaMapping` doctests), so a driver can only get here with
/// an `Iova` copied out before the unmap — which is exactly what the
/// device does at runtime. dmasan reports the stale access either way,
/// including when map, unmap, and stale use sit in three different
/// functions.
#[test]
fn use_after_unmap_replays_as_stale_access() {
    let (san, ctx) = san();
    let m = mapping(0x1000, 1500, DmaDirection::ToDevice, 0x8000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_unmap(&ctx, DEV, &m, 2);
    // The device touches the retired IOVA and the hardware lets it
    // through.
    san.on_device_access(DEV, 0x1000, 64, false, true);

    // Across helpers: one function maps ...
    let helper = mapping(0x7000, 1500, DmaDirection::FromDevice, 0xe000);
    san.on_map(&ctx, DEV, &helper, 3);
    // ... a helper unmaps ...
    san.on_unmap(&ctx, DEV, &helper, 4);
    // ... and the caller fires on the IOVA it kept.
    san.on_device_access(DEV, 0x7000, 64, false, true);

    assert_eq!(san.count_of(ViolationKind::StaleAccess), 2);
}

/// Double unmap: one path unmaps, then an unconditional unmap fires
/// again. A second `unmap` of the same `DmaMapping` does not compile; the
/// runtime twin (two unmap events for one IOVA) is still a dmasan
/// violation.
#[test]
fn double_unmap_replays_identically() {
    let (san, ctx) = san();
    let m = mapping(0x2000, 1500, DmaDirection::ToDevice, 0x9000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_unmap(&ctx, DEV, &m, 2); // the `if early` arm
    san.on_unmap(&ctx, DEV, &m, 3); // the unconditional unmap
    assert_eq!(san.count_of(ViolationKind::DoubleUnmap), 1);
}

/// `protocol.rs::{leak_on_early_return, leak_via_question}` — both exits
/// leave the mapping live; dmasan sees them at teardown.
#[test]
fn leaks_replay_as_teardown_leaks() {
    let (san, ctx) = san();
    // leak_on_early_return: map, take the `return Err` path.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x3000, 1500, DmaDirection::ToDevice, 0xa000),
        1,
    );
    // leak_via_question: map, take `refill_ring(ctx)?`'s error edge.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x4000, 1500, DmaDirection::FromDevice, 0xb000),
        2,
    );
    // interproc.rs::leak_across_helper: map, lend the handle to
    // `touch_stats` (`&m`, not a move), and fall off the end. At runtime
    // the helper call is invisible; only the missing unmap is.
    san.on_map(
        &ctx,
        DEV,
        &mapping(0x5000, 1500, DmaDirection::ToDevice, 0xb800),
        3,
    );
    assert_eq!(san.check_teardown(), 3);
    assert_eq!(san.count_of(ViolationKind::Leak), 3);
    assert_eq!(
        static_count("leak-on-exit"),
        san.count_of(ViolationKind::Leak)
    );
}

/// `protocol.rs::read_without_sync` — the documented precision gap: the
/// CPU read of the mapped, un-synced `FromDevice` buffer is invisible to
/// dmasan (no bus access happens), so the replay is *clean* at runtime
/// while the static checker flags it.
#[test]
fn sync_before_cpu_read_has_no_runtime_mirror() {
    let (san, ctx) = san();
    let m = mapping(0x5000, 1500, DmaDirection::FromDevice, 0xc000);
    san.on_map(&ctx, DEV, &m, 1);
    // CPU-side `mem.read_vec(pkt, 1500)` happens here: no observer hook
    // exists for it, by construction.
    san.on_unmap(&ctx, DEV, &m, 2);
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
    // The static side still catches it — that is the whole point of
    // having both checkers.
    assert_eq!(static_count("sync-before-cpu-read"), 1);
}

/// `interproc.rs::helper_roundtrip` — the clean cross-function control:
/// the caller maps, `finish` unmaps. Statically, passing the handle by
/// value moves ownership into `finish`, which the compiler guarantees
/// (no waiver involved); dynamically the unmap event simply arrives from
/// a different stack frame, which dmasan never cared about in the first
/// place. Silent in both checkers.
#[test]
fn helper_roundtrip_is_silent_in_both_checkers() {
    let (san, ctx) = san();
    let m = mapping(0x8000, 1500, DmaDirection::ToDevice, 0xf000);
    san.on_map(&ctx, DEV, &m, 1); // caller: engine.map(...)
    san.on_unmap(&ctx, DEV, &m, 2); // inside finish(engine, ctx, m)
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
}

/// `protocol.rs::read_with_sync` (and every clean control): the canonical
/// map → sync → read → unmap sequence is silent in both checkers.
#[test]
fn clean_sequences_are_silent_in_both_checkers() {
    let (san, ctx) = san();
    let m = mapping(0x6000, 1500, DmaDirection::FromDevice, 0xd000);
    san.on_map(&ctx, DEV, &m, 1);
    san.on_device_access(DEV, 0x6000, 1500, true, true); // device fills it
    san.on_unmap(&ctx, DEV, &m, 2);
    assert_eq!(san.check_teardown(), 0);
    assert!(san.violations().is_empty(), "{:?}", san.violations());
}
