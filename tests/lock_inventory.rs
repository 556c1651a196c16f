//! Cross-layer check: the lint pass's *static* lock-site inventory must
//! cover every lock the bounded model checker *observes at runtime*. A
//! lock the checker schedules around but the static pass cannot see would
//! make the lock-order analysis silently incomplete — this test makes
//! that drift a failure.

use dma_shadowing::lint::lock_order_analysis;
use modelcheck::{explore, Config, EngineKind};
use std::path::Path;

#[test]
fn static_inventory_covers_model_checker_runtime_locks() {
    let report = lock_order_analysis(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("scan workspace lock sites");
    let names = report.lock_names();
    assert!(!names.is_empty(), "static lock inventory came back empty");
    // The per-core configuration's locks must be in the static map before
    // any percore run is checked against it.
    for percore_lock in [
        "pool-magazine",
        "invalq-pending-ring",
        "scalable-iova-shared",
    ] {
        assert!(
            names.iter().any(|n| n == percore_lock),
            "static inventory {names:?} is missing `{percore_lock}`"
        );
    }
    // Copy exercises the pool locks; defer exercises the IOVA
    // allocator, the deferred flush list, and the invalidation queue. The
    // percore variants add the magazine, pending-ring, and shared-pool
    // locks to the runtime set.
    for (strategy, percore) in [
        (EngineKind::Copy, false),
        (EngineKind::LinuxDefer, false),
        (EngineKind::Copy, true),
        (EngineKind::LinuxStrict, true),
    ] {
        let mut cfg = Config::new(strategy);
        cfg.known_locks = Some(names.clone());
        cfg.percore = percore;
        let r = explore(&cfg);
        assert!(
            r.exhausted,
            "{strategy} (percore={percore}): bounded space not covered"
        );
        assert!(
            r.unknown_locks.is_empty(),
            "{strategy} (percore={percore}): runtime locks missing from the \
             static inventory {names:?}: {:?}",
            r.unknown_locks
        );
    }
}
