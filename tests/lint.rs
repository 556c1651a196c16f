//! The lint must hold two properties at once: the real workspace passes,
//! and a planted fixture workspace (`tests/fixtures/lint-bad`) fails with
//! every rule firing. Together they prove the scanner neither rubber-stamps
//! nor cries wolf.

use dma_shadowing::lint::{
    lint_workspace, lint_workspace_pass, lint_workspace_report, lock_order_analysis, Pass,
};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn real_workspace_is_lint_clean() {
    let violations = lint_workspace(repo_root()).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "workspace must be lint-clean, got:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_workspace_lock_inventory_is_acyclic_and_complete() {
    let report = lock_order_analysis(repo_root()).expect("scan workspace");
    assert!(
        report.cycles.is_empty(),
        "lock-order cycles in the real workspace: {:?}",
        report.cycles
    );
    let names = report.lock_names();
    for expected in [
        "pool-cache",
        "pool-fallback",
        "deferred-flush-list",
        "linux-iova-rbtree",
        "scalable-iova-shared",
        "eiovar-iova-cache",
        "iommu-invalidation-queue",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "lock `{expected}` missing from the static inventory: {names:?}"
        );
    }
}

#[test]
fn planted_fixture_trips_every_rule() {
    let fixture = repo_root().join("tests/fixtures/lint-bad");
    let violations = lint_workspace(&fixture).expect("scan fixture");
    let count = |rule: &str| violations.iter().filter(|v| v.rule == rule).count();

    // `serde` in the fixture root plus `rand`/`proptest` in badcrate.
    assert_eq!(count("external-dep"), 3, "{violations:?}");
    // badcrate's manifest has no `[lints] workspace = true`; the fixture
    // root declares no package, so it is not flagged.
    assert_eq!(count("workspace-lints"), 1, "{violations:?}");
    // `.unwrap()` and `.expect(` outside `#[cfg(test)]`, no waiver.
    assert_eq!(count("panic"), 2, "{violations:?}");
    // `PhysAddr(base + idx * 4096)` outside memsim.
    assert_eq!(count("phys-addr-arith"), 1, "{violations:?}");
    // `use std::fs;` outside the bench / obs-sink allowance.
    assert_eq!(count("ambient-io"), 1, "{violations:?}");
    // `Ordering::Relaxed` outside the obs counters, no waiver.
    assert_eq!(count("relaxed-atomic"), 1, "{violations:?}");
    // `deadlock.rs` nests fixture-a / fixture-b in both orders: one cycle.
    assert_eq!(count("lock-order"), 1, "{violations:?}");
    let cycle = violations
        .iter()
        .find(|v| v.rule == "lock-order")
        .expect("cycle violation");
    assert!(
        cycle.detail.contains("fixture-a -> fixture-b -> fixture-a"),
        "{cycle:?}"
    );

    // `protocol.rs` plants one violation per DMA protocol rule (plus the
    // `leak_via_question` variant); `interproc.rs` adds a leak whose only
    // helper call borrows the handle (`&m` cannot take ownership). The
    // clean controls (`helper_roundtrip` moves the handle into a helper,
    // `taint_bounds_checked`, `defer_unmap`) must stay silent.
    // Use-after-unmap and double-unmap are compile errors (the
    // `compile_fail` doctests on `DmaMapping`), so no fixture plants them.
    assert_eq!(count("leak-on-exit"), 3, "{violations:?}");
    assert_eq!(count("sync-before-cpu-read"), 1, "{violations:?}");
    // `taint_to_index` only: device-read value indexing without a check.
    assert_eq!(count("device-taint"), 1, "{violations:?}");
    // Two planted dead waivers: a stale `sync-before-cpu-read` waiver in
    // `interproc.rs` (the rule runs and finds nothing there), and a
    // leftover `use-after-unmap` waiver in `protocol.rs` (no such rule).
    assert_eq!(count("dead-waiver"), 2, "{violations:?}");
    let dead = |file: &str, needle: &str| {
        violations
            .iter()
            .any(|v| v.rule == "dead-waiver" && v.file.ends_with(file) && v.detail.contains(needle))
    };
    assert!(
        dead("interproc.rs", "sync-before-cpu-read"),
        "{violations:?}"
    );
    assert!(
        dead("protocol.rs", "`use-after-unmap`, which is not a lint rule"),
        "{violations:?}"
    );

    // The `#[cfg(test)]` unwrap in the fixture must NOT be counted; the
    // totals above are exhaustive.
    assert_eq!(violations.len(), 17, "{violations:?}");

    // The in-tree path dependency (`memsim = {{ path = .. }}`) is allowed.
    assert!(
        !violations
            .iter()
            .any(|v| v.rule == "external-dep" && v.detail.contains("memsim")),
        "{violations:?}"
    );
}

#[test]
fn fixture_interprocedural_product_is_exported() {
    let fixture = repo_root().join("tests/fixtures/lint-bad");
    let report = lint_workspace_report(&fixture, Pass::Full).expect("scan fixture");
    let analysis = report.protocol.expect("full pass builds the analysis");

    // The call graph resolved the planted helpers by name+arity, no
    // annotations: `leak_across_helper` calls `touch_stats`,
    // `helper_roundtrip` calls `finish`.
    let g = &analysis.graph;
    let id = |name: &str| {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("function `{name}` missing from the graph"))
    };
    assert!(g.callees[id("leak_across_helper")].contains(&id("touch_stats")));
    assert!(g.callees[id("helper_roundtrip")].contains(&id("finish")));

    // Functions that map a FromDevice buffer and read it back are device
    // readers, synced or not; `finish` only unmaps.
    let reads = &analysis.reads_device_data;
    assert!(reads[id("taint_to_index")]);
    assert!(reads[id("taint_bounds_checked")]);
    assert!(reads[id("read_with_sync")]);
    assert!(!reads[id("finish")]);
    assert!(!reads[id("leak_across_helper")]);

    // The taint pass saw the device read feeding `taint_to_index` and the
    // guarded control.
    assert!(analysis.taint.sources >= 2, "{:?}", analysis.taint);
    assert!(analysis.taint.sanitized_vars >= 1, "{:?}", analysis.taint);
}

#[test]
fn real_workspace_interprocedural_product_is_pinned() {
    let report = lint_workspace_report(repo_root(), Pass::Full).expect("scan workspace");
    let analysis = report.protocol.expect("full pass builds the analysis");
    let g = &analysis.graph;

    // The graph covers the whole workspace: floors, not exact counts, so
    // ordinary growth does not churn this test.
    let closures = g.nodes.iter().filter(|n| n.is_closure).count();
    assert!(
        g.nodes.len() - closures > 900,
        "{} functions",
        g.nodes.len()
    );
    assert!(closures > 300, "{closures} closures");
    assert!(g.callees.iter().map(|c| c.len()).sum::<usize>() > 8000);

    // The device-reading functions the taint pass resolves callers
    // against: the driver's RX path, the loopback RX helper, and the
    // deferred-window attack that inspects a packet after the device
    // wrote it.
    let readers: Vec<&str> = g
        .nodes
        .iter()
        .zip(&analysis.reads_device_data)
        .filter(|(_, &reads)| reads)
        .map(|(n, _)| n.name.as_str())
        .collect();
    for expected in ["rx_one", "loopback_rx", "deferred_window_overwrite"] {
        assert!(readers.contains(&expected), "{readers:?}");
    }

    // Device-tainted values exist (rx paths) but every one is either
    // sink-free or guarded: zero device-taint violations is the
    // workspace-clean assertion above, and the stats prove the pass
    // actually ran over real sources rather than finding nothing to do.
    assert!(analysis.taint.sources >= 5, "{:?}", analysis.taint);
}

#[test]
fn fast_pass_skips_protocol_lock_order_and_taint() {
    let fixture = repo_root().join("tests/fixtures/lint-bad");
    let fast = lint_workspace_pass(&fixture, Pass::Fast).expect("scan fixture");
    let skipped = [
        "leak-on-exit",
        "sync-before-cpu-read",
        "lock-order",
        "device-taint",
        "dead-waiver",
    ];
    assert!(fast.iter().all(|v| !skipped.contains(&v.rule)), "{fast:?}");
    // The style + manifest findings are exactly the full pass minus the
    // protocol, taint, dead-waiver, and lock-order ones.
    assert_eq!(fast.len(), 9, "{fast:?}");
}
