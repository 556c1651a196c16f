// lint: allow(ambient-io) — the workspace walk must read source files and manifests
//! A pure-std workspace lint (no `syn`, no external dependencies).
//!
//! The crate is built around a small in-tree Rust front-end
//! ([`lexer`]: byte-aligned stripped views + token stream, [`cfg`]:
//! token trees and per-function control-flow graphs) shared by every
//! pass, so there is exactly one tokenizer, one `#[cfg(test)]` mask, and
//! one file walk. On top of it:
//!
//! 1. **House style rules** ([`rules::style`]) — no `unwrap()`/`expect(`
//!    outside `#[cfg(test)]`, no raw `PhysAddr` arithmetic outside
//!    `memsim`, no `std::process`/`std::net`/`std::fs`, no
//!    `Ordering::Relaxed` outside `crates/obs`; and in every manifest, no
//!    external dependencies (the workspace builds offline) and no package
//!    that opts out of the workspace lints (`unsafe_code = "forbid"`).
//! 2. **Lock order** ([`rules::lock_order`]) — extracts every
//!    instrumented lock site, builds the nested-acquisition graph, and
//!    flags cycles; the site inventory feeds the model checker's
//!    `known_locks`.
//! 3. **DMA-API protocol** ([`rules::protocol`], [`typestate`]) — an
//!    intraprocedural dataflow over each function's CFG for the two
//!    protocol rules types cannot express: leak-on-exit and
//!    sync-before-cpu-read. Use-after-unmap and double-unmap are compile
//!    errors: `DmaMapping` and `CoherentBuffer` are move-only ownership
//!    tokens consumed by `unmap`/`free_coherent` (E0382; see the
//!    `compile_fail` doctests on `dma_api::DmaMapping`).
//! 4. **Device taint** ([`taint`]) — values read off device-writable
//!    mapped buffers flowing into an index, loop bound, accessor length,
//!    or `PhysAddr` arithmetic without a bounds check. The workspace call
//!    graph ([`callgraph`]) resolves helper calls, so the result of a
//!    function that reads device data is a source in its callers.
//!
//! `unsafe` needs no pass of its own: `[workspace.lints.rust]` forbids
//! it for every target of every package, and the manifest rule above
//! keeps each package inheriting that setting.
//!
//! Every rule is waiver-compatible (`// lint: allow(<rule>) — <reason>`,
//! reason mandatory) — and waivers are themselves audited: a reasoned
//! waiver whose rule finds nothing unfiltered, or that names no rule at
//! all, is a `dead-waiver` finding. The runner exits 0 (clean) / 1
//! (findings) / 2 (scan failure). Run via `cargo run --bin lint`
//! (`--fast` for style-only, `--json <path>` for the machine-readable
//! report, `--budget-ms <n>` to fail on blown wall clock).
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod taint;
pub mod typestate;

pub use callgraph::{build_workspace_graph, CallGraph, FnNode};
pub use lexer::{aligned_views, strip_code, test_region_mask, Prep};
pub use report::{json_report, rule_summary, LintViolation};
pub use rules::lock_order::{lock_order_analysis, LockEdge, LockOrderReport, LockSite};
pub use rules::protocol::ProtocolAnalysis;
pub use rules::style::{lint_manifest, lint_source, FileContext};
pub use rules::{has_rule_waiver, IO_WAIVER, PANIC_WAIVER, RELAXED_WAIVER};
pub use taint::TaintStats;
pub use typestate::Finding;

/// Every rule the workspace lint can emit, for the per-rule summary.
pub const ALL_RULES: [&str; 11] = [
    "ambient-io",
    "dead-waiver",
    "device-taint",
    "external-dep",
    "leak-on-exit",
    "lock-order",
    "panic",
    "phys-addr-arith",
    "relaxed-atomic",
    "sync-before-cpu-read",
    "workspace-lints",
];

/// The sorted member crate directories under `root/crates`.
pub(crate) fn member_crates(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    Ok(members)
}

/// Recursively collects `.rs` files under `dir`.
pub(crate) fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which rule passes a workspace scan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pass {
    /// Style + manifest rules only (`lint --fast`).
    Fast,
    /// Everything: style, lock-order, protocol, device-taint, dead-waiver.
    #[default]
    Full,
}

/// A full workspace scan: the violations the build gates on, plus (for
/// `Pass::Full`) the call-graph and taint product the JSON report exports
/// next to the lock-order inventory.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Waiver-filtered violations across every file and manifest.
    pub violations: Vec<LintViolation>,
    /// Call graph, device readers, and taint stats (`Pass::Full` only).
    pub protocol: Option<ProtocolAnalysis>,
}

/// Tallies unfiltered findings per rule for dead-waiver detection.
fn raw_rule_counts<'a>(
    rules_iter: impl IntoIterator<Item = &'a str>,
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for rule in rules_iter {
        // Rule names are interned `&'static str`s; match back onto the table.
        if let Some(r) = ALL_RULES.iter().find(|r| **r == rule) {
            *counts.entry(*r).or_insert(0) += 1;
        }
    }
    counts
}

/// Lints the whole workspace rooted at `root`: every member crate's
/// sources and manifest, plus the root manifest. `Pass::Full` adds the
/// lock-order, protocol, device-taint, and dead-waiver passes.
pub fn lint_workspace_report(root: &Path, pass: Pass) -> std::io::Result<WorkspaceReport> {
    let mut out = Vec::new();
    let label = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .display()
            .to_string()
            .replace('\\', "/")
    };
    // The call graph is built once over the whole workspace so the
    // per-file taint pass can resolve cross-file helper calls.
    let mut analysis = if pass == Pass::Full {
        let graph = build_workspace_graph(root)?;
        let reads_device_data = taint::device_readers(&graph);
        Some(ProtocolAnalysis {
            graph,
            reads_device_data,
            taint: TaintStats::default(),
        })
    } else {
        None
    };
    for member in member_crates(root)? {
        let crate_name = member
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest = member.join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&manifest) {
            out.extend(lint_manifest(&label(&manifest), &toml));
        }
        let src_dir = member.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files)?;
        files.sort();
        for f in &files {
            let src = fs::read_to_string(f)?;
            let rel = label(f);
            let ctx = FileContext {
                in_memsim: crate_name == "memsim",
                in_obs: crate_name == "obs",
                ..Default::default()
            };
            let p = lexer::prep(&rel, &src);
            out.extend(rules::style::check_prepped(&p, &src, ctx));
            if pass == Pass::Full {
                let fp = rules::protocol::check_file(&p, &src, ctx, analysis.as_ref());
                // Dead waivers: compare the file's waivers against what the
                // *unfiltered* passes found (waivers read from the `src`
                // argument, so an empty one disables filtering).
                let raw = rules::style::check_prepped(&p, "", ctx)
                    .iter()
                    .map(|v| v.rule)
                    .chain(fp.raw.iter().map(|f| f.rule))
                    .collect::<Vec<_>>();
                out.extend(rules::dead_waivers(&rel, &src, ctx, &raw_rule_counts(raw)));
                if let Some(a) = analysis.as_mut() {
                    a.taint.absorb(fp.taint);
                }
                out.extend(fp.violations);
            }
        }
        // Integration tests and benches: ambient-I/O discipline only.
        for sub in ["tests", "benches"] {
            let aux_dir = member.join(sub);
            if !aux_dir.is_dir() {
                continue;
            }
            let mut aux_files = Vec::new();
            rust_files(&aux_dir, &mut aux_files)?;
            aux_files.sort();
            for f in &aux_files {
                let src = fs::read_to_string(f)?;
                let ctx = FileContext {
                    aux: true,
                    ..Default::default()
                };
                let rel = label(f);
                out.extend(lint_source(&rel, &src, ctx));
                if pass == Pass::Full {
                    let p = lexer::prep(&rel, &src);
                    let raw: Vec<&str> = rules::style::check_prepped(&p, "", ctx)
                        .iter()
                        .map(|v| v.rule)
                        .collect();
                    out.extend(rules::dead_waivers(&rel, &src, ctx, &raw_rule_counts(raw)));
                }
            }
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if let Ok(toml) = fs::read_to_string(&root_manifest) {
        out.extend(lint_manifest(&label(&root_manifest), &toml));
    }
    if pass == Pass::Full {
        out.extend(lock_order_analysis(root)?.cycle_violations());
    }
    Ok(WorkspaceReport {
        violations: out,
        protocol: analysis,
    })
}

/// Lints the workspace and returns the gating violations only (the
/// historical shape; see [`lint_workspace_report`] for the analysis too).
pub fn lint_workspace_pass(root: &Path, pass: Pass) -> std::io::Result<Vec<LintViolation>> {
    Ok(lint_workspace_report(root, pass)?.violations)
}

/// Lints the whole workspace with every pass enabled (the historical
/// entry point; equivalent to [`lint_workspace_pass`] with [`Pass::Full`]).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<LintViolation>> {
    lint_workspace_pass(root, Pass::Full)
}
