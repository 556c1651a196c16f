//! The DMA-API protocol rule pass: runs the typestate checker
//! ([`crate::typestate`]) over a prepared file and converts its findings
//! into waiver-compatible lint violations.
//!
//! In a full workspace scan the device-taint pass ([`crate::taint`]) runs
//! alongside it, resolving helper calls through the workspace call graph
//! ([`crate::callgraph`]). The assembled [`ProtocolAnalysis`] is what
//! `lint --json` exports next to the lock-order inventory.

use crate::callgraph::CallGraph;
use crate::lexer::Prep;
use crate::report::LintViolation;
use crate::rules::has_rule_waiver;
use crate::rules::style::FileContext;
use crate::taint::TaintStats;
use crate::typestate::Finding;

/// The protocol rule names, in reporting order.
pub const PROTOCOL_RULES: [&str; 2] = ["leak-on-exit", "sync-before-cpu-read"];

/// The whole-workspace product of one full scan: the call graph, which
/// functions read device data, and the device-taint statistics.
#[derive(Debug, Default)]
pub struct ProtocolAnalysis {
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Per node of `graph`: the function reads device-writable data
    /// ([`crate::taint::device_readers`]).
    pub reads_device_data: Vec<bool>,
    /// Aggregate taint numbers across the workspace.
    pub taint: TaintStats,
}

/// Per-file protocol + taint result, raw and filtered.
pub struct FileProtocol {
    /// Waiver-filtered violations (what the build gates on).
    pub violations: Vec<LintViolation>,
    /// Unfiltered findings (what dead-waiver detection counts).
    pub raw: Vec<Finding>,
    /// Taint stats for this file.
    pub taint: TaintStats,
}

/// Runs the protocol checker (and, given the workspace analysis, the
/// taint pass) over one prepared file. `src` is the raw source (for
/// waiver comments). Aux files (`tests/`, `benches/`) are exempt:
/// protocol discipline is a library-code concern, and test code
/// deliberately constructs broken sequences to feed dmasan.
pub fn check_file(
    prep: &Prep,
    src: &str,
    ctx: FileContext,
    analysis: Option<&ProtocolAnalysis>,
) -> FileProtocol {
    let mut fp = FileProtocol {
        violations: Vec::new(),
        raw: Vec::new(),
        taint: TaintStats::default(),
    };
    if ctx.aux {
        return fp;
    }
    fp.raw = crate::typestate::check_file(prep);
    if let Some(a) = analysis {
        let (tfindings, tstats) =
            crate::taint::check_file(prep, Some((&a.graph, &a.reads_device_data)));
        fp.raw.extend(tfindings);
        fp.taint = tstats;
    }
    fp.violations = fp
        .raw
        .iter()
        .filter(|f| !has_rule_waiver(src, f.rule))
        .map(|f| LintViolation {
            file: prep.label.clone(),
            line: f.line,
            rule: f.rule,
            detail: f.detail.clone(),
        })
        .collect();
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prep;

    fn check(prep: &Prep, src: &str, ctx: FileContext) -> Vec<LintViolation> {
        check_file(prep, src, ctx, None).violations
    }

    const LEAKY: &str = "fn f(engine: &E, ctx: &mut C) {\n\
        let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
        }\n";

    #[test]
    fn protocol_findings_become_violations() {
        let p = prep("x.rs", LEAKY);
        let v = check(&p, LEAKY, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "leak-on-exit");
        assert_eq!(v[0].file, "x.rs");
    }

    #[test]
    fn aux_files_are_exempt() {
        let p = prep("tests/x.rs", LEAKY);
        let aux = FileContext {
            aux: true,
            ..Default::default()
        };
        assert!(check(&p, LEAKY, aux).is_empty());
    }

    #[test]
    fn reasoned_waiver_silences_one_rule_only() {
        let src = format!(
            "// lint: allow(leak-on-exit) — ownership handed to the ring at runtime\n{LEAKY}"
        );
        let p = prep("x.rs", &src);
        assert!(check(&p, &src, FileContext::default()).is_empty());
        // The waiver names its rule; the other protocol rule still fires.
        let unsynced = "// lint: allow(leak-on-exit) — reasoned\n\
            fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
            let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
            let got = mem.read_vec(skb, 64);\n\
            }\n";
        let p = prep("x.rs", unsynced);
        let v = check(&p, unsynced, FileContext::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sync-before-cpu-read");
    }

    #[test]
    fn waivers_filter_but_raw_findings_remain() {
        let src = format!("// lint: allow(leak-on-exit) — reasoned waiver here\n{LEAKY}");
        let p = prep("x.rs", &src);
        let fp = check_file(&p, &src, FileContext::default(), None);
        assert!(fp.violations.is_empty(), "{:?}", fp.violations);
        assert_eq!(fp.raw.len(), 1, "{:?}", fp.raw);
        assert_eq!(fp.raw[0].rule, "leak-on-exit");
    }
}
