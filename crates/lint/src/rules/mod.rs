//! The rule passes, all consuming the shared front-end ([`crate::lexer`]).
//!
//! - [`style`] — the line-level house rules (panic, phys-addr-arith,
//!   ambient-io, relaxed-atomic) and the manifest rules (external-dep,
//!   workspace-lints).
//! - [`lock_order`] — lock-site inventory and acquisition-cycle detection.
//! - [`protocol`] — the DMA-API typestate checker for what the move-only
//!   handle types cannot express (leak-on-exit, sync-before-cpu-read).
//!
//! Every rule is waiver-compatible: a file opts out of one rule with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory.

pub mod lock_order;
pub mod protocol;
pub mod style;

/// The waiver comment a file uses to opt out of the panic rule. A reason
/// is mandatory: `// lint: allow(panic) — deliberate invariant panics`.
pub const PANIC_WAIVER: &str = "// lint: allow(panic)";

/// The waiver comment a file uses to opt out of the ambient-I/O rule. A
/// reason is mandatory:
/// `// lint: allow(ambient-io) — the harness writes BENCH_HOST.json`.
pub const IO_WAIVER: &str = "// lint: allow(ambient-io)";

/// The waiver comment a file uses to opt out of the relaxed-atomic rule.
/// A reason is mandatory — it must say why no ordering is needed:
/// `// lint: allow(relaxed-atomic) — stats counters, never synchronized on`.
pub const RELAXED_WAIVER: &str = "// lint: allow(relaxed-atomic)";

/// Whether `src` contains `waiver` followed by a non-trivial reason.
pub(crate) fn has_waiver(src: &str, waiver: &str) -> bool {
    src.lines().any(|l| {
        let t = l.trim_start();
        t.starts_with(waiver) && t.len() > waiver.len() + 3
    })
}

/// Whether `src` carries a reasoned waiver for `rule`
/// (`// lint: allow(<rule>) — <reason>`).
pub fn has_rule_waiver(src: &str, rule: &str) -> bool {
    let waiver = format!("// lint: allow({rule})");
    has_waiver(src, &waiver)
}

/// Every reasoned waiver in `src`: its 1-indexed line and the rule it
/// names, in source order.
fn reasoned_waivers(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines().enumerate().filter_map(|(i, l)| {
        let rest = l.trim_start().strip_prefix("// lint: allow(")?;
        let (rule, reason) = rest.split_once(')')?;
        (reason.len() > 3).then_some((i + 1, rule))
    })
}

/// The waivable rules that actually *execute* for a file in context
/// `ctx`: the universe dead-waiver detection checks against. A waiver
/// for a rule that never runs here (e.g. `panic` in a bench) is left
/// alone — it is inert, not stale evidence.
pub(crate) fn executed_waivable_rules(ctx: style::FileContext) -> Vec<&'static str> {
    let mut rules = Vec::new();
    if !ctx.io_allowed {
        rules.push("ambient-io");
    }
    if ctx.aux {
        return rules;
    }
    rules.push("panic");
    if !ctx.in_obs {
        rules.push("relaxed-atomic");
    }
    rules.extend(protocol::PROTOCOL_RULES);
    rules.push("device-taint");
    rules
}

/// Reports reasoned waivers that suppress nothing (`dead-waiver`): a
/// waiver naming a rule that does not exist (say, one the type system
/// replaced), and, for each executed waivable rule, a waiver present in
/// `src` while the *unfiltered* finding count for that rule is zero.
pub(crate) fn dead_waivers(
    label: &str,
    src: &str,
    ctx: style::FileContext,
    raw_counts: &std::collections::BTreeMap<&'static str, usize>,
) -> Vec<crate::report::LintViolation> {
    let executed = executed_waivable_rules(ctx);
    let mut reported = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (line, rule) in reasoned_waivers(src) {
        let detail = if !crate::ALL_RULES.contains(&rule) {
            format!("waiver names `{rule}`, which is not a lint rule")
        } else if executed.contains(&rule)
            && raw_counts.get(rule).copied().unwrap_or(0) == 0
            && reported.insert(rule)
        {
            format!("waiver for `{rule}` no longer suppresses any finding")
        } else {
            continue;
        };
        out.push(crate::report::LintViolation {
            file: label.to_string(),
            line,
            rule: "dead-waiver",
            detail,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_waiver_requires_reason() {
        let with = "// lint: allow(leak-on-exit) — ring owns the mapping\nfn f() {}\n";
        assert!(has_rule_waiver(with, "leak-on-exit"));
        let bare = "// lint: allow(leak-on-exit)\nfn f() {}\n";
        assert!(!has_rule_waiver(bare, "leak-on-exit"));
        assert!(!has_rule_waiver(with, "sync-before-cpu-read"));
    }

    #[test]
    fn waivers_for_unknown_or_idle_rules_are_dead() {
        let src = [
            "// lint: allow(use-after-unmap) — the handle used to be Copy",
            "// lint: allow(leak-on-exit) — ring owns the mapping",
            "// lint: allow(panic) — invariant panics",
            "// lint: allow(double-unmap)",
            "fn f() {}",
        ]
        .join("\n");
        let counts = [("panic", 1)].into_iter().collect();
        let dead = dead_waivers("x.rs", &src, style::FileContext::default(), &counts);
        let lines: Vec<usize> = dead.iter().map(|v| v.line).collect();
        // Unknown rule (line 1) and idle rule (line 2); the live `panic`
        // waiver and the unreasoned line 4 are not reported.
        assert_eq!(lines, [1, 2], "{dead:?}");
        assert!(dead[0].detail.contains("not a lint rule"), "{dead:?}");
        assert!(dead.iter().all(|v| v.rule == "dead-waiver"));
    }
}
