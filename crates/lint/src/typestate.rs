//! The DMA-API protocol typestate checker: the two rules the type system
//! cannot express.
//!
//! `DmaMapping` and `CoherentBuffer` are move-only ownership tokens that
//! `unmap`/`unmap_sg`/`free_coherent` consume, so use-after-unmap and
//! double-unmap are E0382 compile errors (see the `compile_fail` doctests
//! on `dma_api::DmaMapping`). What is left for a static pass is what a
//! move cannot say:
//!
//! - **leak-on-exit** — a `map`/`alloc_coherent` result that can reach a
//!   `return`/`?` edge or function exit still mapped, without an unmap or
//!   an ownership transfer (dmasan: `leak` at teardown). Dropping a value
//!   is legal Rust; `#[must_use]` only covers a result that is never
//!   bound.
//! - **sync-before-cpu-read** — a CPU-side read of a streaming
//!   `FromDevice`/`Bidirectional` buffer while it is mapped and not yet
//!   `sync_for_cpu`'d. The read goes through the buffer's physical
//!   address, not the handle, so ownership does not see it; dmasan has no
//!   mirror either, since it observes bus accesses, not CPU loads.
//!
//! The pass is intraprocedural. It tracks handles bound in a function
//! over that function's CFG, with a may-be-mapped state per handle. A
//! handle passed **by value** (to `unmap`, a helper, a collection, a
//! closure, a `return`) is a move: ownership leaves with it and tracking
//! stops, because the compiler guarantees the caller can no longer touch
//! it. A handle passed **by reference** (`&m`, `&mut m`) stays tracked:
//! a borrow cannot take ownership of a move-only handle, so the leak
//! obligation stays with the caller.
//!
//! ## Soundness caveats (by design, to keep the pass zero-false-positive)
//!
//! Only handles bound by a direct `let h = engine.map(…)` /
//! `alloc_coherent(…)` call chain (optionally suffixed `?` / `.unwrap()` /
//! `.expect(…)`) are tracked. Map results consumed by a surrounding
//! expression (a `match` scrutinee, a closure wrapper like
//! `obs::profile::scope(…, |ctx| engine.map(…))`) are not tracked at all.
//! A `map` call is recognized only when its first argument is a `ctx`-ish
//! identifier and its last argument names a `DmaDirection` (or is the
//! literal identifier `dir`), which keeps `Iterator::map`, page-table
//! `map(page, pfn, perms)`, and `perms()`-projected calls out. A helper
//! that syncs a borrowed handle is not seen through: the caller syncs
//! explicitly before reading.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{closure_at, closure_body_end, INTRINSICS};
use crate::cfg::{build_trees, extract_functions, split_top_level_commas, Cfg, Stmt, Tree};
use crate::lexer::Prep;

/// One protocol finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name: `leak-on-exit`, `sync-before-cpu-read`, or (from
    /// the taint pass) `device-taint`.
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: usize,
    /// What was found.
    pub detail: String,
}

/// Streaming direction of a tracked mapping, as far as the source shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    ToDevice,
    FromDevice,
    Bidirectional,
    /// Direction is a runtime value (`dir` variable): sync rule disabled.
    Unknown,
    /// Coherent allocation: always CPU-visible, sync rule not applicable.
    Coherent,
}

impl Dir {
    pub(crate) fn needs_cpu_sync(self) -> bool {
        matches!(self, Dir::FromDevice | Dir::Bidirectional)
    }
}

/// Abstract state of one tracked handle. A handle is in the state map
/// while it may still be mapped on some path reaching the program point;
/// `unmap` and every move remove it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VarState {
    /// `sync_for_cpu` was called on some path since the map.
    synced: bool,
    dir: Dir,
    /// The identifier passed to `DmaBuf::new(addr, …)` at the map site,
    /// when visible — lets the sync rule connect `mem.read_vec(addr, …)`
    /// back to this mapping.
    buf: Option<String>,
    /// Line of the map call that created the handle.
    born_line: usize,
}

type State = BTreeMap<String, VarState>;

fn join_into(dst: &mut State, src: &State) -> bool {
    let mut changed = false;
    for (k, v) in src {
        match dst.get_mut(k) {
            None => {
                dst.insert(k.clone(), v.clone());
                changed = true;
            }
            Some(d) => {
                if v.synced && !d.synced {
                    d.synced = true;
                    changed = true;
                }
                if d.dir != v.dir && d.dir != Dir::Unknown {
                    d.dir = Dir::Unknown;
                    changed = true;
                }
            }
        }
    }
    changed
}

pub(crate) const MAP_METHODS: [&str; 3] = ["map", "map_sg", "alloc_coherent"];
pub(crate) const UNMAP_METHODS: [&str; 3] = ["unmap", "unmap_sg", "free_coherent"];
/// CPU-side read markers on the simulated memory (`SimMemory` API).
pub(crate) const READ_METHODS: [&str; 4] = ["read", "read_vec", "read_into", "equals"];

/// What a recognized `.method(…)` call does to tracked state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallKind {
    Map,
    Unmap,
    SyncCpu,
    SyncDev,
}

/// One ordered event extracted from a statement.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A recognized DMA call; `args` are the bare identifiers in its
    /// argument list (the tracked one, if any, is the handle).
    Call { kind: CallKind, args: Vec<String> },
    /// A bare mention of `v` outside any recognized call: a move (store,
    /// alias, return).
    Bare { var: String },
    /// A CPU-side memory read; `head` are the identifiers of its first
    /// argument (the address expression).
    Read { head: Vec<String>, line: usize },
    /// A call that is not a DMA intrinsic: `name(…)` or `recv.name(…)`.
    UserCall {
        name: String,
        method: bool,
        /// Free call preceded by a `::` path segment (resolution skipped:
        /// the path may name a foreign type's constructor).
        qualified: bool,
        /// Number of top-level arguments (receiver excluded).
        argc: usize,
        /// Arguments passed by value as a bare identifier (`m`): moves.
        /// Borrowed ones (`&m`, `&mut m`) produce no event at all.
        moved: Vec<String>,
    },
    /// A closure body mentioning `vars` (its own parameters excluded).
    ClosureCapture { vars: Vec<String> },
}

fn ident_of(t: &Tree) -> Option<&str> {
    match t {
        Tree::Tok(tok) if tok.is_ident => Some(&tok.text),
        _ => None,
    }
}

/// A call argument that is a bare identifier: `x` (a move) or `&x` /
/// `&mut x` (a borrow).
enum SimpleArg<'t> {
    Moved(&'t str),
    Borrowed,
}

fn simple_arg(arg: &[Tree]) -> Option<SimpleArg<'_>> {
    let mut s = arg;
    let mut borrowed = false;
    while s
        .first()
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
    {
        borrowed |= s[0].is_punct("&");
        s = &s[1..];
    }
    match s {
        [t] => ident_of(t).map(|name| {
            if borrowed {
                SimpleArg::Borrowed
            } else {
                SimpleArg::Moved(name)
            }
        }),
        _ => None,
    }
}

/// First argument is `ctx`-flavored: an identifier ending in `ctx`
/// (`ctx`, `setup_ctx`, `&mut ctx`, `r.ctx`).
fn ctx_first_arg(children: &[Tree]) -> bool {
    let args = split_top_level_commas(children);
    let Some(first) = args.first() else {
        return false;
    };
    first
        .iter()
        .any(|t| ident_of(t).is_some_and(|s| s.ends_with("ctx")))
}

/// Last argument names a direction: mentions `DmaDirection` or is exactly
/// the identifier `dir`. Rejects `dir.perms()` and friends.
fn dir_last_arg(children: &[Tree]) -> Option<Dir> {
    let args = split_top_level_commas(children);
    let last = args.last()?;
    if let Some(k) = last.iter().position(|t| t.is_ident("DmaDirection")) {
        let name = last.get(k + 2).and_then(ident_of).unwrap_or("");
        return Some(match name {
            "ToDevice" => Dir::ToDevice,
            "FromDevice" => Dir::FromDevice,
            "Bidirectional" => Dir::Bidirectional,
            _ => Dir::Unknown,
        });
    }
    if last.len() == 1 && last[0].is_ident("dir") {
        return Some(Dir::Unknown);
    }
    None
}

/// The identifier handed to `DmaBuf::new(addr, …)` inside map args.
fn dma_buf_ident(children: &[Tree]) -> Option<String> {
    let mut i = 0;
    while i < children.len() {
        if children[i].is_ident("DmaBuf")
            && children.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && children.get(i + 2).is_some_and(|t| t.is_ident("new"))
        {
            if let Some(Tree::Group {
                children: inner, ..
            }) = children.get(i + 3)
            {
                return inner.first().and_then(ident_of).map(str::to_string);
            }
        }
        if let Tree::Group {
            children: inner, ..
        } = &children[i]
        {
            if let Some(found) = dma_buf_ident(inner) {
                return Some(found);
            }
        }
        i += 1;
    }
    None
}

/// Classifies a method call; `None` means not a DMA-API call.
fn dma_call_kind(name: &str, children: &[Tree]) -> Option<CallKind> {
    if !ctx_first_arg(children) {
        return None;
    }
    if MAP_METHODS.contains(&name) {
        return (name == "alloc_coherent" || dir_last_arg(children).is_some())
            .then_some(CallKind::Map);
    }
    match name {
        _ if UNMAP_METHODS.contains(&name) => Some(CallKind::Unmap),
        "sync_for_cpu" => Some(CallKind::SyncCpu),
        "sync_for_device" => Some(CallKind::SyncDev),
        _ => None,
    }
}

/// All bare identifiers in a tree slice (recursing into groups).
fn bare_idents(trees: &[Tree], out: &mut Vec<String>) {
    for (k, t) in trees.iter().enumerate() {
        match t {
            Tree::Tok(tok) if tok.is_ident => {
                let projected = trees.get(k + 1).is_some_and(|n| n.is_punct("."));
                if !projected {
                    out.push(tok.text.clone());
                }
            }
            Tree::Group { children, .. } => bare_idents(children, out),
            _ => {}
        }
    }
}

/// Every identifier (bare or projected) in a tree slice.
fn all_idents(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Tok(tok) if tok.is_ident => out.push(tok.text.clone()),
            Tree::Group { children, .. } => all_idents(children, out),
            _ => {}
        }
    }
}

/// Keywords that look like `ident (…)` but never name a callable.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "in", "as", "move", "loop", "let", "else",
];

/// Left-to-right event extraction over a statement's trees. Inside a DMA
/// call's arguments (`in_dma_args`) bare mentions belong to the call.
pub(crate) fn scan(trees: &[Tree], in_dma_args: bool, evs: &mut Vec<Ev>) {
    let mut i = 0;
    while i < trees.len() {
        // Closure header: emit the capture event, skip the `|…|` header,
        // and let the body tokens be scanned normally below (so DMA calls
        // inside closures keep their inline treatment).
        if let Some((params_end, params_start)) = closure_at(trees, i) {
            let params: Vec<String> = trees[params_start..params_end]
                .iter()
                .filter_map(|t| ident_of(t).filter(|s| *s != "mut").map(str::to_string))
                .collect();
            let body_end = closure_body_end(trees, params_end + 1);
            let mut vars = Vec::new();
            all_idents(&trees[params_end + 1..body_end], &mut vars);
            vars.retain(|v| !params.contains(v));
            vars.dedup();
            evs.push(Ev::ClosureCapture { vars });
            i = params_end + 1;
            continue;
        }
        // `. method ( args )`
        if trees[i].is_punct(".") {
            if let (
                Some(name),
                Some(Tree::Group {
                    delim: '(',
                    children,
                    ..
                }),
            ) = (trees.get(i + 1).and_then(ident_of), trees.get(i + 2))
            {
                if let Some(kind) = dma_call_kind(name, children) {
                    let mut args = Vec::new();
                    bare_idents(children, &mut args);
                    evs.push(Ev::Call { kind, args });
                    scan(children, true, evs);
                    i += 3;
                    continue;
                }
                if READ_METHODS.contains(&name) {
                    let mut head = Vec::new();
                    if let Some(first) = split_top_level_commas(children).first() {
                        bare_idents(first, &mut head);
                    }
                    evs.push(Ev::Read {
                        head,
                        line: trees[i + 1].line(),
                    });
                    scan(children, in_dma_args, evs);
                    i += 3;
                    continue;
                }
                if !in_dma_args {
                    user_call(name, true, false, children, evs);
                    i += 3;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        match &trees[i] {
            Tree::Tok(tok) if tok.is_ident => {
                // `v.…` projects the handle (reads a field, calls a
                // method on it): no ownership effect.
                let projected = trees.get(i + 1).is_some_and(|n| n.is_punct("."));
                let called = matches!(trees.get(i + 1), Some(Tree::Group { delim: '(', .. }))
                    && !CALL_KEYWORDS.contains(&tok.text.as_str());
                if projected {
                    i += 1;
                } else if called && !in_dma_args {
                    let qualified = i > 0 && trees[i - 1].is_punct("::");
                    if let Some(Tree::Group { children, .. }) = trees.get(i + 1) {
                        user_call(&tok.text, false, qualified, children, evs);
                    }
                    i += 2;
                } else {
                    if !in_dma_args {
                        evs.push(Ev::Bare {
                            var: tok.text.clone(),
                        });
                    }
                    i += 1;
                }
            }
            Tree::Group { children, .. } => {
                scan(children, in_dma_args, evs);
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// Emits a user call: bare-identifier arguments are moves (owned by the
/// event), borrowed ones stay with the caller, and anything more complex
/// scans normally.
fn user_call(name: &str, method: bool, qualified: bool, children: &[Tree], evs: &mut Vec<Ev>) {
    let args = split_top_level_commas(children);
    let moved = args
        .iter()
        .filter_map(|a| match simple_arg(a) {
            Some(SimpleArg::Moved(v)) => Some(v.to_string()),
            _ => None,
        })
        .collect();
    evs.push(Ev::UserCall {
        name: name.to_string(),
        method,
        qualified,
        argc: args.len(),
        moved,
    });
    for arg in args {
        if simple_arg(arg).is_none() {
            scan(arg, false, evs);
        }
    }
}

/// A recognized trackable map binding.
#[derive(Debug)]
pub(crate) struct Bind {
    pub(crate) var: String,
    pub(crate) dir: Dir,
    pub(crate) buf: Option<String>,
    pub(crate) line: usize,
}

/// Detects a trackable map binding in a statement: `let h = <chain>.map(…)`
/// (modulo `?`/`.unwrap()`/`.expect(…)` suffixes). The RHS must *end*
/// with the map call so results consumed by a larger expression are left
/// untracked.
pub(crate) fn detect_bind(trees: &[Tree]) -> Option<Bind> {
    if !trees.first()?.is_ident("let") {
        return None;
    }
    let mut j = 1;
    if trees.get(j)?.is_ident("mut") {
        j += 1;
    }
    let var = ident_of(trees.get(j)?)?.to_string();
    if !trees.get(j + 1)?.is_punct("=") {
        return None;
    }
    let rhs = &trees[j + 2..];
    // The last call in the RHS; only a map call is a binding.
    let mut last = None;
    for k in 0..rhs.len().saturating_sub(1) {
        let (
            Some(name),
            Some(Tree::Group {
                delim: '(',
                children,
                ..
            }),
        ) = (ident_of(&rhs[k]), rhs.get(k + 1))
        else {
            continue;
        };
        let method = k > 0 && rhs[k - 1].is_punct(".");
        if method && MAP_METHODS.contains(&name) && dma_call_kind(name, children).is_some() {
            let dir = if name == "alloc_coherent" {
                Dir::Coherent
            } else {
                dir_last_arg(children).unwrap_or(Dir::Unknown)
            };
            let bind = Bind {
                var: var.clone(),
                dir,
                buf: dma_buf_ident(children),
                line: rhs[k].line(),
            };
            last = Some((k, Some(bind)));
        } else if !CALL_KEYWORDS.contains(&name)
            && !INTRINSICS.contains(&name)
            && !READ_METHODS.contains(&name)
            && !(method && (name == "unwrap" || name == "expect"))
        {
            last = Some((k, None));
        }
    }
    let (at, bind) = last?;
    // Only panic/try suffixes may follow the call.
    let mut s = at + 2;
    while s < rhs.len() {
        if rhs[s].is_punct("?") {
            s += 1;
        } else if rhs[s].is_punct(".")
            && rhs
                .get(s + 1)
                .and_then(ident_of)
                .is_some_and(|m| m == "unwrap" || m == "expect")
            && matches!(rhs.get(s + 2), Some(Tree::Group { delim: '(', .. }))
        {
            s += 3;
        } else {
            return None;
        }
    }
    bind
}

/// Collects findings with per-function leak dedup (one leak report per
/// handle, at the first program point that witnesses it).
#[derive(Default)]
struct Reporter {
    findings: Vec<Finding>,
    leaked: BTreeSet<(String, usize)>,
    seen: BTreeSet<(&'static str, usize, String)>,
}

impl Reporter {
    fn push(&mut self, rule: &'static str, line: usize, detail: String) {
        if self.seen.insert((rule, line, detail.clone())) {
            self.findings.push(Finding { rule, line, detail });
        }
    }

    fn leak(&mut self, var: &str, st: &VarState, line: usize, what: &str) {
        if self.leaked.insert((var.to_string(), st.born_line)) {
            self.push(
                "leak-on-exit",
                line,
                format!(
                    "mapping `{var}` (mapped at line {}) can reach {what} without \
                     unmap or ownership transfer",
                    st.born_line
                ),
            );
        }
    }
}

/// Applies one statement's events to `state`; reports findings when `rep`
/// is set. Returns the statement's map binding *unapplied*: the caller
/// applies it to the fallthrough state only, since on the `?` error edge
/// the handle was never mapped.
fn transfer(state: &mut State, stmt: &Stmt, mut rep: Option<&mut Reporter>) -> Option<Bind> {
    if stmt.trees.first().is_some_and(|t| t.is_ident("fn")) {
        return None; // nested fn item: analyzed as its own function
    }
    let bind = detect_bind(&stmt.trees);
    // The binding's own variable is not yet live on this statement.
    let moved = |state: &mut State, var: &str| {
        if bind.as_ref().is_none_or(|b| b.var != var) {
            state.remove(var);
        }
    };
    let mut evs = Vec::new();
    scan(&stmt.trees, false, &mut evs);
    for ev in &evs {
        match ev {
            Ev::Call { kind, args } => {
                for a in args {
                    match kind {
                        CallKind::Map => {}
                        CallKind::Unmap => {
                            state.remove(a);
                        }
                        CallKind::SyncCpu | CallKind::SyncDev => {
                            if let Some(st) = state.get_mut(a) {
                                st.synced = *kind == CallKind::SyncCpu;
                            }
                        }
                    }
                }
            }
            Ev::Read { head, line } => {
                let Some(r) = rep.as_deref_mut() else {
                    continue;
                };
                for (var, st) in state.iter() {
                    let hit = st.buf.as_ref().is_some_and(|b| head.iter().any(|h| h == b));
                    if hit && !st.synced && st.dir.needs_cpu_sync() {
                        r.push(
                            "sync-before-cpu-read",
                            *line,
                            format!(
                                "CPU read of streaming buffer `{}` while `{var}` is mapped \
                                 {:?} without sync_for_cpu",
                                st.buf.as_deref().unwrap_or("?"),
                                st.dir
                            ),
                        );
                    }
                }
            }
            Ev::UserCall { moved: vars, .. } | Ev::ClosureCapture { vars } => {
                for v in vars {
                    moved(state, v);
                }
            }
            Ev::Bare { var } => moved(state, var),
        }
    }
    bind
}

fn apply_bind(state: &mut State, b: Bind) {
    state.insert(
        b.var,
        VarState {
            synced: false,
            dir: b.dir,
            buf: b.buf,
            born_line: b.line,
        },
    );
}

fn leak_check(state: &State, line: usize, what: &str, rep: &mut Reporter) {
    for (var, st) in state.iter() {
        rep.leak(var, st, line, what);
    }
}

/// Processes block `b` from in-state `st`. Returns the fallthrough
/// out-state and, for a `?` statement, the implicit error-edge out-state
/// (which excludes the statement's own binding: on the error path the
/// handle was never mapped).
fn block_out(
    cfg: &Cfg,
    b: usize,
    mut st: State,
    mut rep: Option<&mut Reporter>,
) -> (State, Option<State>) {
    let Some(stmt) = &cfg.blocks[b].stmt else {
        return (st, None);
    };
    let bind = transfer(&mut st, stmt, rep.as_deref_mut());
    let mut try_out = None;
    if stmt.has_try {
        if let Some(r) = rep.as_deref_mut() {
            leak_check(&st, stmt.line, "the `?` error path", r);
        }
        try_out = Some(st.clone());
    }
    if stmt.is_return {
        if let Some(r) = rep {
            leak_check(&st, stmt.line, "this return", r);
        }
    }
    if let Some(bd) = bind {
        apply_bind(&mut st, bd);
    }
    (st, try_out)
}

/// Runs the typestate pass over one function's CFG.
fn check_cfg(cfg: &Cfg, rep: &mut Reporter) {
    let n = cfg.blocks.len();
    let mut ins: Vec<State> = vec![State::new(); n];
    // Fixpoint: propagate out-states along edges until stable.
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 8 * n + 64 {
        changed = false;
        rounds += 1;
        for b in 0..n {
            let (out, try_out) = block_out(cfg, b, ins[b].clone(), None);
            if let Some(t) = try_out {
                if join_into(&mut ins[cfg.exit], &t) {
                    changed = true;
                }
            }
            for &s in &cfg.blocks[b].succs {
                if join_into(&mut ins[s], &out) {
                    changed = true;
                }
            }
        }
    }
    // Reporting pass over the converged in-states, in block order. The
    // exit node goes last so edge-level reports (`?`, `return`) win the
    // per-handle leak dedup and anchor the finding at the leaking edge.
    for (b, in_state) in ins.iter().enumerate() {
        if b == cfg.exit {
            continue;
        }
        block_out(cfg, b, in_state.clone(), Some(rep));
    }
    // Handles still mapped at the exit join that no explicit edge already
    // reported (e.g. a fallthrough that ends the function with the handle
    // live) are anchored at the map site.
    for (var, vs) in &ins[cfg.exit] {
        rep.leak(var, vs, vs.born_line, "function exit");
    }
}

/// Runs the DMA protocol checker over every non-test function in a
/// prepared file.
pub fn check_file(prep: &Prep) -> Vec<Finding> {
    let tokens = crate::lexer::tokenize(&prep.blank);
    let trees = build_trees(&tokens);
    let mut rep = Reporter::default();
    for f in extract_functions(prep, &trees) {
        check_cfg(&Cfg::build(&f.body), &mut rep);
    }
    rep.findings.sort_by_key(|f| (f.line, f.rule));
    rep.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prep;

    fn run(src: &str) -> Vec<Finding> {
        check_file(&prep("x.rs", src))
    }

    fn rules(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_map_unmap_is_silent() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   post(m.iova.get());\n\
                   engine.unmap(ctx, m)?;\n\
                   Ok(())\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn leak_on_try_edge_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   helper(ctx)?;\n\
                   engine.unmap(ctx, m)?;\n\
                   Ok(())\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn leak_on_early_return_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C, bad: bool) -> Result<(), E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if bad {\n\
                   return Err(E::Bad);\n\
                   }\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   Ok(())\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
    }

    #[test]
    fn leak_at_fallthrough_exit_is_flagged() {
        let src = "fn f(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   touch(m.iova.get());\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
    }

    #[test]
    fn moves_end_tracking() {
        // Returned, pushed, and by-value helper arguments are moves, not
        // leaks.
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<M, E> {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice)?;\n\
                   Ok(m)\n\
                   }\n\
                   fn g(engine: &E, ctx: &mut C, out: &mut Vec<M>) {\n\
                   let rx = engine.alloc_coherent(ctx, 4096).expect(\"ring\");\n\
                   nic.attach(&rx);\n\
                   out.push(rx);\n\
                   }\n\
                   fn h(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   finish(engine, ctx, m);\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn borrowed_handle_keeps_the_leak_obligation() {
        // `&m` cannot take ownership of a move-only handle: the caller
        // still has to unmap it.
        let src = "fn caller(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   touch_stats(&m);\n\
                   ring.stash(&mut m);\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "leak-on-exit");
        let clean = "fn caller(engine: &E, ctx: &mut C) {\n\
                     let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                     log_mapping(&m);\n\
                     engine.unmap(ctx, m).expect(\"u\");\n\
                     }\n";
        assert_eq!(rules(clean), Vec::<&str>::new());
    }

    #[test]
    fn closure_capture_ends_tracking() {
        let src = "fn caller(engine: &E, ctx: &mut C, defer: &mut Vec<F>) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   defer.push(Box::new(move || consume(m)));\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn cpu_read_of_streaming_buffer_needs_sync() {
        let bad = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                   let got = mem.read_vec(skb, 64);\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n";
        let f = run(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "sync-before-cpu-read");
        assert_eq!(f[0].line, 3);

        let good = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                    let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                    engine.sync_for_cpu(ctx, &m);\n\
                    let got = mem.read_vec(skb, 64);\n\
                    engine.unmap(ctx, m).expect(\"u\");\n\
                    }\n";
        assert_eq!(rules(good), Vec::<&str>::new());
    }

    #[test]
    fn sync_for_device_hands_the_buffer_back() {
        let src = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::Bidirectional).expect(\"m\");\n\
                   engine.sync_for_cpu(ctx, &m);\n\
                   engine.sync_for_device(ctx, &m);\n\
                   let got = mem.read_vec(skb, 64);\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "sync-before-cpu-read");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn read_after_unmap_needs_no_sync() {
        // unmap performs the CPU handoff; reading afterwards is the
        // normal driver pattern (netsim's rx path).
        let src = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::FromDevice).expect(\"m\");\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   let got = mem.read_vec(skb, 64);\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn to_device_reads_need_no_sync() {
        let src = "fn f(engine: &E, mem: &M, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   let echo = mem.read_vec(skb, 64);\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn iterator_and_page_table_maps_are_not_tracked() {
        let src = "fn f(items: &[u32], pt: &mut Pt, ctx: &mut C) {\n\
                   let v: Vec<u32> = items.iter().map(|x| x + 1).collect();\n\
                   let e = pt.map(page, pfn, perms);\n\
                   let h = self.huge.map(ctx, &self.zc_iova, buf, dir.perms());\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn map_consumed_by_match_or_closure_is_untracked() {
        let src = "fn f(engine: &E, ctx: &mut C) -> Result<M, E> {\n\
                   match self.map(ctx, buf, dir) {\n\
                   Ok(m) => out.push(m),\n\
                   Err(e) => roll(e),\n\
                   }\n\
                   let m = obs::profile::scope(ctx, |ctx| self.inner.map(ctx, buf, dir))?;\n\
                   Ok(m)\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn loop_body_map_unmap_converges_clean() {
        let src = "fn f(engine: &E, ctx: &mut C, n: u32) {\n\
                   for i in 0..n {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   fire(m.iova.get());\n\
                   engine.unmap(ctx, m).expect(\"u\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn unmap_on_both_if_arms_is_clean() {
        let src = "fn f(engine: &E, ctx: &mut C, fast: bool) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if fast {\n\
                   engine.unmap(ctx, m).expect(\"a\");\n\
                   } else {\n\
                   engine.unmap(ctx, m).expect(\"b\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }

    #[test]
    fn unmap_on_one_arm_only_leaks() {
        let src = "fn f(engine: &E, ctx: &mut C, fast: bool) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   if fast {\n\
                   engine.unmap(ctx, m).expect(\"a\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), vec!["leak-on-exit"]);
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n\
                   fn leaky(engine: &E, ctx: &mut C) {\n\
                   let m = engine.map(ctx, DmaBuf::new(skb, 64), DmaDirection::ToDevice).expect(\"m\");\n\
                   }\n\
                   }\n";
        assert_eq!(rules(src), Vec::<&str>::new());
    }
}
