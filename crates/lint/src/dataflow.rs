//! AST / call-graph dataflow rules D7–D10.
//!
//! These rules run over the whole workspace at once (unlike the
//! per-file token rules D1–D6): they need the symbol table in
//! [`crate::symbols`] for type-directed reasoning and the
//! [`crate::callgraph`] for interprocedural reachability.
//!
//! - **D7** — overflow-hazard arithmetic: bare `+` `-` `*` `<<` on
//!   cycle/address/timestamp-typed values in the simulation crates.
//!   Hazard typing combines declared types (`LineAddr`, `u64` fields)
//!   with a name lexicon (`*cycle*`, `*stamp*`, `*addr*`, `*_at`,
//!   `*_ns`, `now`, `arrival`, `deadline`, `tag`) and propagates
//!   through lets, field reads, and wrapping/min/max chains. Literal
//!   operands are exempt (the bound is compile-time visible); the
//!   escape is `// lint: bounded("…")`.
//! - **D8** — panic reachability: nothing transitively callable from a
//!   serve request handler (a serve fn taking a `TcpStream`) may hit a
//!   panic sink. Sinks and edges come from the call graph; findings
//!   print the discovery path.
//! - **D9** — clock taint: values derived from the audited
//!   `telemetry::prof::now_ns()` host clock must not flow into
//!   `SimResult` construction or `emit(..)` event payloads. Taint propagates
//!   through lets, arithmetic, field/tuple composition, and workspace
//!   call returns (a fixpoint over per-fn return summaries).
//! - **D10** — concurrency-order audit: (a) per atomic cell in the
//!   telemetry/serve crates, release-class writes must not pair with
//!   all-Relaxed loads (and vice versa); (b) no two serve-crate locks
//!   acquired in opposite nesting orders, with guard liveness tracked
//!   through let bindings, `drop(..)`, and statement temporaries.
//!
//! All four are deliberately conservative in the same direction as the
//! token rules: a false positive costs one justification pragma; a
//! false negative costs a nondeterministic sweep or a dead handler
//! thread. Analysis is flow-insensitive across loop back-edges and
//! ignores taint through `&mut` out-params — the workspace has neither
//! pattern on the audited flows.

use crate::ast::{walk_block, Block, Expr, ExprKind, Pat, Stmt, Ty};
use crate::callgraph::CallGraph;
use crate::lexer::lex;
use crate::rules::{parse_pragmas, Diagnostic, RuleId};
use crate::symbols::{FnId, Workspace};
use crate::{Finding, InputFile, LintReport};
use std::collections::{BTreeMap, BTreeSet};

/// Runs D7–D10 over the file set, appending findings (and parse errors)
/// to `report`. Pragma suppression (`lint: allow` / `lint: bounded`)
/// is applied here, with the same line-or-next coverage as D1–D6.
pub fn check_workspace(files: &[InputFile], report: &mut LintReport) {
    let (ws, parse_errors) = Workspace::build(files);
    report.parse_errors.extend(parse_errors);
    let graph = CallGraph::build(&ws);

    let mut found: Vec<Finding> = Vec::new();
    check_d7(&ws, &mut found);
    check_d8(&ws, &graph, &mut found);
    check_d9(&ws, &mut found);
    check_d10_atomics(&ws, &mut found);
    check_d10_locks(&ws, &mut found);

    // Pragma suppression: an allow on line L covers findings on L and
    // L+1 (same contract as the token rules). Malformed-pragma
    // diagnostics are already emitted by `check_file`; only the allow
    // list is consumed here.
    let mut allows: BTreeMap<&str, Vec<(u32, RuleId)>> = BTreeMap::new();
    for f in files {
        let (a, _) = parse_pragmas(&lex(&f.src).comments);
        allows.insert(f.rel_path.as_str(), a);
    }
    found.retain(|f| {
        !allows.get(f.rel_path.as_str()).is_some_and(|a| {
            a.iter()
                .any(|(l, r)| *r == f.diag.rule && (f.diag.line == *l || f.diag.line == *l + 1))
        })
    });
    report.findings.extend(found);
}

// ---------------------------------------------------------------------------
// D7 — overflow-hazard arithmetic
// ---------------------------------------------------------------------------

/// Crates whose arithmetic D7 audits (the simulation core; serve and
/// telemetry handle host-side quantities with different failure modes).
const D7_CRATES: &[&str] = &["cache", "core", "mem", "cpu"];

/// Workspace newtypes that are hazard-typed regardless of binding name.
const HAZARD_TYPES: &[&str] = &["LineAddr"];

/// The name lexicon: identifiers that denote simulated-clock or address
/// quantities. Matched case-insensitively on the binding/field name.
fn hazard_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("cycle")
        || n.contains("stamp")
        || n.contains("addr")
        || n.ends_with("_at")
        || n.ends_with("_ns")
        || matches!(n.as_str(), "now" | "arrival" | "deadline" | "tag")
}

/// Whether a declared type + binding name is hazard-typed. Known
/// non-integer types (floats, structs) veto a lexicon match: an
/// `avg_cycles: f64` statistic cannot overflow the way a clock can.
fn hazard_ty(ty: &Ty, name: &str) -> bool {
    match ty.deref_head() {
        Some(h) if HAZARD_TYPES.contains(&h) => true,
        Some("u64" | "u32" | "usize" | "u128") | None => hazard_name(name),
        Some(_) => false,
    }
}

#[derive(Clone, Default)]
struct D7Env {
    /// Hazard-typed bindings.
    hot: BTreeSet<String>,
    /// Bindings whose declared type vetoes a name match.
    cold: BTreeSet<String>,
    /// Binding → type head, for field-type lookups.
    tys: BTreeMap<String, String>,
}

struct D7Cx<'a> {
    ws: &'a Workspace,
    self_ty: Option<&'a str>,
    rel_path: &'a str,
    out: &'a mut Vec<Finding>,
}

fn check_d7(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.fns {
        if f.in_test || !D7_CRATES.contains(&f.crate_key.as_str()) {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        let mut env = D7Env::default();
        for p in &f.def.params {
            if let Pat::Bind { name, sub: None } = &p.pat {
                let declared = match &p.ty {
                    Ty::SelfTy => f.self_ty.clone(),
                    t => t.deref_head().map(str::to_string),
                };
                if let Some(h) = declared {
                    env.tys.insert(name.clone(), h);
                }
                if hazard_ty(&p.ty, name) {
                    env.hot.insert(name.clone());
                } else if !matches!(p.ty, Ty::Infer) {
                    env.cold.insert(name.clone());
                }
            }
        }
        let mut cx = D7Cx {
            ws,
            self_ty: f.self_ty.as_deref(),
            rel_path: &f.rel_path,
            out,
        };
        d7_block(body, &env, &mut cx);
    }
}

/// Type-head inference for D7's field lookups — a lighter cousin of the
/// call graph's, sufficient for `self.field` and annotated locals.
fn d7_infer_head(e: &Expr, env: &D7Env, cx: &D7Cx<'_>) -> Option<String> {
    match &e.kind {
        ExprKind::Path(p) => match p.as_slice() {
            [one] if one == "self" => cx.self_ty.map(str::to_string),
            [one] => env.tys.get(one).cloned(),
            _ => None,
        },
        ExprKind::Field { base, name } => {
            let b = d7_infer_head(base, env, cx)?;
            cx.ws
                .field_ty(&b, name)
                .and_then(Ty::deref_head)
                .map(str::to_string)
        }
        ExprKind::StructLit { path, .. } => path.last().cloned(),
        ExprKind::Cast { ty, .. } => ty.deref_head().map(str::to_string),
        ExprKind::Paren(i) | ExprKind::Ref(i) | ExprKind::Try(i) => d7_infer_head(i, env, cx),
        ExprKind::Unary { op: '*', expr } => d7_infer_head(expr, env, cx),
        ExprKind::Call { callee, .. } => {
            let p = callee.as_path()?;
            let last = p.last()?;
            HAZARD_TYPES.contains(&last.as_str()).then(|| last.clone())
        }
        _ => None,
    }
}

/// Whether an expression evaluates to a hazard-typed value.
fn d7_hazard(e: &Expr, env: &D7Env, cx: &D7Cx<'_>) -> bool {
    match &e.kind {
        ExprKind::Path(p) => match p.as_slice() {
            [one] => env.hot.contains(one) || (!env.cold.contains(one) && hazard_name(one)),
            // Consts/statics (`SENTINEL_ADDR`) match by name.
            _ => p.last().is_some_and(|s| hazard_name(s)),
        },
        ExprKind::Field { base, name } => {
            if let Some(bt) = d7_infer_head(base, env, cx) {
                if HAZARD_TYPES.contains(&bt.as_str()) {
                    return true; // `line.0` projects the address out of the newtype
                }
                if let Some(ft) = cx.ws.field_ty(&bt, name) {
                    return hazard_ty(ft, name);
                }
            }
            hazard_name(name)
        }
        // A bounded-op chain keeps the hazard type (its *result* is
        // still a clock), as do max/min clamps; anything else (`len`,
        // `count_ones`, …) launders it.
        ExprKind::MethodCall { recv, name, .. } => {
            (name.starts_with("wrapping_")
                || name.starts_with("checked_")
                || name.starts_with("saturating_")
                || name == "max"
                || name == "min")
                && d7_hazard(recv, env, cx)
        }
        ExprKind::Call { callee, args } => {
            let Some(p) = callee.as_path() else {
                return false;
            };
            let Some(last) = p.last() else { return false };
            if HAZARD_TYPES.contains(&last.as_str()) {
                return true; // newtype constructor: `LineAddr(x)`
            }
            if last == "from" || last == "try_from" {
                return args.iter().any(|a| d7_hazard(a, env, cx));
            }
            d7_ret_hazard(p, cx)
        }
        ExprKind::Binary { lhs, rhs, .. } => d7_hazard(lhs, env, cx) || d7_hazard(rhs, env, cx),
        ExprKind::Paren(i)
        | ExprKind::Ref(i)
        | ExprKind::Try(i)
        | ExprKind::Cast { expr: i, .. }
        | ExprKind::Unary { expr: i, .. } => d7_hazard(i, env, cx),
        _ => false,
    }
}

/// Whether an unambiguous workspace fn behind `path` returns a
/// hazard-typed value.
fn d7_ret_hazard(path: &[String], cx: &D7Cx<'_>) -> bool {
    let Some(name) = path.last() else {
        return false;
    };
    let candidates: Vec<FnId> = if path.len() >= 2
        && path[path.len() - 2]
            .chars()
            .next()
            .is_some_and(char::is_uppercase)
    {
        cx.ws.methods_of(&path[path.len() - 2], name)
    } else {
        cx.ws
            .fns_named(name)
            .into_iter()
            .filter(|id| cx.ws.fns[*id].self_ty.is_none())
            .collect()
    };
    match candidates.as_slice() {
        [one] => {
            let f = &cx.ws.fns[*one];
            f.def.ret.as_ref().is_some_and(|t| hazard_ty(t, &f.name))
        }
        _ => false,
    }
}

fn d7_op_str(op: crate::ast::BinOp) -> &'static str {
    use crate::ast::BinOp;
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Shl => "<<",
        _ => "?",
    }
}

fn d7_block(b: &Block, outer: &D7Env, cx: &mut D7Cx<'_>) {
    let mut env = outer.clone();
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                pat, ty, init, els, ..
            } => {
                if let Some(e) = init {
                    d7_expr(e, &env, cx);
                }
                if let Some(eb) = els {
                    d7_block(eb, &env, cx);
                }
                let init_hazard = init.as_ref().is_some_and(|e| d7_hazard(e, &env, cx));
                match pat {
                    Pat::Bind { name, sub: None } => {
                        env.hot.remove(name);
                        env.cold.remove(name);
                        env.tys.remove(name);
                        match ty {
                            Some(t) => {
                                if let Some(h) = t.deref_head() {
                                    env.tys.insert(name.clone(), h.to_string());
                                }
                                if hazard_ty(t, name) {
                                    env.hot.insert(name.clone());
                                } else {
                                    env.cold.insert(name.clone());
                                }
                            }
                            None => {
                                if let Some(h) =
                                    init.as_ref().and_then(|e| d7_infer_head(e, &env, cx))
                                {
                                    env.tys.insert(name.clone(), h);
                                }
                                if init_hazard || hazard_name(name) {
                                    env.hot.insert(name.clone());
                                }
                            }
                        }
                    }
                    other => {
                        let mut names = Vec::new();
                        other.bound_names(&mut names);
                        for n in names {
                            env.cold.remove(&n);
                            env.tys.remove(&n);
                            // `let (start, end) = window(..)` with a
                            // hazard init taints every element.
                            if init_hazard || hazard_name(&n) {
                                env.hot.insert(n);
                            } else {
                                env.hot.remove(&n);
                            }
                        }
                    }
                }
            }
            Stmt::Expr { expr, .. } => {
                d7_expr(expr, &env, cx);
                if let ExprKind::Assign { op: None, lhs, rhs } = &expr.kind {
                    if let Some([name]) = lhs.as_path() {
                        if d7_hazard(rhs, &env, cx) {
                            env.hot.insert(name.clone());
                        }
                    }
                }
            }
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
}

/// Checks one expression tree against D7 (env is frozen within a
/// statement; nested blocks re-enter [`d7_block`] with a child scope).
fn d7_expr(e: &Expr, env: &D7Env, cx: &mut D7Cx<'_>) {
    match &e.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_overflow_hazard() => {
            if !lhs.is_literal()
                && !rhs.is_literal()
                && (d7_hazard(lhs, env, cx) || d7_hazard(rhs, env, cx))
            {
                d7_report(e.line, *op, cx);
            }
            d7_expr(lhs, env, cx);
            d7_expr(rhs, env, cx);
        }
        ExprKind::Assign {
            op: Some(op),
            lhs,
            rhs,
        } if op.is_overflow_hazard() => {
            if !rhs.is_literal() && (d7_hazard(lhs, env, cx) || d7_hazard(rhs, env, cx)) {
                d7_report(e.line, *op, cx);
            }
            d7_expr(lhs, env, cx);
            d7_expr(rhs, env, cx);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            d7_expr(lhs, env, cx);
            d7_expr(rhs, env, cx);
        }
        ExprKind::Unary { expr: i, .. }
        | ExprKind::Ref(i)
        | ExprKind::Cast { expr: i, .. }
        | ExprKind::Try(i)
        | ExprKind::Paren(i) => d7_expr(i, env, cx),
        ExprKind::Call { callee, args } => {
            d7_expr(callee, env, cx);
            for a in args {
                d7_expr(a, env, cx);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            d7_expr(recv, env, cx);
            for a in args {
                d7_expr(a, env, cx);
            }
        }
        ExprKind::Field { base, .. } => d7_expr(base, env, cx),
        ExprKind::Index { base, index } => {
            d7_expr(base, env, cx);
            d7_expr(index, env, cx);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                d7_expr(a, env, cx);
            }
        }
        ExprKind::StructLit { fields, base, .. } => {
            for (_, fe) in fields {
                d7_expr(fe, env, cx);
            }
            if let Some(be) = base {
                d7_expr(be, env, cx);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for i in es {
                d7_expr(i, env, cx);
            }
        }
        ExprKind::If { cond, then, els } => {
            d7_expr(cond, env, cx);
            d7_block(then, env, cx);
            if let Some(el) = els {
                d7_expr(el, env, cx);
            }
        }
        ExprKind::IfLet {
            expr: scrut,
            then,
            els,
            ..
        } => {
            d7_expr(scrut, env, cx);
            d7_block(then, env, cx);
            if let Some(el) = els {
                d7_expr(el, env, cx);
            }
        }
        ExprKind::Match { scrut, arms } => {
            d7_expr(scrut, env, cx);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    d7_expr(g, env, cx);
                }
                d7_expr(&arm.body, env, cx);
            }
        }
        ExprKind::While { cond, body } => {
            d7_expr(cond, env, cx);
            d7_block(body, env, cx);
        }
        ExprKind::WhileLet {
            expr: scrut, body, ..
        } => {
            d7_expr(scrut, env, cx);
            d7_block(body, env, cx);
        }
        ExprKind::For { iter, body, .. } => {
            d7_expr(iter, env, cx);
            d7_block(body, env, cx);
        }
        ExprKind::Loop { body } => d7_block(body, env, cx),
        ExprKind::BlockExpr(b) | ExprKind::UnsafeBlock(b) => d7_block(b, env, cx),
        ExprKind::Closure { body, .. } => d7_expr(body, env, cx),
        ExprKind::Return(i) | ExprKind::Break(i) => {
            if let Some(i) = i {
                d7_expr(i, env, cx);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(i) = lo {
                d7_expr(i, env, cx);
            }
            if let Some(i) = hi {
                d7_expr(i, env, cx);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Num(_)
        | ExprKind::Str
        | ExprKind::Bool(_)
        | ExprKind::Continue => {}
    }
}

fn d7_report(line: u32, op: crate::ast::BinOp, cx: &mut D7Cx<'_>) {
    cx.out.push(Finding {
        rel_path: cx.rel_path.to_string(),
        diag: Diagnostic {
            line,
            rule: RuleId::D7,
            msg: format!(
                "bare `{}` on a cycle/address/timestamp-typed value; spell the bound \
                 (`wrapping_*`/`saturating_*`/`checked_*`) or justify with \
                 `// lint: bounded(\"…\")`",
                d7_op_str(op)
            ),
        },
    });
}

// ---------------------------------------------------------------------------
// D8 — panic reachability from serve request handlers
// ---------------------------------------------------------------------------

fn check_d8(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<FnId> = ws
        .fns
        .iter()
        .filter(|f| {
            f.crate_key == "serve"
                && !f.in_test
                && f.def
                    .params
                    .iter()
                    .any(|p| p.ty.deref_head() == Some("TcpStream"))
        })
        .map(|f| f.id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(&roots);
    for &id in reach.keys() {
        let f = &ws.fns[id];
        if f.in_test {
            continue;
        }
        for s in &graph.sinks[id] {
            // Sinks inside a `thread::spawn` closure unwind the spawned
            // thread and surface as `Err` at `join()`; the handler
            // thread itself survives, which is all D8 guards.
            if s.isolated {
                continue;
            }
            out.push(Finding {
                rel_path: f.rel_path.clone(),
                diag: Diagnostic {
                    line: s.line,
                    rule: RuleId::D8,
                    msg: format!(
                        "`{}` in `{}` is reachable from a request handler \
                         ({}); a malformed request must get an error \
                         response, not kill the handler thread",
                        s.what,
                        f.qual_name(),
                        graph.path_to(ws, &reach, id)
                    ),
                },
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D9 — host-clock taint into simulation results/events
// ---------------------------------------------------------------------------

fn check_d9(ws: &Workspace, out: &mut Vec<Finding>) {
    // Fixpoint over per-fn return-taint summaries: does this fn return
    // a value derived from now_ns()? Each pass only flips summaries
    // false→true, so iteration count is bounded by call-chain depth.
    let mut ret = vec![false; ws.fns.len()];
    loop {
        let mut changed = false;
        for f in &ws.fns {
            if ret[f.id] || f.in_test {
                continue;
            }
            let Some(body) = &f.def.body else { continue };
            let mut scan = D9Scan {
                ws,
                ret: &ret,
                env: BTreeSet::new(),
                returns_taint: false,
                findings: None,
                rel_path: &f.rel_path,
            };
            let tail = scan.block(body);
            if scan.returns_taint || tail {
                ret[f.id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Sink pass with stable summaries.
    for f in &ws.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        let mut scan = D9Scan {
            ws,
            ret: &ret,
            env: BTreeSet::new(),
            returns_taint: false,
            findings: Some(out),
            rel_path: &f.rel_path,
        };
        scan.block(body);
    }
}

struct D9Scan<'a, 'o> {
    ws: &'a Workspace,
    ret: &'a [bool],
    /// Tainted local bindings (flat per fn — shadowing over-taints,
    /// which errs in the safe direction).
    env: BTreeSet<String>,
    returns_taint: bool,
    findings: Option<&'o mut Vec<Finding>>,
    rel_path: &'a str,
}

impl D9Scan<'_, '_> {
    /// Scans a block in statement order; returns whether its tail value
    /// is tainted.
    fn block(&mut self, b: &Block) -> bool {
        let mut tail = false;
        for stmt in &b.stmts {
            tail = false;
            match stmt {
                Stmt::Let { pat, init, els, .. } => {
                    let t = init.as_ref().is_some_and(|e| self.expr(e));
                    if let Some(eb) = els {
                        self.block(eb);
                    }
                    if t {
                        let mut names = Vec::new();
                        pat.bound_names(&mut names);
                        self.env.extend(names);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let t = self.expr(expr);
                    if !semi {
                        tail = t;
                    }
                    if let ExprKind::Assign { lhs, rhs, .. } = &expr.kind {
                        if self.env_snapshot_tainted(rhs) {
                            if let Some([name]) = lhs.as_path() {
                                self.env.insert(name.clone());
                            }
                        }
                    }
                }
                Stmt::Item(_) | Stmt::Empty => {}
            }
        }
        tail
    }

    /// Re-evaluates taint of an already-scanned expr without emitting
    /// duplicate sink findings (used for assignment tracking).
    fn env_snapshot_tainted(&mut self, e: &Expr) -> bool {
        let saved = self.findings.take();
        let t = self.expr(e);
        self.findings = saved;
        t
    }

    /// Scans one expression; returns whether its value is tainted.
    /// Sink checks (SimResult literals, `emit(..)` args) happen here
    /// when `findings` is armed.
    fn expr(&mut self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Path(p) => match p.as_slice() {
                [one] => self.env.contains(one),
                _ => false,
            },
            ExprKind::Num(_) | ExprKind::Str | ExprKind::Bool(_) | ExprKind::Continue => false,
            ExprKind::Call { callee, args } => {
                let mut t = false;
                for a in args {
                    t |= self.expr(a);
                }
                if let Some(p) = callee.as_path() {
                    if p.last().is_some_and(|s| s == "now_ns") {
                        return true;
                    }
                    t |= self.call_ret_taint(p);
                } else {
                    t |= self.expr(callee);
                }
                t
            }
            ExprKind::MethodCall { recv, name, args } => {
                if name == "now_ns" {
                    return true;
                }
                let rt = self.expr(recv);
                let mut arg_taints = Vec::with_capacity(args.len());
                for a in args {
                    let t = self.expr(a);
                    arg_taints.push(t);
                }
                if name == "emit" {
                    for (a, &t) in args.iter().zip(&arg_taints) {
                        if t {
                            self.report(
                                a.line,
                                "host-clock (prof::now_ns) derived value flows into an \
                                 event payload; simulation events must not carry host time",
                            );
                        }
                    }
                }
                let summary = {
                    let methods: Vec<FnId> = self
                        .ws
                        .fns_named(name)
                        .into_iter()
                        .filter(|id| self.ws.fns[*id].self_ty.is_some())
                        .collect();
                    matches!(methods.as_slice(), [one] if self.ret[*one])
                };
                rt || arg_taints.into_iter().any(|t| t) || summary
            }
            ExprKind::StructLit { path, fields, base } => {
                let mut t = false;
                for (_, fe) in fields {
                    let ft = self.expr(fe);
                    if ft && path.last().is_some_and(|s| s == "SimResult") {
                        self.report(
                            fe.line,
                            "host-clock (prof::now_ns) derived value flows into \
                             SimResult construction; simulation results must be a pure \
                             function of the workload, or determinism CI diffs",
                        );
                    }
                    t |= ft;
                }
                if let Some(be) = base {
                    t |= self.expr(be);
                }
                t
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                l || r
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                false
            }
            ExprKind::Unary { expr: i, .. }
            | ExprKind::Ref(i)
            | ExprKind::Cast { expr: i, .. }
            | ExprKind::Try(i)
            | ExprKind::Paren(i) => self.expr(i),
            ExprKind::Field { base, .. } => self.expr(base),
            ExprKind::Index { base, index } => {
                let b = self.expr(base);
                let i = self.expr(index);
                b || i
            }
            ExprKind::MacroCall { args, .. } => {
                let mut t = false;
                for a in args {
                    t |= self.expr(a);
                }
                t
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                let mut t = false;
                for i in es {
                    t |= self.expr(i);
                }
                t
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond);
                let t = self.block(then);
                let e2 = els.as_ref().is_some_and(|el| self.expr(el));
                t || e2
            }
            ExprKind::IfLet {
                pat,
                expr: scrut,
                then,
                els,
            } => {
                if self.expr(scrut) {
                    let mut names = Vec::new();
                    pat.bound_names(&mut names);
                    self.env.extend(names);
                }
                let t = self.block(then);
                let e2 = els.as_ref().is_some_and(|el| self.expr(el));
                t || e2
            }
            ExprKind::Match { scrut, arms } => {
                let st = self.expr(scrut);
                let mut t = false;
                for arm in arms {
                    if st {
                        let mut names = Vec::new();
                        arm.pat.bound_names(&mut names);
                        self.env.extend(names);
                    }
                    if let Some(g) = &arm.guard {
                        self.expr(g);
                    }
                    t |= self.expr(&arm.body);
                }
                t
            }
            ExprKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
                false
            }
            ExprKind::WhileLet {
                pat,
                expr: scrut,
                body,
            } => {
                if self.expr(scrut) {
                    let mut names = Vec::new();
                    pat.bound_names(&mut names);
                    self.env.extend(names);
                }
                self.block(body);
                false
            }
            ExprKind::For { pat, iter, body } => {
                if self.expr(iter) {
                    let mut names = Vec::new();
                    pat.bound_names(&mut names);
                    self.env.extend(names);
                }
                self.block(body);
                false
            }
            ExprKind::Loop { body } => {
                self.block(body);
                false
            }
            ExprKind::BlockExpr(b) | ExprKind::UnsafeBlock(b) => self.block(b),
            ExprKind::Closure { body, .. } => self.expr(body),
            ExprKind::Return(i) => {
                if let Some(i) = i {
                    if self.expr(i) {
                        self.returns_taint = true;
                    }
                }
                false
            }
            ExprKind::Break(i) => {
                if let Some(i) = i {
                    self.expr(i);
                }
                false
            }
            ExprKind::Range { lo, hi } => {
                let l = lo.as_ref().is_some_and(|i| self.expr(i));
                let h = hi.as_ref().is_some_and(|i| self.expr(i));
                l || h
            }
        }
    }

    /// Return-taint of a workspace fn behind a call path (any matching
    /// candidate tainting is enough — conservative on name collisions).
    fn call_ret_taint(&self, path: &[String]) -> bool {
        let Some(name) = path.last() else {
            return false;
        };
        let candidates: Vec<FnId> = if path.len() >= 2
            && path[path.len() - 2]
                .chars()
                .next()
                .is_some_and(char::is_uppercase)
        {
            self.ws.methods_of(&path[path.len() - 2], name)
        } else {
            self.ws
                .fns_named(name)
                .into_iter()
                .filter(|id| self.ws.fns[*id].self_ty.is_none())
                .collect()
        };
        candidates.iter().any(|id| self.ret[*id])
    }

    fn report(&mut self, line: u32, msg: &str) {
        let rel_path = self.rel_path.to_string();
        if let Some(out) = self.findings.as_deref_mut() {
            out.push(Finding {
                rel_path,
                diag: Diagnostic {
                    line,
                    rule: RuleId::D9,
                    msg: msg.to_string(),
                },
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D10a — atomic ordering-pair consistency
// ---------------------------------------------------------------------------

const D10_ATOMIC_CRATES: &[&str] = &["telemetry", "serve"];
const ATOMIC_WRITES: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
];
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Default)]
struct AtomicCell {
    /// `(ordering, rel_path, line)` per site.
    writes: Vec<(String, String, u32)>,
    reads: Vec<(String, String, u32)>,
}

fn ordering_of(args: &[Expr]) -> Option<String> {
    args.iter().find_map(|a| match &a.kind {
        ExprKind::Path(p) => p
            .last()
            .filter(|s| ORDERINGS.contains(&s.as_str()))
            .cloned(),
        _ => None,
    })
}

fn check_d10_atomics(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut cells: BTreeMap<(String, String), AtomicCell> = BTreeMap::new();
    for f in &ws.fns {
        if f.in_test || !D10_ATOMIC_CRATES.contains(&f.crate_key.as_str()) {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        walk_block(body, &mut |e| {
            let ExprKind::MethodCall { recv, name, args } = &e.kind else {
                return;
            };
            let Some(ord) = ordering_of(args) else {
                return; // not an atomic op (no Ordering argument)
            };
            let Some(key) = recv.receiver_key() else {
                return;
            };
            let tail = key.rsplit('.').next().unwrap_or(&key).to_string();
            let cell = cells.entry((f.crate_key.clone(), tail)).or_default();
            let site = (ord, f.rel_path.clone(), e.line);
            if name == "load" {
                cell.reads.push(site);
            } else if ATOMIC_WRITES.contains(&name.as_str()) {
                cell.writes.push(site);
            } else if name.starts_with("compare_exchange") || name == "fetch_update" {
                // The success ordering acts as the write; the same site
                // also observes the old value, so count it as a read.
                cell.writes.push(site.clone());
                cell.reads.push(site);
            }
        });
    }
    let release_class = |o: &str| matches!(o, "Release" | "AcqRel" | "SeqCst");
    let acquire_class = |o: &str| matches!(o, "Acquire" | "AcqRel" | "SeqCst");
    for ((_, key), cell) in &cells {
        let rel_writes: Vec<_> = cell
            .writes
            .iter()
            .filter(|(o, _, _)| release_class(o))
            .collect();
        let acq_reads: Vec<_> = cell
            .reads
            .iter()
            .filter(|(o, _, _)| acquire_class(o))
            .collect();
        if !rel_writes.is_empty() && !cell.reads.is_empty() && acq_reads.is_empty() {
            let (ord, path, line) = rel_writes[0];
            let (_, rpath, rline) = &cell.reads[0];
            out.push(Finding {
                rel_path: path.clone(),
                diag: Diagnostic {
                    line: *line,
                    rule: RuleId::D10,
                    msg: format!(
                        "atomic `{key}`: {ord} write here but every load is Relaxed \
                         (e.g. {rpath}:{rline}) — the release fence orders nothing; \
                         make the pair consistent"
                    ),
                },
            });
        } else if !acq_reads.is_empty() && !cell.writes.is_empty() && rel_writes.is_empty() {
            let (ord, path, line) = acq_reads[0];
            let (_, wpath, wline) = &cell.writes[0];
            out.push(Finding {
                rel_path: path.clone(),
                diag: Diagnostic {
                    line: *line,
                    rule: RuleId::D10,
                    msg: format!(
                        "atomic `{key}`: {ord} load here but every write is Relaxed \
                         (e.g. {wpath}:{wline}) — the acquire fence orders nothing; \
                         make the pair consistent"
                    ),
                },
            });
        }
    }
}

// ---------------------------------------------------------------------------
// D10b — lock-order cycles in serve
// ---------------------------------------------------------------------------

struct LockGuard {
    /// The let-bound guard variable, if any (`None` = statement temp).
    var: Option<String>,
    key: String,
}

struct D10bCx<'a> {
    rel_path: &'a str,
    /// `(held, acquired)` → first site.
    pairs: &'a mut BTreeMap<(String, String), (String, u32)>,
}

/// The lock identity an expression acquires, if it is a lock
/// acquisition: `x.lock()`, the serve-crate `lock(&x)` helper, and
/// `.unwrap()`/`.expect()`-wrapped forms. Identity is the last dotted
/// component of the receiver (`self.inner` → `inner`), which names the
/// field/static the Mutex lives in regardless of access path.
fn acquire_key(e: &Expr) -> Option<String> {
    fn tail(key: &str) -> String {
        key.rsplit('.').next().unwrap_or(key).to_string()
    }
    match &e.kind {
        ExprKind::MethodCall { recv, name, .. } if name == "lock" => {
            recv.receiver_key().map(|k| tail(&k))
        }
        ExprKind::MethodCall { recv, name, .. } if name == "unwrap" || name == "expect" => {
            acquire_key(recv)
        }
        ExprKind::Call { callee, args } => {
            let p = callee.as_path()?;
            if p.last()? == "lock" {
                args.first().and_then(Expr::receiver_key).map(|k| tail(&k))
            } else {
                None
            }
        }
        ExprKind::Paren(i) | ExprKind::Try(i) => acquire_key(i),
        _ => None,
    }
}

fn check_d10_locks(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut pairs: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for f in &ws.fns {
        if f.in_test || f.crate_key != "serve" {
            continue;
        }
        let Some(body) = &f.def.body else { continue };
        let mut cx = D10bCx {
            rel_path: &f.rel_path,
            pairs: &mut pairs,
        };
        let mut live: Vec<LockGuard> = Vec::new();
        d10b_block(body, &mut live, &mut cx);
    }
    for ((a, b), (path, line)) in &pairs {
        if a == b {
            out.push(Finding {
                rel_path: path.clone(),
                diag: Diagnostic {
                    line: *line,
                    rule: RuleId::D10,
                    msg: format!(
                        "lock `{a}` acquired while a guard on the same lock is still \
                         live — this self-deadlocks on std::sync::Mutex"
                    ),
                },
            });
        } else if let Some((opath, oline)) = pairs.get(&(b.clone(), a.clone())) {
            out.push(Finding {
                rel_path: path.clone(),
                diag: Diagnostic {
                    line: *line,
                    rule: RuleId::D10,
                    msg: format!(
                        "lock order inversion: `{a}` is held while acquiring `{b}` \
                         here, but {opath}:{oline} acquires them in the opposite \
                         order — a deadlock waiting for concurrent requests"
                    ),
                },
            });
        }
    }
}

fn d10b_block(b: &Block, live: &mut Vec<LockGuard>, cx: &mut D10bCx<'_>) {
    let scope_mark = live.len();
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { pat, init, els, .. } => {
                let stmt_mark = live.len();
                if let Some(e) = init {
                    d10b_expr(e, live, cx);
                }
                if let Some(eb) = els {
                    d10b_block(eb, live, cx);
                }
                live.truncate(stmt_mark); // init temporaries die at the `;`
                if let Pat::Bind { name, sub: None } = pat {
                    if let Some(key) = init.as_ref().and_then(acquire_key) {
                        live.push(LockGuard {
                            var: Some(name.clone()),
                            key,
                        });
                    }
                }
            }
            Stmt::Expr { expr, .. } => {
                // `drop(guard)` / `std::mem::drop(guard)` releases early.
                if let ExprKind::Call { callee, args } = &expr.kind {
                    if callee
                        .as_path()
                        .is_some_and(|p| p.last().is_some_and(|s| s == "drop"))
                    {
                        if let Some([name]) = args.first().and_then(Expr::as_path) {
                            live.retain(|g| g.var.as_deref() != Some(name));
                            continue;
                        }
                    }
                }
                let stmt_mark = live.len();
                d10b_expr(expr, live, cx);
                live.truncate(stmt_mark);
            }
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
    live.truncate(scope_mark);
}

fn d10b_expr(e: &Expr, live: &mut Vec<LockGuard>, cx: &mut D10bCx<'_>) {
    if let Some(key) = acquire_key(e) {
        for g in live.iter() {
            cx.pairs
                .entry((g.key.clone(), key.clone()))
                .or_insert_with(|| (cx.rel_path.to_string(), e.line));
        }
        // Children of a matched acquisition are not re-walked: the
        // `.unwrap()`-wrapped inner `.lock()` is the same acquisition,
        // not a second one.
        live.push(LockGuard { var: None, key });
        return;
    }
    match &e.kind {
        ExprKind::Unary { expr: i, .. }
        | ExprKind::Ref(i)
        | ExprKind::Cast { expr: i, .. }
        | ExprKind::Try(i)
        | ExprKind::Paren(i) => d10b_expr(i, live, cx),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            d10b_expr(lhs, live, cx);
            d10b_expr(rhs, live, cx);
        }
        ExprKind::Call { callee, args } => {
            d10b_expr(callee, live, cx);
            for a in args {
                d10b_expr(a, live, cx);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            d10b_expr(recv, live, cx);
            for a in args {
                d10b_expr(a, live, cx);
            }
        }
        ExprKind::Field { base, .. } => d10b_expr(base, live, cx),
        ExprKind::Index { base, index } => {
            d10b_expr(base, live, cx);
            d10b_expr(index, live, cx);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                d10b_expr(a, live, cx);
            }
        }
        ExprKind::StructLit { fields, base, .. } => {
            for (_, fe) in fields {
                d10b_expr(fe, live, cx);
            }
            if let Some(be) = base {
                d10b_expr(be, live, cx);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for i in es {
                d10b_expr(i, live, cx);
            }
        }
        ExprKind::If { cond, then, els } => {
            d10b_expr(cond, live, cx);
            d10b_block(then, live, cx);
            if let Some(el) = els {
                d10b_expr(el, live, cx);
            }
        }
        ExprKind::IfLet {
            expr: scrut,
            then,
            els,
            ..
        } => {
            d10b_expr(scrut, live, cx);
            d10b_block(then, live, cx);
            if let Some(el) = els {
                d10b_expr(el, live, cx);
            }
        }
        ExprKind::Match { scrut, arms } => {
            d10b_expr(scrut, live, cx);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    d10b_expr(g, live, cx);
                }
                d10b_expr(&arm.body, live, cx);
            }
        }
        ExprKind::While { cond, body } => {
            d10b_expr(cond, live, cx);
            d10b_block(body, live, cx);
        }
        ExprKind::WhileLet {
            expr: scrut, body, ..
        } => {
            d10b_expr(scrut, live, cx);
            d10b_block(body, live, cx);
        }
        ExprKind::For { iter, body, .. } => {
            d10b_expr(iter, live, cx);
            d10b_block(body, live, cx);
        }
        ExprKind::Loop { body } => d10b_block(body, live, cx),
        ExprKind::BlockExpr(b) | ExprKind::UnsafeBlock(b) => d10b_block(b, live, cx),
        ExprKind::Closure { body, .. } => d10b_expr(body, live, cx),
        ExprKind::Return(i) | ExprKind::Break(i) => {
            if let Some(i) = i {
                d10b_expr(i, live, cx);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(i) = lo {
                d10b_expr(i, live, cx);
            }
            if let Some(i) = hi {
                d10b_expr(i, live, cx);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Num(_)
        | ExprKind::Str
        | ExprKind::Bool(_)
        | ExprKind::Continue => {}
    }
}

// ---------------------------------------------------------------------------
// Planted-violation corpus: every rule must fire on its planted bug at
// the exact line, stay silent on the clean variant, and honor pragma
// suppression without over-suppressing.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use crate::rules::RuleId;
    use crate::{lint_files, InputFile, LintReport};

    fn file(crate_key: &str, name: &str, src: &str) -> InputFile {
        InputFile {
            rel_path: format!("crates/{crate_key}/src/{name}"),
            crate_key: crate_key.to_string(),
            src: src.to_string(),
        }
    }

    /// Lints planted files; panics if any fail to parse (a corpus file
    /// outside the parser subset would silently test nothing).
    #[track_caller]
    fn run(files: Vec<InputFile>) -> LintReport {
        let r = lint_files(&files);
        assert!(
            r.parse_errors.is_empty(),
            "planted corpus failed to parse: {:?}",
            r.parse_errors
        );
        r
    }

    fn lines_for(r: &LintReport, rule: RuleId) -> Vec<u32> {
        r.findings
            .iter()
            .filter(|f| f.diag.rule == rule)
            .map(|f| f.diag.line)
            .collect()
    }

    fn msgs_for(r: &LintReport, rule: RuleId) -> Vec<String> {
        r.findings
            .iter()
            .filter(|f| f.diag.rule == rule)
            .map(|f| f.diag.msg.clone())
            .collect()
    }

    // ---- D7 ---------------------------------------------------------------

    #[test]
    fn d7_flags_bare_arithmetic_on_cycle_values() {
        let r = run(vec![file(
            "mem",
            "sched.rs",
            r#"pub fn drain(cur_cycle: u64, latency: u64) -> u64 {
    cur_cycle + latency
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D7), vec![2]);
    }

    #[test]
    fn d7_literal_operands_and_wrapping_forms_are_clean() {
        let r = run(vec![file(
            "mem",
            "sched.rs",
            r#"pub fn drain(cur_cycle: u64, latency: u64) -> u64 {
    let warm = cur_cycle + 1;
    warm.wrapping_add(latency)
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D7), Vec::<u32>::new());
    }

    #[test]
    fn d7_tracks_hazard_newtypes_through_lets() {
        // `base` is hazard-typed only via `let base = line.0` — the
        // LineAddr projection — not via its name.
        let r = run(vec![file(
            "cache",
            "span.rs",
            r#"pub struct LineAddr(pub u64);

pub fn span(line: LineAddr, ways: u64) -> u64 {
    let base = line.0;
    base * ways
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D7), vec![5]);
    }

    #[test]
    fn d7_is_scoped_to_simulation_crates() {
        // Identical code in `serve` handles host-side quantities; D7
        // does not apply there.
        let r = run(vec![file(
            "serve",
            "timing.rs",
            r#"pub fn drain(cur_cycle: u64, latency: u64) -> u64 {
    cur_cycle + latency
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D7), Vec::<u32>::new());
    }

    #[test]
    fn d7_bounded_pragma_suppresses_only_the_next_line() {
        let r = run(vec![file(
            "core",
            "lat.rs",
            r#"pub fn total(cur_cycle: u64, stall_cycles: u64) -> u64 {
    // lint: bounded("both counts are < 2^40 by the sweep cap")
    let a = cur_cycle + stall_cycles;
    let b = cur_cycle * stall_cycles;
    a.wrapping_add(b)
}
"#,
        )]);
        // Line 3 is covered by the pragma on line 2; line 4 is not.
        assert_eq!(lines_for(&r, RuleId::D7), vec![4]);
    }

    #[test]
    fn d7_allow_pragma_for_a_different_rule_does_not_suppress() {
        let r = run(vec![file(
            "core",
            "lat.rs",
            r#"pub fn total(cur_cycle: u64, stall_cycles: u64) -> u64 {
    // lint: allow(D9, "wrong rule on purpose")
    cur_cycle + stall_cycles
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D7), vec![3]);
    }

    // ---- D8 ---------------------------------------------------------------

    #[test]
    fn d8_flags_panics_reachable_from_request_handlers() {
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"use std::net::TcpStream;

pub fn handle(stream: TcpStream) -> usize {
    let _ = stream;
    frame_len(None)
}

fn frame_len(spec: Option<usize>) -> usize {
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), vec![9]);
        let msgs = msgs_for(&r, RuleId::D8);
        assert!(
            msgs[0].contains("handle -> frame_len"),
            "finding should print the discovery path, got: {}",
            msgs[0]
        );
    }

    #[test]
    fn d8_ignores_panics_not_reachable_from_a_handler() {
        // No TcpStream-taking root: the same sink is not a D8 finding.
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"pub fn handle(port: u16) -> usize {
    let _ = port;
    frame_len(None)
}

fn frame_len(spec: Option<usize>) -> usize {
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), Vec::<u32>::new());
    }

    #[test]
    fn d8_allow_pragma_suppresses_at_the_sink() {
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"use std::net::TcpStream;

pub fn handle(stream: TcpStream) -> usize {
    let _ = stream;
    frame_len(None)
}

fn frame_len(spec: Option<usize>) -> usize {
    // lint: allow(D8, "spec is always Some: handle() fills it")
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), Vec::<u32>::new());
    }

    #[test]
    fn d8_spawned_closure_is_a_panic_isolation_boundary() {
        // The panicking work runs inside `thread::spawn(move || …)` and
        // the handler handles the `join()` Err: a panic unwinds the
        // spawned thread and becomes an error response, which is exactly
        // what D8 demands — no finding.
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"use std::net::TcpStream;
use std::thread;

pub fn handle(stream: TcpStream) -> usize {
    let _ = stream;
    let joined = thread::spawn(move || score(None)).join();
    match joined {
        Ok(v) => v,
        Err(_) => 0,
    }
}

fn score(spec: Option<usize>) -> usize {
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), Vec::<u32>::new());
    }

    #[test]
    fn d8_unwrapped_join_is_still_a_finding() {
        // Spawning buys nothing if the handler then unwraps the join
        // result: the panic is re-raised on the handler thread. The
        // `.unwrap()` is ordinary handler code and stays a D8 sink
        // (while `score`'s own `expect` stays isolated — one finding).
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"use std::net::TcpStream;
use std::thread;

pub fn handle(stream: TcpStream) -> usize {
    let _ = stream;
    thread::spawn(move || score(None)).join().unwrap()
}

fn score(spec: Option<usize>) -> usize {
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), vec![6]);
    }

    #[test]
    fn d8_closure_without_spawn_gets_no_isolation_credit() {
        // The same closure body run on the handler thread (an iterator
        // adapter here) is NOT isolated — the boundary is the literal
        // `thread::spawn(<closure>)` syntax, nothing looser.
        let r = run(vec![file(
            "serve",
            "handler.rs",
            r#"use std::net::TcpStream;

pub fn handle(stream: TcpStream) -> usize {
    let _ = stream;
    let sizes = vec![1usize];
    sizes.iter().map(|n| score(Some(*n))).count()
}

fn score(spec: Option<usize>) -> usize {
    spec.expect("present")
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D8), vec![10]);
    }

    // ---- D9 ---------------------------------------------------------------

    #[test]
    fn d9_flags_host_clock_flow_into_sim_results() {
        let r = run(vec![file(
            "telemetry",
            "stamp.rs",
            r#"pub struct SimResult {
    pub cycles: u64,
}

fn now_ns() -> u64 {
    0
}

pub fn snapshot() -> SimResult {
    let t0 = now_ns();
    let elapsed = now_ns() - t0;
    SimResult { cycles: elapsed }
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D9), vec![12]);
    }

    #[test]
    fn d9_taint_propagates_through_function_returns_into_emit() {
        // `stamp()` returns host time; the fixpoint must carry that
        // summary into `record`'s emit argument.
        let r = run(vec![file(
            "telemetry",
            "stamp.rs",
            r#"fn now_ns() -> u64 {
    0
}

fn stamp() -> u64 {
    now_ns()
}

pub fn record(bus: &EventBus) {
    let s = stamp();
    bus.emit(s);
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D9), vec![11]);
    }

    #[test]
    fn d9_host_time_in_any_event_variant_is_flagged() {
        // No event variant is a sanctioned carrier of host time, not even
        // one that exists only to report it.
        let r = run(vec![file(
            "telemetry",
            "stamp.rs",
            r#"fn now_ns() -> u64 {
    0
}

pub fn record(bus: &EventBus) {
    bus.emit(Event::HostTime { wall_ns: now_ns() });
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D9), vec![6]);
    }

    #[test]
    fn d9_untainted_sim_results_are_clean() {
        let r = run(vec![file(
            "telemetry",
            "stamp.rs",
            r#"pub struct SimResult {
    pub cycles: u64,
}

pub fn finish(sim_cycles: u64) -> SimResult {
    SimResult { cycles: sim_cycles }
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D9), Vec::<u32>::new());
    }

    // ---- D10a -------------------------------------------------------------

    #[test]
    fn d10_flags_release_store_paired_with_relaxed_loads() {
        let r = run(vec![file(
            "telemetry",
            "flag.rs",
            r#"use std::sync::atomic::{AtomicBool, Ordering};

pub static FLAG: AtomicBool = AtomicBool::new(false);

pub fn set() {
    FLAG.store(true, Ordering::SeqCst);
}

pub fn get() -> bool {
    FLAG.load(Ordering::Relaxed)
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D10), vec![6]);
        assert!(msgs_for(&r, RuleId::D10)[0].contains("every load is Relaxed"));
    }

    #[test]
    fn d10_flags_acquire_load_paired_with_relaxed_stores() {
        let r = run(vec![file(
            "telemetry",
            "flag.rs",
            r#"use std::sync::atomic::{AtomicBool, Ordering};

pub static FLAG: AtomicBool = AtomicBool::new(false);

pub fn set() {
    FLAG.store(true, Ordering::Relaxed);
}

pub fn get() -> bool {
    FLAG.load(Ordering::Acquire)
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D10), vec![10]);
        assert!(msgs_for(&r, RuleId::D10)[0].contains("every write is Relaxed"));
    }

    #[test]
    fn d10_consistent_ordering_pairs_are_clean() {
        // Release/Acquire on one cell, all-Relaxed on another: both fine.
        let r = run(vec![file(
            "telemetry",
            "flag.rs",
            r#"use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub static READY: AtomicBool = AtomicBool::new(false);
pub static COUNT: AtomicU64 = AtomicU64::new(0);

pub fn publish() {
    READY.store(true, Ordering::Release);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

pub fn observe() -> bool {
    let n = COUNT.load(Ordering::Relaxed);
    let _ = n;
    READY.load(Ordering::Acquire)
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D10), Vec::<u32>::new());
    }

    // ---- D10b -------------------------------------------------------------

    #[test]
    fn d10_flags_lock_order_inversion() {
        let r = run(vec![file(
            "serve",
            "locks.rs",
            r#"use std::sync::Mutex;

pub struct S {
    jobs: Mutex<u32>,
    stats: Mutex<u32>,
}

impl S {
    pub fn fill(&self) {
        let j = self.jobs.lock().expect("poisoned");
        let s = self.stats.lock().expect("poisoned");
    }

    pub fn drain(&self) {
        let s = self.stats.lock().expect("poisoned");
        let j = self.jobs.lock().expect("poisoned");
    }
}
"#,
        )]);
        // Both sites of the inverted pair are reported.
        assert_eq!(lines_for(&r, RuleId::D10), vec![11, 16]);
        assert!(msgs_for(&r, RuleId::D10)[0].contains("lock order inversion"));
    }

    #[test]
    fn d10_drop_releases_the_guard() {
        // `drop(j)` ends the jobs guard, so fill() holds nothing when
        // taking stats — no (jobs, stats) pair, hence no inversion
        // against drain()'s (stats, jobs).
        let r = run(vec![file(
            "serve",
            "locks.rs",
            r#"use std::sync::Mutex;

pub struct S {
    jobs: Mutex<u32>,
    stats: Mutex<u32>,
}

impl S {
    pub fn fill(&self) {
        let j = self.jobs.lock().expect("poisoned");
        drop(j);
        let s = self.stats.lock().expect("poisoned");
    }

    pub fn drain(&self) {
        let s = self.stats.lock().expect("poisoned");
        let j = self.jobs.lock().expect("poisoned");
    }
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D10), Vec::<u32>::new());
    }

    #[test]
    fn d10_flags_self_deadlock_reacquisition() {
        let r = run(vec![file(
            "serve",
            "locks.rs",
            r#"use std::sync::Mutex;

pub struct S {
    jobs: Mutex<u32>,
}

impl S {
    pub fn twice(&self) {
        let a = self.jobs.lock().expect("poisoned");
        let b = self.jobs.lock().expect("poisoned");
    }
}
"#,
        )]);
        assert_eq!(lines_for(&r, RuleId::D10), vec![10]);
        assert!(msgs_for(&r, RuleId::D10)[0].contains("self-deadlock"));
    }
}
