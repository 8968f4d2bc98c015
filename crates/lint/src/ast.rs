//! The abstract syntax tree produced by [`crate::parser`].
//!
//! This models the Rust subset the workspace uses, at the fidelity the
//! dataflow rules (D7–D10) need: full expression structure with source
//! lines, declared types on bindings and fields, call/method/index shapes,
//! and item structure rich enough to build a workspace symbol table and
//! call graph. It deliberately drops what no rule consumes: generic
//! parameter bounds, where clauses, lifetimes, and macro definitions.

/// One parsed source file.
#[derive(Clone, Debug, Default)]
pub struct SourceFile {
    pub items: Vec<Item>,
}

/// An attribute (`#[cfg(test)]`, `#[inline]`…), flattened to the
/// identifier tokens inside the brackets.
#[derive(Clone, Debug)]
pub struct Attr {
    pub idents: Vec<String>,
    pub line: u32,
}

impl Attr {
    /// Whether this is `#[cfg(test)]` / `#[test]` — gates rule scope.
    pub fn is_test_gate(&self) -> bool {
        match self.idents.as_slice() {
            [a] if a == "test" => true,
            _ => {
                self.idents.first().map(String::as_str) == Some("cfg")
                    && self.idents.iter().any(|s| s == "test")
            }
        }
    }
}

/// One item (top-level or nested in a module/impl/trait).
#[derive(Clone, Debug)]
pub struct Item {
    pub attrs: Vec<Attr>,
    pub kind: ItemKind,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub enum ItemKind {
    /// `use …;` / `extern crate …;` — paths dropped.
    Use,
    /// `mod name;` or `mod name { … }`.
    Mod {
        name: String,
        items: Option<Vec<Item>>,
    },
    Struct {
        name: String,
        /// Tuple-struct fields are named `"0"`, `"1"`, ….
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
    Trait {
        name: String,
        /// Default methods appear as `Fn` items (possibly bodyless).
        items: Vec<Item>,
    },
    Impl {
        /// Head identifier of the self type (`System` for `System<P>`).
        self_ty: String,
        /// Head identifier of the implemented trait, if a trait impl.
        trait_name: Option<String>,
        items: Vec<Item>,
    },
    Fn(FnDef),
    Const {
        name: String,
        ty: Ty,
        init: Option<Expr>,
    },
    Static {
        name: String,
        ty: Ty,
        init: Option<Expr>,
    },
    /// `type X = …;` — alias target dropped.
    TypeAlias {
        name: String,
    },
    /// An item-position macro invocation (`thread_local! { … }`,
    /// `macro_rules! m { … }`); body skipped.
    MacroCall {
        name: String,
    },
    /// `extern "C" { … }` — foreign fns/statics, bodyless.
    ExternBlock {
        items: Vec<Item>,
    },
}

#[derive(Clone, Debug)]
pub struct Field {
    pub name: String,
    pub ty: Ty,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub struct Variant {
    pub name: String,
    pub fields: Vec<Field>,
}

/// A function definition or declaration.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// `self` receivers appear as a param named `self` with `Ty::SelfTy`.
    pub params: Vec<Param>,
    pub ret: Option<Ty>,
    /// `None` for trait-required and extern declarations.
    pub body: Option<Block>,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub struct Param {
    pub pat: Pat,
    pub ty: Ty,
}

/// A declared type, reduced to what the rules consult.
#[derive(Clone, Debug)]
pub enum Ty {
    /// `a::b::C<args…>` — segments plus the last segment's type args.
    Path {
        segments: Vec<String>,
        args: Vec<Ty>,
    },
    Ref(Box<Ty>),
    Tuple(Vec<Ty>),
    Slice(Box<Ty>),
    Array(Box<Ty>),
    /// `fn(..) -> ..` pointers.
    FnPtr,
    /// `dyn Trait` / `impl Trait` — bounds dropped.
    Opaque,
    /// `_`.
    Infer,
    /// `Self` and method receivers.
    SelfTy,
    /// `!`.
    Never,
}

impl Ty {
    /// The head identifier after stripping references: `&'a mut Vec<u8>`
    /// → `Vec`. `None` for non-path types.
    pub fn head(&self) -> Option<&str> {
        match self {
            Ty::Path { segments, .. } => segments.last().map(String::as_str),
            Ty::Ref(inner) => inner.head(),
            _ => None,
        }
    }

    /// Strips references and the smart-pointer/wrapper layers method
    /// resolution sees through (`Arc<T>`, `Box<T>`, `Rc<T>`,
    /// `MutexGuard<T>`), yielding the innermost path head.
    pub fn deref_head(&self) -> Option<&str> {
        match self {
            Ty::Ref(inner) => inner.deref_head(),
            Ty::Path { segments, args } => {
                let head = segments.last().map(String::as_str)?;
                if matches!(
                    head,
                    "Arc" | "Box" | "Rc" | "MutexGuard" | "RwLockReadGuard"
                ) && args.len() == 1
                {
                    args[0].deref_head().or(Some(head))
                } else {
                    Some(head)
                }
            }
            _ => None,
        }
    }
}

/// A pattern, reduced to binding structure.
#[derive(Clone, Debug)]
pub enum Pat {
    Wild,
    /// `name`, `mut name`, `ref name`, `name @ sub`.
    Bind {
        name: String,
        sub: Option<Box<Pat>>,
    },
    Tuple(Vec<Pat>),
    Slice(Vec<Pat>),
    /// `Path { field: pat, … }`.
    Struct {
        path: Vec<String>,
        fields: Vec<(String, Pat)>,
    },
    /// `Path(pat, …)`.
    TupleStruct {
        path: Vec<String>,
        elems: Vec<Pat>,
    },
    /// A plain path pattern (`None`, `Ordering::SeqCst`).
    Path(Vec<String>),
    Lit,
    Range,
    Ref(Box<Pat>),
    Or(Vec<Pat>),
    /// `..`.
    Rest,
}

impl Pat {
    /// Every identifier this pattern binds.
    pub fn bound_names(&self, out: &mut Vec<String>) {
        match self {
            Pat::Bind { name, sub } => {
                out.push(name.clone());
                if let Some(s) = sub {
                    s.bound_names(out);
                }
            }
            Pat::Tuple(ps) | Pat::Slice(ps) | Pat::Or(ps) => {
                for p in ps {
                    p.bound_names(out);
                }
            }
            Pat::Struct { fields, .. } => {
                for (_, p) in fields {
                    p.bound_names(out);
                }
            }
            Pat::TupleStruct { elems, .. } => {
                for p in elems {
                    p.bound_names(out);
                }
            }
            Pat::Ref(p) => p.bound_names(out),
            _ => {}
        }
    }
}

/// A block `{ … }`.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub enum Stmt {
    Let {
        pat: Pat,
        ty: Option<Ty>,
        init: Option<Expr>,
        /// `let … else { … }` diverging block.
        els: Option<Block>,
        line: u32,
    },
    Expr {
        expr: Expr,
        /// Whether a trailing `;` followed (tail expressions lack one).
        semi: bool,
    },
    Item(Item),
    Empty,
}

/// Binary operators the rules care about (comparisons and logic included
/// so expression structure is faithful).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl BinOp {
    /// The operators rule D7 audits for overflow hazards.
    pub fn is_overflow_hazard(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl)
    }
}

/// An expression with its source line.
#[derive(Clone, Debug)]
pub struct Expr {
    pub line: u32,
    pub kind: ExprKind,
}

#[derive(Clone, Debug)]
pub enum ExprKind {
    /// `a`, `a::b::c` (turbofish args dropped).
    Path(Vec<String>),
    /// Numeric literal (source text kept).
    Num(String),
    /// String/char literal.
    Str,
    /// `true` / `false`.
    Bool(bool),
    /// `-x`, `!x`, `*x`.
    Unary {
        op: char,
        expr: Box<Expr>,
    },
    /// `&x`, `&mut x`.
    Ref(Box<Expr>),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `a = b` (`op` None) or `a += b` (`op` Some).
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Cast {
        expr: Box<Expr>,
        ty: Ty,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    MethodCall {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
    },
    Field {
        base: Box<Expr>,
        name: String,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// `name!(…)` — args parsed as expressions when the token tree is
    /// expression-shaped, otherwise `raw_idents` holds the identifiers.
    MacroCall {
        path: Vec<String>,
        args: Vec<Expr>,
        raw_idents: Vec<String>,
    },
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        /// `..base` functional-update expression.
        base: Option<Box<Expr>>,
    },
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    If {
        /// `let` in the condition becomes `IfLet`.
        cond: Box<Expr>,
        then: Block,
        /// `else` branch: a `BlockExpr` or another `If`/`IfLet`.
        els: Option<Box<Expr>>,
    },
    IfLet {
        pat: Pat,
        expr: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    Match {
        scrut: Box<Expr>,
        arms: Vec<Arm>,
    },
    While {
        cond: Box<Expr>,
        body: Block,
    },
    WhileLet {
        pat: Pat,
        expr: Box<Expr>,
        body: Block,
    },
    Loop {
        body: Block,
    },
    For {
        pat: Pat,
        iter: Box<Expr>,
        body: Block,
    },
    BlockExpr(Block),
    /// `unsafe { … }`.
    UnsafeBlock(Block),
    Closure {
        params: Vec<Pat>,
        body: Box<Expr>,
    },
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    Continue,
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    Paren(Box<Expr>),
}

#[derive(Clone, Debug)]
pub struct Arm {
    pub pat: Pat,
    pub guard: Option<Expr>,
    pub body: Expr,
}

impl Expr {
    /// Whether this expression is a literal (numeric/string/bool), looking
    /// through parens, references, casts, and unary minus. D7 exempts
    /// operations with a literal operand: the bound is compile-time
    /// visible, unlike the runtime-value arithmetic the rule audits.
    pub fn is_literal(&self) -> bool {
        match &self.kind {
            ExprKind::Num(_) | ExprKind::Str | ExprKind::Bool(_) => true,
            ExprKind::Paren(e) | ExprKind::Ref(e) | ExprKind::Cast { expr: e, .. } => {
                e.is_literal()
            }
            ExprKind::Unary { op: '-', expr } => expr.is_literal(),
            // `u64::from(8)`-style literal lifts.
            ExprKind::Call { callee, args } => {
                args.len() == 1
                    && args[0].is_literal()
                    && matches!(&callee.kind, ExprKind::Path(p) if p.last().is_some_and(|s| s == "from"))
            }
            _ => false,
        }
    }

    /// The path segments if this is a plain path expression (through
    /// parens).
    pub fn as_path(&self) -> Option<&[String]> {
        match &self.kind {
            ExprKind::Path(p) => Some(p),
            ExprKind::Paren(e) => e.as_path(),
            _ => None,
        }
    }

    /// Renders a receiver expression as a dotted key for lock identity:
    /// `self.inner` → `"self.inner"`, `state.journal` → `"state.journal"`.
    /// Non-path shapes yield `None`.
    pub fn receiver_key(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Path(p) => Some(p.join(".")),
            ExprKind::Field { base, name } => Some(format!("{}.{name}", base.receiver_key()?)),
            ExprKind::Paren(e) | ExprKind::Ref(e) => e.receiver_key(),
            ExprKind::Unary { op: '*', expr } => expr.receiver_key(),
            _ => None,
        }
    }
}

/// Walks every expression in a block, depth-first, calling `f` on each.
pub fn walk_block(block: &Block, f: &mut dyn FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = els {
                    walk_block(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(item) => {
                if let ItemKind::Fn(d) = &item.kind {
                    if let Some(b) = &d.body {
                        walk_block(b, f);
                    }
                }
            }
            Stmt::Empty => {}
        }
    }
}

/// Walks `expr` and all sub-expressions, depth-first (parents before
/// children), calling `f` on each.
pub fn walk_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Unary { expr: e, .. }
        | ExprKind::Ref(e)
        | ExprKind::Cast { expr: e, .. }
        | ExprKind::Try(e)
        | ExprKind::Paren(e) => walk_expr(e, f),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_expr(base, f),
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::StructLit { fields, base, .. } => {
            for (_, e) in fields {
                walk_expr(e, f);
            }
            if let Some(b) = base {
                walk_expr(b, f);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for e in es {
                walk_expr(e, f);
            }
        }
        ExprKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::IfLet {
            expr: e, then, els, ..
        } => {
            walk_expr(e, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::Match { scrut, arms } => {
            walk_expr(scrut, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::WhileLet { expr: e, body, .. } => {
            walk_expr(e, f);
            walk_block(body, f);
        }
        ExprKind::Loop { body } => walk_block(body, f),
        ExprKind::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::BlockExpr(b) | ExprKind::UnsafeBlock(b) => walk_block(b, f),
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::Return(e) | ExprKind::Break(e) => {
            if let Some(e) = e {
                walk_expr(e, f);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                walk_expr(e, f);
            }
            if let Some(e) = hi {
                walk_expr(e, f);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Num(_)
        | ExprKind::Str
        | ExprKind::Bool(_)
        | ExprKind::Continue => {}
    }
}
