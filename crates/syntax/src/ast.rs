//! Abstract syntax for ShadowDP (paper Figure 3).
//!
//! One command type serves all three stages of the pipeline: source programs
//! (no `assert`/`havoc`), type-system output `c'` (adds `assert` and distance
//! bookkeeping over hat variables), and the verifier's target language `c''`
//! (adds `havoc`, drops sampling). Stage discipline is enforced by
//! [`Function::validate_source`].

use std::fmt;

use shadowdp_num::Rat;

use crate::lexer::Span;

/// Which incarnation of a program variable a [`Name`] denotes.
///
/// The type system introduces, for a source variable `x`, two distance
/// tracking variables: `x̂◦` (aligned distance, rendered `^x`) and `x̂†`
/// (shadow distance, rendered `~x`). These are invisible in source programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NameKind {
    /// A plain program variable `x`.
    Plain,
    /// The aligned distance variable `x̂◦`.
    HatAligned,
    /// The shadow distance variable `x̂†`.
    HatShadow,
}

/// A (possibly hatted) variable name.
///
/// # Examples
///
/// ```
/// use shadowdp_syntax::{Name, NameKind};
/// let x = Name::plain("x");
/// assert_eq!(x.to_string(), "x");
/// assert_eq!(x.aligned_hat().to_string(), "^x");
/// assert_eq!(x.shadow_hat().to_string(), "~x");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name {
    /// The underlying identifier.
    pub base: String,
    /// Plain, aligned-hat, or shadow-hat.
    pub kind: NameKind,
}

impl Name {
    /// A plain program variable.
    pub fn plain(base: impl Into<String>) -> Name {
        Name {
            base: base.into(),
            kind: NameKind::Plain,
        }
    }

    /// The aligned distance variable `x̂◦` for this base name.
    pub fn aligned_hat(&self) -> Name {
        Name {
            base: self.base.clone(),
            kind: NameKind::HatAligned,
        }
    }

    /// The shadow distance variable `x̂†` for this base name.
    pub fn shadow_hat(&self) -> Name {
        Name {
            base: self.base.clone(),
            kind: NameKind::HatShadow,
        }
    }

    /// Whether this is a hat (distance-tracking) variable.
    pub fn is_hat(&self) -> bool {
        self.kind != NameKind::Plain
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            NameKind::Plain => write!(f, "{}", self.base),
            NameKind::HatAligned => write!(f, "^{}", self.base),
            NameKind::HatShadow => write!(f, "~{}", self.base),
        }
    }
}

/// Binary operators (`⊕`, `⊗`, `⊙`, and boolean connectives).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (linear op `⊕`)
    Add,
    /// `-` (linear op `⊕`)
    Sub,
    /// `*` (other op `⊗`)
    Mul,
    /// `/` (other op `⊗`)
    Div,
    /// `%` (other op `⊗`; needed by SmartSum's block boundary test)
    Mod,
    /// `<` comparator
    Lt,
    /// `<=` comparator
    Le,
    /// `>` comparator
    Gt,
    /// `>=` comparator
    Ge,
    /// `==` comparator
    Eq,
    /// `!=` comparator
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether this operator is a comparator `⊙` producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether this operator is a linear arithmetic op `⊕`.
    pub fn is_linear_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub)
    }

    /// Whether this operator is a non-linear arithmetic op `⊗`.
    pub fn is_nonlinear_arith(self) -> bool {
        matches!(self, BinOp::Mul | BinOp::Div | BinOp::Mod)
    }

    /// Whether this operator is a boolean connective.
    pub fn is_boolean(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation `-e`.
    Neg,
    /// Boolean negation `!e`.
    Not,
    /// Absolute value `abs(e)`; appears in privacy-cost updates `|n_η|/r`.
    Abs,
    /// Sign of a number as `-1`, `0` or `1`; used by cost linearization.
    Sgn,
}

/// Expressions (paper Figure 3, `e`).
///
/// Expressions deliberately carry **no** spans: the type system compares
/// distance expressions structurally (the `⊔` join requires syntactic
/// equality) and substitutes into them freely, so they behave as pure values.
/// Diagnostics attach to commands, which do carry spans.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A rational literal `r`.
    Num(Rat),
    /// A boolean literal.
    Bool(bool),
    /// A variable (plain or hatted).
    Var(Name),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Ternary `b ? n1 : n2`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// List cons `e1 :: e2` (appends `e1` to the front of list `e2`).
    Cons(Box<Expr>, Box<Expr>),
    /// List indexing `e1[e2]`.
    Index(Box<Expr>, Box<Expr>),
    /// The empty list `nil`.
    Nil,
}

// Smart-constructor names mirror the operators they build; they are not
// operator overloads.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal helper.
    pub fn int(n: i128) -> Expr {
        Expr::Num(Rat::int(n))
    }

    /// Plain variable helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(Name::plain(name))
    }

    /// `self + rhs`, folding the case where either side is literal `0`.
    pub fn add(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Num(a), _) if a.is_zero() => rhs,
            (_, Expr::Num(b)) if b.is_zero() => self,
            (Expr::Num(a), Expr::Num(b)) => Expr::Num(*a + *b),
            _ => Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs)),
        }
    }

    /// `self - rhs`, folding literal `0`.
    pub fn sub(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (_, Expr::Num(b)) if b.is_zero() => self,
            (Expr::Num(a), Expr::Num(b)) => Expr::Num(*a - *b),
            _ => Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs)),
        }
    }

    /// `self * rhs` with constant folding of `0` and `1`.
    pub fn mul(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Num(a), Expr::Num(b)) => Expr::Num(*a * *b),
            (Expr::Num(a), _) if a.is_zero() => Expr::int(0),
            (_, Expr::Num(b)) if b.is_zero() => Expr::int(0),
            (Expr::Num(a), _) if *a == Rat::ONE => rhs,
            (_, Expr::Num(b)) if *b == Rat::ONE => self,
            _ => Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs)),
        }
    }

    /// `self / rhs` with constant folding.
    pub fn div(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Num(a), Expr::Num(b)) if !b.is_zero() => Expr::Num(*a / *b),
            (_, Expr::Num(b)) if *b == Rat::ONE => self,
            _ => Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs)),
        }
    }

    /// Boolean negation with literal folding and double-negation removal.
    pub fn not(self) -> Expr {
        match self {
            Expr::Bool(b) => Expr::Bool(!b),
            Expr::Unary(UnOp::Not, inner) => *inner,
            e => Expr::Unary(UnOp::Not, Box::new(e)),
        }
    }

    /// Conjunction with literal folding.
    pub fn and(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Bool(true), _) => rhs,
            (_, Expr::Bool(true)) => self,
            (Expr::Bool(false), _) | (_, Expr::Bool(false)) => Expr::Bool(false),
            _ => Expr::Binary(BinOp::And, Box::new(self), Box::new(rhs)),
        }
    }

    /// Disjunction with literal folding.
    pub fn or(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Bool(false), _) => rhs,
            (_, Expr::Bool(false)) => self,
            (Expr::Bool(true), _) | (_, Expr::Bool(true)) => Expr::Bool(true),
            _ => Expr::Binary(BinOp::Or, Box::new(self), Box::new(rhs)),
        }
    }

    /// Comparison helper.
    pub fn cmp_op(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        debug_assert!(op.is_comparison());
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Ternary with literal-condition folding.
    pub fn ite(cond: Expr, then: Expr, els: Expr) -> Expr {
        match cond {
            Expr::Bool(true) => then,
            Expr::Bool(false) => els,
            _ if then == els => then,
            c => Expr::Ternary(Box::new(c), Box::new(then), Box::new(els)),
        }
    }

    /// Absolute value.
    pub fn abs(self) -> Expr {
        match self {
            Expr::Num(r) => Expr::Num(r.abs()),
            e => Expr::Unary(UnOp::Abs, Box::new(e)),
        }
    }

    /// Whether this expression is the literal `0`.
    pub fn is_zero_lit(&self) -> bool {
        matches!(self, Expr::Num(r) if r.is_zero())
    }

    /// Visits this expression and its subexpressions in pre-order (a node
    /// before its operands, operands left to right, a list before its
    /// index) until `f` returns `true`, and returns whether it did. A
    /// collector that wants every node returns `false` throughout.
    ///
    /// Every expression pass that only collects uses this walk. It
    /// recurses on the call stack, so it allocates nothing.
    pub fn any_subexpr<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) -> bool {
        f(self)
            || match self {
                Expr::Num(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Nil => false,
                Expr::Unary(_, a) => a.any_subexpr(f),
                Expr::Binary(_, a, b) | Expr::Cons(a, b) | Expr::Index(a, b) => {
                    a.any_subexpr(f) || b.any_subexpr(f)
                }
                Expr::Ternary(a, b, c) => a.any_subexpr(f) || b.any_subexpr(f) || c.any_subexpr(f),
            }
    }

    /// The operands of the top-level `&&`s, flattened, left to right; the
    /// expression itself when it is not a conjunction.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn push<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary(BinOp::And, a, b) => {
                    push(a, out);
                    push(b, out);
                }
                _ => out.push(e),
            }
        }
        let mut out = Vec::new();
        push(self, &mut out);
        out
    }

    /// This node rebuilt with `f` applied to each operand, left to right.
    /// It uses the plain constructors, never the folding ones, so only `f`
    /// changes the shape. Rewriters handle the variants they care about and
    /// hand every other node to this.
    pub fn map_children(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut f = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Num(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Nil => self.clone(),
            Expr::Unary(op, a) => Expr::Unary(*op, f(a)),
            Expr::Binary(op, a, b) => Expr::Binary(*op, f(a), f(b)),
            Expr::Ternary(a, b, c) => Expr::Ternary(f(a), f(b), f(c)),
            Expr::Cons(a, b) => Expr::Cons(f(a), f(b)),
            Expr::Index(a, b) => Expr::Index(f(a), f(b)),
        }
    }

    /// All variable names occurring in the expression.
    pub fn vars(&self) -> Vec<Name> {
        let mut out: Vec<Name> = Vec::new();
        self.any_subexpr(&mut |e| {
            if let Expr::Var(n) = e {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            false
        });
        out
    }

    /// Whether `name` occurs free in the expression.
    pub fn mentions(&self, name: &Name) -> bool {
        self.any_subexpr(&mut |e| matches!(e, Expr::Var(n) if n == name))
    }

    /// Capture-free substitution of `replacement` for every occurrence of
    /// variable `name`.
    ///
    /// ShadowDP has no binders inside expressions, so substitution is plain
    /// structural replacement.
    pub fn subst(&self, name: &Name, replacement: &Expr) -> Expr {
        match self {
            Expr::Var(n) if n == name => replacement.clone(),
            _ => self.map_children(|e| e.subst(name, replacement)),
        }
    }
}

/// A distance `d ::= n | ∗` (paper Figure 3).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Distance {
    /// A statically tracked numeric distance expression.
    D(Expr),
    /// The dynamically tracked distance `∗` (value lives in the hat variable).
    Star,
    /// "Don't care" — only legal in `returns` declarations (the paper writes
    /// `−` for the shadow distance of outputs, which is irrelevant to DP).
    Any,
}

impl Distance {
    /// Constant-zero distance.
    pub fn zero() -> Distance {
        Distance::D(Expr::int(0))
    }

    /// Whether this distance is the literal `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Distance::D(e) if e.is_zero_lit())
    }
}

/// Types `τ ::= num⟨d◦,d†⟩ | bool | list τ` (paper Figure 3).
///
/// Booleans and lists carry distances only through their numeric components;
/// a `list num⟨d◦,d†⟩` stores numbers whose per-element distances are
/// `d◦`/`d†` (with `∗` desugaring to the hat lists `^q`/`~q`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Numeric type with aligned and shadow distances.
    Num(Distance, Distance),
    /// Boolean type (always distance ⟨0,0⟩).
    Bool,
    /// Homogeneous list.
    List(Box<Ty>),
}

impl Ty {
    /// `num(0,0)` — the type of public/non-private numbers.
    pub fn num00() -> Ty {
        Ty::Num(Distance::zero(), Distance::zero())
    }

    /// `num(*,*)` — fully dynamically tracked distances.
    pub fn num_star() -> Ty {
        Ty::Num(Distance::Star, Distance::Star)
    }
}

/// A random expression `g ::= Lap r` (paper Figure 3).
///
/// The scale is an arbitrary numeric expression over non-private variables
/// (e.g. `2/eps`, `4*NN/eps`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RandExpr {
    /// One sample from the Laplace distribution with mean 0 and the given
    /// scale.
    Lap(Expr),
}

impl RandExpr {
    /// The scale expression of the distribution.
    pub fn scale(&self) -> &Expr {
        match self {
            RandExpr::Lap(s) => s,
        }
    }
}

/// Selectors `S ::= e ? S1 : S2 | ◦ | †` (paper Figure 3).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Selector {
    /// `◦` — keep using the aligned execution.
    Aligned,
    /// `†` — switch to the shadow execution.
    Shadow,
    /// Conditional selector.
    Cond(Expr, Box<Selector>, Box<Selector>),
}

impl Selector {
    /// Whether `†` is reachable anywhere in this selector. Programs whose
    /// selectors never use `†` get the paper's "shadow execution optimized
    /// away" treatment (§6.2.1).
    pub fn uses_shadow(&self) -> bool {
        match self {
            Selector::Aligned => false,
            Selector::Shadow => true,
            Selector::Cond(_, s1, s2) => s1.uses_shadow() || s2.uses_shadow(),
        }
    }

    /// The conditions of this selector in pre-order: a condition before
    /// those of its two arms.
    pub fn guards(&self) -> Vec<&Expr> {
        fn push<'a>(s: &'a Selector, out: &mut Vec<&'a Expr>) {
            if let Selector::Cond(c, a, b) = s {
                out.push(c);
                push(a, out);
                push(b, out);
            }
        }
        let mut out = Vec::new();
        push(self, &mut out);
        out
    }

    /// The paper's select function `S(⟨e1, e2⟩)`: project a pair of
    /// aligned/shadow alternatives through the selector, building the
    /// ternary expression for conditional selectors.
    pub fn select(&self, aligned: Expr, shadow: Expr) -> Expr {
        match self {
            Selector::Aligned => aligned,
            Selector::Shadow => shadow,
            Selector::Cond(cond, s1, s2) => Expr::ite(
                cond.clone(),
                s1.select(aligned.clone(), shadow.clone()),
                s2.select(aligned, shadow),
            ),
        }
    }
}

/// A command with its source span (paper Figure 3, `c`).
///
/// Equality ignores the span: two commands are equal when they are
/// structurally the same program fragment, which is what the type system's
/// fixed-point computation and the golden transformation tests need.
#[derive(Clone, Debug)]
pub struct Cmd {
    /// What the command does.
    pub kind: CmdKind,
    /// Where it came from (zeroed for synthesized commands).
    pub span: Span,
}

impl PartialEq for Cmd {
    fn eq(&self, other: &Cmd) -> bool {
        self.kind == other.kind
    }
}

impl Eq for Cmd {}

impl Cmd {
    /// Wraps a kind with an empty span (for synthesized commands).
    pub fn synth(kind: CmdKind) -> Cmd {
        Cmd {
            kind,
            span: Span::ZERO,
        }
    }
}

/// Command payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum CmdKind {
    /// `skip`
    Skip,
    /// `x := e`
    Assign(Name, Expr),
    /// `η := Lap r, S, n_η` — sampling with its proof annotation.
    Sample {
        /// The random variable receiving the sample.
        var: Name,
        /// The distribution sampled from.
        dist: RandExpr,
        /// Selector `S` choosing aligned/shadow state at this point.
        selector: Selector,
        /// Alignment `n_η` for the fresh sample (never `∗` by syntax).
        align: Expr,
    },
    /// `if e then c1 else c2`
    If(Expr, Vec<Cmd>, Vec<Cmd>),
    /// `while e do c`, with optional user-supplied loop invariants (the
    /// paper supplies these manually when CPAChecker's inference fails).
    While {
        /// Loop guard.
        cond: Expr,
        /// Optional invariant annotations (treated as *candidates*, checked
        /// not trusted).
        invariants: Vec<Expr>,
        /// Loop body.
        body: Vec<Cmd>,
    },
    /// `return e`
    Return(Expr),
    /// `assert e` — type-system output only.
    Assert(Expr),
    /// `havoc x` — target language only (Figure 5).
    Havoc(Name),
    /// `assume e` — verifier-internal (encodes Ψ instantiations and ghost
    /// adjacency constraints; CPAChecker's `__VERIFIER_assume`).
    Assume(Expr),
}

/// A formal parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared ShadowDP type.
    pub ty: Ty,
}

/// The declared return variable and its type.
#[derive(Clone, Debug, PartialEq)]
pub struct RetDecl {
    /// Name of the variable holding the result.
    pub name: String,
    /// Its declared type; the aligned distance must be `0` (rule T-Return).
    pub ty: Ty,
}

/// One precondition clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Precondition {
    /// `forall i :: φ(i)` — element-wise adjacency over every list index.
    Forall {
        /// The bound index variable.
        var: String,
        /// The body, mentioning `^q[i]`, `~q[i]`, `q[i]`.
        body: Expr,
    },
    /// A quantifier-free global assumption (e.g. `eps > 0`, `NN >= 1`).
    Plain(Expr),
    /// `atmostone q` — at most one index has `^q[i] != 0` (the paper's
    /// nested-quantifier adjacency for PartialSum/PrefixSum/SmartSum).
    AtMostOne(String),
}

/// Which adjacency shape the preconditions describe (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adjacency {
    /// Every query answer may differ (bounded per element).
    AllDiffer,
    /// At most one query answer differs.
    OneDiffer,
}

/// A ShadowDP function: signature, adjacency specification, privacy budget
/// and body.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Formal parameters in declaration order.
    pub params: Vec<Param>,
    /// Declared return variable.
    pub ret: RetDecl,
    /// Adjacency relation Ψ and global assumptions.
    pub preconditions: Vec<Precondition>,
    /// Privacy budget the final `assert (v_eps <= budget)` uses; defaults to
    /// the variable `eps` (SmartSum declares `2 * eps`).
    pub budget: Expr,
    /// Function body.
    pub body: Vec<Cmd>,
}

impl Function {
    /// The adjacency shape: [`Adjacency::OneDiffer`] iff some `atmostone`
    /// clause is present.
    pub fn adjacency(&self) -> Adjacency {
        if self
            .preconditions
            .iter()
            .any(|p| matches!(p, Precondition::AtMostOne(_)))
        {
            Adjacency::OneDiffer
        } else {
            Adjacency::AllDiffer
        }
    }

    /// Whether any sampling annotation can select the shadow execution.
    ///
    /// When `false`, the paper's §6.2.1 optimization applies: shadow
    /// distances are never consulted, so shadow tracking (and the `pc = ⊤`
    /// restriction on sampling) is disabled.
    pub fn uses_shadow(&self) -> bool {
        preorder(&self.body)
            .any(|c| matches!(&c.kind, CmdKind::Sample { selector, .. } if selector.uses_shadow()))
    }

    /// Checks the stage discipline for *source* programs: no `assert`,
    /// `havoc` or `assume`, and no hat variable in an assignment, a
    /// Laplace scale, a guard or a `return`. Sampling annotations and
    /// loop invariants may read hats: they are proof annotations, not
    /// program text (Table 1's alignments read `^q[i]` and `^sum`).
    ///
    /// # Errors
    ///
    /// The span of the first offending command, in pre-order, and a
    /// description of it.
    pub fn validate_source(&self) -> Result<(), (Span, String)> {
        const HATS: &str = "hat variables are not allowed in source programs";
        let has_hat = |e: &Expr| e.any_subexpr(&mut |x| matches!(x, Expr::Var(n) if n.is_hat()));
        for c in preorder(&self.body) {
            let message = match &c.kind {
                CmdKind::Assert(_) => "assert is not allowed in source programs".to_string(),
                CmdKind::Havoc(_) => "havoc is not allowed in source programs".to_string(),
                CmdKind::Assume(_) => "assume is not allowed in source programs".to_string(),
                CmdKind::Assign(n, e) if n.is_hat() || has_hat(e) => {
                    format!("{HATS} (in `{n} := ...`)")
                }
                CmdKind::Sample { var, dist, .. } if has_hat(dist.scale()) => {
                    format!("{HATS} (in the Laplace scale of `{var}`)")
                }
                CmdKind::If(cond, ..) if has_hat(cond) => format!("{HATS} (in an `if` guard)"),
                CmdKind::While { cond, .. } if has_hat(cond) => {
                    format!("{HATS} (in a `while` guard)")
                }
                CmdKind::Return(e) if has_hat(e) => format!("{HATS} (in `return`)"),
                _ => continue,
            };
            return Err((c.span, message));
        }
        Ok(())
    }
}

/// Walks a command tree in pre-order: each command before its branches
/// or loop body, and a `then` block before its `else` block.
///
/// Every pass that only collects from the tree uses this walk. Passes
/// that rewrite commands, execute them, or carry per-branch state keep
/// their own recursion.
pub fn preorder(cmds: &[Cmd]) -> Preorder<'_> {
    Preorder {
        stack: vec![cmds.iter()],
    }
}

/// The iterator returned by [`preorder`].
#[derive(Clone, Debug)]
pub struct Preorder<'a> {
    /// The unvisited rest of each enclosing block, innermost last.
    stack: Vec<std::slice::Iter<'a, Cmd>>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = &'a Cmd;

    fn next(&mut self) -> Option<&'a Cmd> {
        loop {
            let Some(c) = self.stack.last_mut()?.next() else {
                self.stack.pop();
                continue;
            };
            match &c.kind {
                CmdKind::If(_, then, els) => {
                    self.stack.push(els.iter());
                    self.stack.push(then.iter());
                }
                CmdKind::While { body, .. } => self.stack.push(body.iter()),
                _ => {}
            }
            return Some(c);
        }
    }
}

/// Base names of the plain variables assigned, sampled into or havoc'd
/// anywhere in `cmds`, in order of first appearance.
pub fn assigned_vars(cmds: &[Cmd]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for c in preorder(cmds) {
        if let CmdKind::Assign(n, _) | CmdKind::Sample { var: n, .. } | CmdKind::Havoc(n) = &c.kind
        {
            if !n.is_hat() && !out.contains(&n.base) {
                out.push(n.base.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_display() {
        let n = Name::plain("bq");
        assert_eq!(n.to_string(), "bq");
        assert_eq!(n.aligned_hat().to_string(), "^bq");
        assert_eq!(n.shadow_hat().to_string(), "~bq");
        assert!(!n.is_hat());
        assert!(n.aligned_hat().is_hat());
    }

    #[test]
    fn smart_constructors_fold() {
        assert_eq!(Expr::int(0).add(Expr::var("x")), Expr::var("x"));
        assert_eq!(Expr::var("x").add(Expr::int(0)), Expr::var("x"));
        assert_eq!(Expr::int(2).add(Expr::int(3)), Expr::int(5));
        assert_eq!(Expr::int(1).mul(Expr::var("x")), Expr::var("x"));
        assert_eq!(Expr::int(0).mul(Expr::var("x")), Expr::int(0));
        assert_eq!(Expr::int(6).div(Expr::int(3)), Expr::int(2));
        assert_eq!(Expr::Bool(true).and(Expr::var("b")), Expr::var("b"));
        assert_eq!(Expr::Bool(false).or(Expr::var("b")), Expr::var("b"));
        assert_eq!(Expr::Bool(true).not(), Expr::Bool(false));
        assert_eq!(Expr::var("b").not().not(), Expr::var("b"));
        assert_eq!(
            Expr::ite(Expr::Bool(true), Expr::int(1), Expr::int(2)),
            Expr::int(1)
        );
        assert_eq!(
            Expr::ite(Expr::var("c"), Expr::int(1), Expr::int(1)),
            Expr::int(1)
        );
        assert_eq!(Expr::int(-3).abs(), Expr::int(3));
    }

    #[test]
    fn subst_and_mentions() {
        // (x + y) [x := 2]  ==  2 + y
        let e = Expr::var("x").add(Expr::var("y"));
        let s = e.subst(&Name::plain("x"), &Expr::int(2));
        assert_eq!(s, Expr::int(2).add(Expr::var("y")));
        assert!(e.mentions(&Name::plain("x")));
        assert!(!s.mentions(&Name::plain("x")));
        // hat variables are distinct from plain ones
        let h = Expr::Var(Name::plain("x").aligned_hat());
        assert!(!h.mentions(&Name::plain("x")));
    }

    #[test]
    fn selector_select_builds_ternary() {
        let s = Selector::Cond(
            Expr::var("omega"),
            Box::new(Selector::Shadow),
            Box::new(Selector::Aligned),
        );
        let picked = s.select(Expr::var("a"), Expr::var("b"));
        assert_eq!(
            picked,
            Expr::Ternary(
                Box::new(Expr::var("omega")),
                Box::new(Expr::var("b")),
                Box::new(Expr::var("a")),
            )
        );
        assert!(s.uses_shadow());
        assert!(!Selector::Aligned.uses_shadow());
    }

    #[test]
    fn preorder_visits_each_command_before_its_blocks_and_then_before_else() {
        let src = "function F(eps: num(0,0), n: num(0,0)) returns out: num(0,0)
{
    a := 1;
    if (n > 0) {
        b := 2;
        while (b < n) {
            c := b;
        }
    } else {
        havoc d;
        a := 3;
    }
    e := lap(1 / eps) { select: aligned, align: 1 };
    ^f := 0;
    out := a;
}";
        let f = crate::parse_function(src).unwrap();
        let at: Vec<(usize, usize)> = preorder(&f.body).map(|c| c.span.line_col(src)).collect();
        assert_eq!(
            at,
            [
                (3, 5),
                (4, 5),
                (5, 9),
                (6, 9),
                (7, 13),
                (10, 9),
                (11, 9),
                (13, 5),
                (14, 5),
                (15, 5),
                (1, 1), // the parser's implicit `return out`
            ]
        );
        // First appearance, hats skipped, havoc included.
        assert_eq!(assigned_vars(&f.body), ["a", "b", "c", "d", "e", "out"]);
    }

    #[test]
    fn validate_source_locates_each_stage_violation() {
        let hats = "hat variables are not allowed in source programs";
        let probes = [
            ("out := ^q[0];", format!("{hats} (in `out := ...`)")),
            ("return ^out;", format!("{hats} (in `return`)")),
            (
                "if (^out > 0) { skip; }",
                format!("{hats} (in an `if` guard)"),
            ),
            (
                "while (out < ^out) { skip; }",
                format!("{hats} (in a `while` guard)"),
            ),
            (
                "eta := lap(1 / eps + ^q[0]) { select: aligned, align: 1 };",
                format!("{hats} (in the Laplace scale of `eta`)"),
            ),
            (
                "assert(out > 0);",
                "assert is not allowed in source programs".into(),
            ),
            (
                "assume(out > 0);",
                "assume is not allowed in source programs".into(),
            ),
            (
                "havoc out;",
                "havoc is not allowed in source programs".into(),
            ),
        ];
        for (cmd, message) in probes {
            let src = format!(
                "function F(eps: num(0,0), q: list num(*,*)) returns out: num(0,0)\n\
                 {{\n    out := 0;\n    if (eps > 1) {{\n        {cmd}\n    }}\n}}"
            );
            let f = crate::parse_function(&src).unwrap();
            let (span, got) = f.validate_source().unwrap_err();
            assert_eq!((span.line_col(&src), got), ((5, 9), message), "{cmd}");
        }
    }

    #[test]
    fn annotations_may_mention_hats() {
        // Alignments, selectors and invariants are proof annotations.
        let src = "function F(eps: num(0,0), q: list num(*,*), n: num(0,0)) returns out: num(0,0)
{
    i := 0; out := 0;
    while (i < n) invariant(^out == 0) {
        eta := lap(2 / eps) { select: ^q[i] > 0 ? shadow : aligned, align: 1 - ^q[i] };
        out := out + eta;
        i := i + 1;
    }
}";
        assert_eq!(
            crate::parse_function(src).unwrap().validate_source(),
            Ok(())
        );
    }

    #[test]
    fn any_subexpr_visits_in_preorder_and_stops_early() {
        let e = crate::parse_expr("c ? x :: nil : q[r[i]]").unwrap();
        let mut seen = Vec::new();
        let stopped = e.any_subexpr(&mut |x| {
            seen.push(crate::pretty_expr(x));
            false
        });
        assert!(!stopped);
        let expected = [
            "c ? x :: nil : q[r[i]]",
            "c",
            "x :: nil",
            "x",
            "nil",
            "q[r[i]]",
            "q",
            "r[i]",
            "r",
            "i",
        ];
        assert_eq!(seen, expected);

        // Stops at the first list read: the outer one, before its index.
        seen.clear();
        let stopped = e.any_subexpr(&mut |x| {
            seen.push(crate::pretty_expr(x));
            matches!(x, Expr::Index(..))
        });
        assert!(stopped);
        assert_eq!(seen, expected[..6]);
    }

    #[test]
    fn conjuncts_flatten_nested_ands_left_to_right() {
        let e = crate::parse_expr("a < 1 && (b && c || d) && (e && f)").unwrap();
        let got: Vec<String> = e.conjuncts().into_iter().map(crate::pretty_expr).collect();
        assert_eq!(got, ["a < 1", "b && c || d", "e", "f"]);
        let e = crate::parse_expr("a || b && c").unwrap();
        assert_eq!(e.conjuncts(), [&e]);
    }

    #[test]
    fn guards_lists_selector_conditions_in_preorder() {
        let cond = |c: &str, s1, s2| Selector::Cond(Expr::var(c), Box::new(s1), Box::new(s2));
        let s = cond(
            "a",
            cond("b", Selector::Shadow, Selector::Aligned),
            cond("c", Selector::Aligned, Selector::Shadow),
        );
        assert_eq!(
            s.guards(),
            [&Expr::var("a"), &Expr::var("b"), &Expr::var("c")]
        );
        assert!(Selector::Shadow.guards().is_empty());
    }

    #[test]
    fn map_children_does_not_fold() {
        let zero_plus_x =
            Expr::Binary(BinOp::Add, Box::new(Expr::int(0)), Box::new(Expr::var("x")));
        assert_eq!(zero_plus_x.map_children(Expr::clone), zero_plus_x);
        // `add` would fold `0 + 0` to `0`; the rebuilt node stays a sum.
        let zeroed = zero_plus_x.map_children(|_| Expr::int(0));
        assert_eq!(
            zeroed,
            Expr::Binary(BinOp::Add, Box::new(Expr::int(0)), Box::new(Expr::int(0)))
        );
        assert_eq!(
            Expr::var("x").map_children(|_| Expr::int(1)),
            Expr::var("x")
        );
    }

    #[test]
    fn vars_deduplicates() {
        let e = Expr::var("x").add(Expr::var("x")).add(Expr::var("y"));
        let vs = e.vars();
        assert_eq!(vs.len(), 2);
    }
}
