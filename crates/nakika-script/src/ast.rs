//! Abstract syntax tree for NkScript.

use std::sync::Arc;

/// A complete program: a list of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements in source order.
    pub body: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = init;` (also covers `let` / `const`).
    VarDecl {
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `function name(params) { body }`.
    FunctionDecl {
        /// Function name.
        name: String,
        /// The function literal.
        func: Arc<FunctionLiteral>,
    },
    /// An expression evaluated for its side effects (or its value, for the
    /// final statement of a program).
    Expr(Expr),
    /// `return expr;`
    Return(Option<Expr>),
    /// `if (cond) { then } else { otherwise }`
    If {
        /// Condition expression.
        cond: Expr,
        /// Statements of the then-branch.
        then_branch: Vec<Stmt>,
        /// Statements of the else-branch (empty when absent).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; update) { body }`
    For {
        /// Optional initializer statement.
        init: Option<Box<Stmt>>,
        /// Optional condition (missing means `true`).
        cond: Option<Expr>,
        /// Optional update expression.
        update: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var key in object) { body }`
    ForIn {
        /// Loop variable name.
        var: String,
        /// Object whose keys are iterated.
        object: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `throw expr;`
    Throw(Expr),
    /// `try { body } catch (name) { handler } finally { cleanup }`
    Try {
        /// Guarded statements.
        body: Vec<Stmt>,
        /// Name binding the caught value (if a catch clause exists).
        catch_name: Option<String>,
        /// Catch-clause statements.
        catch_body: Vec<Stmt>,
        /// Finally-clause statements.
        finally_body: Vec<Stmt>,
    },
    /// A braced block introducing no new scope semantics beyond grouping.
    Block(Vec<Stmt>),
    /// An empty statement (`;`).
    Empty,
}

/// A function literal: shared between function declarations and expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionLiteral {
    /// Parameter names.
    pub params: Vec<String>,
    /// Function body statements.
    pub body: Vec<Stmt>,
    /// Optional name (for declarations and named expressions).
    pub name: Option<String>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// Variable reference.
    Ident(String),
    /// Array literal `[a, b, c]`.
    Array(Vec<Expr>),
    /// Object literal `{ a: 1, "b": 2 }`.
    Object(Vec<(String, Expr)>),
    /// Function expression.
    Function(Arc<FunctionLiteral>),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical `&&` / `||` with short-circuit evaluation.
    Logical {
        /// True for `&&`, false for `||`.
        is_and: bool,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conditional `cond ? a : b`.
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// Assignment to an identifier or member target.
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Compound operator (`None` for plain `=`).
        op: Option<BinaryOp>,
        /// Value being assigned.
        value: Box<Expr>,
    },
    /// Property access `obj.prop`.
    Member {
        /// Object expression.
        object: Box<Expr>,
        /// Property name.
        property: String,
    },
    /// Indexed access `obj[expr]`.
    Index {
        /// Object expression.
        object: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Call `callee(args)`.  When `callee` is a member expression, the object
    /// becomes `this` for the call (method-call semantics).
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Constructor call `new Callee(args)`.
    New {
        /// Constructor expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `typeof expr`.
    Typeof(Box<Expr>),
    /// `delete obj.prop` / `delete obj[k]`.
    Delete(Box<Expr>),
    /// Pre/post increment/decrement.
    Update {
        /// Target expression (identifier or member).
        target: Box<Expr>,
        /// +1 or -1.
        delta: f64,
        /// True if the operator preceded the operand (`++x`).
        prefix: bool,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Unary plus (numeric coercion).
    Plus,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==` (loose equality)
    Eq,
    /// `!=`
    NotEq,
    /// `===`
    StrictEq,
    /// `!==`
    StrictNotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `in` — property-existence test.
    In,
}

impl BinaryOp {
    /// True for the relational and equality operators: their result is a
    /// boolean and computing it never allocates.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(
            self,
            Eq | NotEq | StrictEq | StrictNotEq | Lt | Gt | Le | Ge
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_are_comparable() {
        let a = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(Expr::Number(1.0)),
            right: Box::new(Expr::Number(2.0)),
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
