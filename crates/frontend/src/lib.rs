//! # jitbull-frontend — the `minijs` language frontend
//!
//! This crate implements the source-language substrate of the JITBULL
//! reproduction: **minijs**, a small JavaScript-like language rich enough to
//! express both the vulnerability demonstrator codes (VDCs) used by the paper
//! and Octane-style benchmark workloads.
//!
//! The crate provides:
//!
//! * a [`lexer`] producing [`token::Token`]s with source spans,
//! * a recursive-descent [`parser`] producing an [`ast::Program`],
//! * a [`printer`] that renders an AST back to minijs source (used by the
//!   variant generators in `jitbull-vdc` for minification and renaming),
//! * structural [`visit`] helpers for source-to-source transforms.
//!
//! The language supports: `var` declarations, function declarations (global
//! and nested — nested functions are hoisted and may not capture enclosing
//! locals), `if`/`else`, `while`, `for`, `break`/`continue`/`return`,
//! numbers, strings, booleans, `undefined`/`null`, arrays with mutable
//! `length`, object literals, property/index access, method calls with
//! `this`, `new` expressions, and the usual arithmetic / comparison /
//! bitwise / logical operators.
//!
//! # Examples
//!
//! ```
//! use jitbull_frontend::parse_program;
//!
//! let program = parse_program(
//!     "function add(a, b) { return a + b; } var x = add(1, 2);",
//! )?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok::<(), jitbull_frontend::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::Program;
pub use error::ParseError;
pub use parser::parse_program;
pub use printer::print_program;
