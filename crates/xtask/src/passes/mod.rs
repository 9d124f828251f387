//! The pass framework: every rule is a [`Pass`] over one file's token
//! stream, emitting [`RawDiag`]s at byte offsets. The driver (in
//! [`crate::analyze_file`]) centrally filters `#[cfg(test)]` regions
//! and `xtask:allow` exemptions, then resolves offsets to lines.

use crate::lexer::Token;
use crate::model::LineMap;

mod determinism;
mod fault_determinism;
mod no_panic;
mod ordered_iteration;
mod panic_surface;
mod route_fields;

/// Everything a pass may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel: &'a str,
    /// The file's source text.
    pub src: &'a str,
    /// Its token stream, comments included.
    pub toks: &'a [Token],
    /// Offset→line mapping.
    pub lines: &'a LineMap,
}

/// A diagnostic before line resolution and filtering.
pub struct RawDiag {
    /// Byte offset the finding anchors to.
    pub off: usize,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

/// One static-analysis rule.
pub trait Pass {
    /// The pass's name (usually its primary rule id).
    fn id(&self) -> &'static str;
    /// Every rule id this pass can emit.
    fn rules(&self) -> &'static [&'static str];
    /// Whether the pass runs on this workspace-relative path.
    fn applies(&self, rel: &str) -> bool;
    /// Scans the file.
    fn run(&self, ctx: &FileCtx<'_>, out: &mut Vec<RawDiag>);
}

/// The full pass registry, in reporting order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(no_panic::NoPanic),
        Box::new(determinism::Determinism),
        Box::new(route_fields::RouteFields),
        Box::new(fault_determinism::FaultDeterminism),
        Box::new(ordered_iteration::OrderedIteration),
        Box::new(panic_surface::PanicSurface),
    ]
}

/// Every rule id the engine can emit, including the directive-syntax
/// rule owned by the driver.
pub fn all_rules() -> Vec<&'static str> {
    let mut rules = vec!["allow-syntax"];
    for p in registry() {
        rules.extend_from_slice(p.rules());
    }
    rules.sort_unstable();
    rules
}

/// Rust keywords, used to tell `ident[` indexing from `[` array syntax
/// and to pick out binary operator positions.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while",
];

/// True if the file is inside a crate's `src/` tree under `prefix`
/// (e.g. `crates/sim`).
pub fn under(rel: &str, prefix: &str) -> bool {
    rel.strip_prefix(prefix).and_then(|r| r.strip_prefix("/src/")).is_some()
}
