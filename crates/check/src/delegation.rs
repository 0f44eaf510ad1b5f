//! Delegation-completeness lint.
//!
//! The workspace's layering crates (`gm-net`, `gm-shard`, `gm-mvcc`, plus
//! the `Box<T>` blanket impls in `gm-model`) wrap one `GraphSnapshot` /
//! `GraphDb` in another. Rustc forces them to implement every *required*
//! method — but a **defaulted** method silently falls through to the trait
//! default instead of forwarding, which is exactly how `SharedWriter`
//! historically dropped `epoch` (every snapshot read as epoch 0) and the
//! bulk-scan overrides (per-vertex lock reacquisition instead of one locked
//! pass).
//!
//! This lint closes that hole: in the layering crates, every impl of the
//! two traits must, for **each defaulted trait method**, either
//!
//! * override the method,
//! * expand one of the `forward_graph_snapshot!` / `forward_graph_db!`
//!   macros (which forward the full surface by construction) or
//!   `gm-shard`'s `composite_graph_snapshot!` (which derives the full
//!   surface from a composite host's one-method read seam), or
//! * carry an explicit waiver comment inside the impl block:
//!   `// gm-check: allow-default(method: reason)` — the reason is part of
//!   the syntax; an unexplained waiver is a diagnostic of its own.
//!
//! A defaulted method whose declaration is preceded by a plain
//! `// gm-check: derived` line is instead **final**: it is derived from the
//! trait's required methods (`neighbors` and `vertex_edges` collect
//! `for_each_incident`'s visit), so layers need not forward it, and *no*
//! impl anywhere in the workspace — engines included — may override it: an
//! override would be a second copy of the walk that could drift from the
//! first.
//!
//! The trait definitions are parsed from the file that declares
//! `pub trait GraphSnapshot` (in the real workspace, `gm-model`'s
//! `api.rs`), so a new defaulted or derived method extends the lint
//! automatically.

use crate::lexer::CleanLine;
use crate::{Diag, SourceFile};

/// Crates whose impls are forwarding layers (terminal engines are exempt:
/// their defaults are the intended implementation).
const LAYER_CRATES: &[&str] = &[
    "crates/model/",
    "crates/net/",
    "crates/shard/",
    "crates/mvcc/",
];

const LINT: &str = "delegation";

struct TraitSurface {
    name: &'static str,
    /// Defaulted methods — the ones an impl can silently *not* forward.
    defaulted: Vec<String>,
    /// Derived methods — final, never overridden.
    derived: Vec<String>,
    /// Macros whose expansion covers the full surface; the first is the
    /// one diagnostics recommend.
    full_surface_macros: &'static [&'static str],
}

/// Extract the defaulted-method lists for both traits from the trait
/// definition file. Returns `None` (plus a diagnostic) if no file defines
/// the traits — the lint cannot run without its ground truth.
fn trait_surfaces(files: &[SourceFile]) -> Result<Vec<TraitSurface>, Diag> {
    for f in files {
        if f.lines
            .iter()
            .any(|l| l.code.contains("trait GraphSnapshot"))
        {
            let surface = |name, full_surface_macros| {
                let (defaulted, derived) = provided_methods(&f.lines, name);
                TraitSurface {
                    name,
                    defaulted,
                    derived,
                    full_surface_macros,
                }
            };
            return Ok(vec![
                surface(
                    "GraphSnapshot",
                    &["forward_graph_snapshot!", "composite_graph_snapshot!"],
                ),
                surface("GraphDb", &["forward_graph_db!"]),
            ]);
        }
    }
    Err(Diag {
        file: "<workspace>".into(),
        line: 0,
        lint: LINT,
        msg: "no file defines `trait GraphSnapshot`; cannot check delegation completeness".into(),
    })
}

/// Methods of `trait_name` that carry a default body, as (defaulted,
/// derived): a method is derived when a `// gm-check: derived` line comes
/// between it and the previous method, and otherwise defaulted when its
/// signature ends in `{` rather than `;` (scanning at paren-depth 0 from
/// the `fn` line).
fn provided_methods(lines: &[CleanLine], trait_name: &str) -> (Vec<String>, Vec<String>) {
    let (mut out, mut derived) = (Vec::new(), Vec::new());
    let Some(open) = lines
        .iter()
        .position(|l| l.code.contains("trait ") && l.code.contains(trait_name) && !l.in_test)
    else {
        return (out, derived);
    };
    let body_depth = lines[open].depth_after; // depth inside the trait block
    let mut marked = false;
    let mut i = open + 1;
    while i < lines.len() && lines[i].depth >= body_depth {
        let l = &lines[i];
        if l.depth == body_depth {
            marked |= l.comment.as_deref() == Some("gm-check: derived");
            if let Some(name) = fn_name(&l.code).filter(|_| marked) {
                derived.push(name);
                marked = false;
            } else if let Some(name) = fn_name(&l.code) {
                // Scan forward from the `fn` keyword for the first `{` or
                // `;` outside parens/brackets — `{` means a default body.
                let mut paren = 0i32;
                'sig: for sl in &lines[i..] {
                    let start = if sl.no == l.no {
                        sl.code.find("fn ").unwrap_or(0)
                    } else {
                        0
                    };
                    for c in sl.code[start..].chars() {
                        match c {
                            '(' | '[' | '<' => paren += 1,
                            ')' | ']' | '>' => paren -= 1,
                            '{' if paren <= 0 => {
                                out.push(name.clone());
                                break 'sig;
                            }
                            ';' if paren <= 0 => break 'sig,
                            _ => {}
                        }
                    }
                }
            }
        }
        i += 1;
    }
    (out, derived)
}

/// The method name of a `fn name(` declaration on this line, if any.
fn fn_name(code: &str) -> Option<String> {
    let at = code.find("fn ")?;
    // Reject `pub fngarbage` style false hits: require word boundary before.
    if at > 0 {
        let prev = code.as_bytes()[at - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return None;
        }
    }
    let rest = &code[at + 3..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// One `impl Trait for Type` block found in a layering crate.
struct ImplBlock {
    line: usize,
    type_name: String,
    /// Methods defined inside the block.
    methods: Vec<String>,
    /// `allow-default(method: reason)` waivers inside the block.
    waived: Vec<(String, usize, bool)>, // (method, line, has_reason)
    expands_full_surface: bool,
}

fn find_impls(file: &SourceFile, trait_name: &str, full_surface: &[&str]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let needle = format!(" {trait_name} for ");
    let mut i = 0;
    while i < file.lines.len() {
        let l = &file.lines[i];
        let is_open = !l.in_test
            && l.code.trim_start().starts_with("impl")
            && l.code.contains(&needle)
            && l.code.contains('{');
        if !is_open {
            i += 1;
            continue;
        }
        let type_name = l
            .code
            .split(&needle)
            .nth(1)
            .unwrap_or("")
            .trim()
            .trim_end_matches('{')
            .trim()
            .to_string();
        let body_depth = l.depth_after;
        let mut blk = ImplBlock {
            line: l.no,
            type_name,
            methods: Vec::new(),
            waived: Vec::new(),
            expands_full_surface: false,
        };
        let mut j = i + 1;
        while j < file.lines.len() && file.lines[j].depth >= body_depth {
            let bl = &file.lines[j];
            if bl.depth == body_depth {
                if let Some(name) = fn_name(&bl.code) {
                    blk.methods.push(name);
                }
                if full_surface.iter().any(|m| bl.code.contains(m)) {
                    blk.expands_full_surface = true;
                }
            }
            if let Some(c) = &bl.comment {
                if let Some(args) = c.strip_prefix("gm-check: allow-default(") {
                    let args = args.trim_end_matches(')');
                    let (method, reason) = match args.split_once(':') {
                        Some((m, r)) => (m.trim().to_string(), !r.trim().is_empty()),
                        None => (args.trim().to_string(), false),
                    };
                    blk.waived.push((method, bl.no, reason));
                }
            }
            j += 1;
        }
        out.push(blk);
        i = j;
    }
    out
}

/// Run the lint over all files.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let surfaces = match trait_surfaces(files) {
        Ok(s) => s,
        Err(d) => return vec![d],
    };
    let mut diags = Vec::new();
    for f in files {
        let layer = LAYER_CRATES.iter().any(|c| f.path.contains(c));
        for surface in &surfaces {
            for blk in find_impls(f, surface.name, surface.full_surface_macros) {
                for m in blk.methods.iter().filter(|m| surface.derived.contains(m)) {
                    diags.push(Diag {
                        file: f.path.clone(),
                        line: blk.line,
                        lint: LINT,
                        msg: format!(
                            "impl {} for {} overrides `{m}`, which the trait derives \
                             (`// gm-check: derived`) and which is final; implement \
                             the method it derives from instead",
                            surface.name, blk.type_name
                        ),
                    });
                }
                if !layer {
                    continue; // terminal engines' defaults are intended
                }
                for (method, line, has_reason) in &blk.waived {
                    if !has_reason {
                        diags.push(Diag {
                            file: f.path.clone(),
                            line: *line,
                            lint: LINT,
                            msg: format!(
                                "waiver for `{method}` has no reason; write \
                                 `// gm-check: allow-default({method}: why the default is correct)`"
                            ),
                        });
                    }
                }
                if blk.expands_full_surface {
                    continue; // the macro covers the full surface
                }
                for m in &surface.defaulted {
                    let overridden = blk.methods.iter().any(|x| x == m);
                    let waived = blk.waived.iter().any(|(x, _, _)| x == m);
                    if !overridden && !waived {
                        diags.push(Diag {
                            file: f.path.clone(),
                            line: blk.line,
                            lint: LINT,
                            msg: format!(
                                "impl {} for {} inherits the default `{m}` instead of \
                                 forwarding it; override it, use {}, or waive with \
                                 `// gm-check: allow-default({m}: reason)`",
                                surface.name, blk.type_name, surface.full_surface_macros[0]
                            ),
                        });
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth against the real trait file: the defaulted surface the
    /// lint polices is exactly the set of methods with default bodies in
    /// `gm-model`'s api.rs, less the derived ones. If this fails after
    /// editing the trait, the signature scanner needs to learn the new
    /// shape.
    #[test]
    fn real_api_defaulted_surface() {
        let api =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../model/src/api.rs"))
                .expect("read gm-model api.rs");
        let lines = crate::lexer::clean(&api);
        assert_eq!(
            provided_methods(&lines, "GraphSnapshot"),
            (
                vec![
                    "epoch".to_string(),
                    "vertex_degree".into(),
                    "degree_scan".into(),
                    "distinct_neighbor_scan".into()
                ],
                vec!["neighbors".to_string(), "vertex_edges".into()]
            ),
            "GraphSnapshot's (defaulted, derived) methods"
        );
        assert_eq!(
            provided_methods(&lines, "GraphDb"),
            (vec!["sync".to_string()], vec![]),
            "GraphDb's (defaulted, derived) methods"
        );
    }

    #[test]
    fn fn_name_extraction() {
        assert_eq!(
            fn_name("    fn epoch(&self) -> u64 {"),
            Some("epoch".into())
        );
        assert_eq!(
            fn_name("    pub fn take_n<const N: usize>("),
            Some("take_n".into())
        );
        assert_eq!(fn_name("let fn_name = 3;"), None);
        assert_eq!(fn_name("call(WriteFn)"), None);
    }
}
