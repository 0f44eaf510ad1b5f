//! Span-discipline audit.
//!
//! A `gm_obs::phase` span measures the interval its RAII guard is live:
//! `let _exec = phase::span(Phase::EngineExec)` records until the guard
//! drops at end of scope. Discarding the guard — `let _ = phase::span(…)`
//! (the `_` binder drops immediately) or a bare `phase::span(…);`
//! statement — records a span of ~zero nanoseconds and silently deletes
//! the phase from every latency breakdown built on it: the sweep columns,
//! the trace flight recorder's self-times, stitched cross-process traces.
//! That compiles clean and passes every test with a plausible-looking
//! zero, which is exactly the kind of bug a lint has to catch.
//!
//! Every `phase::span`/`phase::span_always` call must bind its guard to a
//! *named* variable (a `_`-prefixed name like `_span` keeps the guard
//! live; the bare `_` pattern does not), or carry an explicit waiver on
//! the same line or the line above: `// gm-check: allow-dropped-span(reason)`.

use crate::{Diag, SourceFile};

const LINT: &str = "dropped-span";

pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in files {
        for (idx, l) in f.lines.iter().enumerate() {
            if l.in_test || !l.code.contains("span") {
                continue;
            }
            let t = l.code.trim();
            let Some(kind) = dropped_guard(t) else {
                continue;
            };
            if !waived(&f.lines, idx) {
                diags.push(Diag {
                    file: f.path.clone(),
                    line: l.no,
                    lint: LINT,
                    msg: format!(
                        "{kind} drops the span guard immediately, recording ~0ns — bind it \
                         to a named variable (`let _span = …`) for the scope being measured, \
                         or waive with `// gm-check: allow-dropped-span(reason)`"
                    ),
                });
            }
        }
    }
    diags
}

/// Is this line a span call whose guard is discarded? Returns a short
/// description of the discarding form, or `None` for kept guards and
/// non-span lines.
fn dropped_guard(t: &str) -> Option<&'static str> {
    // `let _ = phase::span(…)`: the bare `_` pattern drops the value at
    // the end of the *statement*, not the scope. `let _span = …` binds.
    if let Some(rest) = t.strip_prefix("let _") {
        let rest = rest.trim_start();
        if rest.starts_with('=') && span_call_at_start(rest[1..].trim_start()) {
            return Some("`let _ = …`");
        }
        return None;
    }
    // `phase::span(…);` in statement position: the temporary guard drops
    // at the trailing semicolon. A path prefix (`gm_obs::phase::span`) is
    // still statement position; anything else before the call (`return`,
    // an assignment, a method receiver) means the guard goes somewhere.
    if t.ends_with(';') && span_call_at_start(t) {
        return Some("a bare statement");
    }
    None
}

/// Does `t` begin with a (possibly path-qualified) `phase::span` or
/// `span_always` call?
fn span_call_at_start(t: &str) -> bool {
    let Some(paren) = t.find('(') else {
        return false;
    };
    let head = &t[..paren];
    (head.ends_with("::span") || head.ends_with("span_always") || head == "span")
        && head
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == ':')
}

/// A waiver covers its statement: same line or directly above (walking up
/// through rustfmt continuation lines, as the atomics lint does).
fn waived(lines: &[crate::lexer::CleanLine], idx: usize) -> bool {
    if has_waiver(lines[idx].comment.as_deref()) {
        return true;
    }
    let mut j = idx;
    while j > 0 && idx - j < 4 {
        let prev = &lines[j - 1];
        if has_waiver(prev.comment.as_deref()) {
            return true;
        }
        let t = prev.code.trim();
        if t.is_empty() || t.contains(';') || t.contains('{') || t.contains('}') {
            return false;
        }
        j -= 1;
    }
    false
}

fn has_waiver(comment: Option<&str>) -> bool {
    comment.is_some_and(|c| {
        c.strip_prefix("gm-check: allow-dropped-span(")
            .is_some_and(|r| !r.trim_end_matches(')').trim().is_empty())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diag> {
        check(&[SourceFile::new("crates/x/src/lib.rs", src)])
    }

    #[test]
    fn named_guards_pass() {
        let src = "fn f() {\n    let _exec = phase::span(Phase::EngineExec);\n    \
                   let _g = phase::span_always(Phase::LockWait);\n}\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn underscore_binder_is_flagged() {
        let src = "fn f() {\n    let _ = phase::span(Phase::EngineExec);\n}\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].lint, "dropped-span");
        assert!(d[0].msg.contains("let _ ="));
    }

    #[test]
    fn bare_statement_is_flagged() {
        for call in [
            "phase::span(Phase::EngineExec);",
            "gm_obs::phase::span(Phase::WireIo);",
            "span_always(Phase::LockWait);",
        ] {
            let d = diags(&format!("fn f() {{\n    {call}\n}}\n"));
            assert_eq!(d.len(), 1, "{call} should be flagged");
            assert!(d[0].msg.contains("bare statement"));
        }
    }

    #[test]
    fn expression_positions_pass() {
        // Tail expressions, returns and bindings hand the guard to a scope
        // (or caller) that keeps it live — not this lint's business.
        let src = "fn f() -> SpanGuard {\n    span_always(phase)\n}\n\
                   fn g() {\n    let guard = phase::span(Phase::WireIo);\n    \
                   return phase::span(Phase::WireIo);\n}\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn waiver_suppresses() {
        let src = "fn f() {\n    \
                   // gm-check: allow-dropped-span(probe: only the call count matters)\n    \
                   let _ = phase::span(Phase::EngineExec);\n    \
                   phase::span(Phase::WireIo); // gm-check: allow-dropped-span(same)\n}\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn empty_waiver_reason_does_not_count() {
        let src = "fn f() {\n    // gm-check: allow-dropped-span()\n    \
                   let _ = phase::span(Phase::EngineExec);\n}\n";
        assert_eq!(diags(src).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   let _ = phase::span(Phase::EngineExec);\n    }\n}\n";
        assert!(diags(src).is_empty());
    }
}
