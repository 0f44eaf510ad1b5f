//! Panic-freedom audit for the decode paths.
//!
//! The wire codec (`gm-net`) and the storage value codec decode **untrusted
//! bytes**: a malformed frame or a corrupt record must surface as
//! `GdbError::Corrupt`, never as a panic that takes down the server thread
//! (or poisons an engine lock under it). This lint forbids the panicking
//! constructs in those files' non-test code:
//!
//! * `.unwrap()` / `.expect(` on `Option`/`Result`,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! * direct slice/array indexing (`buf[i]`, `buf[a..b]`), which panics on
//!   out-of-range — `get()`/`get_mut()` return the checkable `Option`.
//!
//! A construct that is provably safe (the index was bounds-checked on the
//! line above) can be waived with `// gm-check: allow-panic(reason)` on the
//! same line or the line directly above.

use crate::{Diag, SourceFile};

const LINT: &str = "panic-freedom";

/// Decode-path files under audit (suffix match against the repo-relative
/// path): the codecs, and the gm-net server loop, client and fleet that act
/// on what a peer sent. `proto.rs`'s `frames!` macro body *is* the frame
/// decoder, so it is held to the same rules.
pub const AUDITED: &[&str] = &[
    "crates/net/src/wire.rs",
    "crates/net/src/proto.rs",
    "crates/net/src/server.rs",
    "crates/net/src/client.rs",
    "crates/net/src/fleet.rs",
    "crates/storage/src/valcodec.rs",
    "crates/storage/src/codec.rs",
];

const CALLS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Keywords that can directly precede a `[` that is *not* indexing
/// (`let [a, b] = …`, `for x in arr`, `&'a [u8]` handled separately).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "dyn", "move", "as", "where",
];

/// Is the `[` at byte offset `i` an indexing bracket? True when the text
/// before it ends an expression: an identifier (that is not a keyword and
/// not a `'lifetime`), or `)`, `]`, `?`.
fn is_index_bracket(code: &str, i: usize) -> bool {
    let before = code[..i].trim_end();
    let tok_start = before
        .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .map_or(0, |p| p + 1);
    let tok = &before[tok_start..];
    if tok.is_empty() {
        return matches!(before.chars().last(), Some(')') | Some(']') | Some('?'));
    }
    // `&'a [u8]` — a lifetime, i.e. a slice type, not an indexing site.
    if before[..tok_start].ends_with('\'') {
        return false;
    }
    !NON_INDEX_KEYWORDS.contains(&tok)
}

pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in files {
        if !AUDITED.iter().any(|a| f.path.ends_with(a)) {
            continue;
        }
        for (idx, l) in f.lines.iter().enumerate() {
            if l.in_test {
                continue;
            }
            let waived = has_waiver(l.comment.as_deref())
                || (idx > 0 && has_waiver(f.lines[idx - 1].comment.as_deref()));
            if waived {
                continue;
            }
            for call in CALLS {
                if l.code.contains(call) {
                    diags.push(Diag {
                        file: f.path.clone(),
                        line: l.no,
                        lint: LINT,
                        msg: format!(
                            "`{}` in a decode path can panic on untrusted input; return \
                             GdbError::Corrupt instead, or waive a proven-safe use with \
                             `// gm-check: allow-panic(reason)`",
                            call.trim_end_matches('(')
                        ),
                    });
                }
            }
            // Indexing: `expr[` where expr ends in an identifier/call.
            let mut at = 0;
            while let Some(rel) = l.code[at..].find('[') {
                let i = at + rel;
                // `#[attr]` and slice-pattern/array-literal brackets have
                // no expression before them.
                if !l.code[..i].trim_end().ends_with('#') && is_index_bracket(&l.code, i) {
                    diags.push(Diag {
                        file: f.path.clone(),
                        line: l.no,
                        lint: LINT,
                        msg: "slice indexing in a decode path panics on out-of-range; \
                              use `.get()` or waive a bounds-checked use with \
                              `// gm-check: allow-panic(reason)`"
                            .into(),
                    });
                    break; // one diagnostic per line is enough
                }
                at = i + 1;
            }
        }
    }
    diags
}

fn has_waiver(comment: Option<&str>) -> bool {
    comment.is_some_and(|c| {
        c.strip_prefix("gm-check: allow-panic(")
            .is_some_and(|r| !r.trim_end_matches(')').trim().is_empty())
    })
}
