//! # gm-check — workspace-aware static analysis for graphmark
//!
//! A dependency-free checker for the invariants rustc cannot see:
//!
//! * [`delegation`] — every forwarding impl of `GraphSnapshot`/`GraphDb`
//!   in the layering crates overrides each **defaulted** trait method (or
//!   carries an explicit waiver); this is the lint that would have caught
//!   `SharedWriter` silently reporting epoch 0 for every snapshot. No impl
//!   anywhere may override a method the trait marks `// gm-check: derived`.
//! * [`lockorder`] — `// gm-lock: <rank>` markers on lock acquisitions
//!   must follow the workspace hierarchy `swap < driver < meta < shard <
//!   cell-writer < cell-published < leaf` (the debug-mode runtime detector
//!   in `gm_model::lockorder` checks the same order with live stacks).
//! * [`panics`] — no `unwrap`/`expect`/indexing in the untrusted-byte
//!   decode paths (wire + storage codecs).
//! * [`atomics`] — every `Ordering::Relaxed` outside the metrics crate
//!   carries a written justification.
//! * [`spans`] — no discarded `phase::span` guards (`let _ = …` or a bare
//!   statement drops the RAII guard immediately, recording a ~0ns span
//!   that silently falsifies every phase breakdown).
//! * [`knobs`] — `GM_*` environment knobs are read only in binaries,
//!   `gm-bench`'s config registry and examples, never in library code.
//!
//! The checker parses the workspace's own sources with a lightweight
//! line lexer ([`lexer`]) — no `syn`, no proc-macro machinery — so it
//! builds in the offline vendored workspace and runs in CI before clippy.

pub mod atomics;
pub mod delegation;
pub mod knobs;
pub mod lexer;
pub mod lockorder;
pub mod panics;
pub mod spans;

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding, printed as `file:line: [lint] message`.
#[derive(Debug, Clone)]
pub struct Diag {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )
    }
}

/// One source file, pre-lexed. `path` is workspace-relative with `/`
/// separators — the lints match on it textually.
pub struct SourceFile {
    pub path: String,
    pub lines: Vec<lexer::CleanLine>,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, src: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            lines: lexer::clean(src),
        }
    }
}

/// Run every lint over a pre-collected file set.
pub fn run(files: &[SourceFile]) -> Vec<Diag> {
    let mut diags = Vec::new();
    diags.extend(delegation::check(files));
    diags.extend(lockorder::check(files));
    diags.extend(panics::check(files));
    diags.extend(atomics::check(files));
    diags.extend(spans::check(files));
    diags.extend(knobs::check(files));
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Collect the `.rs` sources of a workspace rooted at `root`: every
/// `crates/*/src/**` tree plus the root package's `src/`, excluding
/// `crates/vendor` (offline stand-ins, checked only by the atomics
/// allowlist) and this checker's own fixtures.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut src_dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path();
            if dir.is_dir() && dir.file_name().is_some_and(|n| n != "vendor") {
                src_dirs.push(dir.join("src"));
            }
        }
    }
    for dir in src_dirs {
        collect_rs(root, &dir, &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(root, &p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p)?;
            out.push(SourceFile::new(rel, &src));
        }
    }
    Ok(())
}
