//! Static lock-order lint.
//!
//! The workspace's lock hierarchy (enforced at runtime, in debug builds, by
//! `gm_model::lockorder`) is:
//!
//! ```text
//! swap < driver < meta < shard (ascending index) < cell-writer < cell-published < leaf
//! ```
//!
//! Every blocking acquisition in the concurrency crates is annotated with a
//! marker comment on its own line directly above the acquisition:
//!
//! ```text
//! // gm-lock: meta
//! let meta = self.meta_write()?;
//! ```
//!
//! This lint re-checks the hierarchy *textually*: within one function, a
//! marker that acquires a rank **lower** than a rank still held (i.e. a
//! marker pushed earlier in an enclosing or same scope that has not been
//! closed by a `}`) is an ordering violation — the acquisition pattern that
//! can deadlock against a thread acquiring in the documented order.
//!
//! Scope model: a marker is "held" from its line until the brace depth
//! drops below the depth it was declared at. A `transient` suffix
//! (`// gm-lock: meta transient`) checks the acquisition against the
//! current stack but does not push it — for guards dropped within the
//! same statement or explicitly before the next acquisition.
//!
//! The lint is deliberately one-sided: it cannot see unannotated
//! acquisitions (the debug-mode runtime detector covers those), and equal
//! ranks are allowed (two `shard` acquisitions in one scope are the
//! ascending-index `wlock_all` pattern, whose order the runtime detector
//! checks with real indices).

use crate::{Diag, SourceFile};

const LINT: &str = "lock-order";

/// Rank names in ascending acquisition order.
const RANKS: &[&str] = &[
    "swap",
    "driver",
    "meta",
    "shard",
    "cell-writer",
    "cell-published",
    "leaf",
];

fn rank_value(name: &str) -> Option<usize> {
    RANKS.iter().position(|r| *r == name)
}

struct HeldMark {
    rank: usize,
    name: String,
    line: usize,
    depth: usize,
}

pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for f in files {
        let mut held: Vec<HeldMark> = Vec::new();
        for l in &f.lines {
            // Close out marks whose scope ended before this line.
            held.retain(|m| l.depth >= m.depth);
            if l.in_test {
                continue;
            }
            let Some(c) = &l.comment else { continue };
            let Some(rest) = c.strip_prefix("gm-lock:") else {
                continue;
            };
            let mut parts = rest.split_whitespace();
            let Some(name) = parts.next() else {
                diags.push(Diag {
                    file: f.path.clone(),
                    line: l.no,
                    lint: LINT,
                    msg: "empty gm-lock marker; write `// gm-lock: <rank>[ transient]`".into(),
                });
                continue;
            };
            let transient = matches!(parts.next(), Some("transient"));
            let Some(rank) = rank_value(name) else {
                diags.push(Diag {
                    file: f.path.clone(),
                    line: l.no,
                    lint: LINT,
                    msg: format!(
                        "unknown lock rank `{name}`; known ranks, in acquisition order: {}",
                        RANKS.join(" < ")
                    ),
                });
                continue;
            };
            if let Some(top) = held.iter().max_by_key(|m| m.rank) {
                if rank < top.rank {
                    diags.push(Diag {
                        file: f.path.clone(),
                        line: l.no,
                        lint: LINT,
                        msg: format!(
                            "acquiring `{name}` while `{}` (line {}) is still held inverts \
                             the lock order ({}); release the higher rank first or restructure",
                            top.name,
                            top.line,
                            RANKS.join(" < ")
                        ),
                    });
                }
            }
            if !transient {
                held.push(HeldMark {
                    rank,
                    name: name.to_string(),
                    line: l.no,
                    depth: l.depth,
                });
            }
        }
    }
    diags
}
