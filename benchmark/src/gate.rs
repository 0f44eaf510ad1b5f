//! The correctness gate: what a replay must have produced for its numbers
//! to count. Any violation fails the command.

/// What one replay (a round, or a ladder rung) produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    pub what: String,
    pub attempted: u64,
    /// Errored, shed and lost-commit ops.
    pub failed: u64,
    /// Checksum of the per-worker cardinality traces, worker order.
    pub checksum: u64,
    pub vertices: u64,
    pub edges: u64,
}

/// What the op streams must produce, worked out without any backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// `None` for a stream with writes: its read answers depend on how the
    /// workers interleave, so only its end state is fixed.
    pub checksum: Option<u64>,
    pub vertices: u64,
    pub edges: u64,
}

/// One replay against the oracle: no op may fail, a read-only stream's
/// checksum must match, and the graph must end at the stream's |V| and |E|.
pub fn check(got: &Observed, want: &Expected) -> Vec<String> {
    let mut v = Vec::new();
    if got.failed > 0 {
        v.push(format!(
            "{}: {} of {} ops failed",
            got.what, got.failed, got.attempted
        ));
    }
    if want.checksum.is_some_and(|c| c != got.checksum) {
        v.push(format!(
            "{}: cardinality checksum {:#x} differs from the oracle's {:#x}",
            got.what,
            got.checksum,
            want.checksum.unwrap_or(0)
        ));
    }
    if (got.vertices, got.edges) != (want.vertices, want.edges) {
        v.push(format!(
            "{}: final |V|/|E| {}/{} differs from the op stream's {}/{}",
            got.what, got.vertices, got.edges, want.vertices, want.edges
        ));
    }
    v
}

/// Replays of one stream against each other (ladder rungs, or two rounds
/// of one seed): the same end state everywhere, and for a read-only stream
/// the same checksum.
pub fn agree(all: &[Observed], read_only: bool) -> Vec<String> {
    let Some(first) = all.first() else {
        return Vec::new();
    };
    all[1..]
        .iter()
        .filter(|o| {
            (o.vertices, o.edges) != (first.vertices, first.edges)
                || (read_only && o.checksum != first.checksum)
        })
        .map(|o| {
            format!(
                "{} (checksum {:#x}, |V|/|E| {}/{}) disagrees with {} (checksum {:#x}, |V|/|E| {}/{})",
                o.what, o.checksum, o.vertices, o.edges,
                first.what, first.checksum, first.vertices, first.edges
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(what: &str, checksum: u64) -> Observed {
        Observed {
            what: what.into(),
            attempted: 100,
            failed: 0,
            checksum,
            vertices: 10,
            edges: 20,
        }
    }

    fn expected(checksum: Option<u64>) -> Expected {
        Expected {
            checksum,
            vertices: 10,
            edges: 20,
        }
    }

    #[test]
    fn a_clean_replay_passes() {
        assert!(check(&observed("local", 7), &expected(Some(7))).is_empty());
        assert!(check(&observed("local", 7), &expected(None)).is_empty());
    }

    #[test]
    fn a_corrupted_checksum_fails_the_gate() {
        let v = check(&observed("wire", 7 ^ 1), &expected(Some(7)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("wire") && v[0].contains("checksum"));
        // ...and so does one rung drifting from the others.
        let rungs = [
            observed("bare", 7),
            observed("local", 7),
            observed("wire", 6),
        ];
        let v = agree(&rungs, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("wire"));
        // A stream with writes is held to its end state only.
        assert!(agree(&rungs, false).is_empty());
    }

    #[test]
    fn an_errored_op_fails_the_gate() {
        let mut o = observed("snap", 7);
        o.failed = 1;
        let v = check(&o, &expected(Some(7)));
        assert_eq!(v, vec!["snap: 1 of 100 ops failed".to_string()]);
    }

    #[test]
    fn a_wrong_end_state_fails_the_gate() {
        let mut o = observed("fleet", 7);
        o.edges = 19;
        assert_eq!(check(&o, &expected(None)).len(), 1);
        let rungs = [observed("bare", 1), o];
        assert_eq!(agree(&rungs, false).len(), 1);
    }
}
