//! In-memory spans at the boundaries the benchmark itself calls through
//! (run → worker → `Session::execute`), and the self-time arithmetic.

use crate::record::WorkerLog;

/// One recorded interval. `parent` indexes the span list; `op` is the op's
/// position in its worker's stream (the worker index on a worker span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span tree of one driven run: a `run` root, one `worker` span per
/// worker from its first op's start to its last op's end, and one
/// `execute` span per op.
pub fn tree(logs: &[WorkerLog]) -> Vec<Span> {
    let bounds = |l: &WorkerLog| {
        let start = l.ops.first().map_or(0, |o| o.0);
        (start, l.ops.last().map_or(start, |o| o.1))
    };
    let run_start = logs.iter().map(|l| bounds(l).0).min().unwrap_or(0);
    let run_end = logs.iter().map(|l| bounds(l).1).max().unwrap_or(0);
    let mut spans = vec![Span {
        name: "run",
        start: run_start,
        end: run_end,
        parent: None,
        op: 0,
    }];
    for log in logs {
        let (start, end) = bounds(log);
        let worker = spans.len();
        spans.push(Span {
            name: "worker",
            start,
            end,
            parent: Some(0),
            op: log.worker as u64,
        });
        spans.extend(log.ops.iter().enumerate().map(|(i, (s, e, _))| Span {
            name: "execute",
            start: *s,
            end: *e,
            parent: Some(worker),
            op: i as u64,
        }));
    }
    spans
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover. Overlapping children (workers under one run) count
/// the covered stretch once; a child is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|p| *p < spans.len()) {
            let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = vec![
            span("run", 0, 100, None),
            // Two workers overlapping on [20, 60): the run is uncovered on
            // [0, 10) and [80, 100) only.
            span("worker", 10, 60, Some(0)),
            span("worker", 20, 80, Some(0)),
            // Sequential ops leave gaps, which are the worker's own time.
            span("execute", 10, 25, Some(1)),
            span("execute", 30, 55, Some(1)),
            span("execute", 20, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 0, 15, 25, 60]);
        assert_eq!(
            self_by_name(&spans),
            vec![("run", 30), ("worker", 10), ("execute", 100)]
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("worker", 10, 20, None),
            span("execute", 0, 12, Some(0)),
            span("execute", 18, 40, Some(0)),
            span("execute", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 6);
    }

    #[test]
    fn tree_nests_ops_under_workers_under_the_run() {
        let logs = vec![
            WorkerLog {
                worker: 0,
                ops: vec![(5, 8, false), (9, 20, true)],
            },
            WorkerLog {
                worker: 1,
                ops: vec![(6, 30, false)],
            },
        ];
        let spans = tree(&logs);
        assert_eq!(spans.len(), 6);
        assert_eq!((spans[0].start, spans[0].end), (5, 30));
        assert_eq!(
            (spans[1].name, spans[1].start, spans[1].end),
            ("worker", 5, 20)
        );
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!((spans[4].name, spans[4].op), ("worker", 1));
        assert_eq!(spans[5].parent, Some(4));
        // Worker 0 spent 1 ns between its ops; worker 1 none.
        let own = self_times(&spans);
        assert_eq!((own[1], own[4]), (1, 0));
    }
}
