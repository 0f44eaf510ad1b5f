//! Breadth-first search and unweighted shortest paths (Q32–Q35).
//!
//! In the paper these are Gremlin loop constructs
//! (`v.as('i').both().except(vs).store(j).loop('i')`) that decompose into
//! the engines' neighbor primitives; here they are implemented once, over
//! the [`GraphSnapshot`] trait, so each engine pays exactly its own per-hop cost.

use gm_model::api::Direction;
use gm_model::fxmap::FxHashMap;
use gm_model::{GdbResult, GraphSnapshot, QueryCtx, Vid};

/// Result of a shortest-path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathResult {
    /// Vertices from source to target, inclusive.
    pub path: Vec<Vid>,
}

impl PathResult {
    /// Number of edges on the path.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Q32/Q33: vertices reached from `start` by a breadth-first traversal over
/// `both()` edges, up to `max_depth` hops, optionally restricted to edges
/// with `label`. The start vertex is not included (Gremlin's `except(vs)`).
pub fn bfs(
    db: &dyn GraphSnapshot,
    start: Vid,
    max_depth: usize,
    label: Option<&str>,
    ctx: &QueryCtx,
) -> GdbResult<Vec<Vid>> {
    let mut visited: FxHashMap<u64, ()> = FxHashMap::default();
    visited.insert(start.0, ());
    let mut frontier = vec![start];
    let mut reached = Vec::new();
    for _ in 0..max_depth {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for v in frontier {
            db.for_each_incident(v, Direction::Both, label, ctx, &mut |r| {
                ctx.tick()?;
                if visited.insert(r.other.0, ()).is_none() {
                    reached.push(r.other);
                    next.push(r.other);
                }
                Ok(())
            })?;
        }
        frontier = next;
    }
    Ok(reached)
}

/// Q34/Q35: unweighted shortest path from `from` to `to` over `both()`
/// edges, optionally restricted to a label. Returns `None` when no path
/// exists. The paper's Gremlin formulation explores breadth-first and keeps
/// the traversal path; we reconstruct it from BFS parents.
pub fn shortest_path(
    db: &dyn GraphSnapshot,
    from: Vid,
    to: Vid,
    label: Option<&str>,
    ctx: &QueryCtx,
) -> GdbResult<Option<PathResult>> {
    if from == to {
        return Ok(Some(PathResult { path: vec![from] }));
    }
    let mut parent: FxHashMap<u64, u64> = FxHashMap::default();
    parent.insert(from.0, from.0);
    let mut frontier = vec![from];
    let mut found = false;
    'outer: loop {
        if frontier.is_empty() {
            return Ok(None);
        }
        let mut next = Vec::new();
        for v in std::mem::take(&mut frontier) {
            // The walk cannot stop early: once the target is reached, the
            // rest of this vertex's edges pass unticked and unrecorded.
            db.for_each_incident(v, Direction::Both, label, ctx, &mut |r| {
                if found {
                    return Ok(());
                }
                ctx.tick()?;
                let n = r.other;
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(n.0) {
                    e.insert(v.0);
                    found = n == to;
                    next.push(n);
                }
                Ok(())
            })?;
            if found {
                break 'outer;
            }
        }
        frontier = next;
    }
    // Reconstruct.
    let mut path = vec![to];
    let mut cur = to.0;
    while cur != from.0 {
        cur = parent[&cur];
        path.push(Vid(cur));
    }
    path.reverse();
    Ok(Some(PathResult { path }))
}

/// Eccentricity-style probe used by the dataset statistics module and a few
/// complex queries: the maximum BFS depth reachable from `start`.
pub fn bfs_depth(db: &dyn GraphSnapshot, start: Vid, ctx: &QueryCtx) -> GdbResult<usize> {
    let mut visited: FxHashMap<u64, ()> = FxHashMap::default();
    visited.insert(start.0, ());
    let mut frontier = vec![start];
    let mut depth = 0usize;
    loop {
        let mut next = Vec::new();
        for v in frontier {
            db.for_each_incident(v, Direction::Both, None, ctx, &mut |r| {
                ctx.tick()?;
                if visited.insert(r.other.0, ()).is_none() {
                    next.push(r.other);
                }
                Ok(())
            })?;
        }
        if next.is_empty() {
            return Ok(depth);
        }
        depth += 1;
        frontier = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_linked::LinkedGraph;
    use gm_model::api::{GraphDb, LoadOptions};
    use gm_model::testkit;
    use gm_model::GdbError;

    fn chain(n: u64) -> LinkedGraph {
        let mut g = LinkedGraph::v1();
        g.bulk_load(&testkit::chain_dataset(n), &LoadOptions::default())
            .unwrap();
        g
    }

    #[test]
    fn bfs_depth_limits() {
        let g = chain(10);
        let ctx = QueryCtx::unbounded();
        let start = g.resolve_vertex(5).unwrap();
        // Depth 1: vertices 4 and 6.
        assert_eq!(bfs(&g, start, 1, None, &ctx).unwrap().len(), 2);
        // Depth 2: 3,4,6,7.
        assert_eq!(bfs(&g, start, 2, None, &ctx).unwrap().len(), 4);
        // Unbounded-ish: everything except the start.
        assert_eq!(bfs(&g, start, 100, None, &ctx).unwrap().len(), 9);
    }

    #[test]
    fn bfs_label_restricted() {
        // chain_dataset alternates labels "next" (even i) and "link".
        let g = chain(10);
        let ctx = QueryCtx::unbounded();
        let start = g.resolve_vertex(0).unwrap();
        // Edge 0 (label next) reaches v1; edge 1 has label "link" so the
        // labeled BFS stops there.
        let reached = bfs(&g, start, 10, Some("next"), &ctx).unwrap();
        assert_eq!(reached.len(), 1);
        // Unknown label: empty.
        assert!(bfs(&g, start, 3, Some("nope"), &ctx).unwrap().is_empty());
    }

    #[test]
    fn shortest_path_on_chain() {
        let g = chain(50);
        let ctx = QueryCtx::unbounded();
        let a = g.resolve_vertex(3).unwrap();
        let b = g.resolve_vertex(17).unwrap();
        let p = shortest_path(&g, a, b, None, &ctx).unwrap().unwrap();
        assert_eq!(p.hops(), 14);
        assert_eq!(p.path.first(), Some(&a));
        assert_eq!(p.path.last(), Some(&b));
        // Consecutive path vertices must be adjacent.
        for w in p.path.windows(2) {
            let n = g.neighbors(w[0], Direction::Both, None, &ctx).unwrap();
            assert!(n.contains(&w[1]));
        }
    }

    #[test]
    fn shortest_path_trivial_and_missing() {
        let g = chain(5);
        let ctx = QueryCtx::unbounded();
        let a = g.resolve_vertex(2).unwrap();
        assert_eq!(
            shortest_path(&g, a, a, None, &ctx).unwrap().unwrap().hops(),
            0
        );
        // Disconnected target: tiny_dataset's robot vertex.
        let mut t = LinkedGraph::v1();
        t.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        let ann = t.resolve_vertex(0).unwrap();
        let dan = t.resolve_vertex(3).unwrap();
        assert_eq!(shortest_path(&t, ann, dan, None, &ctx).unwrap(), None);
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // Triangle with a long way round: a-b, b-c, and a-x-y-c.
        let mut g = LinkedGraph::v1();
        let mut d = gm_model::Dataset::new("tri");
        for _ in 0..5 {
            d.add_vertex("n", vec![]);
        }
        d.add_edge(0, 1, "e", vec![]); // a-b
        d.add_edge(1, 2, "e", vec![]); // b-c
        d.add_edge(0, 3, "e", vec![]); // a-x
        d.add_edge(3, 4, "e", vec![]); // x-y
        d.add_edge(4, 2, "e", vec![]); // y-c
        g.bulk_load(&d, &LoadOptions::default()).unwrap();
        let ctx = QueryCtx::unbounded();
        let a = g.resolve_vertex(0).unwrap();
        let c = g.resolve_vertex(2).unwrap();
        let p = shortest_path(&g, a, c, None, &ctx).unwrap().unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn bfs_depth_of_chain() {
        let g = chain(10);
        let ctx = QueryCtx::unbounded();
        let end = g.resolve_vertex(0).unwrap();
        assert_eq!(bfs_depth(&g, end, &ctx).unwrap(), 9);
        let mid = g.resolve_vertex(5).unwrap();
        assert_eq!(bfs_depth(&g, mid, &ctx).unwrap(), 5);
    }

    #[test]
    fn deadline_aborts_bfs() {
        let g = chain(30_000);
        let ctx = QueryCtx::with_timeout(std::time::Duration::from_millis(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        let start = g.resolve_vertex(0).unwrap();
        assert_eq!(
            bfs(&g, start, usize::MAX, None, &ctx).unwrap_err(),
            GdbError::Timeout
        );
    }
}
