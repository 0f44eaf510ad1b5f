//! Canonical-id resolution, kept alike by every engine (`engine_apply!`
//! fills and retires it) and by the sharded composite (in composite ids).

use std::sync::Arc;

use crate::api::LoadStats;
use crate::fxmap::FxHashSet;
use crate::ids::{Eid, Vid};

/// What a bulk load's `(vertex ids, edge ids)` tables are, in canonical
/// order: an engine's `load_dataset` answer.
pub type LoadedIds = (Vec<u64>, Vec<u64>);

const VERTEX: usize = 0;
const EDGE: usize = 1;

/// The `canonical → id` tables of one bulk load, frozen when it ends (a
/// dataset's canonical ids are `0..n`), and the loaded elements removed
/// since: [`GraphSnapshot::resolve_vertex`](crate::GraphSnapshot::resolve_vertex)'s
/// answer, the loaded element while it is live, else `None`. Both halves
/// are shared by `Arc`, so a clone (one per copy-on-write epoch or
/// composite pin) costs two refcounts and resolves as of its taking.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    tables: Arc<Tables>,
    /// Per kind, one past the largest id the load handed out.
    bound: [u64; 2],
    removed: Arc<[FxHashSet<u64>; 2]>,
}

/// A load's id tables, and what tells a loaded id from a later one.
#[derive(Debug, Default)]
struct Tables {
    /// Per kind, the id of each canonical element.
    ids: [Vec<u64>; 2],
    /// Per kind, `ids` in ascending order, sorted when the load ends (so a
    /// removal allocates nothing to look an id up); `None` where `ids`
    /// already is ascending. Linked numbers its records in load order;
    /// relational and cluster put a label's table in an id's high bits, so
    /// theirs interleave.
    sorted: [Option<Vec<u64>>; 2],
}

impl Tables {
    /// Whether the load handed out `id`.
    fn holds(&self, kind: usize, id: u64) -> bool {
        let ids = self.sorted[kind].as_ref().unwrap_or(&self.ids[kind]);
        ids.binary_search(&id).is_ok()
    }
}

impl Resolution {
    /// The resolution of a load that placed canonical vertex `c` at
    /// `vertices[c]` and canonical edge `c` at `edges[c]`.
    pub fn frozen((vertices, edges): LoadedIds) -> Resolution {
        let ids = [vertices, edges];
        let bound = ids
            .each_ref()
            .map(|t| t.iter().max().map_or(0, |&id| id + 1));
        let sorted = ids.each_ref().map(|ids| {
            let mut sorted = (!ids.is_sorted()).then(|| ids.clone())?;
            sorted.sort_unstable();
            Some(sorted)
        });
        Resolution {
            tables: Arc::new(Tables { ids, sorted }),
            bound,
            removed: Arc::default(),
        }
    }

    /// What the load ingested, by the tables' lengths.
    pub fn stats(&self) -> LoadStats {
        let [vertices, edges] = self.tables.ids.each_ref().map(|t| t.len() as u64);
        LoadStats { vertices, edges }
    }

    /// Where the load placed canonical vertex `canonical`, while it is live.
    pub fn vertex(&self, canonical: u64) -> Option<Vid> {
        self.resolve(VERTEX, canonical).map(Vid)
    }

    /// Where the load placed canonical edge `canonical`, while it is live.
    pub fn edge(&self, canonical: u64) -> Option<Eid> {
        self.resolve(EDGE, canonical).map(Eid)
    }

    /// Stop resolving vertex `v` for good, if the load handed its id out.
    pub fn retire_vertex(&mut self, v: Vid) {
        self.retire(VERTEX, v.0);
    }

    /// Stop resolving edge `e` for good, if the load handed its id out.
    pub fn retire_edge(&mut self, e: Eid) {
        self.retire(EDGE, e.0);
    }

    /// The load's `[vertex, edge]` id tables, in canonical order.
    pub fn tables(&self) -> [&[u64]; 2] {
        self.tables.ids.each_ref().map(Vec::as_slice)
    }

    /// How many ids the tables hold, and how many ids are retired.
    pub fn entries(&self) -> [usize; 2] {
        let tables = self.tables.ids.iter().map(Vec::len).sum();
        [tables, self.removed.iter().map(FxHashSet::len).sum()]
    }

    fn resolve(&self, kind: usize, canonical: u64) -> Option<u64> {
        let id = *self.tables.ids[kind].get(canonical as usize)?;
        (!self.removed[kind].contains(&id)).then_some(id)
    }

    /// Only an id the load handed out is recorded. One past the bound is
    /// not the load's, at the cost of one compare; one below it may not be
    /// either (relational and cluster number ids per table), so it is
    /// looked up in the frozen table. The removed-set is copied only while
    /// a clone shares it.
    fn retire(&mut self, kind: usize, id: u64) {
        if id < self.bound[kind] && self.tables.holds(kind, id) && !self.removed[kind].contains(&id)
        {
            Arc::make_mut(&mut self.removed)[kind].insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retired_id_stops_resolving_and_a_clone_answers_as_of_its_taking() {
        let mut r = Resolution::frozen((vec![4, 5, 6], vec![9]));
        assert_eq!(r.vertex(1), Some(Vid(5)));
        assert_eq!(r.vertex(3), None, "past the table");
        let pinned = r.clone();
        r.retire_vertex(Vid(5));
        r.retire_edge(Eid(9));
        assert_eq!((r.vertex(1), r.edge(0)), (None, None));
        assert_eq!(
            (pinned.vertex(1), pinned.edge(0)),
            (Some(Vid(5)), Some(Eid(9)))
        );
        assert_eq!(
            r.stats(),
            LoadStats {
                vertices: 3,
                edges: 1
            }
        );
    }

    #[test]
    fn ids_past_the_load_are_never_recorded() {
        let mut r = Resolution::frozen((vec![0, 1], vec![0]));
        r.retire_vertex(Vid(2));
        r.retire_edge(Eid(1));
        assert_eq!(r.entries(), [3, 0]);
        r.retire_vertex(Vid(1));
        r.retire_vertex(Vid(1));
        assert_eq!(r.entries(), [3, 1]);
    }

    #[test]
    fn ids_below_the_bound_the_load_never_handed_out_are_never_recorded() {
        // Ids as relational numbers them: a label's table in the high bits.
        let (a, b) = (1 << 40, 2 << 40);
        let mut r = Resolution::frozen((vec![a, b, a + 1], vec![b + 1, a + 2]));
        r.retire_vertex(Vid(a + 2));
        r.retire_vertex(Vid(b - 1));
        r.retire_edge(Eid(a + 3));
        r.retire_edge(Eid(b));
        assert_eq!(r.entries()[1], 0, "below the bound, not in a table");
        r.retire_vertex(Vid(a + 1));
        r.retire_edge(Eid(a + 2));
        assert_eq!(r.entries()[1], 2);
        assert_eq!((r.vertex(2), r.edge(1)), (None, None));
        assert_eq!((r.vertex(0), r.edge(0)), (Some(Vid(a)), Some(Eid(b + 1))));
    }
}
