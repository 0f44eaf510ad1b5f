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
    tables: Arc<[Vec<u64>; 2]>,
    /// Per kind, one past the largest id the load handed out.
    bound: [u64; 2],
    removed: Arc<[FxHashSet<u64>; 2]>,
}

impl Resolution {
    /// The resolution of a load that placed canonical vertex `c` at
    /// `vertices[c]` and canonical edge `c` at `edges[c]`.
    pub fn frozen((vertices, edges): LoadedIds) -> Resolution {
        let tables = [vertices, edges];
        let bound = tables
            .each_ref()
            .map(|t| t.iter().max().map_or(0, |&id| id + 1));
        Resolution {
            tables: Arc::new(tables),
            bound,
            removed: Arc::default(),
        }
    }

    /// What the load ingested, by the tables' lengths.
    pub fn stats(&self) -> LoadStats {
        let [vertices, edges] = self.tables.each_ref().map(|t| t.len() as u64);
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
        self.tables.each_ref().map(Vec::as_slice)
    }

    /// How many ids the tables hold, and how many ids are retired.
    pub fn entries(&self) -> [usize; 2] {
        let tables = self.tables.iter().map(Vec::len).sum();
        [tables, self.removed.iter().map(FxHashSet::len).sum()]
    }

    fn resolve(&self, kind: usize, canonical: u64) -> Option<u64> {
        let id = *self.tables[kind].get(canonical as usize)?;
        (!self.removed[kind].contains(&id)).then_some(id)
    }

    /// An id past the bound is not the load's: retiring it costs this one
    /// compare. One below it may not be either (relational and cluster
    /// number ids per table); recording it is harmless, as no loaded element
    /// still holds it. The removed-set is copied only while a clone shares it.
    fn retire(&mut self, kind: usize, id: u64) {
        if id < self.bound[kind] && !self.removed[kind].contains(&id) {
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
}
