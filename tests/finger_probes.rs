//! The triple engine's `has()` scans keep the adapter's plan — one SPO
//! probe per scanned vertex (Q11) or edge (Q12), never a POS lookup on the
//! property — and on a bulk-loaded graph at least nine in ten of those
//! probes start at the previous probe's leaf instead of the root.
//!
//! Counted through `storage.bptree.descents` and
//! `storage.bptree.finger_hits`, which every finger probe adds to: the
//! registry is process-wide, so this binary holds one test and nothing
//! else moves the counters while it reads them.

use gm_obs::ObsMode;
use graphmark::datasets::{self, DatasetId, Scale};
use graphmark::engines::triple::TripleGraph;
use graphmark::model::api::{GraphDb, GraphSnapshot, LoadOptions};
use graphmark::model::value::Value;
use graphmark::model::QueryCtx;

/// (descents, finger hits) the registry gains while `f` runs.
fn probes(f: impl FnOnce()) -> (u64, u64) {
    let read = || {
        let g = gm_obs::global();
        (
            g.counter("storage.bptree.descents").get(),
            g.counter("storage.bptree.finger_hits").get(),
        )
    };
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn has_scans_probe_spo_once_per_subject_mostly_from_the_finger() {
    gm_obs::set_mode(ObsMode::Counters);
    let ctx = QueryCtx::unbounded();
    for id in [DatasetId::FrbL, DatasetId::Ldbc] {
        let data = datasets::generate(id, Scale::tiny(), 42);
        let mut db = TripleGraph::new();
        db.bulk_load(&data, &LoadOptions::default()).unwrap();
        let (vertices, edges) = (data.vertices.len() as u64, data.edges.len() as u64);
        let first_prop = |props: &[(String, Value)]| props.first().cloned();
        let (name, value) = data
            .vertices
            .iter()
            .find_map(|v| first_prop(&v.props))
            .expect("a vertex property");
        let mut found = 0;
        let q11 = probes(|| {
            found = db
                .vertices_with_property(&name, &value, &ctx)
                .unwrap()
                .len()
        });
        assert!(found >= 1, "{id:?} Q11 finds the vertex it was drawn from");
        assert_eq!(
            q11.0 + q11.1,
            vertices,
            "{id:?} Q11: one SPO probe per vertex"
        );
        assert!(
            q11.1 * 10 >= vertices * 9,
            "{id:?} Q11: {} of {vertices} probes started at the finger",
            q11.1
        );
        // Frb-l's edges carry no properties: Q12 then asks for a vertex
        // property, which every edge is still probed for.
        let (name, value) = data
            .edges
            .iter()
            .find_map(|e| first_prop(&e.props))
            .unwrap_or((name, value));
        let q12 = probes(|| found = db.edges_with_property(&name, &value, &ctx).unwrap().len());
        assert_eq!(q12.0 + q12.1, edges, "{id:?} Q12: one SPO probe per edge");
        assert_eq!(found >= 1, id == DatasetId::Ldbc, "{id:?} Q12 hits");

        // An unknown property name is answered without a probe.
        let none = probes(|| {
            let got = db.vertices_with_property("no-such-property", &value, &ctx);
            assert!(got.unwrap().is_empty());
        });
        assert_eq!(none, (0, 0), "{id:?}");
    }
}
