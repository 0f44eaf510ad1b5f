//! Deterministic workload parameter selection.
//!
//! §5: "Any random selection made in one system (e.g., a random selection of
//! a node in order to query it) has been maintained the same across the
//! other systems." A [`Workload`] picks canonical elements once per
//! (dataset, seed); [`Workload::resolve`] maps them to engine-internal ids
//! **outside the timed region**, as §4.2 prescribes ("the lookup for the
//! object is performed before the time is measured").

use gm_model::{Dataset, Eid, GdbResult, GraphSnapshot, Props, Value, Vid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canonical (engine-independent) workload parameters for one dataset.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Dataset name these parameters were drawn for.
    pub dataset: String,
    /// Seed used.
    pub seed: u64,
    /// A vertex with at least one edge (traversal anchor).
    pub vertex: u64,
    /// A second vertex for shortest paths (same component when possible).
    pub vertex2: u64,
    /// A random edge.
    pub edge: u64,
    /// Endpoint pairs for Q3/Q4/Q7 insertions.
    pub pairs: Vec<(u64, u64)>,
    /// Victim vertices for Q18 (modest degree, so deletion cost is typical).
    pub delete_vertices: Vec<u64>,
    /// Victim edges for Q19.
    pub delete_edges: Vec<u64>,
    /// Vertices whose property is removed by Q20.
    pub prop_victims: Vec<u64>,
    /// Edges whose property is updated/removed by Q17/Q21.
    pub edge_prop_victims: Vec<u64>,
    /// Property (name, value) for Q11 — guaranteed to exist on `vertex`.
    pub vertex_prop: (String, Value),
    /// Property (name, value) for Q12 (edge search).
    pub edge_prop: (String, Value),
    /// Label for Q13 (an existing edge label).
    pub edge_label: String,
    /// Label for Q24/Q33 — guaranteed incident to `vertex`.
    pub vertex_edge_label: String,
    /// Label for Q35 (frequent label → the path search does real work).
    pub path_label: String,
    /// Degree threshold k for Q28–Q30 (≈ average degree).
    pub k: u64,
    /// Fan-out of Q7.
    pub fanout: u32,
    /// Properties for the Q2 payload.
    pub new_vertex_props: Props,
    /// Properties for the Q4 payload.
    pub new_edge_props: Props,
}

impl Workload {
    /// Draw workload parameters for a dataset.
    ///
    /// `slots` bounds how many victims/pairs are pre-drawn, and therefore
    /// how many batched mutation rounds a run may use. A dataset too small
    /// to supply `slots` distinct victims of a kind gets as many as it has
    /// (the [`ResolvedParams`] accessors wrap around), with one edge always
    /// left over for the edge-property victims.
    pub fn choose(data: &Dataset, seed: u64, slots: usize) -> Workload {
        assert!(
            data.vertex_count() >= 8 && data.edge_count() >= 4,
            "workload needs a non-trivial dataset"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_6b77_u64);
        let degrees = data.degrees();
        let n = data.vertex_count() as u64;
        let m = data.edge_count() as u64;

        // Anchor vertex: a random member of the **largest connected
        // component** with degree ≥ 2 when one exists. Fragmented datasets
        // (the Freebase samples) would otherwise hand the traversal queries
        // a 3-vertex islet and measure nothing, while the paper's BFS and
        // shortest-path runs clearly do real work (Figures 6–7).
        let adj = data.undirected_adjacency();
        let component_of = components_of(&adj);
        let giant = largest_component(&component_of);
        let candidates: Vec<u64> = (0..n)
            .filter(|&v| component_of[v as usize] == giant && degrees[v as usize].total() >= 2)
            .collect();
        let pick_connected = |rng: &mut StdRng| -> u64 {
            loop {
                let v = rng.gen_range(0..n);
                if degrees[v as usize].total() >= 1 {
                    return v;
                }
            }
        };
        let vertex = if candidates.is_empty() {
            pick_connected(&mut rng)
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        // vertex2: prefer a vertex in the same component (walk a few random
        // hops from `vertex`), else any connected vertex.
        let adj = data.undirected_adjacency();
        let mut vertex2 = vertex;
        let mut cur = vertex as usize;
        for _ in 0..6 {
            let neigh = adj.neighbors(cur);
            if neigh.is_empty() {
                break;
            }
            cur = neigh[rng.gen_range(0..neigh.len())] as usize;
            if cur as u64 != vertex {
                vertex2 = cur as u64;
            }
        }
        if vertex2 == vertex {
            vertex2 = pick_connected(&mut rng);
        }

        // vertex2 fallback: prefer another giant-component member so the
        // shortest-path queries usually find a path.
        if vertex2 == vertex && candidates.len() > 1 {
            loop {
                let v = candidates[rng.gen_range(0..candidates.len())];
                if v != vertex {
                    vertex2 = v;
                    break;
                }
            }
        }

        let edge = rng.gen_range(0..m);

        let mut pairs = Vec::with_capacity(slots * 8);
        for _ in 0..slots * 8 {
            pairs.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }

        // Delete victims: distinct, modest degree (≤ 4× average) so one Q18
        // sample is representative, as in the paper's victim choice.
        let avg_degree = (2.0 * m as f64 / n as f64).max(1.0);
        let mut delete_vertices = Vec::with_capacity(slots);
        let mut tries = 0;
        while delete_vertices.len() < slots && tries < slots * 200 {
            tries += 1;
            let v = rng.gen_range(0..n);
            if degrees[v as usize].total() as f64 <= 4.0 * avg_degree
                && !delete_vertices.contains(&v)
                && v != vertex
                && v != vertex2
            {
                delete_vertices.push(v);
            }
        }
        // The three rejection loops below terminate because each is capped
        // at what the dataset can still supply; a dataset that can supply
        // `slots` sees the same draws as an uncapped loop would make.
        let mut delete_edges = Vec::with_capacity(slots);
        while delete_edges.len() < slots.min(m as usize - 1) {
            let e = rng.gen_range(0..m);
            if !delete_edges.contains(&e) {
                delete_edges.push(e);
            }
        }
        let prop_supply = (0..n)
            .filter(|v| {
                !data.vertices[*v as usize].props.is_empty() && !delete_vertices.contains(v)
            })
            .count();
        let mut prop_victims = Vec::with_capacity(slots);
        while prop_victims.len() < slots.min(prop_supply) {
            let v = rng.gen_range(0..n);
            if !data.vertices[v as usize].props.is_empty()
                && !prop_victims.contains(&v)
                && !delete_vertices.contains(&v)
            {
                prop_victims.push(v);
            }
        }
        let mut edge_prop_victims = Vec::with_capacity(slots);
        while edge_prop_victims.len() < slots.min(m as usize - delete_edges.len()) {
            let e = rng.gen_range(0..m);
            if !edge_prop_victims.contains(&e) && !delete_edges.contains(&e) {
                edge_prop_victims.push(e);
            }
        }

        // Q11 property: one that exists on the anchor vertex.
        let vprops = &data.vertices[vertex as usize].props;
        let vertex_prop = vprops[rng.gen_range(0..vprops.len())].clone();
        // Q12 property: from any edge with properties (LDBC). On the
        // property-less datasets the probe uses a *known* property name with
        // a never-matching value, so engines that must scan edges to answer
        // still scan — only designs with per-property edge metadata may
        // short-circuit, which is their legitimate physical advantage.
        let edge_prop = data
            .edges
            .iter()
            .filter(|e| !e.props.is_empty())
            .nth(rng.gen_range(0..64.min(m as usize)))
            .or_else(|| data.edges.iter().find(|e| !e.props.is_empty()))
            .map(|e| e.props[0].clone())
            .unwrap_or((vertex_prop.0.clone(), Value::Str("\u{0}never".into())));

        let edge_label = data.edges[rng.gen_range(0..m) as usize].label.clone();
        // A label incident to the anchor vertex.
        let vertex_edge_label = data
            .edges
            .iter()
            .find(|e| e.src == vertex || e.dst == vertex)
            .map(|e| e.label.clone())
            .unwrap_or_else(|| edge_label.clone());
        // Path label: the most frequent label (so labeled SP does real work;
        // on Freebase samples rare labels stop after 1 hop — §6.4).
        let mut label_counts: std::collections::HashMap<&str, u64> =
            std::collections::HashMap::new();
        for e in &data.edges {
            *label_counts.entry(e.label.as_str()).or_default() += 1;
        }
        let path_label = label_counts
            .iter()
            .max_by_key(|(l, c)| (**c, std::cmp::Reverse(**l)))
            .map(|(l, _)| l.to_string())
            .unwrap_or_else(|| edge_label.clone());

        Workload {
            dataset: data.name.clone(),
            seed,
            vertex,
            vertex2,
            edge,
            pairs,
            delete_vertices,
            delete_edges,
            prop_victims,
            edge_prop_victims,
            vertex_prop,
            edge_prop,
            edge_label,
            vertex_edge_label,
            path_label,
            k: avg_degree.ceil() as u64,
            fanout: 8,
            new_vertex_props: vec![
                ("name".into(), Value::Str("bench-vertex".into())),
                ("score".into(), Value::Int(42)),
                ("active".into(), Value::Bool(true)),
            ],
            new_edge_props: vec![("weight".into(), Value::Float(0.5))],
        }
    }

    /// Resolve canonical picks to engine-internal ids (untimed).
    pub fn resolve(&self, db: &dyn GraphSnapshot) -> GdbResult<ResolvedParams> {
        let rv = |c: u64| {
            db.resolve_vertex(c)
                .ok_or(gm_model::GdbError::VertexNotFound(c))
        };
        let re = |c: u64| {
            db.resolve_edge(c)
                .ok_or(gm_model::GdbError::EdgeNotFound(c))
        };
        Ok(ResolvedParams {
            vertex: rv(self.vertex)?,
            vertex2: rv(self.vertex2)?,
            edge: re(self.edge)?,
            pairs: self
                .pairs
                .iter()
                .map(|(a, b)| Ok((rv(*a)?, rv(*b)?)))
                .collect::<GdbResult<Vec<_>>>()?,
            delete_vertices: self
                .delete_vertices
                .iter()
                .map(|v| rv(*v))
                .collect::<GdbResult<Vec<_>>>()?,
            delete_edges: self
                .delete_edges
                .iter()
                .map(|e| re(*e))
                .collect::<GdbResult<Vec<_>>>()?,
            prop_victims: self
                .prop_victims
                .iter()
                .map(|v| rv(*v))
                .collect::<GdbResult<Vec<_>>>()?,
            edge_prop_victims: self
                .edge_prop_victims
                .iter()
                .map(|e| re(*e))
                .collect::<GdbResult<Vec<_>>>()?,
            vertex_prop_name: self.vertex_prop.0.clone(),
            vertex_prop_value: self.vertex_prop.1.clone(),
            edge_prop_name: self.edge_prop.0.clone(),
            edge_prop_value: self.edge_prop.1.clone(),
            edge_label: self.edge_label.clone(),
            vertex_edge_label: self.vertex_edge_label.clone(),
            path_label: self.path_label.clone(),
            existing_vertex_prop: self.vertex_prop.0.clone(),
            update_edge_prop: self.edge_prop.0.clone(),
            k: self.k,
            fanout: self.fanout,
            new_vertex_props: self.new_vertex_props.clone(),
            new_edge_props: self.new_edge_props.clone(),
        })
    }
}

/// Connected components by index over the undirected adjacency.
fn components_of(adj: &gm_model::dataset::Adjacency) -> Vec<u32> {
    let n = adj.len();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        stack.push(start as u32);
        while let Some(v) = stack.pop() {
            for &t in adj.neighbors(v as usize) {
                if comp[t as usize] == u32::MAX {
                    comp[t as usize] = next;
                    stack.push(t);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Id of the largest component in a component assignment.
fn largest_component(component_of: &[u32]) -> u32 {
    let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for &c in component_of {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|(c, n)| (*n, std::cmp::Reverse(*c)))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Engine-resolved parameters handed to [`catalog::execute`](crate::catalog::execute).
#[derive(Debug, Clone)]
pub struct ResolvedParams {
    /// Traversal anchor.
    pub vertex: Vid,
    /// Shortest-path target.
    pub vertex2: Vid,
    /// Q15/Q17/Q21 edge.
    pub edge: Eid,
    /// Q3/Q4/Q7 endpoint pairs.
    pub pairs: Vec<(Vid, Vid)>,
    /// Q18 victims.
    pub delete_vertices: Vec<Vid>,
    /// Q19 victims.
    pub delete_edges: Vec<Eid>,
    /// Q20 victims.
    pub prop_victims: Vec<Vid>,
    /// Q17/Q21 victims.
    pub edge_prop_victims: Vec<Eid>,
    /// Q11 search name.
    pub vertex_prop_name: String,
    /// Q11 search value.
    pub vertex_prop_value: Value,
    /// Q12 search name.
    pub edge_prop_name: String,
    /// Q12 search value.
    pub edge_prop_value: Value,
    /// Q13 label.
    pub edge_label: String,
    /// Q24/Q33 label.
    pub vertex_edge_label: String,
    /// Q35 label.
    pub path_label: String,
    /// Q16/Q20 property name.
    pub existing_vertex_prop: String,
    /// Q17/Q21 property name.
    pub update_edge_prop: String,
    /// Q28–Q30 threshold.
    pub k: u64,
    /// Q7 fan-out.
    pub fanout: u32,
    /// Q2 payload.
    pub new_vertex_props: Props,
    /// Q4 payload.
    pub new_edge_props: Props,
}

impl ResolvedParams {
    /// Endpoint pair for mutation round `round` (wraps around).
    pub fn pair(&self, round: usize) -> (Vid, Vid) {
        self.pairs[round % self.pairs.len()]
    }

    /// Q18 victim for round `round` (no wrap: panics past the pool — the
    /// runner sizes the pool to the batch length).
    pub fn delete_vertex(&self, round: usize) -> Vid {
        self.delete_vertices[round % self.delete_vertices.len()]
    }

    /// Q19 victim for round `round`.
    pub fn delete_edge(&self, round: usize) -> Eid {
        self.delete_edges[round % self.delete_edges.len()]
    }

    /// Q20 victim.
    pub fn prop_victim(&self, round: usize) -> Vid {
        self.prop_victims[round % self.prop_victims.len()]
    }

    /// Q21 victim.
    pub fn edge_prop_victim(&self, round: usize) -> Eid {
        self.edge_prop_victims[round % self.edge_prop_victims.len()]
    }

    /// A property name unique per round (Q5/Q6 insert *new* properties).
    pub fn fresh_prop(&self, round: usize) -> String {
        format!("bench_p{round}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn deterministic_choice() {
        let d = testkit::chain_dataset(100);
        let a = Workload::choose(&d, 5, 4);
        let b = Workload::choose(&d, 5, 4);
        assert_eq!(a.vertex, b.vertex);
        assert_eq!(a.delete_vertices, b.delete_vertices);
        let c = Workload::choose(&d, 6, 4);
        // Different seeds virtually always pick different anchors on 100
        // vertices; tolerate equality of a single field but not all.
        assert!(a.vertex != c.vertex || a.edge != c.edge || a.delete_vertices != c.delete_vertices);
    }

    #[test]
    fn anchor_has_edges_and_prop_exists() {
        let d = testkit::chain_dataset(50);
        let w = Workload::choose(&d, 1, 4);
        let deg = d.degrees()[w.vertex as usize];
        assert!(deg.total() >= 1);
        assert!(d.vertices[w.vertex as usize]
            .props
            .iter()
            .any(|(n, v)| *n == w.vertex_prop.0 && *v == w.vertex_prop.1));
    }

    #[test]
    fn victims_are_distinct() {
        let d = testkit::chain_dataset(200);
        let w = Workload::choose(&d, 2, 10);
        let mut dv = w.delete_vertices.clone();
        dv.sort_unstable();
        dv.dedup();
        assert_eq!(dv.len(), 10);
        assert!(!dv.contains(&w.vertex), "anchor never deleted");
    }

    #[test]
    fn small_datasets_get_the_victims_they_can_supply() {
        // 19 edges cannot supply 16 deletion victims and 16 more for the
        // property updates: this used to spin forever.
        for seed in 0..32 {
            let w = testkit::within(std::time::Duration::from_secs(20), move || {
                Workload::choose(&testkit::chain_dataset(20), seed, 16)
            });
            assert_eq!(w.delete_edges.len(), 16);
            assert_eq!(w.edge_prop_victims.len(), 3);
            assert!(w
                .edge_prop_victims
                .iter()
                .all(|e| !w.delete_edges.contains(e)));
            assert_eq!(w.prop_victims.len(), 20 - w.delete_vertices.len());
        }
        // Fewer edges than slots: one is still left for the property victims.
        let w = Workload::choose(&testkit::chain_dataset(9), 1, 16);
        assert_eq!((w.delete_edges.len(), w.edge_prop_victims.len()), (7, 1));
    }

    #[test]
    fn a_dataset_large_enough_sees_the_draws_it_always_did() {
        // Recorded before the victim lists were capped.
        let w = Workload::choose(&testkit::chain_dataset(100), 5, 16);
        assert_eq!((w.vertex, w.vertex2, w.edge), (53, 55, 93));
        assert_eq!(
            w.delete_edges,
            [9, 81, 29, 27, 70, 65, 59, 37, 83, 89, 11, 91, 1, 92, 69, 12]
        );
        assert_eq!(
            w.prop_victims,
            [65, 28, 76, 87, 29, 42, 6, 82, 18, 62, 50, 73, 91, 67, 17, 44]
        );
        assert_eq!(
            w.edge_prop_victims,
            [18, 19, 84, 34, 71, 30, 57, 8, 32, 75, 78, 73, 49, 85, 39, 16]
        );
        assert_eq!(
            (w.edge_label.as_str(), w.vertex_edge_label.as_str()),
            ("link", "next")
        );
    }

    #[test]
    fn resolves_against_engine() {
        use engine_linked::LinkedGraph;
        use gm_model::api::{GraphDb, LoadOptions};
        let d = testkit::chain_dataset(60);
        let w = Workload::choose(&d, 3, 4);
        let mut g = LinkedGraph::v1();
        g.bulk_load(&d, &LoadOptions::default()).unwrap();
        let r = w.resolve(&g).unwrap();
        assert_eq!(r.pairs.len(), 32);
        assert_eq!(r.delete_vertices.len(), 4);
        assert_eq!(r.fanout, 8);
    }

    #[test]
    fn path_label_is_most_frequent() {
        let d = testkit::chain_dataset(102);
        let w = Workload::choose(&d, 4, 4);
        // 101 edges: even indices get label "next" (51 of 101).
        assert_eq!(w.path_label, "next");
    }
}
