//! The 35 microbenchmark queries of Table 2.
//!
//! Each query has an id, a category (L/C/R/U/D/T), the Gremlin 2.6 text the
//! paper lists, and an executor that decomposes it into `GraphDb` primitive
//! calls — the same decomposition a Gremlin adapter performs.

use gm_model::api::{count_incident, Direction};
use gm_model::{GdbResult, GraphDb, GraphSnapshot, QueryCtx, Value};
use gm_traversal::algo;

use crate::params::ResolvedParams;

/// Query categories of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Load (Q1).
    Load,
    /// Create (Q2–Q7).
    Create,
    /// Read (Q8–Q15).
    Read,
    /// Update (Q16–Q17).
    Update,
    /// Delete (Q18–Q21).
    Delete,
    /// Traversal (Q22–Q35).
    Traversal,
}

impl Category {
    /// Single-letter tag used in Table 2 and Table 4.
    pub fn tag(&self) -> char {
        match self {
            Category::Load => 'L',
            Category::Create => 'C',
            Category::Read => 'R',
            Category::Update => 'U',
            Category::Delete => 'D',
            Category::Traversal => 'T',
        }
    }
}

/// The 35 query classes. Q1 (load) is measured by the runner's load path,
/// not through `execute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum QueryId {
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    Q6,
    Q7,
    Q8,
    Q9,
    Q10,
    Q11,
    Q12,
    Q13,
    Q14,
    Q15,
    Q16,
    Q17,
    Q18,
    Q19,
    Q20,
    Q21,
    Q22,
    Q23,
    Q24,
    Q25,
    Q26,
    Q27,
    Q28,
    Q29,
    Q30,
    Q31,
    Q32,
    Q33,
    Q34,
    Q35,
}

impl QueryId {
    /// All queries in Table 2 order.
    pub const ALL: [QueryId; 35] = [
        QueryId::Q1,
        QueryId::Q2,
        QueryId::Q3,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6,
        QueryId::Q7,
        QueryId::Q8,
        QueryId::Q9,
        QueryId::Q10,
        QueryId::Q11,
        QueryId::Q12,
        QueryId::Q13,
        QueryId::Q14,
        QueryId::Q15,
        QueryId::Q16,
        QueryId::Q17,
        QueryId::Q18,
        QueryId::Q19,
        QueryId::Q20,
        QueryId::Q21,
        QueryId::Q22,
        QueryId::Q23,
        QueryId::Q24,
        QueryId::Q25,
        QueryId::Q26,
        QueryId::Q27,
        QueryId::Q28,
        QueryId::Q29,
        QueryId::Q30,
        QueryId::Q31,
        QueryId::Q32,
        QueryId::Q33,
        QueryId::Q34,
        QueryId::Q35,
    ];

    /// Table 2 number (1–35).
    pub fn number(&self) -> u8 {
        Self::ALL.iter().position(|q| q == self).expect("in ALL") as u8 + 1
    }

    /// Category of this query.
    pub fn category(&self) -> Category {
        use QueryId::*;
        match self {
            Q1 => Category::Load,
            Q2 | Q3 | Q4 | Q5 | Q6 | Q7 => Category::Create,
            Q8 | Q9 | Q10 | Q11 | Q12 | Q13 | Q14 | Q15 => Category::Read,
            Q16 | Q17 => Category::Update,
            Q18 | Q19 | Q20 | Q21 => Category::Delete,
            _ => Category::Traversal,
        }
    }

    /// True when execution mutates the graph (the runner reloads state
    /// around these to preserve the paper's isolation guarantee).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self.category(),
            Category::Create | Category::Update | Category::Delete
        )
    }

    /// The Gremlin 2.6 text of Table 2.
    pub fn gremlin(&self) -> &'static str {
        use QueryId::*;
        match self {
            Q1 => "g.loadGraphSON(\"/path\")",
            Q2 => "g.addVertex(p[])",
            Q3 => "g.addEdge(v1, v2, l)",
            Q4 => "g.addEdge(v1, v2, l, p[])",
            Q5 => "v.setProperty(Name, Value)",
            Q6 => "e.setProperty(Name, Value)",
            Q7 => "g.addVertex(...); g.addEdge(...)",
            Q8 => "g.V.count()",
            Q9 => "g.E.count()",
            Q10 => "g.E.label.dedup()",
            Q11 => "g.V.has(Name, Value)",
            Q12 => "g.E.has(Name, Value)",
            Q13 => "g.E.has('label', l)",
            Q14 => "g.V(id)",
            Q15 => "g.E(id)",
            Q16 => "v.setProperty(Name, Value)",
            Q17 => "e.setProperty(Name, Value)",
            Q18 => "g.removeVertex(id)",
            Q19 => "g.removeEdge(id)",
            Q20 => "v.removeProperty(Name)",
            Q21 => "e.removeProperty(Name)",
            Q22 => "v.in()",
            Q23 => "v.out()",
            Q24 => "v.both('l')",
            Q25 => "v.inE.label.dedup()",
            Q26 => "v.outE.label.dedup()",
            Q27 => "v.bothE.label.dedup()",
            Q28 => "g.V.filter{it.inE.count()>=k}",
            Q29 => "g.V.filter{it.outE.count()>=k}",
            Q30 => "g.V.filter{it.bothE.count()>=k}",
            Q31 => "g.V.out.dedup()",
            Q32 => "v.as('i').both().except(vs).store(j).loop('i')",
            Q33 => "v.as('i').both(*ls).except(j).store(vs).loop('i')",
            Q34 => "v1.as('i').both().except(j).store(j).loop('i'){..}.retain([v2]).path()",
            Q35 => "Shortest Path on 'l'",
        }
    }

    /// Short description (Table 2's Description column).
    pub fn description(&self) -> &'static str {
        use QueryId::*;
        match self {
            Q1 => "Load dataset into the graph",
            Q2 => "Create new node with properties",
            Q3 => "Add edge from v1 to v2",
            Q4 => "Add edge with properties",
            Q5 => "Add property to node",
            Q6 => "Add property to edge",
            Q7 => "Add a new node, and then edges to it",
            Q8 => "Total number of nodes",
            Q9 => "Total number of edges",
            Q10 => "Existing edge labels (no duplicates)",
            Q11 => "Nodes with property Name=Value",
            Q12 => "Edges with property Name=Value",
            Q13 => "Edges with label l",
            Q14 => "The node with identifier id",
            Q15 => "The edge with identifier id",
            Q16 => "Update property Name for vertex",
            Q17 => "Update property Name for edge",
            Q18 => "Delete node identified by id",
            Q19 => "Delete edge identified by id",
            Q20 => "Remove node property",
            Q21 => "Remove edge property",
            Q22 => "Nodes adjacent via incoming edges",
            Q23 => "Nodes adjacent via outgoing edges",
            Q24 => "Nodes adjacent via edges labeled l",
            Q25 => "Labels of incoming edges (no dupl.)",
            Q26 => "Labels of outgoing edges (no dupl.)",
            Q27 => "Labels of edges (no dupl.)",
            Q28 => "Nodes of at least k-incoming-degree",
            Q29 => "Nodes of at least k-outgoing-degree",
            Q30 => "Nodes of at least k-degree",
            Q31 => "Nodes having an incoming edge",
            Q32 => "Breadth-first traversal from v",
            Q33 => "Breadth-first traversal on labels ls",
            Q34 => "Unweighted shortest path v1 to v2",
            Q35 => "Shortest path following label l",
        }
    }
}

/// A concrete, runnable instance of a query: id plus swept parameters
/// (BFS depth for Q32/Q33; degree threshold k for Q28–Q30).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryInstance {
    /// The query class.
    pub id: QueryId,
    /// BFS depth (Q32/Q33).
    pub depth: Option<u8>,
    /// Degree threshold (Q28–Q30).
    pub k: Option<u64>,
}

impl QueryInstance {
    /// Plain instance without swept parameters.
    pub fn plain(id: QueryId) -> Self {
        QueryInstance {
            id,
            depth: None,
            k: None,
        }
    }

    /// Display name, e.g. `"Q32(d=3)"`.
    pub fn name(&self) -> String {
        match (self.depth, self.k) {
            (Some(d), _) => format!("Q{}(d={d})", self.id.number()),
            (_, Some(k)) => format!("Q{}(k={k})", self.id.number()),
            _ => format!("Q{}", self.id.number()),
        }
    }

    /// The full instance list the paper sweeps: every query, Q28–Q30 at the
    /// workload's k, Q32/Q33 at depths 2–5 (the "about 70 different tests"
    /// of §1 together with single/batch modes).
    pub fn full_suite(k: u64) -> Vec<QueryInstance> {
        let mut out = Vec::new();
        for id in QueryId::ALL {
            match id {
                QueryId::Q1 => {} // measured by the load path
                QueryId::Q28 | QueryId::Q29 | QueryId::Q30 => out.push(QueryInstance {
                    id,
                    depth: None,
                    k: Some(k),
                }),
                QueryId::Q32 | QueryId::Q33 => {
                    for d in 2..=5u8 {
                        out.push(QueryInstance {
                            id,
                            depth: Some(d),
                            k: None,
                        });
                    }
                }
                _ => out.push(QueryInstance::plain(id)),
            }
        }
        out
    }
}

/// Execute a query instance against an engine. Returns the result
/// cardinality (used for cross-engine equivalence checking).
///
/// Mutating queries consume one victim/payload slot from `params` according
/// to `round` so batch executions touch distinct elements. Read-only
/// queries delegate to [`execute_read`], which needs only a
/// `&dyn GraphSnapshot` — the split is what lets the concurrent workload
/// driver (`gm-workload`) run reads against a pinned snapshot (or under a
/// shared lock) while writes take the exclusive path.
pub fn execute(
    inst: &QueryInstance,
    db: &mut dyn GraphDb,
    params: &ResolvedParams,
    round: usize,
    ctx: &QueryCtx,
) -> GdbResult<u64> {
    use QueryId::*;
    if !inst.id.is_mutation() {
        return execute_read(inst, &*db, params, ctx);
    }
    let p = params;
    match inst.id {
        Q2 => {
            db.add_vertex("bench_node", &p.new_vertex_props)?;
            Ok(1)
        }
        Q3 => {
            db.add_edge(p.pair(round).0, p.pair(round).1, "bench_edge", &vec![])?;
            Ok(1)
        }
        Q4 => {
            db.add_edge(
                p.pair(round).0,
                p.pair(round).1,
                "bench_edge_p",
                &p.new_edge_props,
            )?;
            Ok(1)
        }
        Q5 => {
            db.set_vertex_property(p.vertex, &p.fresh_prop(round), Value::Int(round as i64))?;
            Ok(1)
        }
        Q6 => {
            db.set_edge_property(p.edge, &p.fresh_prop(round), Value::Int(round as i64))?;
            Ok(1)
        }
        Q7 => {
            let v = db.add_vertex("bench_hub", &p.new_vertex_props)?;
            for i in 0..p.fanout {
                let (_, dst) = p.pair(round * p.fanout as usize + i as usize);
                db.add_edge(v, dst, "bench_fan", &vec![])?;
            }
            Ok(1 + p.fanout as u64)
        }
        Q16 => {
            db.set_vertex_property(
                p.vertex,
                &p.existing_vertex_prop,
                Value::Int(1000 + round as i64),
            )?;
            Ok(1)
        }
        Q17 => {
            db.set_edge_property(p.edge, &p.update_edge_prop, Value::Int(2000 + round as i64))?;
            Ok(1)
        }
        Q18 => {
            db.remove_vertex(p.delete_vertex(round))?;
            Ok(1)
        }
        Q19 => {
            db.remove_edge(p.delete_edge(round))?;
            Ok(1)
        }
        Q20 => Ok(db
            .remove_vertex_property(p.prop_victim(round), &p.existing_vertex_prop)?
            .map(|_| 1)
            .unwrap_or(0)),
        Q21 => Ok(db
            .remove_edge_property(p.edge_prop_victim(round), &p.update_edge_prop)?
            .map(|_| 1)
            .unwrap_or(0)),
        _ => unreachable!("non-mutating query handled by execute_read"),
    }
}

/// Execute a **read-only** query instance through `&dyn GraphSnapshot`.
///
/// Covers Q1 (a no-op here; the load path measures it), the read queries
/// Q8–Q15, and the traversals Q22–Q35. Panics on mutating query ids —
/// callers route those through [`execute`]. Accepting the read-only trait
/// means the same decomposition runs against a live engine (upcast from
/// `&dyn GraphDb`), a pinned `gm-mvcc` epoch snapshot, or a remote proxy.
pub fn execute_read(
    inst: &QueryInstance,
    db: &dyn GraphSnapshot,
    params: &ResolvedParams,
    ctx: &QueryCtx,
) -> GdbResult<u64> {
    use QueryId::*;
    let p = params;
    match inst.id {
        Q1 => Ok(0), // handled by Runner::measure_load
        Q8 => db.vertex_count(ctx),
        Q9 => db.edge_count(ctx),
        Q10 => Ok(db.edge_label_set(ctx)?.len() as u64),
        Q11 => Ok(db
            .vertices_with_property(&p.vertex_prop_name, &p.vertex_prop_value, ctx)?
            .len() as u64),
        Q12 => Ok(db
            .edges_with_property(&p.edge_prop_name, &p.edge_prop_value, ctx)?
            .len() as u64),
        Q13 => Ok(db.edges_with_label(&p.edge_label, ctx)?.len() as u64),
        Q14 => Ok(db.vertex(p.vertex)?.map(|_| 1).unwrap_or(0)),
        Q15 => Ok(db.edge(p.edge)?.map(|_| 1).unwrap_or(0)),
        // Q22–Q24 count the walk itself, never `vertex_degree`: some
        // engines answer that from a stored count without traversing.
        Q22 => count_incident(db, p.vertex, Direction::In, None, ctx),
        Q23 => count_incident(db, p.vertex, Direction::Out, None, ctx),
        Q24 => count_incident(
            db,
            p.vertex,
            Direction::Both,
            Some(&p.vertex_edge_label),
            ctx,
        ),
        Q25 => Ok(db.vertex_edge_labels(p.vertex, Direction::In, ctx)?.len() as u64),
        Q26 => Ok(db.vertex_edge_labels(p.vertex, Direction::Out, ctx)?.len() as u64),
        Q27 => Ok(db.vertex_edge_labels(p.vertex, Direction::Both, ctx)?.len() as u64),
        Q28 => Ok(db
            .degree_scan(Direction::In, inst.k.unwrap_or(p.k), ctx)?
            .len() as u64),
        Q29 => Ok(db
            .degree_scan(Direction::Out, inst.k.unwrap_or(p.k), ctx)?
            .len() as u64),
        Q30 => Ok(db
            .degree_scan(Direction::Both, inst.k.unwrap_or(p.k), ctx)?
            .len() as u64),
        Q31 => Ok(db.distinct_neighbor_scan(Direction::Out, ctx)?.len() as u64),
        Q32 => {
            Ok(algo::bfs(db, p.vertex, inst.depth.unwrap_or(3) as usize, None, ctx)?.len() as u64)
        }
        Q33 => Ok(algo::bfs(
            db,
            p.vertex,
            inst.depth.unwrap_or(3) as usize,
            Some(&p.vertex_edge_label),
            ctx,
        )?
        .len() as u64),
        Q34 => Ok(algo::shortest_path(db, p.vertex, p.vertex2, None, ctx)?
            .map(|r| r.path.len() as u64)
            .unwrap_or(0)),
        Q35 => Ok(
            algo::shortest_path(db, p.vertex, p.vertex2, Some(&p.path_label), ctx)?
                .map(|r| r.path.len() as u64)
                .unwrap_or(0),
        ),
        Q2 | Q3 | Q4 | Q5 | Q6 | Q7 | Q16 | Q17 | Q18 | Q19 | Q20 | Q21 => {
            unreachable!("mutating query routed through execute")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_matches_table2() {
        assert_eq!(QueryId::Q1.number(), 1);
        assert_eq!(QueryId::Q35.number(), 35);
        assert_eq!(QueryId::ALL.len(), 35);
    }

    #[test]
    fn categories() {
        assert_eq!(QueryId::Q1.category().tag(), 'L');
        assert_eq!(QueryId::Q7.category().tag(), 'C');
        assert_eq!(QueryId::Q15.category().tag(), 'R');
        assert_eq!(QueryId::Q17.category().tag(), 'U');
        assert_eq!(QueryId::Q21.category().tag(), 'D');
        assert_eq!(QueryId::Q35.category().tag(), 'T');
    }

    #[test]
    fn mutation_flags() {
        assert!(QueryId::Q2.is_mutation());
        assert!(QueryId::Q18.is_mutation());
        assert!(!QueryId::Q8.is_mutation());
        assert!(!QueryId::Q32.is_mutation());
    }

    #[test]
    fn full_suite_size() {
        // 34 runnable queries; Q32/Q33 ×4 depths add 6 extra instances.
        let suite = QueryInstance::full_suite(2);
        assert_eq!(suite.len(), 40);
        assert!(suite.iter().all(|i| i.id != QueryId::Q1));
    }

    #[test]
    fn instance_names() {
        assert_eq!(QueryInstance::plain(QueryId::Q9).name(), "Q9");
        assert_eq!(
            QueryInstance {
                id: QueryId::Q32,
                depth: Some(4),
                k: None
            }
            .name(),
            "Q32(d=4)"
        );
        assert_eq!(
            QueryInstance {
                id: QueryId::Q30,
                depth: None,
                k: Some(8)
            }
            .name(),
            "Q30(k=8)"
        );
    }

    #[test]
    fn gremlin_text_present_for_all() {
        for q in QueryId::ALL {
            assert!(!q.gremlin().is_empty());
            assert!(!q.description().is_empty());
        }
    }
}
