//! The step machine: build and run Gremlin-style traversals.

use gm_model::api::Direction;
use gm_model::{Eid, GdbError, GdbResult, GraphSnapshot, QueryCtx, Value, Vid};

/// A traverser: the unit flowing between steps.
#[derive(Debug, Clone, PartialEq)]
pub enum Elem {
    /// A vertex.
    V(Vid),
    /// An edge.
    E(Eid),
    /// A scalar produced by `label()`, `values()`, `count()`, `id()`.
    Val(Value),
}

impl Elem {
    /// The vertex id, if this traverser is a vertex.
    pub fn as_vertex(&self) -> Option<Vid> {
        match self {
            Elem::V(v) => Some(*v),
            _ => None,
        }
    }

    /// The edge id, if this traverser is an edge.
    pub fn as_edge(&self) -> Option<Eid> {
        match self {
            Elem::E(e) => Some(*e),
            _ => None,
        }
    }

    /// The scalar, if this traverser is a value.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Elem::Val(v) => Some(v),
            _ => None,
        }
    }
}

/// One step of a traversal.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `g.V()` — all vertices.
    V,
    /// `g.V(id)` — one vertex by internal id.
    VById(Vid),
    /// `g.E()` — all edges.
    E,
    /// `g.E(id)` — one edge by internal id.
    EById(Eid),
    /// Start from explicit vertices (bound parameters).
    Inject(Vec<Vid>),
    /// `has(name, value)` — keep elements whose property matches.
    Has(String, Value),
    /// `hasLabel(label)` — keep elements with the label.
    HasLabel(String),
    /// `out([label])` — vertex → out-neighbors.
    Out(Option<String>),
    /// `in([label])` — vertex → in-neighbors.
    In(Option<String>),
    /// `both([label])` — vertex → neighbors in both directions.
    Both(Option<String>),
    /// `outE([label])` — vertex → outgoing edges.
    OutE(Option<String>),
    /// `inE([label])` — vertex → incoming edges.
    InE(Option<String>),
    /// `bothE([label])` — vertex → incident edges.
    BothE(Option<String>),
    /// `label()` — element → its label string.
    Label,
    /// `values(name)` — element → property value.
    Values(String),
    /// `id()` — element → its id as an integer value.
    Id,
    /// `dedup()` — drop duplicate traversers (first occurrence wins).
    Dedup,
    /// `limit(n)` — keep the first n traversers.
    Limit(usize),
    /// `filter{it.<dir>E.count() >= k}` — the Q28–Q30 degree predicate.
    DegreeAtLeast(Direction, u64),
    /// `count()` — reduce the stream to a single integer.
    Count,
}

/// A runnable traversal: an ordered list of steps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Traversal {
    steps: Vec<Step>,
}

impl Traversal {
    /// Empty traversal; push steps with the builder methods.
    pub fn new() -> Self {
        Traversal { steps: Vec::new() }
    }

    /// `g.V()`
    pub fn v() -> Self {
        Traversal {
            steps: vec![Step::V],
        }
    }

    /// `g.V(id)`
    pub fn v_by_id(id: Vid) -> Self {
        Traversal {
            steps: vec![Step::VById(id)],
        }
    }

    /// `g.E()`
    pub fn e() -> Self {
        Traversal {
            steps: vec![Step::E],
        }
    }

    /// `g.E(id)`
    pub fn e_by_id(id: Eid) -> Self {
        Traversal {
            steps: vec![Step::EById(id)],
        }
    }

    /// Start from explicit vertices.
    pub fn from_vertices(ids: impl IntoIterator<Item = Vid>) -> Self {
        Traversal {
            steps: vec![Step::Inject(ids.into_iter().collect())],
        }
    }

    /// Append an arbitrary step.
    pub fn step(mut self, s: Step) -> Self {
        self.steps.push(s);
        self
    }

    /// `has(name, value)`
    pub fn has(self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.step(Step::Has(name.into(), value.into()))
    }

    /// `hasLabel(label)`
    pub fn has_label(self, label: impl Into<String>) -> Self {
        self.step(Step::HasLabel(label.into()))
    }

    /// `out()` / `out(label)`
    pub fn out(self, label: Option<&str>) -> Self {
        self.step(Step::Out(label.map(String::from)))
    }

    /// `in()` / `in(label)`
    pub fn in_(self, label: Option<&str>) -> Self {
        self.step(Step::In(label.map(String::from)))
    }

    /// `both()` / `both(label)`
    pub fn both(self, label: Option<&str>) -> Self {
        self.step(Step::Both(label.map(String::from)))
    }

    /// `outE()` / `outE(label)`
    pub fn out_e(self, label: Option<&str>) -> Self {
        self.step(Step::OutE(label.map(String::from)))
    }

    /// `inE()` / `inE(label)`
    pub fn in_e(self, label: Option<&str>) -> Self {
        self.step(Step::InE(label.map(String::from)))
    }

    /// `bothE()` / `bothE(label)`
    pub fn both_e(self, label: Option<&str>) -> Self {
        self.step(Step::BothE(label.map(String::from)))
    }

    /// `label()`
    pub fn label(self) -> Self {
        self.step(Step::Label)
    }

    /// `values(name)`
    pub fn values(self, name: impl Into<String>) -> Self {
        self.step(Step::Values(name.into()))
    }

    /// `id()`
    pub fn id(self) -> Self {
        self.step(Step::Id)
    }

    /// `dedup()`
    pub fn dedup(self) -> Self {
        self.step(Step::Dedup)
    }

    /// `limit(n)`
    pub fn limit(self, n: usize) -> Self {
        self.step(Step::Limit(n))
    }

    /// The Q28–Q30 degree filter.
    pub fn degree_at_least(self, dir: Direction, k: u64) -> Self {
        self.step(Step::DegreeAtLeast(dir, k))
    }

    /// `count()`
    pub fn count(self) -> Self {
        self.step(Step::Count)
    }

    /// The steps of this traversal.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Execute against an engine, returning the final traverser stream.
    ///
    /// Every step materializes its output before the next step runs — the
    /// per-step evaluation model of non-optimizing Gremlin adapters.
    pub fn run(&self, db: &dyn GraphSnapshot, ctx: &QueryCtx) -> GdbResult<Vec<Elem>> {
        let mut stream: Vec<Elem> = Vec::new();
        let mut started = false;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::V => {
                    debug_assert!(!started, "V() must be the first step");
                    if self.steps.get(1).is_some() {
                        if let Step::DegreeAtLeast(dir, k) = &self.steps[1] {
                            // Delegate the fused scan+filter to the engine.
                            stream = db
                                .degree_scan(*dir, *k, ctx)?
                                .into_iter()
                                .map(Elem::V)
                                .collect();
                            started = true;
                            // Skip the filter step on the next iteration by
                            // marking it consumed via a sentinel: replace the
                            // stream now and handle below.
                            continue;
                        }
                    }
                    stream = db
                        .scan_vertices(ctx)?
                        .map(|r| r.map(Elem::V))
                        .collect::<GdbResult<Vec<_>>>()?;
                    started = true;
                }
                Step::VById(id) => {
                    stream = match db.vertex(*id)? {
                        Some(v) => vec![Elem::V(v.id)],
                        None => Vec::new(),
                    };
                    started = true;
                }
                Step::E => {
                    stream = db
                        .scan_edges(ctx)?
                        .map(|r| r.map(Elem::E))
                        .collect::<GdbResult<Vec<_>>>()?;
                    started = true;
                }
                Step::EById(id) => {
                    stream = match db.edge(*id)? {
                        Some(e) => vec![Elem::E(e.id)],
                        None => Vec::new(),
                    };
                    started = true;
                }
                Step::Inject(ids) => {
                    stream = ids.iter().copied().map(Elem::V).collect();
                    started = true;
                }
                Step::DegreeAtLeast(dir, k) => {
                    if i == 1 && self.steps[0] == Step::V {
                        // Already fused into the source step above.
                        continue;
                    }
                    let mut next = Vec::new();
                    for elem in &stream {
                        ctx.tick()?;
                        if let Elem::V(v) = elem {
                            if db.vertex_degree(*v, *dir, ctx)? >= *k {
                                next.push(elem.clone());
                            }
                        }
                    }
                    stream = next;
                }
                Step::Has(name, value) => {
                    let mut next = Vec::new();
                    for elem in &stream {
                        ctx.tick()?;
                        let matches = match elem {
                            Elem::V(v) => db.vertex_property(*v, name)?.as_ref() == Some(value),
                            Elem::E(e) => db.edge_property(*e, name)?.as_ref() == Some(value),
                            Elem::Val(_) => false,
                        };
                        if matches {
                            next.push(elem.clone());
                        }
                    }
                    stream = next;
                }
                Step::HasLabel(label) => {
                    let mut next = Vec::new();
                    for elem in &stream {
                        ctx.tick()?;
                        let matches = match elem {
                            Elem::V(v) => db.vertex_label(*v)?.as_deref() == Some(label.as_str()),
                            Elem::E(e) => db.edge_label(*e)?.as_deref() == Some(label.as_str()),
                            Elem::Val(_) => false,
                        };
                        if matches {
                            next.push(elem.clone());
                        }
                    }
                    stream = next;
                }
                Step::Out(l) | Step::In(l) | Step::Both(l) => {
                    let dir = match step {
                        Step::Out(_) => Direction::Out,
                        Step::In(_) => Direction::In,
                        _ => Direction::Both,
                    };
                    let mut next = Vec::new();
                    for elem in &stream {
                        if let Elem::V(v) = elem {
                            db.for_each_incident(*v, dir, l.as_deref(), ctx, &mut |r| {
                                next.push(Elem::V(r.other));
                                Ok(())
                            })?;
                        }
                    }
                    stream = next;
                }
                Step::OutE(l) | Step::InE(l) | Step::BothE(l) => {
                    let dir = match step {
                        Step::OutE(_) => Direction::Out,
                        Step::InE(_) => Direction::In,
                        _ => Direction::Both,
                    };
                    let mut next = Vec::new();
                    for elem in &stream {
                        if let Elem::V(v) = elem {
                            db.for_each_incident(*v, dir, l.as_deref(), ctx, &mut |r| {
                                next.push(Elem::E(r.eid));
                                Ok(())
                            })?;
                        }
                    }
                    stream = next;
                }
                Step::Label => {
                    let mut next = Vec::new();
                    for elem in &stream {
                        ctx.tick()?;
                        let label = match elem {
                            Elem::V(v) => db.vertex_label(*v)?,
                            Elem::E(e) => db.edge_label(*e)?,
                            Elem::Val(_) => None,
                        };
                        if let Some(l) = label {
                            next.push(Elem::Val(Value::Str(l)));
                        }
                    }
                    stream = next;
                }
                Step::Values(name) => {
                    let mut next = Vec::new();
                    for elem in &stream {
                        ctx.tick()?;
                        let value = match elem {
                            Elem::V(v) => db.vertex_property(*v, name)?,
                            Elem::E(e) => db.edge_property(*e, name)?,
                            Elem::Val(_) => None,
                        };
                        if let Some(v) = value {
                            next.push(Elem::Val(v));
                        }
                    }
                    stream = next;
                }
                Step::Id => {
                    stream = stream
                        .iter()
                        .map(|elem| {
                            Elem::Val(Value::Int(match elem {
                                Elem::V(v) => v.0 as i64,
                                Elem::E(e) => e.0 as i64,
                                Elem::Val(_) => -1,
                            }))
                        })
                        .collect();
                }
                Step::Dedup => {
                    let mut seen: Vec<Elem> = Vec::new();
                    let mut next = Vec::new();
                    for elem in stream {
                        ctx.tick()?;
                        if !seen.contains(&elem) {
                            seen.push(elem.clone());
                            next.push(elem);
                        }
                    }
                    stream = next;
                }
                Step::Limit(n) => {
                    stream.truncate(*n);
                }
                Step::Count => {
                    let n = stream.len() as i64;
                    stream = vec![Elem::Val(Value::Int(n))];
                }
            }
            if !started {
                return Err(GdbError::Invalid(
                    "traversal must start with V/E/inject".into(),
                ));
            }
        }
        Ok(stream)
    }

    /// Run and return the single integer a `count()` traversal yields.
    pub fn run_count(&self, db: &dyn GraphSnapshot, ctx: &QueryCtx) -> GdbResult<i64> {
        let out = self.run(db, ctx)?;
        match out.as_slice() {
            [Elem::Val(Value::Int(n))] => Ok(*n),
            _ => Err(GdbError::Invalid("traversal did not end in count()".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_linked::LinkedGraph;
    use gm_model::api::{GraphDb, LoadOptions};
    use gm_model::testkit;

    fn engine() -> LinkedGraph {
        let mut g = LinkedGraph::v1();
        g.bulk_load(&testkit::tiny_dataset(), &LoadOptions::default())
            .unwrap();
        g
    }

    #[test]
    fn count_vertices_and_edges() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        assert_eq!(Traversal::v().count().run_count(&g, &ctx).unwrap(), 5);
        assert_eq!(Traversal::e().count().run_count(&g, &ctx).unwrap(), 6);
    }

    #[test]
    fn has_filter() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let n = Traversal::v()
            .has("age", Value::Int(30))
            .count()
            .run_count(&g, &ctx)
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn out_and_dedup() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let v0 = g.resolve_vertex(0).unwrap();
        // ann --knows--> bob (twice, parallel)
        let out = Traversal::from_vertices([v0])
            .out(Some("knows"))
            .run(&g, &ctx)
            .unwrap();
        assert_eq!(out.len(), 2);
        let deduped = Traversal::from_vertices([v0])
            .out(Some("knows"))
            .dedup()
            .run(&g, &ctx)
            .unwrap();
        assert_eq!(deduped.len(), 1);
    }

    #[test]
    fn label_dedup_is_q10() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let mut labels: Vec<String> = Traversal::e()
            .label()
            .dedup()
            .run(&g, &ctx)
            .unwrap()
            .into_iter()
            .filter_map(|e| match e {
                Elem::Val(Value::Str(s)) => Some(s),
                _ => None,
            })
            .collect();
        labels.sort();
        assert_eq!(labels, vec!["follows", "knows", "likes"]);
    }

    #[test]
    fn degree_filter_fuses_into_scan() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let n = Traversal::v()
            .degree_at_least(Direction::Both, 4)
            .count()
            .run_count(&g, &ctx)
            .unwrap();
        assert_eq!(n, 2, "ann and col have both-degree 4");
    }

    #[test]
    fn values_projection() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let ages = Traversal::v()
            .has_label("person")
            .values("age")
            .run(&g, &ctx)
            .unwrap();
        assert_eq!(ages.len(), 3, "eve has no age");
    }

    #[test]
    fn limit_truncates() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        assert_eq!(Traversal::v().limit(2).run(&g, &ctx).unwrap().len(), 2);
    }

    #[test]
    fn by_id_sources() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let v0 = g.resolve_vertex(0).unwrap();
        let e0 = g.resolve_edge(0).unwrap();
        assert_eq!(Traversal::v_by_id(v0).run(&g, &ctx).unwrap().len(), 1);
        assert_eq!(Traversal::e_by_id(e0).run(&g, &ctx).unwrap().len(), 1);
        assert_eq!(
            Traversal::v_by_id(Vid(9999)).run(&g, &ctx).unwrap().len(),
            0
        );
    }

    #[test]
    fn missing_source_step_errors() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let t = Traversal::new().has("a", Value::Int(1));
        assert!(t.run(&g, &ctx).is_err());
    }

    #[test]
    fn in_e_both_e() {
        let g = engine();
        let ctx = QueryCtx::unbounded();
        let v0 = g.resolve_vertex(0).unwrap();
        assert_eq!(
            Traversal::from_vertices([v0])
                .in_e(None)
                .run(&g, &ctx)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            Traversal::from_vertices([v0])
                .both_e(None)
                .run(&g, &ctx)
                .unwrap()
                .len(),
            4
        );
    }
}
