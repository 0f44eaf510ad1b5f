//! Property names that look reserved — the triple engine's built-in
//! predicates (`rdf:type`, `g:src`, `g:dst`, `g:label`) and names other
//! systems give special meaning (`id`, `label`, `@rid`) — are ordinary
//! properties on every engine: they never alias an element's label, type or
//! endpoints, and setting or removing them touches nothing else.

use graphmark::model::api::Direction;
use graphmark::model::value::Value;
use graphmark::model::{GdbResult, QueryCtx};
use graphmark::registry::EngineKind;

const NAMES: [&str; 7] = [
    "rdf:type", "g:src", "g:dst", "g:label", "id", "label", "@rid",
];

fn str_value(s: &str) -> Value {
    Value::Str(s.into())
}

fn check(kind: EngineKind, name: &str) -> GdbResult<()> {
    macro_rules! same {
        ($left:expr, $right:expr) => {
            assert_eq!($left, $right, "{} with property {name:?}", kind.name())
        };
    }
    let ctx = QueryCtx::unbounded();
    let mut db = kind.make();
    let a = db.add_vertex("person", &vec![(name.into(), str_value("va"))])?;
    let b = db.add_vertex("person", &vec![])?;
    let e = db.add_edge(a, b, "knows", &vec![(name.into(), Value::Int(7))])?;
    // The graph's shape, labels and endpoints are whatever they would be
    // under any other property name.
    let shape = |db: &dyn graphmark::model::GraphDb| -> GdbResult<()> {
        same!(db.vertex_count(&ctx)?, 2);
        same!(db.edge_count(&ctx)?, 1);
        for v in [a, b] {
            same!(db.vertex_label(v)?.as_deref(), Some("person"));
        }
        same!(db.edge_label(e)?.as_deref(), Some("knows"));
        same!(db.edge_endpoints(e)?, Some((a, b)));
        same!(db.neighbors(a, Direction::Out, None, &ctx)?, vec![b]);
        same!(db.edge_label_set(&ctx)?, vec!["knows".to_string()]);
        Ok(())
    };

    shape(&*db)?;
    same!(db.vertex_property(a, name)?, Some(str_value("va")));
    same!(db.vertex_property(b, name)?, None);
    same!(db.edge_property(e, name)?, Some(Value::Int(7)));
    let vertex = db.vertex(a)?.expect("a exists");
    same!(vertex.props, vec![(name.to_string(), str_value("va"))]);
    let edge = db.edge(e)?.expect("e exists");
    same!((edge.src, edge.dst), (a, b));
    same!(edge.props, vec![(name.to_string(), Value::Int(7))]);
    same!(
        db.vertices_with_property(name, &str_value("va"), &ctx)?,
        vec![a]
    );
    same!(db.edges_with_property(name, &Value::Int(7), &ctx)?, vec![e]);

    db.set_vertex_property(b, name, Value::Int(1))?;
    db.set_edge_property(e, name, Value::Int(8))?;
    shape(&*db)?;
    same!(db.vertex_property(b, name)?, Some(Value::Int(1)));
    same!(db.edge_property(e, name)?, Some(Value::Int(8)));

    same!(db.remove_edge_property(e, name)?, Some(Value::Int(8)));
    same!(db.remove_vertex_property(a, name)?, Some(str_value("va")));
    shape(&*db)?;
    same!(db.edge_property(e, name)?, None);
    same!(db.vertex_property(a, name)?, None);
    same!(db.vertex_property(b, name)?, Some(Value::Int(1)));
    Ok(())
}

#[test]
fn reserved_looking_names_are_ordinary_properties() {
    for kind in EngineKind::ALL {
        for name in NAMES {
            if let Err(err) = check(kind, name) {
                panic!("{} with property {name:?}: {err}", kind.name());
            }
        }
    }
}
