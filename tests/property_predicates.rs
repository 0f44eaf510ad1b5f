//! Property predicates answered in place agree with decode-then-compare.
//!
//! Q11 (`g.V.has(Name, Value)`) and Q12 (`g.E.has(Name, Value)`) are
//! `vertices_with_property` / `edges_with_property`. The record engines
//! evaluate them against the stored encoding without building a `Value`;
//! this suite checks every engine's answer against two references: the
//! engine's own decoded property (`vertex_property` / `edge_property`)
//! compared with `Value`'s equality, and the dataset itself.

use std::collections::BTreeSet;

use graphmark::model::api::{GraphDb, LoadOptions};
use graphmark::model::value::{Props, Value};
use graphmark::model::{Dataset, QueryCtx};
use graphmark::registry::EngineKind;

/// Bytes per page of the linked engine's string store.
const STRING_PAGE: usize = 4096;

/// The stored value each element carries under `p`, `None` for no `p`.
fn stored_values() -> Vec<Option<Value>> {
    vec![
        Some(Value::Int(3)),
        Some(Value::Float(3.0)),
        Some(Value::Int(0)),
        Some(Value::Float(0.0)),
        Some(Value::Float(-0.0)),
        Some(Value::Float(f64::NAN)),
        Some(Value::Null),
        Some(Value::Bool(true)),
        Some(Value::Bool(false)),
        Some(Value::Str(String::new())),
        Some(Value::Str("abc".into())),
        Some(Value::Str(straddler())),
        Some(Value::Str("3".into())),
        None,
    ]
}

/// A string the linked engine stores across a string-store page boundary:
/// the dataset pads the store to 10 bytes short of the first page's end.
fn straddler() -> String {
    format!("straddle-{}", "s".repeat(60))
}

/// Every value the suite asks for under `p`.
fn wanted_values() -> Vec<Value> {
    let mut changed_far_side = straddler();
    changed_far_side.replace_range(60..61, "t");
    vec![
        Value::Int(3),
        Value::Float(3.0),
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Str(String::new()),
        Value::Str("abc".into()),
        Value::Str(straddler()),
        // Same length and the same first page; differs past the boundary.
        Value::Str(changed_far_side),
        // A prefix of a stored string: differs only in length.
        Value::Str("straddle-".into()),
        // Never interned anywhere: a dictionary miss on the cluster engine.
        Value::Str("never-stored".into()),
        // `p` holds these under the other type.
        Value::Str("0".into()),
        Value::Int(7),
    ]
}

/// Props of element `i`: its `p` (if any) and, on every third, a `q`.
fn props_of(i: usize, values: &[Option<Value>]) -> Props {
    let mut props = Props::new();
    if let Some(v) = &values[i % values.len()] {
        props.push(("p".into(), v.clone()));
    }
    if i.is_multiple_of(3) {
        props.push(("q".into(), Value::Str("7".into())));
    }
    props
}

fn dataset() -> Dataset {
    let values = stored_values();
    let mut d = Dataset::new("property-predicates");
    // The pad is the first string stored, so the store's next string
    // starts 10 bytes before the page boundary.
    let pad = vec![("pad".into(), Value::Str("x".repeat(STRING_PAGE - 10)))];
    d.add_vertex("n", pad);
    let first = values
        .iter()
        .position(|v| *v == Some(Value::Str(straddler())));
    let first = first.expect("straddler is stored");
    // Vertex 1 carries the straddler first, then one vertex per value.
    d.add_vertex("n", props_of(first, &values));
    for i in 0..2 * values.len() {
        d.add_vertex(if i % 2 == 0 { "n" } else { "m" }, props_of(i, &values));
    }
    let n = d.vertex_count() as u64;
    for i in 0..3 * values.len() {
        let (src, dst) = (i as u64 % n, (i as u64 * 7 + 1) % n);
        let label = if i % 2 == 0 { "e" } else { "f" };
        d.add_edge(src, dst, label, props_of(i, &values));
    }
    d
}

/// The canonical ids whose dataset props hold `name = value`.
fn truth(props: &[&Props], name: &str, value: &Value) -> BTreeSet<u64> {
    (0..props.len() as u64)
        .filter(|&i| {
            props[i as usize]
                .iter()
                .any(|(k, v)| k == name && v == value)
        })
        .collect()
}

/// Load `data` into every engine variant.
fn engines(data: &Dataset) -> Vec<Box<dyn GraphDb>> {
    EngineKind::ALL
        .iter()
        .map(|k| {
            let mut db = k.make();
            db.bulk_load(data, &LoadOptions::default())
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", k.name()));
            db
        })
        .collect()
}

#[test]
fn q11_matches_decode_then_compare_on_every_engine() {
    let data = dataset();
    let props: Vec<&Props> = data.vertices.iter().map(|v| &v.props).collect();
    let ctx = QueryCtx::unbounded();
    for db in engines(&data) {
        let canonical: Vec<_> = (0..props.len() as u64)
            .map(|c| (db.resolve_vertex(c).expect("resolve"), c))
            .collect();
        let to_canonical = |v| canonical.iter().find(|(id, _)| *id == v).expect("known").1;
        for name in ["p", "q", "pad", "absent"] {
            for value in wanted_values() {
                let got: BTreeSet<u64> = db
                    .vertices_with_property(name, &value, &ctx)
                    .unwrap()
                    .into_iter()
                    .map(to_canonical)
                    .collect();
                let decoded: BTreeSet<u64> = canonical
                    .iter()
                    .filter(|(v, _)| db.vertex_property(*v, name).unwrap().as_ref() == Some(&value))
                    .map(|(_, c)| *c)
                    .collect();
                let what = format!("{} has({name}, {value:?})", db.name());
                assert_eq!(got, decoded, "{what}: answer vs decode-then-compare");
                assert_eq!(
                    got,
                    truth(&props, name, &value),
                    "{what}: answer vs dataset"
                );
            }
        }
    }
}

#[test]
fn q12_matches_decode_then_compare_on_every_engine() {
    let data = dataset();
    let props: Vec<&Props> = data.edges.iter().map(|e| &e.props).collect();
    let ctx = QueryCtx::unbounded();
    for db in engines(&data) {
        let canonical: Vec<_> = (0..props.len() as u64)
            .map(|c| (db.resolve_edge(c).expect("resolve"), c))
            .collect();
        let to_canonical = |e| canonical.iter().find(|(id, _)| *id == e).expect("known").1;
        for name in ["p", "q", "absent"] {
            for value in wanted_values() {
                let got: BTreeSet<u64> = db
                    .edges_with_property(name, &value, &ctx)
                    .unwrap()
                    .into_iter()
                    .map(to_canonical)
                    .collect();
                let decoded: BTreeSet<u64> = canonical
                    .iter()
                    .filter(|(e, _)| db.edge_property(*e, name).unwrap().as_ref() == Some(&value))
                    .map(|(_, c)| *c)
                    .collect();
                let what = format!("{} E.has({name}, {value:?})", db.name());
                assert_eq!(got, decoded, "{what}: answer vs decode-then-compare");
                assert_eq!(
                    got,
                    truth(&props, name, &value),
                    "{what}: answer vs dataset"
                );
            }
        }
    }
}

#[test]
fn the_suite_hits_what_it_claims_to() {
    // Guard the fixtures: each edge case must actually occur, or the
    // comparisons above check nothing.
    let data = dataset();
    let props: Vec<&Props> = data.vertices.iter().map(|v| &v.props).collect();
    let hits = |value: Value| truth(&props, "p", &value).len();
    assert_eq!(hits(Value::Int(3)), hits(Value::Float(3.0)));
    assert!(hits(Value::Int(3)) >= 4, "Int 3 and Float 3.0 both match");
    assert!(hits(Value::Float(-0.0)) > 0 && hits(Value::Float(-0.0)) < hits(Value::Int(0)));
    assert!(hits(Value::Float(f64::NAN)) > 0);
    assert!(hits(Value::Str(straddler())) >= 3);
    assert_eq!(hits(Value::Str("never-stored".into())), 0);
    // The first two strings the linked engine stores are the pad and the
    // straddler, so the straddler starts on the string store's first page
    // and ends on its second.
    let stored = |v: usize, name: &str| match data.vertex_prop(v as u64, name) {
        Some(Value::Str(s)) => s.len(),
        other => panic!("vertex {v} {name}: {other:?}"),
    };
    assert_eq!(props[0].len(), 1);
    assert_eq!(props[1].len(), 1);
    assert!(stored(0, "pad") < STRING_PAGE);
    assert!(stored(0, "pad") + stored(1, "p") > STRING_PAGE);
}
