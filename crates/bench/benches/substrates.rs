//! Criterion bench: the storage substrates in isolation — the ablation
//! level below the engines (B+Tree vs bitmap vs LSM vs record files), the
//! delta-encoding space/time trade-off behind the columnar engine, one
//! copy-on-write MVCC epoch of the linked engine built on them, and one
//! snapshot pin of a cell against a sharded composite of cells.

use criterion::{criterion_group, criterion_main, Criterion};
use gm_datasets::{self as datasets, DatasetId, Scale};
use gm_model::value::Value;
use gm_model::{GraphDb, GraphSnapshot, LoadOptions};
use gm_storage::bptree::{BPlusTree, Finger};
use gm_storage::codec::{delta_decode, delta_encode};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::{Bitmap, HashIndex, PageStore, RecordFile};
use graphmark::engines::linked::LinkedGraph;
use graphmark::mvcc::{SnapshotMode, SnapshotSource};
use graphmark::registry::EngineKind;

const N: u64 = 10_000;

/// The property predicate `spo_index` gives most subjects.
const PROPERTY: u64 = 4;

/// The triple engine's statement index: `(subject, predicate, object)`.
type Spo = BPlusTree<(u64, u64, u64), ()>;

/// An SPO index shaped like the triple engine's on `frb-l`: 18 000 vertex
/// subjects with a type and one to five properties, 16 000 reified edges
/// with `src`/`dst`/`label`, about 120 k statements, built in key order as
/// the bulk load builds it. Returns the tree and the vertex subjects.
fn spo_index() -> (Spo, Vec<u64>) {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let (first, vertices) = (1_000u64, 18_000u64);
    let mut statements = Vec::new();
    for s in first..first + vertices {
        statements.push((s, 0, 100 + next() % 50));
        for p in 0..=next() % 5 {
            statements.push((s, PROPERTY + p, 500 + next() % 90_000));
        }
    }
    for e in first + vertices..first + vertices + 16_000 {
        statements.push((e, 1, first + next() % vertices));
        statements.push((e, 2, first + next() % vertices));
        statements.push((e, 3, 100 + next() % 50));
    }
    statements.sort_unstable();
    let mut tree = BPlusTree::new();
    for k in statements {
        tree.insert(k, ());
    }
    (tree, (first..first + vertices).collect())
}

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/point-lookup");
    group.bench_function("bptree", |b| {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new();
        for i in 0..N {
            t.insert(i, i);
        }
        b.iter(|| t.get(std::hint::black_box(&(N / 2))));
    });
    group.bench_function("bitmap", |b| {
        let bm: Bitmap = (0..N).collect();
        b.iter(|| bm.contains(std::hint::black_box(N / 2)));
    });
    group.bench_function("lsm", |b| {
        let mut l = LsmTable::new(LsmConfig::default());
        for i in 0..N {
            l.put(&i.to_be_bytes(), &i.to_le_bytes());
        }
        let key = (N / 2).to_be_bytes();
        b.iter(|| l.get(std::hint::black_box(&key)));
    });
    group.bench_function("record-file", |b| {
        let mut f = RecordFile::new(16);
        for i in 0..N {
            f.alloc(&i.to_le_bytes());
        }
        b.iter(|| f.get(std::hint::black_box(N / 2)));
    });
    group.bench_function("pagestore", |b| {
        let mut s = PageStore::new();
        for i in 0..N {
            s.alloc(&i.to_le_bytes());
        }
        b.iter(|| s.get(std::hint::black_box(N / 2)));
    });
    group.bench_function("hashidx", |b| {
        let mut h = HashIndex::new();
        for i in 0..N {
            h.insert(i, i);
        }
        b.iter(|| h.get(std::hint::black_box(N / 2)));
    });
    group.finish();

    let mut group = c.benchmark_group("substrate/insert");
    group.sample_size(20);
    group.bench_function("bptree", |b| {
        b.iter_batched(
            BPlusTree::<u64, u64>::new,
            |mut t| {
                for i in 0..1000u64 {
                    t.insert(i * 7919 % 1000, i);
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("lsm", |b| {
        b.iter_batched(
            || LsmTable::new(LsmConfig::default()),
            |mut l| {
                for i in 0..1000u64 {
                    l.put(&i.to_be_bytes(), b"v");
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();

    // The LSM read path below the columnar engine: a multi-run table in the
    // engine's key shape (memtable + 4 runs, every fifth row's second cell
    // tombstoned), read whole (through the iterator and through `visit`), by
    // row prefix, and by point lookup. The rows arrive scrambled, so every
    // run spans the whole key space and a scan merges them; the same cells
    // put in key order leave key-disjoint runs, which a scan walks back to
    // back.
    let mut group = c.benchmark_group("substrate/lsm-read");
    let config = LsmConfig {
        memtable_limit: 8_192,
        max_runs: 8,
    };
    let cell_key = |row: u64, column: u8| {
        let mut key = [column; 9];
        key[..8].copy_from_slice(&row.to_be_bytes());
        key
    };
    let mut lsm = LsmTable::new(config.clone());
    for row in 0..N {
        for column in 0..4u8 {
            lsm.put(&cell_key(row * 7919 % N, column), &[column; 12]);
        }
    }
    for row in (0..N).step_by(5) {
        lsm.delete(&cell_key(row, 1));
    }
    let mut disjoint = LsmTable::new(config);
    for row in 0..N {
        for column in 0..4u8 {
            match (row % 5, column) {
                (0, 1) => disjoint.delete(&cell_key(row, column)),
                _ => disjoint.put(&cell_key(row, column), &[column; 12]),
            }
        }
    }
    assert!(lsm.run_count() >= 3, "{} runs", lsm.run_count());
    assert!(disjoint.run_count() >= 3, "{} runs", disjoint.run_count());
    assert!(lsm.scan_range(&[], None).merges());
    assert!(!disjoint.scan_range(&[], None).merges());
    let full = |t: &LsmTable| {
        t.scan_range(&[], None)
            .map(|(k, v)| k.len() + v.len())
            .sum::<usize>()
    };
    assert_eq!(full(&lsm), full(&disjoint), "the same live cells");
    // The same whole-store read drained through `Scan::visit`.
    let visit_full = |t: &LsmTable| {
        let mut bytes = 0;
        let drained = t.scan_range(&[], None).visit(|k, v| {
            bytes += k.len() + v.len();
            Ok::<_, ()>(())
        });
        drained.map(|()| bytes)
    };
    assert_eq!(visit_full(&lsm), Ok(full(&lsm)));
    assert_eq!(visit_full(&disjoint), Ok(full(&disjoint)));
    group.bench_function("lsm_scan_full", |b| b.iter(|| full(&lsm)));
    group.bench_function("lsm_scan_full_disjoint", |b| b.iter(|| full(&disjoint)));
    group.bench_function("lsm_visit_full", |b| b.iter(|| visit_full(&lsm)));
    group.bench_function("lsm_visit_full_disjoint", |b| {
        b.iter(|| visit_full(&disjoint))
    });
    group.bench_function("lsm_scan_prefix", |b| {
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 7919) % N;
            lsm.scan_prefix(std::hint::black_box(&row.to_be_bytes()))
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>()
        });
    });
    group.bench_function("lsm_get", |b| {
        let mut row = 0u64;
        b.iter(|| {
            row = (row + 7919) % N;
            lsm.get(std::hint::black_box(&cell_key(row, 2)))
                .map(|v| v[0])
        });
    });
    group.finish();

    // The B+Tree node search on the key shapes the engines probe: the triple
    // engine's SPO index (~120 k statements bulk-loaded in order, so nodes
    // are half full, as after `bulk_load`), probed once per subject for one
    // property as `has()` does — in subject order, in subject order from a
    // finger as the triple engine probes, and scrambled — and a relational
    // attribute index over string values.
    let mut group = c.benchmark_group("substrate/bptree-probe");
    let (spo, subjects) = spo_index();
    let probe = |s: u64| {
        spo.range(&(s, PROPERTY, 0), Some(&(s, PROPERTY + 1, 0)))
            .next()
            .map(|((_, _, o), _)| *o)
    };
    group.bench_function("spo_ascending", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 1) % subjects.len();
            probe(std::hint::black_box(subjects[at]))
        });
    });
    group.bench_function("spo_ascending_finger", |b| {
        let (mut at, mut finger) = (0, Finger::default());
        b.iter(|| {
            at = (at + 1) % subjects.len();
            let s = std::hint::black_box(subjects[at]);
            spo.finger_range(&mut finger, &(s, PROPERTY, 0), Some(&(s, PROPERTY + 1, 0)))
                .next()
                .map(|((_, _, o), _)| *o)
        });
    });
    group.bench_function("spo_random", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 7919) % subjects.len();
            probe(std::hint::black_box(subjects[at]))
        });
    });
    let name = |i: u64| Value::Str(format!("http://rdf.freebase.com/ns/m.{i:05}"));
    let mut index: BPlusTree<(Value, u64), ()> = BPlusTree::new();
    for row in 0..4 * N {
        index.insert((name(row * 7919 % (2 * N)), row), ());
    }
    let bounds: Vec<_> = (0..N)
        .map(|i| ((name(i * 3), 0), (name(i * 3), u64::MAX)))
        .collect();
    group.bench_function("value_str_lookup", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 7919) % bounds.len();
            let (lo, hi) = &bounds[at];
            index.range(std::hint::black_box(lo), Some(hi)).count()
        });
    });
    group.finish();

    // The structurally shared record file: what the page indirection costs
    // a random read, and what a snapshot-then-write (one copy-on-write MVCC
    // epoch) costs — a clone plus the copy of the one page the write hits.
    let mut group = c.benchmark_group("substrate/record-file");
    let mut file = RecordFile::new(64);
    for i in 0..(10 * N) {
        file.alloc(&i.to_le_bytes());
    }
    group.bench_function("recordfile_get_random", |b| {
        let mut at = 0u64;
        b.iter(|| {
            at = (at + 7919) % (10 * N);
            file.get(std::hint::black_box(at)).map(|r| r[0])
        });
    });
    group.bench_function("recordfile_clone_then_put", |b| {
        let mut at = 0u64;
        b.iter(|| {
            at = (at + 7919) % (10 * N);
            let snapshot = file.clone();
            file.put(at, &at.to_le_bytes());
            snapshot
        });
    });
    group.finish();

    // Delta encoding: the columnar engine's space trick, decode cost vs a
    // plain fixed-width copy.
    let ids: Vec<u64> = (0..10_000u64).map(|i| 1_000_000 + i * 3).collect();
    let encoded = delta_encode(&ids);
    let fixed: Vec<u8> = ids.iter().flat_map(|v| v.to_le_bytes()).collect();
    println!(
        "delta encoding: {} B vs fixed {} B ({:.1}x smaller)",
        encoded.len(),
        fixed.len(),
        fixed.len() as f64 / encoded.len() as f64
    );
    let mut group = c.benchmark_group("substrate/adjacency-decode");
    group.bench_function("delta", |b| {
        b.iter(|| delta_decode(std::hint::black_box(&encoded)).expect("decode"));
    });
    group.bench_function("fixed-width", |b| {
        b.iter(|| {
            std::hint::black_box(&fixed)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk")))
                .collect::<Vec<u64>>()
        });
    });
    group.finish();
}

/// One copy-on-write MVCC epoch on the linked engine, without the driver:
/// clone the loaded graph (what `CowCell` does on the first write after a
/// pin), add one edge to the clone, and drop the clone.
fn bench_linked_clone(c: &mut Criterion) {
    let data = datasets::generate(DatasetId::FrbL, Scale::small(), 42);
    let mut base = LinkedGraph::v2();
    base.bulk_load(&data, &LoadOptions::default())
        .expect("load");
    let (a, b) = (
        base.resolve_vertex(1).expect("vertex 1"),
        base.resolve_vertex(2).expect("vertex 2"),
    );
    // Intern the label once, as a steady-state workload has: an epoch that
    // meets a new label also copies the label interner.
    base.add_edge(a, b, "bench", &vec![]).expect("add_edge");
    let mut group = c.benchmark_group("mvcc/epoch");
    group.bench_function("linked_clone_then_add_edge", |bench| {
        bench.iter(|| {
            let mut epoch = base.clone();
            epoch.add_edge(a, b, "bench", &vec![]).expect("add_edge");
            epoch
        });
    });
    group.finish();
}

/// One strict snapshot pin of linked(v2) on `frb-l` at 1/2000 (18.6 k
/// vertices): a plain `CowCell` against `ShardedSource` /s1 and /s2. A
/// composite pin is one cell pin per shard plus a routing-meta clone that
/// shares its maps by refcount, so it should stay within 4 × shards of the
/// cell pin whatever the graph's size.
fn bench_shard_pin(c: &mut Criterion) {
    let data = datasets::generate(DatasetId::FrbL, Scale::small(), 42);
    let kind = EngineKind::LinkedV2;
    let sources: [(&str, Box<dyn SnapshotSource>); 3] = [
        ("cow_cell", kind.make_snapshot_source(SnapshotMode::Cow)),
        ("sharded_s1", Box::new(kind.make_sharded_source(1))),
        ("sharded_s2", Box::new(kind.make_sharded_source(2))),
    ];
    let mut group = c.benchmark_group("substrate/shard-pin");
    for (name, src) in &sources {
        src.with_write(&mut |db| db.bulk_load(&data, &LoadOptions::default()).map(|_| 0))
            .expect("load");
        group.bench_function(*name, |bench| bench.iter(|| src.snapshot().expect("pin")));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_substrates, bench_linked_clone, bench_shard_pin
}
criterion_main!(benches);
