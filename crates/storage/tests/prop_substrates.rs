//! Property tests: each substrate vs. a std-library oracle.

use gm_model::value::Value;
use gm_storage::bptree::{BPlusIter, BPlusTree, Finger};
use gm_storage::codec::{delta_decode, delta_encode, read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::{Bitmap, HashIndex, PageStore, RecordFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Debug;

/// One step of a B+Tree run against a `BTreeMap` oracle.
#[derive(Debug, Clone)]
enum TreeOp<K> {
    Insert(K, u32),
    Remove(K),
    Get(K),
    /// `range(lo, hi)`; `None` is an open upper end.
    Range(Bound<K>, Option<Bound<K>>),
    /// `check_invariants` mid-run.
    Check,
}

/// A range bound: a stored key (when there is one), any key of the shape —
/// usually absent — or a key below / above every key the shape generates.
#[derive(Debug, Clone)]
enum Bound<K> {
    Stored(prop::sample::Index),
    Key(K),
    Below,
    Above,
}

fn arb_bound<K: Debug + Clone + 'static>(key: BoxedStrategy<K>) -> BoxedStrategy<Bound<K>> {
    prop_oneof![
        3 => any::<prop::sample::Index>().prop_map(Bound::Stored),
        3 => key.prop_map(Bound::Key),
        1 => Just(Bound::Below),
        1 => Just(Bound::Above),
    ]
    .boxed()
}

fn arb_tree_ops<K: Debug + Clone + 'static>(
    key: BoxedStrategy<K>,
) -> impl Strategy<Value = Vec<TreeOp<K>>> {
    let bound = arb_bound(key.clone());
    prop::collection::vec(
        prop_oneof![
            6 => (key.clone(), any::<u32>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
            3 => key.clone().prop_map(TreeOp::Remove),
            2 => key.prop_map(TreeOp::Get),
            2 => (bound.clone(), prop::option::of(bound))
                .prop_map(|(lo, hi)| TreeOp::Range(lo, hi)),
            1 => Just(TreeOp::Check),
        ],
        0..400,
    )
}

/// Run `ops` on a B+Tree of `order` and on a `BTreeMap`: every answer
/// agrees, and the invariants hold whenever checked and at the end.
/// `below` / `above` sort before / after every key the shape generates.
fn tree_matches_oracle<K: Ord + Clone + Debug>(
    order: usize,
    ops: &[TreeOp<K>],
    below: &K,
    above: &K,
) -> Result<(), TestCaseError> {
    let mut tree = BPlusTree::with_order(order);
    let mut oracle: BTreeMap<K, u32> = BTreeMap::new();
    for op in ops {
        match op {
            TreeOp::Insert(k, v) => {
                prop_assert_eq!(tree.insert(k.clone(), *v), oracle.insert(k.clone(), *v));
            }
            TreeOp::Remove(k) => prop_assert_eq!(tree.remove(k), oracle.remove(k)),
            TreeOp::Get(k) => {
                prop_assert_eq!(tree.get(k), oracle.get(k));
                prop_assert_eq!(tree.contains_key(k), oracle.contains_key(k));
            }
            TreeOp::Range(lo, hi) => {
                let resolve = |b: &Bound<K>| match b {
                    Bound::Stored(i) if !oracle.is_empty() => oracle
                        .keys()
                        .nth(i.index(oracle.len()))
                        .expect("index is in range")
                        .clone(),
                    Bound::Stored(_) | Bound::Below => below.clone(),
                    Bound::Key(k) => k.clone(),
                    Bound::Above => above.clone(),
                };
                let lo = resolve(lo);
                let hi = hi.as_ref().map(resolve);
                let got: Vec<(&K, &u32)> = tree.range(&lo, hi.as_ref()).collect();
                let want: Vec<(&K, &u32)> = match &hi {
                    Some(hi) if *hi <= lo => Vec::new(),
                    Some(hi) => oracle.range(lo.clone()..hi.clone()).collect(),
                    None => oracle.range(lo.clone()..).collect(),
                };
                prop_assert_eq!(got, want, "range({:?}, {:?})", lo, hi);
            }
            TreeOp::Check => {
                let linked = tree.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert_eq!(linked, oracle.len());
            }
        }
    }
    prop_assert_eq!(tree.len(), oracle.len());
    prop_assert_eq!(tree.first(), oracle.iter().next());
    prop_assert_eq!(
        tree.iter().collect::<Vec<_>>(),
        oracle.iter().collect::<Vec<_>>()
    );
    tree.check_invariants().map_err(TestCaseError::fail)?;
    Ok(())
}

/// Run `ops` on a B+Tree of `order` and on a `BTreeMap`; at every `Range`
/// a finger scan answers what `range` and the map answer, from each of four
/// fingers: empty, fresh (taken on the tree as it is), kept across the whole
/// run (so taken before the removes that freed its leaf and the inserts that
/// reused the slot), and taken from a tree of `other_order` holding the same
/// keys. At the end one finger sweeps every bound in ascending order.
fn finger_ranges_match(
    order: usize,
    other_order: usize,
    ops: &[TreeOp<u16>],
) -> Result<(), TestCaseError> {
    let mut tree = BPlusTree::with_order(order);
    let mut other = BPlusTree::with_order(other_order);
    let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
    let mut kept = Finger::default();
    let want = |oracle: &BTreeMap<u16, u32>, lo: u16, hi: Option<u16>| -> Vec<(u16, u32)> {
        match hi {
            Some(hi) if hi <= lo => Vec::new(),
            Some(hi) => oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect(),
            None => oracle.range(lo..).map(|(k, v)| (*k, *v)).collect(),
        }
    };
    let scan =
        |it: BPlusIter<'_, u16, u32>| -> Vec<(u16, u32)> { it.map(|(k, v)| (*k, *v)).collect() };
    for op in ops {
        match op {
            TreeOp::Insert(k, v) => {
                tree.insert(*k, *v);
                other.insert(*k, *v);
                oracle.insert(*k, *v);
            }
            TreeOp::Remove(k) => {
                tree.remove(k);
                other.remove(k);
                oracle.remove(k);
            }
            TreeOp::Get(_) | TreeOp::Check => {}
            TreeOp::Range(lo, hi) => {
                let resolve = |b: &Bound<u16>| match b {
                    Bound::Stored(i) if !oracle.is_empty() => {
                        *oracle.keys().nth(i.index(oracle.len())).expect("in range")
                    }
                    Bound::Stored(_) | Bound::Below => 0,
                    Bound::Key(k) => *k,
                    Bound::Above => u16::MAX,
                };
                let (lo, hi) = (resolve(lo), hi.as_ref().map(resolve));
                let want = want(&oracle, lo, hi);
                prop_assert_eq!(&scan(tree.range(&lo, hi.as_ref())), &want);
                let mut fresh = Finger::default();
                tree.finger_range(&mut fresh, &lo.saturating_sub(1), None);
                let mut foreign = Finger::default();
                other.finger_range(&mut foreign, &lo, None);
                for (name, finger) in [
                    ("empty", &mut Finger::default()),
                    ("fresh", &mut fresh),
                    ("kept", &mut kept),
                    ("foreign", &mut foreign),
                ] {
                    let got = scan(tree.finger_range(finger, &lo, hi.as_ref()));
                    prop_assert_eq!(&got, &want, "{} finger, range({}, {:?})", name, lo, hi);
                }
            }
        }
    }
    tree.check_invariants().map_err(TestCaseError::fail)?;
    let mut sweep = Finger::default();
    for lo in 0..=1000u16 {
        let got = scan(tree.finger_range(&mut sweep, &lo, Some(&(lo + 2))));
        prop_assert_eq!(got, want(&oracle, lo, Some(lo + 2)), "sweep at {}", lo);
    }
    prop_assert_eq!(sweep.hits() + sweep.descents(), 1001);
    Ok(())
}

/// Keys of the triple engine's shape: few subjects and predicates, so long
/// runs of keys share their first one or two components.
fn arb_spo_key() -> BoxedStrategy<(u64, u64, u64)> {
    (1u64..4, 0u64..4, 0u64..40).boxed()
}

/// A relational index key: numbers and strings across the `Value` order,
/// with `Int`/`Float` cross-equality, `-0.0` below `0`, infinities and NaN.
fn arb_value_key() -> BoxedStrategy<(Value, u64)> {
    const FLOATS: [f64; 8] = [
        -0.0,
        0.0,
        0.5,
        -1.5,
        2.0,
        f64::INFINITY,
        -f64::INFINITY,
        f64::NAN,
    ];
    const STRS: [&str; 6] = ["", "a", "ab", "abc", "b", "ba"];
    let value = prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        any::<prop::sample::Index>().prop_map(|i| Value::Float(FLOATS[i.index(FLOATS.len())])),
        any::<prop::sample::Index>().prop_map(|i| Value::Str(STRS[i.index(STRS.len())].into())),
    ];
    (value, 0u64..4).boxed()
}

#[derive(Debug, Clone)]
enum FileOp {
    Alloc(Vec<u8>),
    Put(prop::sample::Index, Vec<u8>),
    Free(prop::sample::Index),
}

fn arb_file_ops() -> impl Strategy<Value = Vec<(bool, FileOp)>> {
    let record = || prop::collection::vec(any::<u8>(), 0..12);
    prop::collection::vec(
        (
            any::<bool>(),
            prop_oneof![
                record().prop_map(FileOp::Alloc),
                (any::<prop::sample::Index>(), record()).prop_map(|(i, r)| FileOp::Put(i, r)),
                any::<prop::sample::Index>().prop_map(FileOp::Free),
            ],
        ),
        0..200,
    )
}

/// Plain-`Vec` model of a [`RecordFile`]: zero-padded slot contents and the
/// LIFO free list that decides which id the next allocation reuses.
#[derive(Clone, Default)]
struct FileModel {
    slots: Vec<Option<Vec<u8>>>,
    free: Vec<u64>,
}

impl FileModel {
    /// Apply `op` to the model and to `file`; their answers must agree.
    fn apply(&mut self, file: &mut RecordFile, op: &FileOp) -> Result<(), TestCaseError> {
        let padded = |r: &[u8]| {
            let mut rec = r.to_vec();
            rec.resize(file.record_size(), 0);
            rec
        };
        match op {
            FileOp::Alloc(r) => {
                let rec = padded(r);
                let want = match self.free.pop() {
                    Some(id) => {
                        self.slots[id as usize] = Some(rec);
                        id
                    }
                    None => {
                        self.slots.push(Some(rec));
                        self.slots.len() as u64 - 1
                    }
                };
                prop_assert_eq!(file.alloc(r), want);
            }
            FileOp::Put(at, r) => {
                // One past the end too: an out-of-range put is refused.
                let id = at.index(self.slots.len() + 1);
                let rec = padded(r);
                let live = self.slots.get(id).is_some_and(|s| s.is_some());
                prop_assert_eq!(file.put(id as u64, r), live);
                if live {
                    self.slots[id] = Some(rec);
                }
            }
            FileOp::Free(at) => {
                let id = at.index(self.slots.len() + 1);
                let live = self.slots.get(id).is_some_and(|s| s.is_some());
                prop_assert_eq!(file.free(id as u64), live);
                if live {
                    self.slots[id] = None;
                    self.free.push(id as u64);
                }
            }
        }
        Ok(())
    }

    fn check(&self, file: &RecordFile) -> Result<(), TestCaseError> {
        prop_assert_eq!(file.capacity_slots(), self.slots.len() as u64);
        for (id, want) in self.slots.iter().enumerate() {
            prop_assert_eq!(file.get(id as u64), want.as_deref());
            prop_assert_eq!(file.is_live(id as u64), want.is_some());
        }
        prop_assert_eq!(file.get(self.slots.len() as u64), None);
        let live: Vec<u64> = (0..self.slots.len() as u64)
            .filter(|id| self.slots[*id as usize].is_some())
            .collect();
        prop_assert_eq!(file.len(), live.len() as u64);
        prop_assert_eq!(file.iter_ids().collect::<Vec<_>>(), &live[..]);
        let scanned: Vec<(u64, &[u8])> = file.chunks().flatten().collect();
        let want: Vec<(u64, &[u8])> = live
            .iter()
            .map(|id| (*id, self.slots[*id as usize].as_deref().expect("live")))
            .collect();
        prop_assert_eq!(scanned, want);
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum LsmOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    /// Put this many keys above every key the model holds, in key order —
    /// how a bulk load writes, and what leaves runs key-disjoint (random
    /// keys almost never do).
    Ascending(u8, Vec<u8>),
    Flush,
    Compact,
    CompactTail,
}

/// Short keys over a four-byte alphabet, so keys are prefixes of one
/// another and `0xFF` sits at prefix ends.
fn arb_lsm_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..4).prop_map(|i| [0u8, 1, 7, 0xFF][i]), 0..4)
}

fn arb_lsm_value() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..6)
}

fn arb_ascending() -> impl Strategy<Value = LsmOp> {
    (1u8..12, arb_lsm_value()).prop_map(|(n, v)| LsmOp::Ascending(n, v))
}

fn arb_random_lsm_ops() -> impl Strategy<Value = Vec<LsmOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => (arb_lsm_key(), arb_lsm_value()).prop_map(|(k, v)| LsmOp::Put(k, v)),
            4 => arb_lsm_key().prop_map(LsmOp::Delete),
            2 => arb_ascending(),
            2 => Just(LsmOp::Flush),
            1 => Just(LsmOp::Compact),
            1 => Just(LsmOp::CompactTail),
        ],
        0..110,
    )
}

/// Random operations, then a compaction and a stretch written the way a
/// bulk load writes — ascending batches, flushes and tail compactions,
/// which leave key-disjoint runs (random writes almost never do) — then
/// random operations again.
fn arb_lsm_ops() -> impl Strategy<Value = Vec<LsmOp>> {
    let load = prop::collection::vec(
        prop_oneof![
            4 => arb_ascending(),
            1 => Just(LsmOp::Flush),
            1 => Just(LsmOp::CompactTail),
        ],
        0..30,
    );
    (arb_random_lsm_ops(), load, arb_random_lsm_ops()).prop_map(|(mut ops, load, tail)| {
        ops.push(LsmOp::Compact);
        ops.extend(load);
        ops.extend(tail);
        ops
    })
}

type LsmModel = BTreeMap<Vec<u8>, Vec<u8>>;

fn lsm_apply(lsm: &mut LsmTable, model: &mut LsmModel, op: &LsmOp) {
    match op {
        LsmOp::Put(k, v) => {
            lsm.put(k, v);
            model.insert(k.clone(), v.clone());
        }
        LsmOp::Delete(k) => {
            lsm.delete(k);
            model.remove(k);
        }
        LsmOp::Ascending(n, v) => {
            let last = model.keys().next_back().cloned().unwrap_or_default();
            for i in 0..*n {
                let mut k = last.clone();
                k.push(i);
                lsm.put(&k, v);
                model.insert(k, v.clone());
            }
        }
        LsmOp::Flush => lsm.flush(),
        LsmOp::Compact => lsm.compact(),
        LsmOp::CompactTail => lsm.compact_tail(),
    }
}

/// Every borrowed read of `lsm` answers as the model does: `get` on each
/// probe key, the whole-store scan, and a range and a prefix scan per probe.
fn lsm_check(lsm: &LsmTable, model: &LsmModel, probes: &[Vec<u8>]) -> Result<(), TestCaseError> {
    type Pairs<'a> = Vec<(&'a [u8], &'a [u8])>;
    fn pairs<'a>(it: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> Pairs<'a> {
        it.collect()
    }
    fn owned<'a>(it: impl Iterator<Item = (&'a Vec<u8>, &'a Vec<u8>)>) -> Pairs<'a> {
        it.map(|(k, v)| (k.as_slice(), v.as_slice())).collect()
    }
    prop_assert_eq!(pairs(lsm.scan_range(&[], None)), owned(model.iter()));
    prop_assert_eq!(lsm.live_len(), model.len());
    for (i, probe) in probes.iter().enumerate() {
        prop_assert_eq!(lsm.get(probe), model.get(probe).map(Vec::as_slice));
        prop_assert_eq!(lsm.contains(probe), model.contains_key(probe));
        let prefixed = model.range(probe.clone()..);
        prop_assert_eq!(
            pairs(lsm.scan_prefix(probe)),
            owned(prefixed.take_while(|(k, _)| k.starts_with(probe)))
        );
        let other = &probes[(i + 1) % probes.len()];
        let (lo, hi) = (probe.min(other), probe.max(other));
        prop_assert_eq!(
            pairs(lsm.scan_range(lo, Some(hi))),
            owned(model.range(lo.clone()..hi.clone()))
        );
        prop_assert_eq!(
            pairs(lsm.scan_range(lo, None)),
            owned(model.range(lo.clone()..))
        );
    }
    Ok(())
}

/// A fixed table in the columnar engine's key shape: overwrites, deletes,
/// automatic flushes and tail compactions, a non-empty memtable.
fn lsm_fixture() -> LsmTable {
    let mut t = LsmTable::new(LsmConfig {
        memtable_limit: 64,
        max_runs: 4,
    });
    for round in 0..6u64 {
        for vid in 0..150u64 {
            let mut key = (vid * 7 % 150).to_be_bytes().to_vec();
            key.push((vid % 3) as u8);
            key.extend_from_slice(&((round * 31 + vid) as u32 % 5).to_be_bytes());
            if (vid + round) % 11 == 0 {
                t.delete(&key);
            } else {
                t.put(&key, &vec![round as u8; (vid % 9) as usize]);
            }
        }
    }
    t
}

/// `bytes()` is the modelled on-disk size (prefix-compressed keys), not the
/// arena's: these are the numbers the `Vec`-of-pairs runs reported for the
/// same operations, and the benchmark's `space_amp` is made of them.
#[test]
fn lsm_bytes_are_pinned_to_the_sstable_model() {
    let mut t = lsm_fixture();
    assert_eq!((t.run_count(), t.bytes()), (4, 9707));
    assert_eq!(t.stats().tombstones, 79);
    t.flush();
    assert_eq!((t.run_count(), t.bytes()), (3, 9036));
    t.compact_tail();
    assert_eq!((t.run_count(), t.bytes()), (3, 9036));
    t.compact();
    assert_eq!((t.run_count(), t.bytes()), (1, 6871));
    assert_eq!((t.live_len(), t.stats().tombstones), (684, 0));
    assert_eq!(
        (t.stats().flushes, t.stats().compactions),
        (15, 8),
        "same flush and compaction schedule"
    );
}

/// The property test's ascending batches do what it needs them for: after
/// random writes and a compaction, they leave several key-disjoint runs and
/// a memtable above them, which a scan walks; one random write into the
/// runs' range makes it merge again. Both read as the model does.
#[test]
fn ascending_batches_leave_runs_a_scan_walks() {
    let mut lsm = LsmTable::new(LsmConfig {
        memtable_limit: 8,
        max_runs: 4,
    });
    let mut model = LsmModel::new();
    let mut ops = vec![
        LsmOp::Put(vec![1, 7], vec![1]),
        LsmOp::Put(vec![0], vec![2]),
        LsmOp::Delete(vec![1, 7]),
        LsmOp::Put(vec![7, 0xFF], vec![3]),
        LsmOp::Compact,
    ];
    ops.extend((0..5).map(|i| LsmOp::Ascending(6, vec![i])));
    for op in &ops {
        lsm_apply(&mut lsm, &mut model, op);
    }
    assert!(lsm.run_count() >= 3, "{} runs", lsm.run_count());
    assert!(!lsm.scan_range(&[], None).merges());
    let probes = [vec![7], vec![7, 0xFF, 5], vec![0]];
    lsm_check(&lsm, &model, &probes).unwrap();
    lsm_apply(
        &mut lsm,
        &mut model,
        &LsmOp::Put(vec![7, 0xFF, 0, 9], vec![4]),
    );
    assert!(lsm.scan_range(&[], None).merges());
    lsm_check(&lsm, &model, &probes).unwrap();
}

/// `node_count()` and `approx_bytes()` of fixed trees, pinned to the values
/// computed before the node search changed: the triple, relational and
/// cluster engines' `space()` are made of them, and a search must not move
/// a split point.
#[test]
fn bptree_layout_is_pinned() {
    // SPO-shaped: ascending bulk inserts, a scrambled second predicate,
    // then removals that empty some pages.
    let mut spo: BPlusTree<(u64, u64, u64), ()> = BPlusTree::new();
    for s in 0..2000u64 {
        for p in 0..=s % 5 {
            spo.insert((s, p, s * 7 % 101), ());
        }
    }
    for i in 0..3000u64 {
        spo.insert((i * 7919 % 2500, 9, i), ());
    }
    for s in (0..2500u64).step_by(3) {
        spo.remove(&(s, 0, s * 7 % 101));
    }
    for i in 1000..1400u64 {
        spo.remove(&(i * 7919 % 2500, 9, i));
    }
    spo.check_invariants().unwrap();
    assert_eq!(
        (spo.len(), spo.node_count(), spo.approx_bytes(|_| 24, |_| 0)),
        (7933, 426, 215_156)
    );
    // A small order, so the tree is deep.
    let mut small: BPlusTree<u64, u64> = BPlusTree::with_order(5);
    for i in 0..3000u64 {
        small.insert(i * 7919 % 3001, i);
    }
    for i in (0..3001u64).step_by(4) {
        small.remove(&i);
    }
    small.check_invariants().unwrap();
    assert_eq!(
        (
            small.len(),
            small.node_count(),
            small.approx_bytes(|_| 8, |_| 8)
        ),
        (2250, 986, 75_788)
    );
}

/// A finger kept across removes that free its leaf, and across the inserts
/// that reuse the freed arena slots, still answers what `range` does; so
/// does a finger taken from another tree.
#[test]
fn stale_and_foreign_fingers_answer_what_range_does() {
    let mut tree = BPlusTree::with_order(4);
    for k in 0..500u32 {
        tree.insert(k, k);
    }
    let mut finger = Finger::default();
    assert_eq!(
        tree.finger_range(&mut finger, &400, None).next(),
        Some((&400, &400))
    );
    let nodes = tree.node_count();
    for k in 300..500 {
        tree.remove(&k);
    }
    assert!(tree.node_count() < nodes, "the removes freed leaves");
    let stale = finger;
    for k in (1000..1200).rev() {
        tree.insert(k, k);
    }
    tree.check_invariants().unwrap();
    for lo in [0, 299, 300, 405, 999, 1000, 1100, 1199, 1200] {
        let want: Vec<_> = tree.range(&lo, None).collect();
        let mut f = stale;
        assert_eq!(
            tree.finger_range(&mut f, &lo, None).collect::<Vec<_>>(),
            want
        );
        let mut f = finger;
        assert_eq!(
            tree.finger_range(&mut f, &lo, None).collect::<Vec<_>>(),
            want
        );
        finger = f;
    }
    let mut foreign = Finger::default();
    let other: BPlusTree<u32, u32> = (0..5000).fold(BPlusTree::with_order(7), |mut t, k| {
        t.insert(k * 3, k);
        t
    });
    for lo in (0..15_000).step_by(97) {
        other.finger_range(&mut foreign, &lo, None);
        let mut f = foreign;
        assert_eq!(
            tree.finger_range(&mut f, &lo, Some(&(lo + 50)))
                .collect::<Vec<_>>(),
            tree.range(&lo, Some(&(lo + 50))).collect::<Vec<_>>(),
            "foreign finger at {lo}"
        );
    }
}

proptest! {
    /// A RecordFile and its clone share pages, yet under any interleaving
    /// of alloc/put/free each behaves exactly like its own plain-Vec model:
    /// no write leaks through a shared page, and ids and free-list reuse
    /// are what an unshared file would hand out.
    #[test]
    fn record_file_and_its_clone_match_their_own_models(
        record_size in 12usize..40,
        prefill in 0usize..1500,
        ops in arb_file_ops(),
    ) {
        let mut original = RecordFile::new(record_size);
        let mut model = FileModel::default();
        for i in 0..prefill {
            model.apply(&mut original, &FileOp::Alloc((i as u32).to_le_bytes().to_vec()))?;
        }
        let mut clone = original.clone();
        let mut clone_model = model.clone();
        prop_assert_eq!(clone.unshared_pages(&original), 0);
        for (on_clone, op) in &ops {
            if *on_clone {
                clone_model.apply(&mut clone, op)?;
            } else {
                model.apply(&mut original, op)?;
            }
        }
        model.check(&original)?;
        clone_model.check(&clone)?;
    }

    /// B+Tree behaves exactly like BTreeMap under interleaved
    /// insert/remove/get/range, and its structural invariants hold whenever
    /// checked — at every order from the minimum to twice the default, so
    /// nodes both narrower and wider than the search's walk window occur.
    #[test]
    fn bptree_matches_btreemap(ops in arb_tree_ops((1u16..1000).boxed()), order in 3usize..65) {
        tree_matches_oracle(order, &ops, &0, &u16::MAX)?;
    }

    /// B+Tree range scans agree with BTreeMap range scans on a tree built
    /// in ascending order (the bulk-load shape: half-full nodes), with
    /// bounds that are stored, absent, below the minimum or above the
    /// maximum, and open upper ends.
    #[test]
    fn bptree_range_matches(
        keys in prop::collection::btree_set(1u16..2000, 0..300),
        ranges in prop::collection::vec(
            (arb_bound((1u16..2000).boxed()), prop::option::of(arb_bound((1u16..2000).boxed()))),
            1..24,
        ),
        order in 3usize..65,
    ) {
        let ops: Vec<TreeOp<u16>> = keys
            .iter()
            .map(|&k| TreeOp::Insert(k, u32::from(k)))
            .chain(ranges.into_iter().map(|(lo, hi)| TreeOp::Range(lo, hi)))
            .collect();
        tree_matches_oracle(order, &ops, &0, &u16::MAX)?;
    }

    /// A finger scan answers what `range` and the map answer under any
    /// op sequence, at every order, whatever finger it is given.
    #[test]
    fn bptree_finger_range_matches_range(
        ops in arb_tree_ops((1u16..1000).boxed()),
        order in 3usize..65,
        other_order in 3usize..65,
    ) {
        finger_ranges_match(order, other_order, &ops)?;
    }

    /// The same on the triple engine's `(s, p, o)` key shape, whose
    /// comparisons mostly fall through to the second or third component.
    #[test]
    fn bptree_spo_keys_match_btreemap(ops in arb_tree_ops(arb_spo_key()), order in 3usize..65) {
        tree_matches_oracle(order, &ops, &(0, 0, 0), &(u64::MAX, 0, 0))?;
    }

    /// The same on `(Value, u64)` index keys mixing `Int`, `Float` (`-0.0`,
    /// NaN, infinities) and `Str`: the search compares through `Ord` alone,
    /// so it agrees with the map that does.
    #[test]
    fn bptree_value_keys_match_btreemap(ops in arb_tree_ops(arb_value_key()), order in 3usize..65) {
        let above = (Value::Str("\u{10FFFF}".into()), u64::MAX);
        tree_matches_oracle(order, &ops, &(Value::Null, 0), &above)?;
    }

    /// Bitmap behaves like a HashSet and its boolean algebra matches set ops.
    #[test]
    fn bitmap_matches_sets(
        a in prop::collection::hash_set(0u64..200_000, 0..500),
        b in prop::collection::hash_set(0u64..200_000, 0..500),
    ) {
        let ba: Bitmap = a.iter().copied().collect();
        let bb: Bitmap = b.iter().copied().collect();
        prop_assert_eq!(ba.len(), a.len() as u64);

        let and: HashSet<u64> = ba.and(&bb).iter().collect();
        let or: HashSet<u64> = ba.or(&bb).iter().collect();
        let diff: HashSet<u64> = ba.and_not(&bb).iter().collect();
        prop_assert_eq!(and, a.intersection(&b).copied().collect::<HashSet<_>>());
        prop_assert_eq!(or, a.union(&b).copied().collect::<HashSet<_>>());
        prop_assert_eq!(diff, a.difference(&b).copied().collect::<HashSet<_>>());
    }

    /// Bitmap iteration is sorted and removal keeps membership exact.
    #[test]
    fn bitmap_remove_consistent(
        values in prop::collection::btree_set(0u64..100_000, 1..300),
        remove_mask in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut bm: Bitmap = values.iter().copied().collect();
        let mut oracle: BTreeSet<u64> = values.clone();
        for (v, rm) in values.iter().zip(remove_mask) {
            if rm {
                prop_assert!(bm.remove(*v));
                oracle.remove(v);
            }
        }
        let got: Vec<u64> = bm.iter().collect();
        let expect: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }

    /// The LSM's borrowed reads equal a BTreeMap oracle after every step of
    /// any interleaving of put/delete/ascending batch/flush/compact/
    /// compact_tail, whether a scan walks key-disjoint sources or merges
    /// overlapping ones — and so do those of a clone taken mid-stream, whose
    /// `Arc`-shared runs keep answering for its own history while the
    /// original compacts them away.
    #[test]
    fn lsm_and_its_clone_match_their_own_models(
        ops in arb_lsm_ops(),
        split in any::<prop::sample::Index>(),
        probes in prop::collection::vec(arb_lsm_key(), 1..12),
        memtable_limit in 1usize..32,
        max_runs in 2usize..6,
    ) {
        let mut lsm = LsmTable::new(LsmConfig { memtable_limit, max_runs });
        let mut model = LsmModel::new();
        let (before, after) = ops.split_at(split.index(ops.len() + 1));
        for op in before {
            lsm_apply(&mut lsm, &mut model, op);
            lsm_check(&lsm, &model, &probes)?;
        }
        let (frozen, frozen_model) = (lsm.clone(), model.clone());
        for op in after {
            lsm_apply(&mut lsm, &mut model, op);
            lsm_check(&lsm, &model, &probes)?;
        }
        lsm.compact();
        prop_assert!(lsm.run_count() <= 1);
        lsm_check(&lsm, &model, &probes)?;
        lsm_check(&frozen, &frozen_model, &probes)?;
    }

    /// Varint and delta codecs round-trip arbitrary input.
    #[test]
    fn codecs_round_trip(mut ids in prop::collection::vec(any::<u64>(), 0..200)) {
        ids.sort_unstable();
        let enc = delta_encode(&ids);
        prop_assert_eq!(delta_decode(&enc), Some(ids));

        let mut buf = Vec::new();
        let values: Vec<u64> = (0..50).map(|i| i * 7919).collect();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// RecordFile allocation never hands out an id that is already live, and
    /// reads return exactly what was written.
    #[test]
    fn record_file_consistent(writes in prop::collection::vec(any::<[u8; 8]>(), 1..100)) {
        let mut f = RecordFile::new(8);
        let mut live: BTreeMap<u64, [u8; 8]> = BTreeMap::new();
        for (i, w) in writes.iter().enumerate() {
            let id = f.alloc(w);
            prop_assert!(live.insert(id, *w).is_none(), "id reused while live");
            // Periodically free an arbitrary live record.
            if i % 3 == 2 {
                let victim = *live.keys().next().unwrap();
                prop_assert!(f.free(victim));
                live.remove(&victim);
            }
        }
        for (id, w) in &live {
            prop_assert_eq!(f.get(*id), Some(&w[..]));
        }
        prop_assert_eq!(f.len(), live.len() as u64);
        prop_assert_eq!(f.iter_ids().collect::<Vec<_>>(),
                        live.keys().copied().collect::<Vec<_>>());
    }

    /// PageStore: updates preserve logical ids; compaction preserves content.
    #[test]
    fn pagestore_consistent(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..60),
        updates in prop::collection::vec((any::<prop::sample::Index>(), prop::collection::vec(any::<u8>(), 0..32)), 0..30),
    ) {
        let mut s = PageStore::new();
        let ids: Vec<u64> = records.iter().map(|r| s.alloc(r)).collect();
        let mut oracle: BTreeMap<u64, Vec<u8>> =
            ids.iter().copied().zip(records.iter().cloned()).collect();
        for (idx, new_val) in updates {
            let rid = ids[idx.index(ids.len())];
            prop_assert!(s.put(rid, &new_val));
            oracle.insert(rid, new_val);
        }
        s.compact();
        for (rid, want) in &oracle {
            prop_assert_eq!(s.get(*rid), Some(want.as_slice()));
        }
    }

    /// HashIndex multimap equals a HashSet<(k, v)> oracle.
    #[test]
    fn hashidx_matches_set(
        ops in prop::collection::vec((0u64..64, 0u64..8, any::<bool>()), 0..400),
    ) {
        let mut h = HashIndex::new();
        let mut oracle: HashSet<(u64, u64)> = HashSet::new();
        for (k, v, insert) in ops {
            if insert {
                prop_assert_eq!(h.insert(k, v), oracle.insert((k, v)));
            } else {
                prop_assert_eq!(h.remove(k, v), oracle.remove(&(k, v)));
            }
        }
        prop_assert_eq!(h.len(), oracle.len());
        for k in 0..64u64 {
            let mut got = h.get(k);
            got.sort_unstable();
            let mut expect: Vec<u64> = oracle.iter().filter(|(ok, _)| *ok == k).map(|(_, v)| *v).collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
