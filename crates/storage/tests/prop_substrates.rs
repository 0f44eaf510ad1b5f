//! Property tests: each substrate vs. a std-library oracle.

use gm_storage::bptree::BPlusTree;
use gm_storage::codec::{delta_decode, delta_encode, read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::{Bitmap, HashIndex, PageStore, RecordFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            any::<u16>().prop_map(MapOp::Remove),
            any::<u16>().prop_map(MapOp::Get),
        ],
        0..400,
    )
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
    Flush,
    Compact,
    CompactTail,
}

/// Short keys over a four-byte alphabet, so keys are prefixes of one
/// another and `0xFF` sits at prefix ends.
fn arb_lsm_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..4).prop_map(|i| [0u8, 1, 7, 0xFF][i]), 0..4)
}

fn arb_lsm_ops() -> impl Strategy<Value = Vec<LsmOp>> {
    let value = || prop::collection::vec(any::<u8>(), 0..6);
    prop::collection::vec(
        prop_oneof![
            8 => (arb_lsm_key(), value()).prop_map(|(k, v)| LsmOp::Put(k, v)),
            4 => arb_lsm_key().prop_map(LsmOp::Delete),
            2 => Just(LsmOp::Flush),
            1 => Just(LsmOp::Compact),
            1 => Just(LsmOp::CompactTail),
        ],
        0..250,
    )
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
        LsmOp::Flush => lsm.flush(),
        LsmOp::Compact => lsm.compact(),
        LsmOp::CompactTail => lsm.compact_tail(),
    }
}

/// Every borrowed read of `lsm` answers as the model does: `get` on each
/// probe key, the whole-store scan, and a range and a prefix scan per probe.
fn lsm_check(lsm: &LsmTable, model: &LsmModel, probes: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let pairs = |it: &mut dyn Iterator<Item = (&[u8], &[u8])>| -> Vec<(Vec<u8>, Vec<u8>)> {
        it.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    };
    let owned = |it: &mut dyn Iterator<Item = (&Vec<u8>, &Vec<u8>)>| -> Vec<(Vec<u8>, Vec<u8>)> {
        it.map(|(k, v)| (k.clone(), v.clone())).collect()
    };
    prop_assert_eq!(
        pairs(&mut lsm.scan_range(&[], None)),
        owned(&mut model.iter())
    );
    prop_assert_eq!(lsm.live_len(), model.len());
    for (i, probe) in probes.iter().enumerate() {
        prop_assert_eq!(lsm.get(probe), model.get(probe).map(Vec::as_slice));
        prop_assert_eq!(lsm.contains(probe), model.contains_key(probe));
        prop_assert_eq!(
            pairs(&mut lsm.scan_prefix(probe)),
            owned(&mut model.iter().filter(|(k, _)| k.starts_with(probe)))
        );
        let other = &probes[(i + 1) % probes.len()];
        let (lo, hi) = (probe.min(other), probe.max(other));
        prop_assert_eq!(
            pairs(&mut lsm.scan_range(lo, Some(hi))),
            owned(&mut model.range(lo.clone()..hi.clone()))
        );
        prop_assert_eq!(
            pairs(&mut lsm.scan_range(lo, None)),
            owned(&mut model.range(lo.clone()..))
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

    /// B+Tree behaves exactly like BTreeMap under arbitrary operations, and
    /// its structural invariants hold after every batch.
    #[test]
    fn bptree_matches_btreemap(ops in arb_map_ops(), order in 3usize..12) {
        let mut tree: BPlusTree<u16, u32> = BPlusTree::with_order(order);
        let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(&k), oracle.get(&k));
                }
            }
        }
        prop_assert_eq!(tree.len(), oracle.len());
        let pairs: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(pairs, expect);
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// B+Tree range scans agree with BTreeMap range scans.
    #[test]
    fn bptree_range_matches(
        keys in prop::collection::btree_set(any::<u16>(), 0..300),
        lo in any::<u16>(),
        hi in any::<u16>(),
    ) {
        let mut tree: BPlusTree<u16, ()> = BPlusTree::with_order(4);
        for &k in &keys {
            tree.insert(k, ());
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let got: Vec<u16> = tree.range(&lo, Some(&hi)).map(|(k, _)| *k).collect();
        let expect: Vec<u16> = keys.range(lo..hi).copied().collect();
        prop_assert_eq!(got, expect);
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

    /// The LSM's borrowed reads equal a BTreeMap oracle under any
    /// interleaving of put/delete/flush/compact/compact_tail — and so do
    /// those of a clone taken mid-stream, whose `Arc`-shared runs keep
    /// answering for its own history while the original compacts them away.
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
        }
        let (frozen, frozen_model) = (lsm.clone(), model.clone());
        lsm_check(&frozen, &frozen_model, &probes)?;
        for op in after {
            lsm_apply(&mut lsm, &mut model, op);
        }
        lsm_check(&lsm, &model, &probes)?;
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
