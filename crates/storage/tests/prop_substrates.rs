//! Property tests: each substrate vs. a std-library oracle.

use gm_storage::bptree::BPlusTree;
use gm_storage::codec::{delta_decode, delta_encode, read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable, PrefixEnd};
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

    /// LSM equals a BTreeMap oracle under put/delete with periodic flushes.
    #[test]
    fn lsm_matches_btreemap(
        ops in prop::collection::vec(
            (any::<u8>(), prop::option::of(any::<u32>())), 0..300),
        memtable_limit in 1usize..32,
    ) {
        let mut lsm = LsmTable::new(LsmConfig { memtable_limit, max_runs: 3 });
        let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in ops {
            let key = vec![k];
            match v {
                Some(val) => {
                    let value = val.to_be_bytes().to_vec();
                    lsm.put(&key, &value);
                    oracle.insert(key, value);
                }
                None => {
                    lsm.delete(&key);
                    oracle.remove(&key);
                }
            }
        }
        for k in 0..=255u8 {
            prop_assert_eq!(lsm.get(&[k]), oracle.get(&vec![k]).cloned());
        }
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = lsm.scan_range(&[], PrefixEnd::Unbounded).collect();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = oracle.into_iter().collect();
        prop_assert_eq!(scanned, expect);
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
