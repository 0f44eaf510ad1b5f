//! Append-only record store with logical→physical indirection — OrientDB's
//! core layout.
//!
//! "In OrientDB … record IDs are not linked directly to a physical position,
//! but point to an append-only data structure, where the logical identifier
//! is mapped to a physical position. This allows for changing the physical
//! position of an object without changing its identifier" (§3.2).
//!
//! [`PageStore`] reproduces that: variable-length records are appended to a
//! byte log; a position table maps logical rid → (offset, length). Updates
//! append a new version and repoint the table; old versions remain as
//! garbage until [`PageStore::compact`]. Every lookup pays the extra table
//! hop — the small but measurable indirection cost the paper observes in
//! id lookups versus Neo4j.

/// Entry of the position table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Live { offset: u64, len: u32 },
    Freed,
}

/// Variable-length record store with stable logical ids.
#[derive(Debug, Clone, Default)]
pub struct PageStore {
    log: Vec<u8>,
    table: Vec<Slot>,
    free: Vec<u64>,
    live: u64,
    garbage_bytes: u64,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Append a record, returning its stable logical id.
    pub fn alloc(&mut self, record: &[u8]) -> u64 {
        let offset = self.log.len() as u64;
        self.log.extend_from_slice(record);
        let slot = Slot::Live {
            offset,
            len: record.len() as u32,
        };
        self.live += 1;
        match self.free.pop() {
            Some(rid) => {
                self.table[rid as usize] = slot;
                rid
            }
            None => {
                self.table.push(slot);
                (self.table.len() - 1) as u64
            }
        }
    }

    /// The logical id the `n`-th next [`PageStore::alloc`] hands out (`0`:
    /// the next one): freed ids first, the last freed first, then fresh ids.
    pub fn nth_alloc(&self, n: u64) -> u64 {
        let freed = self.free.len() as u64;
        match freed.checked_sub(n + 1) {
            Some(i) => self.free[i as usize],
            None => self.table.len() as u64 + (n - freed),
        }
    }

    /// Read a record through the indirection table.
    pub fn get(&self, rid: u64) -> Option<&[u8]> {
        match self.table.get(rid as usize)? {
            Slot::Live { offset, len } => {
                let lo = *offset as usize;
                Some(&self.log[lo..lo + *len as usize])
            }
            Slot::Freed => None,
        }
    }

    /// Replace a record: appends the new version and repoints the logical id
    /// (the physical position changes, the id does not).
    pub fn put(&mut self, rid: u64, record: &[u8]) -> bool {
        match self.table.get(rid as usize) {
            Some(Slot::Live { len, .. }) => {
                self.garbage_bytes += *len as u64;
                let offset = self.log.len() as u64;
                self.log.extend_from_slice(record);
                self.table[rid as usize] = Slot::Live {
                    offset,
                    len: record.len() as u32,
                };
                true
            }
            _ => false,
        }
    }

    /// Free a logical id; the record bytes become garbage.
    pub fn free(&mut self, rid: u64) -> bool {
        match self.table.get(rid as usize) {
            Some(Slot::Live { len, .. }) => {
                self.garbage_bytes += *len as u64;
                self.table[rid as usize] = Slot::Freed;
                self.free.push(rid);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether the logical id maps to a live record.
    pub fn is_live(&self, rid: u64) -> bool {
        matches!(self.table.get(rid as usize), Some(Slot::Live { .. }))
    }

    /// Iterate live logical ids in ascending order.
    pub fn iter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Live { .. }))
            .map(|(i, _)| i as u64)
    }

    /// Bytes of superseded/freed record versions still sitting in the log.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage_bytes
    }

    /// Rewrite the log dropping garbage; logical ids are preserved.
    pub fn compact(&mut self) {
        let mut new_log = Vec::with_capacity((self.log.len() as u64 - self.garbage_bytes) as usize);
        for slot in self.table.iter_mut() {
            if let Slot::Live { offset, len } = slot {
                let lo = *offset as usize;
                let new_off = new_log.len() as u64;
                new_log.extend_from_slice(&self.log[lo..lo + *len as usize]);
                *offset = new_off;
            }
        }
        self.log = new_log;
        self.garbage_bytes = 0;
    }

    /// Total footprint: log (including garbage) + position table.
    pub fn bytes(&self) -> u64 {
        self.log.len() as u64 + self.table.len() as u64 * 16 + self.free.len() as u64 * 8 + 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get() {
        let mut s = PageStore::new();
        let a = s.alloc(b"first");
        let b = s.alloc(b"second record");
        assert_eq!(s.get(a), Some(b"first".as_slice()));
        assert_eq!(s.get(b), Some(b"second record".as_slice()));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn update_keeps_id_changes_position() {
        let mut s = PageStore::new();
        let rid = s.alloc(b"v1");
        let log_before = s.bytes();
        assert!(s.put(rid, b"version two is much longer"));
        assert_eq!(s.get(rid), Some(b"version two is much longer".as_slice()));
        assert!(s.bytes() > log_before, "append-only: log grew");
        assert_eq!(s.garbage_bytes(), 2, "old version is garbage");
    }

    #[test]
    fn free_and_reuse_logical_id() {
        let mut s = PageStore::new();
        let a = s.alloc(b"a");
        s.alloc(b"b");
        assert!(s.free(a));
        assert!(!s.free(a));
        assert_eq!(s.get(a), None);
        let c = s.alloc(b"c");
        assert_eq!(c, a, "logical id reused");
        assert_eq!(s.get(c), Some(b"c".as_slice()));
    }

    #[test]
    fn nth_alloc_names_the_ids_alloc_hands_out() {
        let mut s = PageStore::new();
        let ids: Vec<u64> = (0..6).map(|i| s.alloc(&[i])).collect();
        for &rid in &[ids[1], ids[4], ids[2]] {
            s.free(rid);
        }
        let want: Vec<u64> = (0..5).map(|n| s.nth_alloc(n)).collect();
        let got: Vec<u64> = (0..5).map(|i| s.alloc(&[i])).collect();
        assert_eq!(got, want);
        assert_eq!(got, vec![2, 4, 1, 6, 7]);
    }

    #[test]
    fn compact_reclaims_garbage_preserves_ids() {
        let mut s = PageStore::new();
        let ids: Vec<u64> = (0..50).map(|i| s.alloc(&[i as u8; 20])).collect();
        for &rid in &ids[..25] {
            s.put(rid, &[0xAB; 20]);
        }
        for &rid in &ids[40..] {
            s.free(rid);
        }
        assert!(s.garbage_bytes() > 0);
        let expect: Vec<Option<Vec<u8>>> =
            ids.iter().map(|&r| s.get(r).map(|b| b.to_vec())).collect();
        let before = s.bytes();
        s.compact();
        assert_eq!(s.garbage_bytes(), 0);
        assert!(s.bytes() < before);
        for (rid, want) in ids.iter().zip(expect) {
            assert_eq!(s.get(*rid).map(|b| b.to_vec()), want);
        }
    }

    #[test]
    fn iter_ids_ascending_live_only() {
        let mut s = PageStore::new();
        let ids: Vec<u64> = (0..5).map(|i| s.alloc(&[i as u8])).collect();
        s.free(ids[2]);
        assert_eq!(s.iter_ids().collect::<Vec<_>>(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn get_out_of_range() {
        let s = PageStore::new();
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(999), None);
    }

    #[test]
    fn put_on_freed_slot_fails() {
        let mut s = PageStore::new();
        let rid = s.alloc(b"x");
        s.free(rid);
        assert!(!s.put(rid, b"y"));
    }

    #[test]
    fn empty_record_is_fine() {
        let mut s = PageStore::new();
        let rid = s.alloc(b"");
        assert_eq!(s.get(rid), Some(b"".as_slice()));
    }
}
