//! Fixed-size record files — Neo4j's core layout.
//!
//! "In Neo4J nodes and edges are stored as records of fixed size and have
//! unique IDs that correspond to the offset of their position within the
//! corresponding file. In this way, given the id of an edge, it is retrieved
//! by multiplying the record size by its id and reading bytes at that offset"
//! (§3.2). [`RecordFile`] reproduces exactly that: `record_size`-byte slots,
//! id = slot index, O(1) access, and a free list for reuse after deletion.
//!
//! The slots live in the pages of a [`SegVec`] — a power-of-two number of
//! records per page, followed by one in-use byte for each — so `get(id)` is
//! shift + mask + one page-pointer load, cloning a file shares every page,
//! and a write after a clone copies only the one page it lands in.

use crate::segvec::SegVec;

/// Target bytes of records per page; a page holds the largest power-of-two
/// number of records that fits (at least one), plus their in-use bytes.
/// Smaller pages make a clone bump more reference counts, larger ones make
/// the first write to a shared page copy more bytes. Measured on the
/// `snap_mixed` benchmark workload (linked-v2, `frb-l`; medians of 3–4 runs
/// per size, a clone plus one write / end-to-end ops/s / write p99):
/// 1 KiB 26 µs / 31.8 k / 123 µs, 2 KiB 16 µs / 31.5 k / 98 µs,
/// 4 KiB 9 µs / 36.6 k / 58 µs, 8 KiB 4.8 µs / 37.6 k / 68 µs,
/// 16 KiB 4.7 µs / 37.7 k / 68 µs, 32 KiB 3.1 µs / 36.9 k / 88 µs.
/// Throughput is flat from 4 KiB up; 8 KiB is the smallest size on the flat
/// part of the clone cost, before the write tail starts to grow.
const PAGE_BYTES: usize = 8 * 1024;

/// A file of fixed-size records addressed by slot id.
#[derive(Debug, Clone)]
pub struct RecordFile {
    record_size: usize,
    /// log2(slots per page).
    shift: u32,
    /// One row per page: the page's records back to back, then one in-use
    /// byte per slot (0 = free or never allocated).
    pages: SegVec<u8>,
    /// Slots ever allocated (the high-water mark).
    slots: u64,
    free: Vec<u64>,
    live: u64,
}

impl RecordFile {
    /// Create a file whose records are `record_size` bytes.
    pub fn new(record_size: usize) -> Self {
        assert!(record_size > 0, "record size must be positive");
        let shift = (PAGE_BYTES / record_size).max(1).ilog2();
        RecordFile {
            record_size,
            shift,
            pages: SegVec::with_rows((record_size + 1) << shift, 1),
            slots: 0,
            free: Vec::new(),
            live: 0,
        }
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (the file's high-water mark).
    pub fn capacity_slots(&self) -> u64 {
        self.slots
    }

    /// Byte offset of the in-use flags within a page: past its records.
    #[inline]
    fn flags_at(&self) -> usize {
        self.record_size << self.shift
    }

    /// (page, byte offset of the record, byte offset of the in-use flag).
    #[inline]
    fn locate(&self, id: u64) -> (usize, usize, usize) {
        let in_page = (id & ((1 << self.shift) - 1)) as usize;
        (
            (id >> self.shift) as usize,
            in_page * self.record_size,
            self.flags_at() + in_page,
        )
    }

    /// Write `record`, zero-padded, into a slot and mark it in use.
    fn write(&mut self, id: u64, record: &[u8]) {
        let (page, at, flag) = self.locate(id);
        let size = self.record_size;
        let page = self.pages.row_mut(page).expect("allocated slot has a page");
        page[at..at + record.len()].copy_from_slice(record);
        page[at + record.len()..at + size].fill(0);
        page[flag] = 1;
    }

    /// Allocate a slot (reusing freed slots first) and write `record` into
    /// it. `record` must be at most `record_size` bytes; shorter records are
    /// zero-padded. Returns the slot id.
    pub fn alloc(&mut self, record: &[u8]) -> u64 {
        assert!(
            record.len() <= self.record_size,
            "record too large: {} > {}",
            record.len(),
            self.record_size
        );
        let id = self.free.pop().unwrap_or_else(|| {
            let id = self.slots;
            self.slots += 1;
            if (id >> self.shift) as usize == self.pages.len() {
                self.pages.push_row();
            }
            id
        });
        self.write(id, record);
        self.live += 1;
        id
    }

    /// Read the record at `id`; `None` if the slot is free or out of range.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&[u8]> {
        let (page, at, flag) = self.locate(id);
        let page = self.pages.row(page)?;
        if page[flag] != 0 {
            Some(&page[at..at + self.record_size])
        } else {
            None
        }
    }

    /// Overwrite a live record in place.
    pub fn put(&mut self, id: u64, record: &[u8]) -> bool {
        assert!(record.len() <= self.record_size, "record too large");
        if !self.is_live(id) {
            return false;
        }
        self.write(id, record);
        true
    }

    /// Free a slot; returns true if it was live. The slot id will be reused
    /// by future allocations (as Neo4j's id reuse does).
    pub fn free(&mut self, id: u64) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let (page, _, flag) = self.locate(id);
        self.pages.row_mut(page).expect("live slot has a page")[flag] = 0;
        self.free.push(id);
        self.live -= 1;
        true
    }

    /// Whether the slot is live.
    #[inline]
    pub fn is_live(&self, id: u64) -> bool {
        let (page, _, flag) = self.locate(id);
        self.pages.row(page).is_some_and(|page| page[flag] != 0)
    }

    /// Iterate live slot ids in ascending order.
    pub fn iter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let flags_at = self.flags_at();
        // Every page carries a full page's flags (zero past the high-water
        // mark), so a flag's position in the concatenation is its slot id.
        self.pages
            .rows()
            .flat_map(move |page| page[flags_at..].iter())
            .enumerate()
            .filter(|(_, live)| **live != 0)
            .map(|(id, _)| id as u64)
    }

    /// The live `(slot id, record)` pairs in ascending id order, one inner
    /// iterator per page. A scan written as two nested loops over this pays
    /// the page lookup once per page and runs a plain slice loop inside it —
    /// what `iter_ids` + `get` pays per record.
    pub fn chunks(&self) -> impl Iterator<Item = impl Iterator<Item = (u64, &[u8])> + '_> + '_ {
        let flags_at = self.flags_at();
        self.pages.rows().enumerate().map(move |(p, page)| {
            let (records, flags) = page.split_at(flags_at);
            let base = (p as u64) << self.shift;
            flags
                .iter()
                .zip(records.chunks_exact(self.record_size))
                .enumerate()
                .filter(|(_, (live, _))| **live != 0)
                .map(move |(i, (_, record))| (base + i as u64, record))
        })
    }

    /// The file footprint: slots × record size, plus bookkeeping. Freed
    /// slots still occupy file space — exactly like a real record file.
    pub fn bytes(&self) -> u64 {
        self.slots * self.record_size as u64 + self.slots / 8 + self.free.len() as u64 * 8 + 48
    }

    /// Pages of this file that are not shared with `other` — what a clone
    /// has copied or appended since it was taken.
    pub fn unshared_pages(&self, other: &RecordFile) -> usize {
        self.pages.unshared_pages(&other.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_roundtrip() {
        let mut f = RecordFile::new(16);
        let id = f.alloc(b"hello");
        let rec = f.get(id).unwrap();
        assert_eq!(&rec[..5], b"hello");
        assert!(rec[5..].iter().all(|&b| b == 0), "zero padded");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn ids_are_sequential_offsets() {
        let mut f = RecordFile::new(8);
        for i in 0..10u64 {
            assert_eq!(f.alloc(&i.to_le_bytes()), i);
        }
        // Direct offset access semantics.
        assert_eq!(f.get(7).unwrap(), &7u64.to_le_bytes());
    }

    #[test]
    fn free_then_reuse() {
        let mut f = RecordFile::new(8);
        let a = f.alloc(b"a");
        let _b = f.alloc(b"b");
        assert!(f.free(a));
        assert!(!f.free(a), "double free is a no-op");
        assert_eq!(f.get(a), None);
        assert!(!f.is_live(a));
        // Next alloc reuses the freed slot.
        let c = f.alloc(b"c");
        assert_eq!(c, a);
        assert_eq!(&f.get(c).unwrap()[..1], b"c");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn put_updates_in_place() {
        let mut f = RecordFile::new(8);
        let id = f.alloc(b"old");
        assert!(f.put(id, b"newdata"));
        assert_eq!(&f.get(id).unwrap()[..7], b"newdata");
        assert!(!f.put(999, b"x"), "missing slot");
    }

    #[test]
    fn iter_ids_skips_free() {
        let mut f = RecordFile::new(4);
        let ids: Vec<u64> = (0..5).map(|i| f.alloc(&[i as u8])).collect();
        f.free(ids[1]);
        f.free(ids[3]);
        let live: Vec<u64> = f.iter_ids().collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn bytes_track_high_water_mark() {
        let mut f = RecordFile::new(32);
        for _ in 0..100 {
            f.alloc(b"x");
        }
        let full = f.bytes();
        for id in 0..100 {
            f.free(id);
        }
        assert!(f.bytes() >= full, "freeing does not shrink the file");
        assert_eq!(f.len(), 0);
    }

    #[test]
    #[should_panic(expected = "record too large")]
    fn oversized_record_rejected() {
        RecordFile::new(4).alloc(b"way too big");
    }

    #[test]
    fn out_of_range_get() {
        let f = RecordFile::new(4);
        assert_eq!(f.get(0), None);
        assert_eq!(f.get(12345), None);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut f = RecordFile::new(64);
        for i in 0..5_000u64 {
            f.alloc(&i.to_le_bytes());
        }
        let snapshot = f.clone();
        assert_eq!(f.unshared_pages(&snapshot), 0);
        f.put(1_234, b"changed");
        f.free(1_235);
        assert_eq!(f.unshared_pages(&snapshot), 1, "both land in one page");
        assert_eq!(&snapshot.get(1_234).unwrap()[..8], &1_234u64.to_le_bytes());
        assert!(snapshot.is_live(1_235));
        assert_eq!(&f.get(1_234).unwrap()[..7], b"changed");
        assert_eq!(snapshot.len(), 5_000);
        assert_eq!(f.len(), 4_999);
    }

    #[test]
    fn chunks_yield_live_records_in_id_order() {
        let mut f = RecordFile::new(24);
        for i in 0..1_000u64 {
            f.alloc(&i.to_le_bytes());
        }
        for id in (0..1_000).step_by(3) {
            f.free(id);
        }
        let scanned: Vec<u64> = f
            .chunks()
            .flatten()
            .map(|(id, rec)| {
                assert_eq!(&rec[..8], &id.to_le_bytes(), "record travels with its id");
                id
            })
            .collect();
        assert!(f.chunks().count() > 1, "spans several pages");
        assert_eq!(scanned, f.iter_ids().collect::<Vec<_>>());
        assert_eq!(scanned.len() as u64, f.len());
    }
}
