//! The LSM read path is zero-copy: what a scan or a lookup allocates does
//! not grow with the number of cells it visits, whether the scan merges
//! overlapping runs or walks key-disjoint ones. Counted with
//! `gm_model::testkit`'s wrapping global allocator, per thread so the
//! harness's other threads do not leak into the count.

use gm_model::testkit::{self, CountingAlloc};
use gm_storage::lsm::{LsmConfig, LsmTable};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    testkit::allocations(f).calls
}

fn cell_key(row: u64, column: u8) -> Vec<u8> {
    let mut key = row.to_be_bytes().to_vec();
    key.push(column);
    key
}

/// A table over at least three runs whose memtable flushes every
/// `rows * 4 / 5` cells.
fn config(rows: u64) -> LsmConfig {
    LsmConfig {
        memtable_limit: (rows as usize * 4 / 5).max(4),
        max_runs: 8,
    }
}

/// `rows` four-cell rows over a memtable and at least three runs, every
/// fifth row deleted again: the runs and the memtable overlap.
fn table(rows: u64) -> LsmTable {
    let mut t = LsmTable::new(config(rows));
    for row in 0..rows {
        for column in 0..4u8 {
            t.put(&cell_key(row, column), &[column; 12]);
        }
    }
    for row in (0..rows).step_by(5) {
        t.delete(&cell_key(row, 1));
    }
    assert!(t.run_count() >= 3, "{} runs", t.run_count());
    assert!(t.scan_range(&[], None).merges());
    t
}

/// The same live cells put in key order, each deleted cell a tombstone in
/// its place: key-disjoint runs and a memtable above them.
fn disjoint_table(rows: u64) -> LsmTable {
    let mut t = LsmTable::new(config(rows));
    for row in 0..rows {
        for column in 0..4u8 {
            match (row % 5, column) {
                (0, 1) => t.delete(&cell_key(row, column)),
                _ => t.put(&cell_key(row, column), &[column; 12]),
            }
        }
    }
    assert!(t.run_count() >= 3, "{} runs", t.run_count());
    assert!(!t.scan_range(&[], None).merges());
    t
}

/// Allocations of one whole-store scan of `t`.
fn full(t: &LsmTable) -> u64 {
    let mut bytes = 0;
    let n = allocations(|| {
        for (key, value) in t.scan_range(&[], None) {
            bytes += key.len() + value.len();
        }
    });
    assert!(bytes > 0);
    n
}

#[test]
fn reads_allocate_per_scan_not_per_cell() {
    let (small, large) = (table(50), table(5_000));
    let sources = large.run_count() as u64 + 1;
    // The first scan also resolves the `storage.lsm.*` counter handles.
    full(&small);
    let (few, many) = (full(&small), full(&large));
    assert_eq!(few, many, "100× the cells, the same allocations");
    assert!(many <= sources, "{many} allocations over {sources} sources");

    let prefix = 4_321u64.to_be_bytes();
    let mut cells = 0;
    let n = allocations(|| cells = large.scan_prefix(&prefix).count());
    assert_eq!(cells, 4);
    assert!(n <= sources, "{n} allocations for a prefix scan");

    let key = cell_key(4_321, 2);
    let mut hit = None;
    assert_eq!(allocations(|| hit = large.get(&key)), 0, "get is borrowed");
    assert_eq!(hit, Some(&[2u8; 12][..]));
}

#[test]
fn a_walk_allocates_no_more_than_a_merge() {
    let (small, large) = (disjoint_table(50), disjoint_table(5_000));
    full(&small);
    let (few, many) = (full(&small), full(&large));
    assert_eq!(few, many, "100× the cells, the same allocations");
    let merged = full(&table(5_000));
    assert!(many <= merged, "a walk {many}, a merge {merged}");

    let key = cell_key(4_321, 2);
    let mut hit = None;
    assert_eq!(allocations(|| hit = large.get(&key)), 0, "get is borrowed");
    assert_eq!(hit, Some(&[2u8; 12][..]));
}
