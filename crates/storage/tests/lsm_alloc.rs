//! The LSM read path is zero-copy: what a scan or a lookup allocates does
//! not grow with the number of cells it visits. Counted with
//! `gm_model::testkit`'s wrapping global allocator, per thread so the
//! harness's other threads do not leak into the count.

use gm_model::testkit::{self, CountingAlloc};
use gm_storage::lsm::{LsmConfig, LsmTable};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    testkit::allocations(f).calls
}

/// `rows` four-cell rows over a memtable and at least three runs, every
/// fifth row deleted again.
fn table(rows: u64) -> LsmTable {
    let mut t = LsmTable::new(LsmConfig {
        memtable_limit: (rows as usize * 4 / 5).max(4),
        max_runs: 8,
    });
    for row in 0..rows {
        for column in 0..4u8 {
            let mut key = row.to_be_bytes().to_vec();
            key.push(column);
            t.put(&key, &[column; 12]);
        }
    }
    for row in (0..rows).step_by(5) {
        let mut key = row.to_be_bytes().to_vec();
        key.push(1);
        t.delete(&key);
    }
    assert!(t.run_count() >= 3, "{} runs", t.run_count());
    t
}

#[test]
fn reads_allocate_per_scan_not_per_cell() {
    let (small, large) = (table(50), table(5_000));
    let sources = large.run_count() as u64 + 1;
    let full = |t: &LsmTable| {
        let mut bytes = 0;
        let n = allocations(|| {
            for (key, value) in t.scan_range(&[], None) {
                bytes += key.len() + value.len();
            }
        });
        assert!(bytes > 0);
        n
    };
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

    let mut key = prefix.to_vec();
    key.push(2);
    let mut hit = None;
    assert_eq!(allocations(|| hit = large.get(&key)), 0, "get is borrowed");
    assert_eq!(hit, Some(&[2u8; 12][..]));
}
