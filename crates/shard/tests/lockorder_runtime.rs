//! Runtime deadlock-detector coverage with the shard crate's real ranks:
//! acquiring the meta lock while a shard lock is held is the inversion the
//! detector must catch (debug builds only — in release the tracker is a
//! zero-cost no-op).

use gm_model::lockorder::{acquire, LockRank};

/// The documented order is panic-free end to end, including the innermost
/// leaf rank used by the mvcc txn log and pin table.
#[test]
fn documented_order_is_accepted() {
    let _driver = acquire(LockRank::Driver, "test driver");
    let _meta = acquire(LockRank::Meta, "test meta");
    let _s0 = acquire(LockRank::Shard(0), "test shard 0");
    let _s1 = acquire(LockRank::Shard(1), "test shard 1");
    let _leaf = acquire(LockRank::Leaf, "test txn log");
}

/// Shards-before-meta must panic in debug builds, naming both sites so the
/// report points at the two acquisitions to reorder.
#[cfg(debug_assertions)]
#[test]
fn shard_before_meta_panics_naming_both_sites() {
    let err = std::thread::spawn(|| {
        let _shard = acquire(LockRank::Shard(3), "test shard write");
        let _meta = acquire(LockRank::Meta, "test late meta");
    })
    .join()
    .expect_err("inversion must panic the acquiring thread");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the formatted violation");
    assert!(
        msg.contains("test shard write") && msg.contains("test late meta"),
        "both sites must be named: {msg}"
    );
}
