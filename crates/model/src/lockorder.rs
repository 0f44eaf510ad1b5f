//! Runtime lock-order enforcement (debug builds only).
//!
//! The workspace has a documented lock hierarchy — driver/host locks outside
//! everything, a composite's meta lock before its shard locks (ascending),
//! MVCC cell locks inside those, leaf bookkeeping (purge queues, pin tables)
//! innermost — but until now nothing *enforced* it. This module is the
//! runtime half of that enforcement (the static half is the `gm-check`
//! lint over `// gm-lock:` markers): every ranked acquisition site calls
//! [`acquire`] just before blocking on the lock, and in debug builds a
//! thread-local stack of held ranks panics the moment a thread attempts an
//! acquisition out of order — naming both the offending site and the site
//! that holds the conflicting lock. Because the check runs *before* the
//! thread blocks, a would-be deadlock becomes a deterministic panic in the
//! test suite instead of a hung run.
//!
//! In release builds [`acquire`] compiles to nothing: [`LockToken`] is a
//! zero-sized type and the thread-local stack does not exist, so the
//! instrumented hot paths (this piggybacks on the same sites the
//! [`lockwait`](crate::lockwait) span shim times) pay zero cost.
//!
//! ## The hierarchy
//!
//! Ranks must be acquired in strictly increasing key order per thread:
//!
//! | rank                  | guards                                                  |
//! |-----------------------|---------------------------------------------------------|
//! | `Driver`              | harness/server outer `RwLock` around a hosted engine    |
//! | `Meta`                | a composite's routing table (`ShardedGraph`/`Source`)   |
//! | `Shard(i)`            | one shard's engine lock; multi-shard paths go ascending |
//! | `CellWriter`          | an MVCC cell's working/live mutex                       |
//! | `CellPublished`       | an MVCC cell's published-view `RwLock`                  |
//! | `Leaf`                | innermost bookkeeping: purge queues, pin tables         |
//!
//! `Shard(i)` then `Shard(j)` is legal only for `j > i` — the ascending
//! order `wlock_all` uses — so two writers each holding one shard and
//! wanting the other are caught on the spot.

/// A level in the workspace lock hierarchy. See the module docs for what
/// each rank guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockRank {
    /// Outer harness/server lock around a hosted engine.
    Driver,
    /// Composite routing/meta lock.
    Meta,
    /// One shard's engine lock (index orders multi-shard acquisition).
    Shard(u32),
    /// MVCC cell working/live mutex.
    CellWriter,
    /// MVCC cell published-view lock.
    CellPublished,
    /// Innermost bookkeeping (purge queue, pin table).
    Leaf,
}

impl LockRank {
    /// Total order key: class in the high bits, shard index in the low bits,
    /// so `Shard(0) < Shard(1) < CellWriter` falls out of integer compare.
    /// Only the debug-build tracker orders ranks.
    #[cfg(debug_assertions)]
    fn key(self) -> u64 {
        match self {
            LockRank::Driver => 0,
            LockRank::Meta => 1 << 32,
            LockRank::Shard(i) => (2 << 32) | u64::from(i),
            LockRank::CellWriter => 3 << 32,
            LockRank::CellPublished => 4 << 32,
            LockRank::Leaf => 5 << 32,
        }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockRank;
    use std::cell::RefCell;

    struct Held {
        key: u64,
        site: &'static str,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Debug-build token: pops its stack entry on drop. Guards are not
    /// always released LIFO (a caller may drop a meta guard early), so the
    /// entry is removed by id, not by position.
    pub struct LockToken {
        id: u64,
    }

    pub fn acquire(rank: LockRank, site: &'static str) -> LockToken {
        let key = rank.key();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last() {
                if key <= top.key {
                    panic!(
                        "lock-order violation: acquiring {rank:?} at `{site}` \
                         while `{}` holds a lock of equal or higher rank \
                         (meta before shards, shards ascending, cells and \
                         leaves innermost)",
                        top.site
                    );
                }
            }
            let id = NEXT_ID.with(|n| {
                let mut n = n.borrow_mut();
                *n += 1;
                *n
            });
            held.push(Held { key, site, id });
            LockToken { id }
        })
    }

    impl Drop for LockToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|h| h.id == self.id) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Number of ranked locks the current thread holds (tests only).
    pub fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::LockRank;

    /// Release-build token: zero-sized, no tracking.
    pub struct LockToken;

    #[inline(always)]
    pub fn acquire(_rank: LockRank, _site: &'static str) -> LockToken {
        LockToken
    }

    /// Number of ranked locks the current thread holds (always 0 when the
    /// detector is compiled out).
    pub fn held_count() -> usize {
        0
    }
}

pub use imp::{acquire, held_count, LockToken};

/// A lock guard bundled with the [`LockToken`] that ranked its acquisition.
///
/// Helpers that *return* guards (`ShardedGraph::rlock`, `meta_read`, …)
/// can't leave the token in their own scope — it must live exactly as long
/// as the guard — so they wrap the pair. Derefs to whatever the guard
/// derefs to, so call sites are unchanged.
pub struct Ranked<G> {
    guard: G,
    _token: LockToken,
}

impl<G> Ranked<G> {
    /// Bundle a guard with the token acquired just before it.
    pub fn new(guard: G, token: LockToken) -> Self {
        Ranked {
            guard,
            _token: token,
        }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for Ranked<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_acquisition_is_clean() {
        let _d = acquire(LockRank::Driver, "test driver");
        let _m = acquire(LockRank::Meta, "test meta");
        let _s0 = acquire(LockRank::Shard(0), "test shard 0");
        let _s1 = acquire(LockRank::Shard(1), "test shard 1");
        let _w = acquire(LockRank::CellWriter, "test writer");
        let _p = acquire(LockRank::CellPublished, "test published");
        let _l = acquire(LockRank::Leaf, "test leaf");
        #[cfg(debug_assertions)]
        assert_eq!(held_count(), 7);
    }

    #[test]
    fn release_reopens_the_rank() {
        {
            let _m = acquire(LockRank::Meta, "test meta");
        }
        // Meta released: re-acquiring it (and ranks below) is fine.
        let _d = acquire(LockRank::Driver, "test driver");
        let _m = acquire(LockRank::Meta, "test meta again");
        assert_eq!(held_count(), if cfg!(debug_assertions) { 2 } else { 0 });
    }

    #[test]
    fn non_lifo_release_is_tracked() {
        let m = acquire(LockRank::Meta, "test meta");
        let _s = acquire(LockRank::Shard(3), "test shard 3");
        drop(m); // meta released while the shard guard is still held
        #[cfg(debug_assertions)]
        assert_eq!(held_count(), 1);
        // A later thread-local acquisition of Shard(5) is still ordered
        // against the held Shard(3).
        let _s5 = acquire(LockRank::Shard(5), "test shard 5");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_naming_both_sites() {
        let err = std::panic::catch_unwind(|| {
            let _s = acquire(LockRank::Shard(2), "site A: shard write");
            let _m = acquire(LockRank::Meta, "site B: meta write");
        })
        .expect_err("shard-before-meta must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("site A"), "panic names the holder: {msg}");
        assert!(msg.contains("site B"), "panic names the violator: {msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_shards_panic() {
        let err = std::panic::catch_unwind(|| {
            let _a = acquire(LockRank::Shard(4), "shard 4");
            let _b = acquire(LockRank::Shard(1), "shard 1");
        })
        .expect_err("descending shard order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("shard 4"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_shard_twice_panics() {
        assert!(std::panic::catch_unwind(|| {
            let _a = acquire(LockRank::Shard(0), "shard 0 first");
            let _b = acquire(LockRank::Shard(0), "shard 0 again");
        })
        .is_err());
    }

    #[test]
    fn threads_have_independent_stacks() {
        let _m = acquire(LockRank::Leaf, "leaf on main thread");
        std::thread::spawn(|| {
            // Leaf held on the spawning thread doesn't constrain this one.
            let _d = acquire(LockRank::Driver, "driver on worker");
            let _l = acquire(LockRank::Leaf, "leaf on worker");
        })
        .join()
        .expect("worker thread is independent of the main thread's stack");
    }
}
