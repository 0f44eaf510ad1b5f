//! # gm-storage — storage substrates for the graphmark engines
//!
//! The paper's systems delegate their physical storage to very different
//! structures (Table 1): fixed-size linked records (Neo4j), append-only
//! clusters with indirection (OrientDB), value bitmaps (Sparksee), JSON
//! documents + endpoint hash indexes (ArangoDB), B+Tree-indexed statement
//! journals (BlazeGraph), relational tables (Sqlg/Postgres), and
//! adjacency-list rows over an LSM column store (Titan/Cassandra).
//!
//! This crate implements each substrate once, from scratch, so the engine
//! crates can focus purely on the *graph layout* decisions the paper
//! analyses:
//!
//! * [`bptree`] — in-memory B+Tree with range scans;
//! * [`bitmap`] — compressed (roaring-style) bitmaps;
//! * [`lsm`] — log-structured merge table with tombstones and compaction;
//! * [`records`] — fixed-size record files where id == offset, cheap to
//!   clone;
//! * [`pagestore`] — append-only record store with logical→physical
//!   indirection;
//! * [`hashidx`] — open-addressing multimap for id→id indexes;
//! * [`segvec`] — paged vector whose clones share pages and whose writes
//!   copy only the page they land in (under [`records`], the columnar
//!   engine's id columns and the linked engine's side columns);
//! * [`codec`] — varint / zigzag / delta encoding helpers.

pub mod bitmap;
pub mod bptree;
pub mod codec;
pub mod hashidx;
pub mod lsm;
pub mod pagestore;
pub mod records;
pub mod segvec;
pub mod valcodec;

pub use bitmap::Bitmap;
pub use bptree::BPlusTree;
pub use hashidx::HashIndex;
pub use lsm::LsmTable;
pub use pagestore::PageStore;
pub use records::RecordFile;
pub use segvec::SegVec;
