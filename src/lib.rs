//! # graphmark — microbenchmark-based graph database evaluation
//!
//! A Rust reproduction of *Beyond Macrobenchmarks: Microbenchmark-based Graph
//! Database Evaluation* (Lissandrini, Brugnara & Velegrakis, PVLDB 12(4),
//! 2018). This facade crate re-exports the whole workspace:
//!
//! * [`model`] — graph data model, JSON/GraphSON, the [`model::GraphDb`] trait;
//! * [`storage`] — storage substrates (B+Tree, bitmaps, LSM, record files);
//! * seven engines ([`engines`]), one per architecture class of the paper;
//! * [`traversal`] — the Gremlin-like step machine and graph algorithms;
//! * [`datasets`] — generators for Yeast/MiCo/Freebase/LDBC-shaped data;
//! * [`core`] — the microbenchmark framework (catalog, runner, reports);
//! * [`workload`] — the concurrent multi-client driver (closed/open loop,
//!   latency histograms, scalability sweeps).
//!
//! One workspace crate sits *above* this facade and is therefore not
//! re-exported: `gm-net` (`crates/net`), the socket server front-end
//! (`gm-server` bin) and remote-engine client for network-attached
//! benchmarking — it links this crate for the engine registry.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/concurrent_clients.rs` for the multi-client driver, and
//! `crates/net/examples/remote_clients.rs` for driving engines over a
//! socket.

pub use gm_core as core;
pub use gm_datasets as datasets;
pub use gm_model as model;
pub use gm_mvcc as mvcc;
pub use gm_shard as shard;
pub use gm_storage as storage;
pub use gm_traversal as traversal;
pub use gm_workload as workload;

/// The seven storage engines, each reproducing the physical architecture of
/// one system from the paper (Table 1).
pub mod engines {
    pub use engine_bitmap as bitmap;
    pub use engine_cluster as cluster;
    pub use engine_columnar as columnar;
    pub use engine_document as document;
    pub use engine_linked as linked;
    pub use engine_relational as relational;
    pub use engine_triple as triple;
}

/// Engine registry: the nine engine variants the benchmark compares
/// (seven architectures; the linked and columnar engines come in the two
/// versions the paper tests).
pub mod registry {
    use gm_model::GraphDb;
    use gm_mvcc::{CowCell, SnapshotMode, SnapshotSource};
    use gm_shard::{ShardedDyn, ShardedGraph, ShardedSource};

    /// One engine variant under test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum EngineKind {
        /// Neo4j 1.9-class.
        LinkedV1,
        /// Neo4j 3.0-class.
        LinkedV2,
        /// OrientDB-class.
        Cluster,
        /// Sparksee-class.
        Bitmap,
        /// ArangoDB-class.
        Document,
        /// BlazeGraph-class.
        Triple,
        /// Sqlg/Postgres-class.
        Relational,
        /// Titan 0.5-class.
        ColumnarV05,
        /// Titan 1.0-class.
        ColumnarV10,
    }

    impl EngineKind {
        /// All nine variants, in Table 1 order.
        pub const ALL: [EngineKind; 9] = [
            EngineKind::Document,
            EngineKind::Triple,
            EngineKind::LinkedV1,
            EngineKind::LinkedV2,
            EngineKind::Cluster,
            EngineKind::Bitmap,
            EngineKind::Relational,
            EngineKind::ColumnarV05,
            EngineKind::ColumnarV10,
        ];

        /// Stable display name (matches `GraphDb::name`).
        pub fn name(&self) -> &'static str {
            match self {
                EngineKind::LinkedV1 => "linked(v1)",
                EngineKind::LinkedV2 => "linked(v2)",
                EngineKind::Cluster => "cluster",
                EngineKind::Bitmap => "bitmap",
                EngineKind::Document => "document",
                EngineKind::Triple => "triple",
                EngineKind::Relational => "relational",
                EngineKind::ColumnarV05 => "columnar(v05)",
                EngineKind::ColumnarV10 => "columnar(v10)",
            }
        }

        /// Which paper system this engine emulates.
        pub fn emulates(&self) -> &'static str {
            match self {
                EngineKind::LinkedV1 => "Neo4j 1.9",
                EngineKind::LinkedV2 => "Neo4j 3.0",
                EngineKind::Cluster => "OrientDB 2.2",
                EngineKind::Bitmap => "Sparksee 5.1",
                EngineKind::Document => "ArangoDB 2.8",
                EngineKind::Triple => "BlazeGraph 2.1.4",
                EngineKind::Relational => "Sqlg 1.2 / Postgres 9.6",
                EngineKind::ColumnarV05 => "Titan 0.5",
                EngineKind::ColumnarV10 => "Titan 1.0",
            }
        }

        /// Instantiate a fresh, empty engine.
        pub fn make(&self) -> Box<dyn GraphDb> {
            match self {
                EngineKind::LinkedV1 => Box::new(engine_linked::LinkedGraph::v1()),
                EngineKind::LinkedV2 => Box::new(engine_linked::LinkedGraph::v2()),
                EngineKind::Cluster => Box::new(engine_cluster::ClusterGraph::new()),
                EngineKind::Bitmap => Box::new(engine_bitmap::BitmapGraph::new()),
                EngineKind::Document => Box::new(engine_document::DocumentGraph::new()),
                EngineKind::Triple => Box::new(engine_triple::TripleGraph::new()),
                EngineKind::Relational => Box::new(engine_relational::RelationalGraph::new()),
                EngineKind::ColumnarV05 => Box::new(engine_columnar::ColumnarGraph::v05()),
                EngineKind::ColumnarV10 => Box::new(engine_columnar::ColumnarGraph::v10()),
            }
        }

        /// Parse a display name back to a kind.
        pub fn parse(name: &str) -> Option<EngineKind> {
            EngineKind::ALL.iter().copied().find(|k| k.name() == name)
        }

        /// Instantiate a fresh, empty MVCC snapshot source for this engine:
        /// the engine in a copy-on-write [`CowCell`]. The columnar variants
        /// run on [`engine_columnar::SNAPSHOT_STORE`]'s small memtable, so
        /// the clone each dirty epoch pays stays bounded by the memtable.
        /// `SnapshotMode::Cow` is the only mode.
        pub fn make_snapshot_source(&self, mode: SnapshotMode) -> Box<dyn SnapshotSource> {
            let SnapshotMode::Cow = mode;
            let columnar = |variant| {
                engine_columnar::ColumnarGraph::with_store_config(
                    variant,
                    engine_columnar::SNAPSHOT_STORE,
                )
            };
            match self {
                EngineKind::LinkedV1 => Box::new(CowCell::new(engine_linked::LinkedGraph::v1())),
                EngineKind::LinkedV2 => Box::new(CowCell::new(engine_linked::LinkedGraph::v2())),
                EngineKind::Cluster => Box::new(CowCell::new(engine_cluster::ClusterGraph::new())),
                EngineKind::Bitmap => Box::new(CowCell::new(engine_bitmap::BitmapGraph::new())),
                EngineKind::Document => {
                    Box::new(CowCell::new(engine_document::DocumentGraph::new()))
                }
                EngineKind::Triple => Box::new(CowCell::new(engine_triple::TripleGraph::new())),
                EngineKind::Relational => {
                    Box::new(CowCell::new(engine_relational::RelationalGraph::new()))
                }
                EngineKind::ColumnarV05 => {
                    Box::new(CowCell::new(columnar(engine_columnar::Variant::V05)))
                }
                EngineKind::ColumnarV10 => {
                    Box::new(CowCell::new(columnar(engine_columnar::Variant::V10)))
                }
            }
        }

        /// Instantiate a fresh hash-partitioned composite of `shards` inner
        /// engines of this kind, each behind its own lock (`gm-shard`).
        /// With `shards == 1` the composite is bit-compatible with
        /// [`EngineKind::make`]'s engine — the sharding equivalence suite's
        /// baseline.
        pub fn make_sharded(&self, shards: usize) -> ShardedDyn {
            ShardedGraph::from_factory(shards, || self.make())
        }

        /// Instantiate a fresh snapshot-mode sharded composite: one MVCC
        /// cell (per [`EngineKind::make_snapshot_source`]) per shard, so
        /// writers to different shards never share a writer mutex and reads
        /// pin composite epochs (min over shard epochs).
        pub fn make_sharded_source(&self, shards: usize) -> ShardedSource {
            ShardedSource::from_factory(shards, || self.make_snapshot_source(SnapshotMode::Cow))
        }
    }
}
