//! Partitioning scheme and routing metadata.
//!
//! ## Id scheme
//!
//! A composite id interleaves the shard index into the low digits of the
//! inner engine's id: `composite = local * N + shard`. Decoding is two
//! integer ops, any shard count works (no bit budget), and with `N = 1` the
//! composite ids *are* the inner ids — the 1-shard composite is bit-
//! compatible with the unsharded engine, which the equivalence suite
//! exploits.
//!
//! ## Vertex placement
//!
//! Bulk-loaded vertices are placed by a hash of their canonical id
//! ([`shard_of_canonical`]), so placement is deterministic for a dataset
//! regardless of load order. Dynamically added vertices (no canonical id)
//! are spread round-robin by the composite's atomic counter.
//!
//! ## Cut edges and ghost vertices
//!
//! Every edge is stored on exactly one shard: the shard **owning its source
//! vertex** (so all out-edges of a vertex are local to its owner — `out()`
//! never crosses a shard). When the destination lives elsewhere, the source
//! shard materializes a **ghost vertex** — a placeholder with the reserved
//! label [`GHOST_LABEL`], no properties, and never any out-edges — to stand
//! in for the remote endpoint. The [`Meta`] maps translate between a
//! ghost's shard-local id and the true composite id of the vertex it
//! shadows. In-direction queries (`in()`, `both()`, in-degree) gather over
//! every shard where the vertex has a presence (its owner plus every shard
//! holding a ghost of it), which is exactly the set of shards that can
//! store edges pointing at it.
//!
//! Ghosts are invisible: scans filter them, counts subtract them, property
//! and label searches cannot match them (no properties, reserved label),
//! and every id leaving the composite is translated back to the true
//! composite id. Removing a vertex removes its ghosts (and their in-edges)
//! everywhere.

use gm_model::api::GraphSnapshot;
use gm_model::fxmap::FxHashMap;
use gm_model::{Dataset, Eid, GdbError, GdbResult, Vid};

/// Reserved label of ghost vertices. No generator or workload uses it; a
/// user dataset that does would make ghosts indistinguishable from data,
/// so [`partition`] rejects it.
pub const GHOST_LABEL: &str = "__gm_ghost__";

/// Which shard owns a bulk-loaded vertex (splitmix64 of the canonical id,
/// reduced mod the shard count) — deterministic, load-order independent,
/// and well spread even for the generators' dense sequential ids.
pub fn shard_of_canonical(canonical: u64, shards: usize) -> usize {
    (splitmix64(canonical) % shards as u64) as usize
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Compose a shard-local vertex id into the composite id space.
pub fn encode_vid(local: Vid, shard: usize, shards: usize) -> Vid {
    Vid(local.0 * shards as u64 + shard as u64)
}

/// Split a composite vertex id into (shard-local id, shard index).
pub fn decode_vid(v: Vid, shards: usize) -> (Vid, usize) {
    (Vid(v.0 / shards as u64), (v.0 % shards as u64) as usize)
}

/// Compose a shard-local edge id into the composite id space.
pub fn encode_eid(local: Eid, shard: usize, shards: usize) -> Eid {
    Eid(local.0 * shards as u64 + shard as u64)
}

/// Split a composite edge id into (shard-local id, shard index).
pub fn decode_eid(e: Eid, shards: usize) -> (Eid, usize) {
    (Eid(e.0 / shards as u64), (e.0 % shards as u64) as usize)
}

/// Routing metadata shared by the locked composite and pinned views.
///
/// Cloned wholesale into every pinned snapshot view, so it holds only what
/// reads need: the ghost translations plus the canonical-id resolution
/// tables (which inner engines cannot answer — sub-dataset canonical ids
/// are shard-local).
#[derive(Debug, Clone, Default)]
pub struct Meta {
    /// Shard count (denormalized for the id math).
    pub shards: usize,
    /// Per shard: composite vid of a remote vertex → its local ghost id.
    pub ghosts: Vec<FxHashMap<u64, Vid>>,
    /// Per shard: local ghost id → composite vid of the vertex it shadows.
    pub rev: Vec<FxHashMap<u64, u64>>,
    /// Global canonical vertex id → composite vid (bulk-loaded vertices).
    pub vertex_resolve: FxHashMap<u64, u64>,
    /// Composite vid → global canonical id (to purge `vertex_resolve` on
    /// vertex removal, so a deleted vertex stops resolving — as it does on
    /// an unsharded engine).
    pub vertex_canon: FxHashMap<u64, u64>,
    /// Global canonical edge id → composite eid.
    pub edge_resolve: FxHashMap<u64, u64>,
    /// Composite eid → global canonical id (purged on edge removal).
    pub edge_canon: FxHashMap<u64, u64>,
    /// `shard.ghost_translations` registry counter, resolved once per meta
    /// (clones share the underlying atomic). `None` under `GM_OBS=off`, so
    /// the translation hot path pays nothing when observability is off.
    ghost_translations: Option<gm_obs::Counter>,
}

impl Meta {
    /// Empty metadata for `shards` partitions.
    pub fn new(shards: usize) -> Meta {
        Meta {
            shards,
            ghosts: vec![FxHashMap::default(); shards],
            rev: vec![FxHashMap::default(); shards],
            vertex_resolve: FxHashMap::default(),
            vertex_canon: FxHashMap::default(),
            edge_resolve: FxHashMap::default(),
            edge_canon: FxHashMap::default(),
            ghost_translations: gm_obs::counters_on()
                .then(|| gm_obs::global().counter("shard.ghost_translations")),
        }
    }

    /// Translate a shard-local vertex id coming *out* of shard `shard` to
    /// its composite id: ghosts translate through the reverse map, real
    /// vertices through the id arithmetic.
    pub fn to_composite(&self, shard: usize, local: Vid) -> Vid {
        match self.rev[shard].get(&local.0) {
            Some(composite) => {
                if let Some(c) = &self.ghost_translations {
                    c.inc();
                }
                Vid(*composite)
            }
            None => encode_vid(local, shard, self.shards),
        }
    }

    /// The local id of composite vertex `v` on `shard`, when it has one:
    /// its decoded local id on the owner shard, its ghost id on any shard
    /// holding a ghost, `None` elsewhere.
    pub fn local_on(&self, shard: usize, v: Vid) -> Option<Vid> {
        let (local, owner) = decode_vid(v, self.shards);
        if owner == shard {
            Some(local)
        } else {
            self.ghosts[shard].get(&v.0).copied()
        }
    }

    /// Shards where composite vertex `v` has a local id, with that id:
    /// the owner first, then every shard ghosting it — exactly the shards
    /// that can store edges pointing at it.
    pub fn presence(&self, v: Vid) -> Vec<(usize, Vid)> {
        let mut out = Vec::with_capacity(2);
        let (local, owner) = decode_vid(v, self.shards);
        out.push((owner, local));
        for (s, ghosts) in self.ghosts.iter().enumerate() {
            if s != owner {
                if let Some(g) = ghosts.get(&v.0) {
                    out.push((s, *g));
                }
            }
        }
        out
    }

    /// Record that `ghost` (a local id on `shard`) shadows composite `v`.
    pub fn add_ghost(&mut self, shard: usize, v: Vid, ghost: Vid) {
        self.ghosts[shard].insert(v.0, ghost);
        self.rev[shard].insert(ghost.0, v.0);
    }

    /// Forget `shard`'s ghost of composite `v`, returning its local id.
    pub fn remove_ghost(&mut self, shard: usize, v: Vid) -> Option<Vid> {
        let ghost = self.ghosts[shard].remove(&v.0)?;
        self.rev[shard].remove(&ghost.0);
        Some(ghost)
    }

    /// Number of ghost placeholders on `shard` (subtracted from counts,
    /// filtered from scans).
    pub fn ghost_count(&self, shard: usize) -> u64 {
        self.ghosts[shard].len() as u64
    }

    /// Forget the resolution entries of a removed vertex.
    pub fn purge_vertex(&mut self, v: Vid) {
        if let Some(canonical) = self.vertex_canon.remove(&v.0) {
            self.vertex_resolve.remove(&canonical);
        }
    }

    /// Forget the resolution entries of a removed edge.
    pub fn purge_edge(&mut self, e: Eid) {
        if let Some(canonical) = self.edge_canon.remove(&e.0) {
            self.edge_resolve.remove(&canonical);
        }
    }

    /// Approximate bytes held by the routing maps (for `space()`).
    pub fn approx_bytes(&self) -> u64 {
        let entries = self.ghosts.iter().map(|m| m.len() as u64).sum::<u64>() * 2
            + self.vertex_resolve.len() as u64 * 2
            + self.edge_resolve.len() as u64 * 2;
        entries * 16
    }
}

/// The dataset split: one sub-dataset per shard (shard-local canonical
/// ids), plus the bookkeeping needed to build a [`Meta`] once the shards
/// are loaded.
pub struct Partitioned {
    /// One dataset per shard; ghost vertices included with [`GHOST_LABEL`].
    pub subs: Vec<Dataset>,
    /// Global canonical vertex id → (shard, shard-local canonical id).
    pub vertex_loc: Vec<(usize, u64)>,
    /// Global canonical edge id → (shard, shard-local canonical id).
    pub edge_loc: Vec<(usize, u64)>,
    /// Ghost placements: (shard, global canonical id of the shadowed
    /// vertex, shard-local canonical id of the ghost).
    pub ghosts: Vec<(usize, u64, u64)>,
}

/// Split a dataset across `shards` partitions: vertices by canonical-id
/// hash, each edge onto its source's shard, ghosts materialized for cut
/// destinations.
pub fn partition(data: &Dataset, shards: usize) -> GdbResult<Partitioned> {
    if data.vertices.iter().any(|v| v.label == GHOST_LABEL) {
        return Err(GdbError::Invalid(format!(
            "dataset uses the reserved ghost label {GHOST_LABEL:?}"
        )));
    }
    let mut subs: Vec<Dataset> = (0..shards)
        .map(|s| Dataset::new(format!("{}#s{s}", data.name)))
        .collect();
    let mut vertex_loc = Vec::with_capacity(data.vertices.len());
    for v in &data.vertices {
        let s = shard_of_canonical(v.id, shards);
        let local = subs[s].add_vertex(v.label.clone(), v.props.clone());
        vertex_loc.push((s, local));
    }
    let mut edge_loc = Vec::with_capacity(data.edges.len());
    let mut ghosts = Vec::new();
    // (shard, global dst) → local ghost canonical id, deduplicated.
    let mut ghost_at: FxHashMap<(u64, u64), u64> = FxHashMap::default();
    for e in &data.edges {
        let (s, local_src) = vertex_loc[e.src as usize];
        let (dst_shard, dst_local) = vertex_loc[e.dst as usize];
        let local_dst = if dst_shard == s {
            dst_local
        } else {
            *ghost_at.entry((s as u64, e.dst)).or_insert_with(|| {
                let g = subs[s].add_vertex(GHOST_LABEL, Vec::new());
                ghosts.push((s, e.dst, g));
                g
            })
        };
        let local = subs[s].add_edge(local_src, local_dst, e.label.clone(), e.props.clone());
        edge_loc.push((s, local));
    }
    Ok(Partitioned {
        subs,
        vertex_loc,
        edge_loc,
        ghosts,
    })
}

/// Build the routing metadata by resolving the partition's bookkeeping
/// against the freshly loaded shard engines.
pub fn build_meta(parts: &Partitioned, views: &[&dyn GraphSnapshot]) -> GdbResult<Meta> {
    let shards = views.len();
    let mut meta = Meta::new(shards);
    let corrupt = |what: String| GdbError::Corrupt(format!("sharded load: {what}"));
    for (canonical, (s, local_canonical)) in parts.vertex_loc.iter().enumerate() {
        let local = views[*s]
            .resolve_vertex(*local_canonical)
            .ok_or_else(|| corrupt(format!("shard {s} lost loaded vertex {local_canonical}")))?;
        let composite = encode_vid(local, *s, shards).0;
        meta.vertex_resolve.insert(canonical as u64, composite);
        meta.vertex_canon.insert(composite, canonical as u64);
    }
    for (s, shadowed, local_canonical) in &parts.ghosts {
        let local = views[*s]
            .resolve_vertex(*local_canonical)
            .ok_or_else(|| corrupt(format!("shard {s} lost ghost vertex {local_canonical}")))?;
        let composite = *meta
            .vertex_resolve
            .get(shadowed)
            .ok_or_else(|| corrupt(format!("ghost shadows unknown vertex {shadowed}")))?;
        meta.add_ghost(*s, Vid(composite), local);
    }
    for (canonical, (s, local_canonical)) in parts.edge_loc.iter().enumerate() {
        let local = views[*s]
            .resolve_edge(*local_canonical)
            .ok_or_else(|| corrupt(format!("shard {s} lost loaded edge {local_canonical}")))?;
        let composite = encode_eid(local, *s, shards).0;
        meta.edge_resolve.insert(canonical as u64, composite);
        meta.edge_canon.insert(composite, canonical as u64);
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn id_math_round_trips() {
        for shards in [1usize, 2, 3, 7] {
            for raw in [0u64, 1, 5, 1000] {
                for s in 0..shards {
                    let v = encode_vid(Vid(raw), s, shards);
                    assert_eq!(decode_vid(v, shards), (Vid(raw), s));
                    let e = encode_eid(Eid(raw), s, shards);
                    assert_eq!(decode_eid(e, shards), (Eid(raw), s));
                }
            }
        }
        // One shard: composite ids are the inner ids.
        assert_eq!(encode_vid(Vid(42), 0, 1), Vid(42));
    }

    #[test]
    fn canonical_placement_is_deterministic_and_spread() {
        let shards = 4;
        let a: Vec<usize> = (0..1000).map(|c| shard_of_canonical(c, shards)).collect();
        let b: Vec<usize> = (0..1000).map(|c| shard_of_canonical(c, shards)).collect();
        assert_eq!(a, b);
        for s in 0..shards {
            let n = a.iter().filter(|&&x| x == s).count();
            assert!(
                (150..=350).contains(&n),
                "shard {s} got {n} of 1000 vertices — placement badly skewed"
            );
        }
    }

    #[test]
    fn partition_covers_every_vertex_and_edge_once() {
        let data = testkit::chain_dataset(100);
        for shards in [1usize, 2, 4] {
            let parts = partition(&data, shards).unwrap();
            let real: usize = parts
                .subs
                .iter()
                .map(|d| d.vertices.iter().filter(|v| v.label != GHOST_LABEL).count())
                .sum();
            assert_eq!(real, 100, "{shards} shards: every vertex placed once");
            let edges: usize = parts.subs.iter().map(|d| d.edge_count()).sum();
            assert_eq!(edges, 99, "{shards} shards: every edge stored once");
            for sub in &parts.subs {
                sub.validate()
                    .unwrap_or_else(|e| panic!("invalid sub: {e}"));
            }
            if shards == 1 {
                assert!(parts.ghosts.is_empty(), "one shard cuts no edges");
            }
        }
        // A chain across 2+ shards must cut somewhere.
        let parts = partition(&data, 4).unwrap();
        assert!(!parts.ghosts.is_empty(), "4-way chain split has cut edges");
    }

    #[test]
    fn edges_land_on_their_sources_shard() {
        let data = testkit::tiny_dataset();
        let parts = partition(&data, 3).unwrap();
        for (e, (s, local)) in parts.edge_loc.iter().enumerate() {
            let global_src = data.edges[e].src;
            assert_eq!(
                *s,
                shard_of_canonical(global_src, 3),
                "edge {e} must live on its source's shard"
            );
            let sub_edge = &parts.subs[*s].edges[*local as usize];
            assert_eq!(sub_edge.label, data.edges[e].label);
        }
    }

    #[test]
    fn ghost_label_is_reserved() {
        let mut data = testkit::tiny_dataset();
        data.vertices[0].label = GHOST_LABEL.into();
        assert!(matches!(partition(&data, 2), Err(GdbError::Invalid(_))));
    }
}
