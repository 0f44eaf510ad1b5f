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
//!
//! ## Canonical resolution
//!
//! The composite resolves canonical ids as every engine does, through a
//! [`Resolution`] — here filled with composite ids, since sub-dataset
//! canonical ids are shard-local. A loaded element resolves while it is
//! live: removing it retires its composite id, so when a later insert
//! reuses the slot (linked's `RecordFile` does) the canonical id does not
//! come to name the newcomer. Only ids a load handed out are retired —
//! removing a dynamically added element touches no routing state.

use std::sync::Arc;

use gm_model::fxmap::FxHashMap;
use gm_model::{Dataset, Eid, GdbError, GdbResult, Resolution, Vid};

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
/// Split by how it changes, so a clone (one per `ShardedSource` pin) costs
/// `shards + 2` refcounts whatever the graph's size (one more for the
/// translation counter's handle when counters are on):
///
/// * each shard's ghost translations sit behind their own `Arc`, and a
///   topology change `make_mut`s only the shard it touches — a copy only
///   while a pin still shares it, so the locked composite and the fleet,
///   which never pin, never copy;
/// * the canonical-id [`Resolution`] shares its frozen tables and its
///   removed-set the same way, so a pin resolves as of its epoch.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Shard count (denormalized for the id math).
    pub shards: usize,
    ghosts: Vec<Arc<Ghosts>>,
    /// Where the bulk load placed each canonical element, in composite ids.
    pub(crate) resolution: Resolution,
    /// `shard.ghost_translations` registry counter, resolved once per meta
    /// (clones share the underlying atomic). `None` under `GM_OBS=off`, so
    /// the translation hot path pays nothing when observability is off.
    ghost_translations: Option<gm_obs::Counter>,
}

/// One shard's ghost translations, both ways.
#[derive(Debug, Clone, Default)]
struct Ghosts {
    /// Composite vid of a remote vertex → its local ghost id.
    local: FxHashMap<u64, Vid>,
    /// Local ghost id → composite vid of the vertex it shadows.
    shadowed: FxHashMap<u64, u64>,
}

impl Meta {
    /// Empty metadata for `shards` partitions.
    pub fn new(shards: usize) -> Meta {
        Meta {
            shards,
            ghosts: vec![Arc::default(); shards],
            resolution: Resolution::default(),
            ghost_translations: gm_obs::counters_on()
                .then(|| gm_obs::global().counter("shard.ghost_translations")),
        }
    }

    /// Translate a shard-local vertex id coming *out* of shard `shard` to
    /// its composite id: ghosts translate through the reverse map, real
    /// vertices through the id arithmetic.
    pub fn to_composite(&self, shard: usize, local: Vid) -> Vid {
        match self.ghosts[shard].shadowed.get(&local.0) {
            Some(composite) => {
                if let Some(c) = &self.ghost_translations {
                    c.inc();
                }
                Vid(*composite)
            }
            None => encode_vid(local, shard, self.shards),
        }
    }

    /// Whether local vertex `local` on `shard` is a ghost placeholder.
    pub fn is_ghost(&self, shard: usize, local: Vid) -> bool {
        self.ghosts[shard].shadowed.contains_key(&local.0)
    }

    /// The local id of composite vertex `v` on `shard`, when it has one:
    /// its decoded local id on the owner shard, its ghost id on any shard
    /// holding a ghost, `None` elsewhere.
    pub fn local_on(&self, shard: usize, v: Vid) -> Option<Vid> {
        let (local, owner) = decode_vid(v, self.shards);
        if owner == shard {
            Some(local)
        } else {
            self.ghosts[shard].local.get(&v.0).copied()
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
                if let Some(g) = ghosts.local.get(&v.0) {
                    out.push((s, *g));
                }
            }
        }
        out
    }

    /// Record that `ghost` (a local id on `shard`) shadows composite `v`.
    pub fn add_ghost(&mut self, shard: usize, v: Vid, ghost: Vid) {
        let ghosts = Arc::make_mut(&mut self.ghosts[shard]);
        ghosts.local.insert(v.0, ghost);
        ghosts.shadowed.insert(ghost.0, v.0);
    }

    /// Forget `shard`'s ghost of composite `v`, returning its local id.
    pub fn remove_ghost(&mut self, shard: usize, v: Vid) -> Option<Vid> {
        let ghosts = Arc::make_mut(&mut self.ghosts[shard]);
        let ghost = ghosts.local.remove(&v.0)?;
        ghosts.shadowed.remove(&ghost.0);
        Some(ghost)
    }

    /// Number of ghost placeholders on `shard` (subtracted from counts,
    /// filtered from scans).
    pub fn ghost_count(&self, shard: usize) -> u64 {
        self.ghosts[shard].local.len() as u64
    }

    /// Per shard, one past the largest local `[vertex, edge]` id the load
    /// handed out: the ids whose removal [`Topology`](crate::Topology)
    /// retires.
    pub(crate) fn loaded_bounds(&self) -> Vec<[u64; 2]> {
        let n = self.shards as u64;
        let mut out = vec![[0; 2]; self.shards];
        for (kind, table) in self.resolution.tables().into_iter().enumerate() {
            for &c in table {
                let bound = &mut out[(c % n) as usize][kind];
                *bound = (*bound).max(c / n + 1);
            }
        }
        out
    }

    /// Approximate bytes held by the routing maps (for `space()`): 16 a
    /// map entry, two per ghost and per resolvable element, one per removed
    /// element.
    pub fn approx_bytes(&self) -> u64 {
        let ghosts = self
            .ghosts
            .iter()
            .map(|g| g.local.len() as u64)
            .sum::<u64>();
        let [resolvable, removed] = self.resolution.entries().map(|n| n as u64);
        ((ghosts + resolvable) * 2 + removed) * 16
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

/// What a resolution probe asks a shard for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `resolve_vertex` of shard-local canonical ids.
    Vertex,
    /// `resolve_edge` of shard-local canonical ids.
    Edge,
}

/// Build the routing metadata of a fresh load. `resolve(s, probe, locals)`
/// answers, in order, the ids shard `s` assigned to the shard-local
/// canonical ids `locals` — one call per shard and kind, so the in-process
/// hosts ask their views and the fleet ships the probes in batches.
pub fn build_meta(
    parts: &Partitioned,
    shards: usize,
    mut resolve: impl FnMut(usize, Probe, &[u64]) -> GdbResult<Vec<Option<u64>>>,
) -> GdbResult<Meta> {
    let mut meta = Meta::new(shards);
    let mut vertices = vec![0; parts.vertex_loc.len()];
    let loaded = placed(&parts.vertex_loc);
    for (canonical, v) in probe(shards, Probe::Vertex, "loaded vertex", loaded, &mut resolve)? {
        vertices[canonical as usize] = v;
    }
    let ghosts = parts.ghosts.iter().copied();
    for (shadowed, g) in probe(shards, Probe::Vertex, "ghost vertex", ghosts, &mut resolve)? {
        let v = vertices
            .get(shadowed as usize)
            .ok_or_else(|| corrupt(format!("ghost shadows unknown vertex {shadowed}")))?;
        let (ghost, s) = decode_vid(Vid(g), shards);
        meta.add_ghost(s, Vid(*v), ghost);
    }
    let mut edges = vec![0; parts.edge_loc.len()];
    let loaded = placed(&parts.edge_loc);
    for (canonical, e) in probe(shards, Probe::Edge, "loaded edge", loaded, &mut resolve)? {
        edges[canonical as usize] = e;
    }
    meta.resolution = Resolution::frozen((vertices, edges));
    Ok(meta)
}

fn corrupt(what: String) -> GdbError {
    GdbError::Corrupt(format!("sharded load: {what}"))
}

/// `(shard, global canonical, shard-local canonical)` of each element a
/// partition placed.
fn placed(loc: &[(usize, u64)]) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
    loc.iter().enumerate().map(|(c, (s, l))| (*s, c as u64, *l))
}

/// Resolve `(shard, key, shard-local canonical)` triples with one `resolve`
/// call per shard, answering `(key, composite id)` pairs.
fn probe(
    shards: usize,
    kind: Probe,
    what: &str,
    wanted: impl Iterator<Item = (usize, u64, u64)>,
    resolve: &mut impl FnMut(usize, Probe, &[u64]) -> GdbResult<Vec<Option<u64>>>,
) -> GdbResult<Vec<(u64, u64)>> {
    let mut asks: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); shards];
    for (s, key, local) in wanted {
        let (keys, locals) = asks
            .get_mut(s)
            .ok_or_else(|| corrupt(format!("partition names unknown shard {s}")))?;
        keys.push(key);
        locals.push(local);
    }
    let mut out = Vec::new();
    for (s, (keys, locals)) in asks.into_iter().enumerate() {
        let ids = resolve(s, kind, &locals)?;
        for (i, (key, local)) in keys.into_iter().zip(&locals).enumerate() {
            let id = ids.get(i).copied().flatten();
            let id = id.ok_or_else(|| corrupt(format!("shard {s} lost {what} {local}")))?;
            out.push((key, id * shards as u64 + s as u64));
        }
    }
    Ok(out)
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
