// Clean forwarding impl: the defaulted method is explicitly overridden,
// locks are acquired in the documented order, and the one relaxed atomic
// carries its justification.
pub struct Wrapper {
    inner: Inner,
}

impl GraphSnapshot for Wrapper {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

impl GraphDb for Wrapper {
    // gm-check: allow-default(sync: the wrapped engine is purely in-memory, sync is a no-op)
    fn add_vertex(&mut self) -> u64 {
        // gm-check: relaxed(round-robin placement counter: any interleaving is a valid placement)
        let s = self.spread.fetch_add(1, Ordering::Relaxed);
        // gm-lock: meta
        let meta = self.meta_read();
        // gm-lock: shard
        let mut shard = self.shard_write(s % meta.shards());
        shard.push()
    }
}

// A composite host: the macro derives the full surface — `epoch` included —
// from the host's one-method read seam.
pub struct Composite {
    shards: Vec<Inner>,
}

impl GraphSnapshot for Composite {
    composite_graph_snapshot!();
}
