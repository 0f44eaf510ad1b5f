// Seeded violation: a terminal engine that writes its walk a second time
// as `neighbors` instead of inheriting the collector derived from
// `for_each_incident` — two copies of one walk that can drift apart.
pub struct ToyGraph {
    adj: Vec<Vec<u64>>,
}

impl GraphSnapshot for ToyGraph {
    fn name(&self) -> String {
        "toy".into()
    }
    fn for_each_incident(&self, v: u64, f: &mut dyn FnMut(u64)) {
        for &n in &self.adj[v as usize] {
            f(n);
        }
    }
    fn neighbors(&self, v: u64) -> Vec<u64> {
        self.adj[v as usize].clone()
    }
}
