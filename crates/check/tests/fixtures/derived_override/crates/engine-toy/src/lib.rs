// Seeded violations: a terminal engine that writes its walk a second time
// as `neighbors` instead of inheriting the collector derived from
// `for_each_incident`, and its vertex creation a second time as
// `add_vertex` instead of inheriting the mutator derived from `apply` —
// two copies of one walk, two of one write, that can drift apart.
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

impl GraphDb for ToyGraph {
    fn apply(&mut self, m: Mutation) -> u64 {
        match m {
            Mutation::AddVertex => {
                self.adj.push(Vec::new());
                self.adj.len() as u64 - 1
            }
        }
    }
    fn add_vertex(&mut self) -> u64 {
        self.adj.push(Vec::new());
        self.adj.len() as u64 - 1
    }
}
