// Mini trait surface for the derived-method fixture: one required walk and
// one collector derived from it, one required write and one typed mutator
// derived from it — none of the derived methods may be overridden.
pub trait GraphSnapshot {
    fn name(&self) -> String;
    fn for_each_incident(&self, v: u64, f: &mut dyn FnMut(u64));
    /// The visit, collected.
    // gm-check: derived
    fn neighbors(&self, v: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_incident(v, &mut |n| out.push(n));
        out
    }
}

pub enum Mutation {
    AddVertex,
}

pub trait GraphDb: GraphSnapshot {
    fn apply(&mut self, m: Mutation) -> u64;
    /// A vertex, through the one write.
    // gm-check: derived
    fn add_vertex(&mut self) -> u64 {
        self.apply(Mutation::AddVertex)
    }
}
