// Minimal trait file for the delegation lint's ground truth; the seeded
// violations in this fixture are environment reads in library code.
pub trait GraphSnapshot {
    fn name(&self) -> String;
}

pub trait GraphDb: GraphSnapshot {
    fn add_vertex(&mut self) -> u64;
}
