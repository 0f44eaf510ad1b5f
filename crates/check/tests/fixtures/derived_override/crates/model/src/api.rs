// Mini trait surface for the derived-method fixture: one required walk and
// one collector derived from it, which no impl may override.
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
