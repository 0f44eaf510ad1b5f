// Clean fixture: every pattern the lints police, written the sanctioned
// way — the checker must report nothing here.
pub trait GraphSnapshot {
    fn name(&self) -> String;
    fn epoch(&self) -> u64 {
        0
    }
    fn for_each_incident(&self, v: u64, f: &mut dyn FnMut(u64));
    // Final: a forwarding layer need not (and may not) forward it.
    // gm-check: derived
    fn neighbors(&self, v: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_incident(v, &mut |n| out.push(n));
        out
    }
}

pub trait GraphDb: GraphSnapshot {
    fn add_vertex(&mut self) -> u64;
    fn sync(&mut self) -> Result<(), ()> {
        Ok(())
    }
}

impl<T: GraphSnapshot + ?Sized> GraphSnapshot for Box<T> {
    crate::forward_graph_snapshot!(target = |s| (**s));
}
