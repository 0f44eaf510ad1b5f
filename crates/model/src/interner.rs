//! String interning for labels and property names.
//!
//! Engines store labels and property names as small integer ids; this
//! interner provides the id↔string mapping. Every engine owns its own
//! interner — the benchmark would be distorted if engines shared one.

use std::sync::Arc;

use crate::fxmap::FxHashMap;

/// Bidirectional string↔u32 mapping with stable ids.
///
/// Clones share both maps; only interning a *new* string copies them
/// (a lookup hit never does), so an engine clone costs one reference-count
/// bump here however many names are interned.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    maps: Arc<Maps>,
}

#[derive(Debug, Clone, Default)]
struct Maps {
    by_name: FxHashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern a string, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.maps.by_name.get(name) {
            return id;
        }
        let maps = Arc::make_mut(&mut self.maps);
        let id = maps.names.len() as u32;
        maps.names.push(name.to_string());
        maps.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an id without interning; `None` if the string is unknown.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.maps.by_name.get(name).copied()
    }

    /// Resolve an id back to its string.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.maps.names.get(id as usize).map(|s| s.as_str())
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.maps.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.maps.names.is_empty()
    }

    /// All interned strings in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.maps
            .names
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }

    /// Approximate memory footprint.
    pub fn bytes(&self) -> u64 {
        self.maps
            .names
            .iter()
            .map(|s| 2 * (s.len() as u64 + 24) + 8)
            .sum::<u64>()
            + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("knows");
        let b = i.intern("knows");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.resolve(0), Some("a"));
        assert_eq!(i.resolve(1), Some("b"));
        assert_eq!(i.resolve(2), None);
        assert_eq!(i.get("b"), Some(1));
        assert_eq!(i.get("c"), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let all: Vec<(u32, &str)> = i.iter().collect();
        assert_eq!(all, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn bytes_nonzero_after_interning() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        i.intern("hello");
        assert!(!i.is_empty());
        assert!(i.bytes() > 0);
    }

    #[test]
    fn clones_share_until_a_new_name_is_interned() {
        let mut a = Interner::new();
        a.intern("knows");
        a.intern("likes");
        let mut b = a.clone();
        // A hit on the clone copies nothing.
        assert_eq!(b.intern("likes"), 1);
        assert!(Arc::ptr_eq(&a.maps, &b.maps), "hit must stay shared");
        // A miss diverges the clone and leaves the original untouched.
        assert_eq!(b.intern("owns"), 2);
        assert!(!Arc::ptr_eq(&a.maps, &b.maps));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("owns"), None);
        assert_eq!(a.intern("rates"), 2, "ids diverge independently");
        assert_eq!(b.resolve(2), Some("owns"));
        assert_eq!(a.resolve(2), Some("rates"));
    }
}
