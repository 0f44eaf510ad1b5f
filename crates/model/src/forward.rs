//! Declarative forwarding for [`GraphSnapshot`](crate::GraphSnapshot) /
//! [`GraphDb`](crate::GraphDb) delegation impls.
//!
//! A hand-written forwarding impl (`Box<T>`, remote proxies, sharded
//! composites, MVCC views) that forgets a method with a default body
//! silently falls back to the default — the compiler can't object, and the
//! benchmark quietly measures the wrong code path (a composite answering
//! `degree_scan` per-vertex instead of via its engines' overrides, say).
//! These macros generate every method an impl may define from one line, so
//! a forwarding impl is complete by construction; the `gm-check` delegation
//! lint treats an impl containing an invocation as fully overriding.
//! Derived methods are final and never forwarded: `neighbors` and
//! `vertex_edges` derive from the forwarded `for_each_incident`, and every
//! typed mutator (`add_vertex` … `sync`) from `apply`, the one method
//! `forward_graph_db!` forwards.
//!
//! Usage — the one argument is a closure-shaped binder naming `self` and
//! producing the forwarding target (a place or value whose type implements
//! the trait):
//!
//! ```ignore
//! impl<T: GraphSnapshot + ?Sized> GraphSnapshot for Box<T> {
//!     gm_model::forward_graph_snapshot!(target = |s| (**s));
//! }
//! impl<E: GraphDb> GraphDb for ShardedGraph<E> {
//!     gm_model::forward_graph_db!(target = |s| SharedWriter::new(s));
//! }
//! ```
//!
//! For `forward_graph_snapshot!` the target is evaluated with `$s` bound to
//! `&self`; for `forward_graph_db!` with `$s` bound to `&mut self`, and the
//! target may be a freshly constructed routing handle (its methods are
//! invoked by auto-ref, so a temporary works).
//!
//! A wrapper that tags its target with its own epoch (an MVCC view over an
//! engine, whose `epoch` is always 0) names it with a second binder; every
//! other method still forwards to `target`:
//!
//! ```ignore
//! impl<E: GraphDb> GraphSnapshot for SnapView<E> {
//!     gm_model::forward_graph_snapshot!(target = |s| s.graph, epoch = |s| s.epoch);
//! }
//! ```

/// Generate every [`GraphSnapshot`](crate::GraphSnapshot) method as a
/// forward to `target`. See the [module docs](crate::forward).
#[macro_export]
macro_rules! forward_graph_snapshot {
    (target = |$s:ident| $t:expr) => {
        $crate::forward_graph_snapshot!(target = |$s| $t, epoch = |$s| $t.epoch());
    };
    (target = |$s:ident| $t:expr, epoch = |$e:ident| $ep:expr) => {
        fn name(&self) -> ::std::string::String {
            let $s = self;
            $t.name()
        }
        fn features(&self) -> $crate::api::EngineFeatures {
            let $s = self;
            $t.features()
        }
        fn epoch(&self) -> u64 {
            let $e = self;
            $ep
        }
        fn resolve_vertex(&self, canonical: u64) -> ::std::option::Option<$crate::ids::Vid> {
            let $s = self;
            $t.resolve_vertex(canonical)
        }
        fn resolve_edge(&self, canonical: u64) -> ::std::option::Option<$crate::ids::Eid> {
            let $s = self;
            $t.resolve_edge(canonical)
        }
        fn vertex_count(&self, ctx: &$crate::ctx::QueryCtx) -> $crate::error::GdbResult<u64> {
            let $s = self;
            $t.vertex_count(ctx)
        }
        fn edge_count(&self, ctx: &$crate::ctx::QueryCtx) -> $crate::error::GdbResult<u64> {
            let $s = self;
            $t.edge_count(ctx)
        }
        fn edge_label_set(
            &self,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<::std::string::String>> {
            let $s = self;
            $t.edge_label_set(ctx)
        }
        fn vertices_with_property(
            &self,
            name: &str,
            value: &$crate::value::Value,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<$crate::ids::Vid>> {
            let $s = self;
            $t.vertices_with_property(name, value, ctx)
        }
        fn edges_with_property(
            &self,
            name: &str,
            value: &$crate::value::Value,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<$crate::ids::Eid>> {
            let $s = self;
            $t.edges_with_property(name, value, ctx)
        }
        fn edges_with_label(
            &self,
            label: &str,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<$crate::ids::Eid>> {
            let $s = self;
            $t.edges_with_label(label, ctx)
        }
        fn vertex(
            &self,
            v: $crate::ids::Vid,
        ) -> $crate::error::GdbResult<::std::option::Option<$crate::api::VertexData>> {
            let $s = self;
            $t.vertex(v)
        }
        fn edge(
            &self,
            e: $crate::ids::Eid,
        ) -> $crate::error::GdbResult<::std::option::Option<$crate::api::EdgeData>> {
            let $s = self;
            $t.edge(e)
        }
        fn for_each_incident(
            &self,
            v: $crate::ids::Vid,
            dir: $crate::api::Direction,
            label: ::std::option::Option<&str>,
            ctx: &$crate::ctx::QueryCtx,
            f: &mut dyn ::std::ops::FnMut($crate::api::EdgeRef) -> $crate::error::GdbResult<()>,
        ) -> $crate::error::GdbResult<()> {
            let $s = self;
            $t.for_each_incident(v, dir, label, ctx, f)
        }
        fn vertex_degree(
            &self,
            v: $crate::ids::Vid,
            dir: $crate::api::Direction,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<u64> {
            let $s = self;
            $t.vertex_degree(v, dir, ctx)
        }
        fn vertex_edge_labels(
            &self,
            v: $crate::ids::Vid,
            dir: $crate::api::Direction,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<::std::string::String>> {
            let $s = self;
            $t.vertex_edge_labels(v, dir, ctx)
        }
        fn scan_vertices<'a>(
            &'a self,
            ctx: &'a $crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<
            ::std::boxed::Box<
                dyn ::std::iter::Iterator<Item = $crate::error::GdbResult<$crate::ids::Vid>> + 'a,
            >,
        > {
            let $s = self;
            $t.scan_vertices(ctx)
        }
        fn scan_edges<'a>(
            &'a self,
            ctx: &'a $crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<
            ::std::boxed::Box<
                dyn ::std::iter::Iterator<Item = $crate::error::GdbResult<$crate::ids::Eid>> + 'a,
            >,
        > {
            let $s = self;
            $t.scan_edges(ctx)
        }
        fn vertex_property(
            &self,
            v: $crate::ids::Vid,
            name: &str,
        ) -> $crate::error::GdbResult<::std::option::Option<$crate::value::Value>> {
            let $s = self;
            $t.vertex_property(v, name)
        }
        fn edge_property(
            &self,
            e: $crate::ids::Eid,
            name: &str,
        ) -> $crate::error::GdbResult<::std::option::Option<$crate::value::Value>> {
            let $s = self;
            $t.edge_property(e, name)
        }
        fn edge_endpoints(
            &self,
            e: $crate::ids::Eid,
        ) -> $crate::error::GdbResult<::std::option::Option<($crate::ids::Vid, $crate::ids::Vid)>> {
            let $s = self;
            $t.edge_endpoints(e)
        }
        fn edge_label(
            &self,
            e: $crate::ids::Eid,
        ) -> $crate::error::GdbResult<::std::option::Option<::std::string::String>> {
            let $s = self;
            $t.edge_label(e)
        }
        fn vertex_label(
            &self,
            v: $crate::ids::Vid,
        ) -> $crate::error::GdbResult<::std::option::Option<::std::string::String>> {
            let $s = self;
            $t.vertex_label(v)
        }
        fn degree_scan(
            &self,
            dir: $crate::api::Direction,
            k: u64,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<$crate::ids::Vid>> {
            let $s = self;
            $t.degree_scan(dir, k, ctx)
        }
        fn distinct_neighbor_scan(
            &self,
            dir: $crate::api::Direction,
            ctx: &$crate::ctx::QueryCtx,
        ) -> $crate::error::GdbResult<::std::vec::Vec<$crate::ids::Vid>> {
            let $s = self;
            $t.distinct_neighbor_scan(dir, ctx)
        }
        fn has_vertex_index(&self, prop: &str) -> bool {
            let $s = self;
            $t.has_vertex_index(prop)
        }
        fn space(&self) -> $crate::api::SpaceReport {
            let $s = self;
            $t.space()
        }
    };
}

/// Generate [`GraphDb`](crate::GraphDb)'s one write method, `apply`, as a
/// forward to `target`. See the [module docs](crate::forward).
#[macro_export]
macro_rules! forward_graph_db {
    (target = |$s:ident| $t:expr) => {
        fn apply(
            &mut self,
            m: $crate::api::Mutation<'_>,
        ) -> $crate::error::GdbResult<$crate::api::Applied> {
            let $s = self;
            $t.apply(m)
        }
    };
}
