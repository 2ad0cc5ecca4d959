//! Connected components of a structure.
//!
//! Two domain elements are connected when they co-occur in a fact; a connected
//! component is a maximal set of pairwise connected elements together with the
//! facts over them.  Nullary facts have no elements, so each nullary fact
//! forms a component of its own (with an empty domain); isolated domain
//! elements are singleton components.
//!
//! The basis `W` of the Main Lemma (Definition 27) is the set of connected
//! components of `Σ_{v ∈ V′} v`, de-duplicated up to isomorphism.
//!
//! The decomposition runs on the compiled flat index (`crate::flat`): a
//! vec-based iterative union–find over dense element ids (path halving +
//! union by size), followed by a single pass distributing each CSR fact row
//! to its component.  The original `BTreeMap` union–find — which re-scanned
//! every fact once per component — is retained in [`mod@reference`] as the
//! differential-testing oracle.

use crate::canon::{assemble_key, component_payloads};
use crate::flat::FlatStructure;
use crate::iso::IsoClassKey;
use crate::structure::Structure;

/// Vec-based disjoint-set union–find over dense ids `0..n`, with iterative
/// path-halving `find` (no recursion, so arbitrarily long parent chains
/// cannot overflow the stack) and union by size.
struct DenseUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DenseUnionFind {
    fn new(n: usize) -> Self {
        DenseUnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving: point every other node at its grandparent.
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// The element-to-component grouping of a compiled structure — the one
/// place in the crate that assigns elements to connected components, shared
/// by [`connected_components`], [`components_keyed`] and the canonical key
/// ([`crate::canon`]).  Components are numbered in increasing
/// smallest-element order (dense ids are sorted by constant, so scanning
/// `0..n` visits minima first); a fact row belongs to the component of its
/// first argument.  Nullary facts carry no elements and are not assigned.
pub(crate) struct Split {
    /// The component of each dense element id.
    comp_of: Vec<u32>,
    /// The dense ids of each component's members, increasing.
    pub members: Vec<Vec<u32>>,
}

impl Split {
    pub(crate) fn of(f: &FlatStructure) -> Split {
        let n = f.dom.len();
        let mut uf = DenseUnionFind::new(n);
        for (rel, &arity) in f.arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            for row in f.rows[rel].chunks_exact(arity) {
                for &other in &row[1..] {
                    uf.union(row[0], other);
                }
            }
        }
        let mut comp_of_root = vec![u32::MAX; n];
        let mut comp_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<u32>> = Vec::new();
        for e in 0..n as u32 {
            let root = uf.find(e) as usize;
            if comp_of_root[root] == u32::MAX {
                comp_of_root[root] = members.len() as u32;
                members.push(Vec::new());
            }
            let c = comp_of_root[root];
            members[c as usize].push(e);
            comp_of.push(c);
        }
        Split { comp_of, members }
    }

    /// The component of a positive-arity fact row.
    pub(crate) fn row_comp(&self, row: &[u32]) -> usize {
        self.comp_of[row[0] as usize] as usize
    }
}

/// The connected components of a structure, each returned as a structure over
/// the same schema.
///
/// The empty structure has no components.  Components are returned in a
/// deterministic order: nullary-fact components first (ordered by relation
/// name), then element components ordered by their smallest domain element.
pub fn connected_components(s: &Structure) -> Vec<Structure> {
    let f = s.flat();
    component_structures(s, f, &Split::of(f))
}

/// [`connected_components`] together with the canonical keys, from one
/// decomposition: each element component is canonized once, its key is
/// installed in the component's own key cache, and the body key is
/// assembled from the same component encodings and installed in `s`'s
/// cache — so `iso_class_key` on the body or on any component is a lookup.
/// The keys are byte-identical to the ones [`Structure::iso_class_key`]
/// computes from scratch.
pub fn components_keyed(s: &Structure) -> (Vec<Structure>, IsoClassKey) {
    let f = s.flat();
    let split = Split::of(f);
    let comps = component_structures(s, f, &split);
    let payloads = component_payloads(f, &split);
    // Nullary-fact components come first and own no payload: their key is
    // the header (carrying their one nullary flag) alone.
    let nullary_comps = comps.len() - payloads.len();
    for (i, comp) in comps.iter().enumerate() {
        let own = i.checked_sub(nullary_comps).map(|c| payloads[c].as_slice());
        let cf = comp.flat();
        cf.install_canon_key(assemble_key(cf, own.into_iter().collect()));
    }
    f.install_canon_key(assemble_key(
        f,
        payloads.iter().map(Vec::as_slice).collect(),
    ));
    (comps, s.iso_class_key())
}

/// Materialize the components of a split as structures over `s`'s schema,
/// in [`connected_components`] order.
fn component_structures(s: &Structure, f: &FlatStructure, split: &Split) -> Vec<Structure> {
    let mut out: Vec<Structure> = Vec::new();

    // Each nullary fact is its own component (relation ids are name-sorted,
    // preserving the documented order).
    for (rel, &arity) in f.arities.iter().enumerate() {
        if arity == 0 && f.nullary_present[rel] {
            let mut comp = Structure::new(s.schema().clone());
            comp.add_by_id(rel as u32, Vec::new());
            out.push(comp);
        }
    }
    let nullary_comps = out.len();
    out.extend(
        split
            .members
            .iter()
            .map(|_| Structure::new(s.schema().clone())),
    );

    // Single pass distributing each fact row to its component.
    for (rel, &arity) in f.arities.iter().enumerate() {
        if arity == 0 {
            continue;
        }
        for row in f.rows[rel].chunks_exact(arity) {
            out[nullary_comps + split.row_comp(row)]
                .add_by_id(rel as u32, row.iter().map(|&e| f.dom[e as usize]).collect());
        }
    }
    // Every member joins its component's domain (a no-op for elements already
    // active there; this is what turns lone elements into singleton
    // components).
    for (comp, members) in out[nullary_comps..].iter_mut().zip(&split.members) {
        for &e in members {
            comp.add_isolated(f.dom[e as usize]);
        }
    }
    out
}

/// Whether the structure is connected, i.e. it has exactly one connected
/// component: one nullary fact, or one element component and no nullary
/// fact.  (The empty structure is *not* connected.)
pub fn is_connected(s: &Structure) -> bool {
    let f = s.flat();
    let nullary = f.nullary_present.iter().filter(|&&p| p).count();
    nullary + Split::of(f).members.len() == 1
}

/// The original `BTreeMap`-based decomposition, retained verbatim (modulo the
/// stack-safety fix in `find`) as the differential-testing oracle for the
/// flat-index rebuild — the same role [`crate::hom::reference`] plays for the
/// homomorphism engine.
#[doc(hidden)]
pub mod reference {
    use crate::structure::{Const, Structure};
    use std::collections::BTreeMap;

    /// Disjoint-set union–find over constants.
    struct UnionFind {
        parent: BTreeMap<Const, Const>,
    }

    impl UnionFind {
        fn new() -> Self {
            UnionFind {
                parent: BTreeMap::new(),
            }
        }

        fn add(&mut self, x: Const) {
            self.parent.entry(x).or_insert(x);
        }

        /// Iterative find with full path compression.  (The original
        /// recursive version could overflow the stack on the long parent
        /// chains a pathological union order produces.)
        fn find(&mut self, x: Const) -> Const {
            let mut root = x;
            while self.parent[&root] != root {
                root = self.parent[&root];
            }
            let mut cur = x;
            while cur != root {
                let next = self.parent[&cur];
                self.parent.insert(cur, root);
                cur = next;
            }
            root
        }

        fn union(&mut self, a: Const, b: Const) {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra != rb {
                self.parent.insert(ra, rb);
            }
        }
    }

    /// The connected components of a structure (oracle implementation; the
    /// production path is [`super::connected_components`]).
    pub fn connected_components(s: &Structure) -> Vec<Structure> {
        let mut uf = UnionFind::new();
        for c in s.domain() {
            uf.add(c);
        }
        for f in s.facts() {
            if let Some((&first, rest)) = f.args.split_first() {
                for &other in rest {
                    uf.union(first, other);
                }
            }
        }
        // Group domain elements by root.
        let mut groups: BTreeMap<Const, Vec<Const>> = BTreeMap::new();
        for c in s.domain() {
            let root = uf.find(c);
            groups.entry(root).or_default().push(c);
        }

        let mut out = Vec::new();

        // Each nullary fact is its own component.
        for f in s.facts().filter(|f| f.args.is_empty()) {
            let mut comp = Structure::new(s.schema().clone());
            comp.add_fact(f);
            out.push(comp);
        }

        for (_, members) in groups {
            let mut comp = Structure::new(s.schema().clone());
            let member_set: std::collections::BTreeSet<Const> = members.iter().copied().collect();
            for f in s.facts() {
                if let Some(&first) = f.args.first() {
                    if member_set.contains(&first) {
                        comp.add_fact(f);
                    }
                }
            }
            for &m in &members {
                comp.add_isolated(m);
            }
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sch() -> Schema {
        Schema::with_relations([("E", 2), ("P", 1)])
    }

    #[test]
    fn empty_structure_has_no_components() {
        let s = Structure::new(sch());
        assert!(connected_components(&s).is_empty());
        assert!(!is_connected(&s));
    }

    #[test]
    fn single_edge_is_connected() {
        let mut s = Structure::new(sch());
        s.add("E", &[0, 1]);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], s);
        assert!(is_connected(&s));
    }

    #[test]
    fn two_disjoint_edges() {
        let mut s = Structure::new(sch());
        s.add("E", &[0, 1]);
        s.add("E", &[5, 6]);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 2);
        assert!(!is_connected(&s));
        assert_eq!(comps[0].num_facts(), 1);
        assert_eq!(comps[1].num_facts(), 1);
        // Components partition the facts and the domain.
        let total: usize = comps.iter().map(|c| c.num_facts()).sum();
        assert_eq!(total, s.num_facts());
        let dom: usize = comps.iter().map(|c| c.domain_size()).sum();
        assert_eq!(dom, s.domain_size());
    }

    #[test]
    fn chain_is_one_component() {
        let mut s = Structure::new(sch());
        s.add("E", &[0, 1]);
        s.add("E", &[1, 2]);
        s.add("E", &[2, 3]);
        s.add("P", &[3]);
        assert!(is_connected(&s));
    }

    #[test]
    fn unary_bridge_does_not_connect() {
        // P(3) and P(7) do not connect 3 and 7.
        let mut s = Structure::new(sch());
        s.add("P", &[3]);
        s.add("P", &[7]);
        assert_eq!(connected_components(&s).len(), 2);
    }

    #[test]
    fn isolated_elements_are_singleton_components() {
        let mut s = Structure::new(sch());
        s.add("E", &[0, 1]);
        s.add_isolated(9);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 2);
        assert!(comps
            .iter()
            .any(|c| c.num_facts() == 0 && c.domain_size() == 1));
    }

    #[test]
    fn nullary_facts_are_their_own_components() {
        let sch = Schema::with_relations([("H", 0), ("C", 0), ("E", 2)]);
        let mut s = Structure::new(sch);
        s.add("H", &[]);
        s.add("C", &[]);
        s.add("E", &[1, 2]);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps.iter().filter(|c| c.domain_size() == 0).count(), 2);
        assert!(!is_connected(&s));
        // A single nullary fact alone *is* connected.
        let mut lone = Structure::new(Schema::with_relations([("H", 0)]));
        lone.add("H", &[]);
        assert!(is_connected(&lone));
    }

    #[test]
    fn higher_arity_fact_connects_all_its_arguments() {
        let sch = Schema::with_relations([("T", 3)]);
        let mut s = Structure::new(sch);
        s.add("T", &[1, 2, 3]);
        s.add("T", &[3, 4, 5]);
        s.add("T", &[7, 8, 9]);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().any(|c| c.domain_size() == 5));
        assert!(comps.iter().any(|c| c.domain_size() == 3));
    }

    #[test]
    fn components_ordered_by_smallest_element() {
        let mut s = Structure::new(sch());
        s.add("E", &[8, 9]);
        s.add("E", &[0, 5]);
        s.add_isolated(3);
        let comps = connected_components(&s);
        assert_eq!(comps.len(), 3);
        assert!(comps[0].contains_fact("E", &[0, 5]));
        assert_eq!(comps[1].domain_size(), 1); // {3}
        assert!(comps[2].contains_fact("E", &[8, 9]));
    }

    #[test]
    fn flat_and_reference_agree_on_long_chains() {
        // A long union chain (every fact extends the same component); the
        // reference oracle's compression must not recurse its way into a
        // stack overflow, and both implementations must agree.
        let mut s = Structure::new(sch());
        for i in 0..20_000u64 {
            s.add("E", &[i, i + 1]);
        }
        assert!(is_connected(&s));
        let flat = connected_components(&s);
        let oracle = reference::connected_components(&s);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.len(), oracle.len());
        assert_eq!(flat[0], oracle[0]);
    }
}
