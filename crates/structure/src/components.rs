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
//! The decomposition runs on the compiled flat index ([`crate::flat`]): a
//! vec-based iterative union–find over dense element ids (path halving +
//! union by size), followed by a single pass distributing each CSR fact row
//! to its component.  The original `BTreeMap` union–find — which re-scanned
//! every fact once per component — is retained in [`reference`] as the
//! differential-testing oracle.

use crate::structure::Structure;

/// Vec-based disjoint-set union–find over dense ids `0..n`, with iterative
/// path-halving `find` (no recursion, so arbitrarily long parent chains
/// cannot overflow the stack) and union by size.
pub(crate) struct DenseUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Number of distinct sets remaining.
    sets: usize,
}

impl DenseUnionFind {
    fn new(n: usize) -> Self {
        DenseUnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
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
        self.sets -= 1;
    }
}

/// Run the union–find over all positive-arity fact rows of a flat structure.
pub(crate) fn unite_fact_rows(f: &crate::flat::FlatStructure) -> DenseUnionFind {
    let mut uf = DenseUnionFind::new(f.dom.len());
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
    uf
}

/// The connected components of a structure, each returned as a structure over
/// the same schema.
///
/// The empty structure has no components.  Components are returned in a
/// deterministic order: nullary-fact components first (ordered by relation
/// name), then element components ordered by their smallest domain element.
pub fn connected_components(s: &Structure) -> Vec<Structure> {
    let f = s.flat().clone();
    let n = f.dom.len();
    let mut uf = unite_fact_rows(&f);

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

    // Assign component slots in increasing smallest-element order (dense ids
    // are sorted by constant, so scanning 0..n visits minima first).
    let nullary_comps = out.len();
    let mut comp_of_root = vec![u32::MAX; n];
    for e in 0..n as u32 {
        let root = uf.find(e) as usize;
        if comp_of_root[root] == u32::MAX {
            comp_of_root[root] = (out.len() - nullary_comps) as u32;
            out.push(Structure::new(s.schema().clone()));
        }
    }
    let comp_of = |uf: &mut DenseUnionFind, e: u32| -> usize {
        let root = uf.find(e) as usize;
        nullary_comps + comp_of_root[root] as usize
    };

    // Single pass distributing each fact row to its component.
    for (rel, &arity) in f.arities.iter().enumerate() {
        if arity == 0 {
            continue;
        }
        for row in f.rows[rel].chunks_exact(arity) {
            let c = comp_of(&mut uf, row[0]);
            out[c].add_by_id(rel as u32, row.iter().map(|&e| f.dom[e as usize]).collect());
        }
    }
    // Every member joins its component's domain (a no-op for elements already
    // active there; this is what turns lone elements into singleton
    // components).
    for e in 0..n as u32 {
        let c = comp_of(&mut uf, e);
        out[c].add_isolated(f.dom[e as usize]);
    }
    out
}

/// Whether the structure is connected, i.e. it has exactly one connected
/// component.  (The empty structure is *not* connected.)
///
/// Pure union–find bookkeeping — no component `Structure` is materialised —
/// with early exits: a nullary fact next to any domain element (or a second
/// nullary fact) proves disconnection immediately, and the fact scan stops
/// as soon as everything has merged into one set.
pub fn is_connected(s: &Structure) -> bool {
    let f = s.flat();
    let n = f.dom.len();
    let nullary = f
        .arities
        .iter()
        .zip(f.nullary_present.iter())
        .filter(|&(&a, &p)| a == 0 && p)
        .count();
    if n == 0 {
        return nullary == 1;
    }
    if nullary > 0 {
        // A nullary component plus at least one element component.
        return false;
    }
    let mut uf = DenseUnionFind::new(n);
    for (rel, &arity) in f.arities.iter().enumerate() {
        if arity == 0 {
            continue;
        }
        for row in f.rows[rel].chunks_exact(arity) {
            for &other in &row[1..] {
                uf.union(row[0], other);
            }
            if uf.sets == 1 {
                return true;
            }
        }
    }
    uf.sets == 1
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
