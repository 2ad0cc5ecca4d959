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
//! The decomposition runs on the flat form (`crate::flat`): a vec-based
//! iterative union–find over dense element ids (path halving + union by
//! size) yields a `Split`, and each component's flat form is *cut* from
//! the parent's row arena in one pass.  A component's members are
//! increasing dense ids, so relabeling them `0, 1, …` is monotone: the cut
//! rows stay sorted and distinct, and the component's domain keeps the
//! original constants — no re-sort, no build log.  The original `BTreeMap`
//! union–find — which re-scanned every fact once per component — is
//! retained in [`mod@reference`] as the differential-testing oracle.

use crate::canon::{assemble_key, canonical_block};
use crate::flat::{sorted_cells, FlatStructure};
use crate::iso::IsoClassKey;
use crate::structure::Structure;
use std::collections::HashMap;
use std::sync::Arc;

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

/// The element-to-component grouping of a structure's flat form — the one
/// place in the crate that assigns elements to connected components, shared
/// by [`connected_components`], [`components_keyed`], [`is_connected`] and
/// the canonical key ([`crate::canon`]).  Components are numbered in
/// increasing smallest-element order (dense ids are sorted by constant, so
/// scanning `0..n` visits minima first); a fact row belongs to the
/// component of its first argument.  Nullary facts carry no elements and
/// are not assigned.
pub(crate) struct Split {
    /// The component of each dense element id.
    comp_of: Vec<u32>,
    /// The local id of each dense element id: its index among its
    /// component's members.
    local_of: Vec<u32>,
    /// Component sizes, in component order.
    sizes: Vec<u32>,
}

impl Split {
    pub(crate) fn of(f: &FlatStructure) -> Split {
        let n = f.dom.len();
        let mut uf = DenseUnionFind::new(n);
        for (rel, &arity) in f.arities().iter().enumerate() {
            if arity == 0 {
                continue;
            }
            for row in f.rows(rel).chunks_exact(arity) {
                for &other in &row[1..] {
                    uf.union(row[0], other);
                }
            }
        }
        // `uf.size` is reused as the root → component map.
        let mut comp_of = Vec::with_capacity(n);
        let mut local_of = Vec::with_capacity(n);
        let mut sizes: Vec<u32> = Vec::new();
        uf.size.fill(u32::MAX);
        for e in 0..n as u32 {
            let root = uf.find(e) as usize;
            if uf.size[root] == u32::MAX {
                uf.size[root] = sizes.len() as u32;
                sizes.push(0);
            }
            let c = uf.size[root];
            comp_of.push(c);
            local_of.push(sizes[c as usize]);
            sizes[c as usize] += 1;
        }
        Split {
            comp_of,
            local_of,
            sizes,
        }
    }

    /// Number of element components.
    fn len(&self) -> usize {
        self.sizes.len()
    }

    /// The flat forms of the element components of `f`, in component
    /// order, cut from `f`'s rows in one pass (see the module docs for why
    /// the cut rows need no sorting).
    pub(crate) fn cut(&self, f: &FlatStructure) -> Vec<FlatStructure> {
        let arities = f.arities();
        let n_rels = arities.len();
        // Cells per (component, relation), then each component's arena with
        // its offsets header in place; rows are appended relation by
        // relation, which is the arena order.
        let mut counts = vec![0u32; self.len() * n_rels];
        for (rel, &arity) in arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            for row in f.rows(rel).chunks_exact(arity) {
                counts[self.row_comp(row) * n_rels + rel] += arity as u32;
            }
        }
        let mut arenas: Vec<Vec<u32>> = (0..self.len())
            .map(|c| {
                let per_rel = &counts[c * n_rels..(c + 1) * n_rels];
                let total: u32 = per_rel.iter().sum();
                let mut cells = Vec::with_capacity(n_rels + 1 + total as usize);
                let mut at = (n_rels + 1) as u32;
                cells.push(at);
                for &c in per_rel {
                    at += c;
                    cells.push(at);
                }
                cells
            })
            .collect();
        for (rel, &arity) in arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            for row in f.rows(rel).chunks_exact(arity) {
                let cells = &mut arenas[self.row_comp(row)];
                cells.extend(row.iter().map(|&e| self.local_of[e as usize]));
            }
        }
        let mut doms: Vec<Vec<_>> = self
            .sizes
            .iter()
            .map(|&k| Vec::with_capacity(k as usize))
            .collect();
        for (e, &c) in self.comp_of.iter().enumerate() {
            doms[c as usize].push(f.dom[e]);
        }
        arenas
            .into_iter()
            .zip(doms)
            .map(|(cells, dom)| FlatStructure::from_sorted_rows(f.table().clone(), dom, cells))
            .collect()
    }

    /// The component of a positive-arity fact row.
    fn row_comp(&self, row: &[u32]) -> usize {
        self.comp_of[row[0] as usize] as usize
    }
}

/// The flat forms of the nullary-fact components of `f`, one per present
/// nullary fact, in relation-id (hence name) order.
fn nullary_components(f: &FlatStructure) -> Vec<FlatStructure> {
    (0..f.arities().len() as u32)
        .filter(|&rel| f.has_nullary(rel as usize))
        .map(|rel| {
            let cells = sorted_cells::<u32>(f.arities(), &[rel], &[], |e| e);
            FlatStructure::from_sorted_rows(f.table().clone(), Vec::new(), cells)
        })
        .collect()
}

/// The connected components of a structure, each returned as a structure over
/// the same schema.
///
/// The empty structure has no components.  Components are returned in a
/// deterministic order: nullary-fact components first (ordered by relation
/// name), then element components ordered by their smallest domain element.
pub fn connected_components(s: &Structure) -> Vec<Structure> {
    let f = s.flat();
    nullary_components(f)
        .into_iter()
        .chain(Split::of(f).cut(f))
        .map(|c| Structure::from_flat(s.schema().clone(), Arc::new(c)))
        .collect()
}

/// [`connected_components`] together with the canonical keys, for each of
/// `bodies` in order: one `(components, body key)` per body, each from one
/// decomposition.  Every element component is cut from its body's split,
/// its key is installed in the component's own key cache, and the body key
/// is assembled from the same component encodings and installed in the
/// body's cache — so `iso_class_key` on a body or on any component is a
/// lookup.  The keys are byte-identical to the ones
/// [`Structure::iso_class_key`] computes from scratch.
///
/// Each distinct component content is canonized once per call.  A
/// canonical payload depends only on the component's order-preserving
/// encoding — relation table, domain size and dense rows — so components
/// with equal content share one payload exactly.  The bodies of a
/// determined instance are built from copies of the same view components,
/// so a call over all of them skips most canonizations; a single body
/// (passed as a one-element slice) still shares payloads between its
/// repeated components.
pub fn components_keyed(bodies: &[Structure]) -> Vec<(Vec<Structure>, IsoClassKey)> {
    let cuts: Vec<Vec<FlatStructure>> = bodies
        .iter()
        .map(|s| Split::of(s.flat()).cut(s.flat()))
        .collect();
    // The payload of each element component, body by body, as an index
    // into `payloads`.
    let total = cuts.iter().map(Vec::len).sum();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(total);
    let mut slots: Vec<usize> = Vec::with_capacity(total);
    let mut seen = HashMap::with_capacity(total);
    for c in cuts.iter().flatten() {
        slots.push(*seen.entry(c.content()).or_insert_with(|| {
            payloads.push(canonical_block(c));
            payloads.len() - 1
        }));
    }
    let mut at = 0;
    bodies
        .iter()
        .zip(cuts)
        .map(|(s, elements)| {
            let slots = &slots[at..at + elements.len()];
            at += elements.len();
            let f = s.flat();
            // Nullary-fact components come first and own no payload: their
            // key is the header (carrying their one nullary flag) alone.
            let nullary = nullary_components(f);
            let mut comps = Vec::with_capacity(nullary.len() + elements.len());
            for c in nullary {
                c.install_canon_key(assemble_key(&c, Vec::new()));
                comps.push(Structure::from_flat(s.schema().clone(), Arc::new(c)));
            }
            for (c, &slot) in elements.into_iter().zip(slots) {
                c.install_canon_key(assemble_key(&c, vec![payloads[slot].as_slice()]));
                comps.push(Structure::from_flat(s.schema().clone(), Arc::new(c)));
            }
            f.install_canon_key(assemble_key(
                f,
                slots
                    .iter()
                    .map(|&slot| payloads[slot].as_slice())
                    .collect(),
            ));
            (comps, s.iso_class_key())
        })
        .collect()
}

/// Whether the structure is connected, i.e. it has exactly one connected
/// component: one nullary fact, or one element component and no nullary
/// fact.  (The empty structure is *not* connected.)
pub fn is_connected(s: &Structure) -> bool {
    let f = s.flat();
    let nullary = (0..f.arities().len()).filter(|&r| f.has_nullary(r)).count();
    nullary + Split::of(f).len() == 1
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
