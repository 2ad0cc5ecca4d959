//! Isomorphism testing and de-duplication up to isomorphism.
//!
//! Definition 27 builds the basis `W` as a *set* of connected components,
//! "and we think that isomorphic structures are equal" — so the decision
//! procedure needs a reliable isomorphism test.  Every structure carries a
//! cached isomorphism-invariant canonical key ([`crate::canon`]): two
//! structures are isomorphic **iff** their keys are equal, so the test is a
//! key comparison, de-duplication is a single-pass hash-map insert, and the
//! multiplicity vectors of Definition 29 are hash-map lookups — no
//! backtracking search anywhere (the previous implementation fell back to
//! pairwise `injective_hom_exists` searches, which made basis construction
//! quadratic in the number of components with a search per pair).

use crate::flat::FlatStructure;
use crate::structure::Structure;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An opaque isomorphism-class token: cheap to clone, hash and compare, and
/// equal **iff** the underlying structures are isomorphic.  Obtained from
/// [`Structure::iso_class_key`]; constructing one forces the canonical key
/// ([`crate::canon`]) so that hashing and comparison are lookup-cheap and a
/// fan-out of constructions over scoped threads parallelizes canonization.
///
/// Callers use this to *intern* structures by isomorphism class — e.g. the
/// decision procedure computes each isomorphism-invariant per-view stage
/// (retention gate, component decomposition, multiplicity vector) once per
/// class instead of once per view.
#[derive(Clone)]
pub struct IsoClassKey(Arc<FlatStructure>);

impl IsoClassKey {
    pub(crate) fn new(flat: Arc<FlatStructure>) -> Self {
        flat.canon_key();
        IsoClassKey(flat)
    }

    /// The isomorphism-invariant canonical byte string of this class: equal
    /// across any two keys of the same class, stable across processes — the
    /// identity the warm-start snapshot persists class ids and gate
    /// verdicts under.
    pub fn canon_bytes(&self) -> &[u8] {
        &self.0.canon_key().bytes
    }
}

impl PartialEq for IsoClassKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.canon_key() == other.0.canon_key()
    }
}

impl Eq for IsoClassKey {}

impl std::hash::Hash for IsoClassKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.canon_key().hash);
    }
}

impl std::fmt::Debug for IsoClassKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IsoClassKey({:016x})", self.0.canon_key().hash)
    }
}

impl Structure {
    /// The isomorphism-class token of this structure: two structures over
    /// equal schemas get equal tokens iff they are isomorphic.  The
    /// underlying canonical key is computed at most once per structure and
    /// cached on its compiled flat form, which clones of the structure share.
    pub fn iso_class_key(&self) -> IsoClassKey {
        IsoClassKey::new(self.flat().clone())
    }
}

/// Whether two structures are isomorphic.
///
/// Two structures are isomorphic iff there is a bijection between their
/// domains mapping facts onto facts — equivalently, iff their canonical keys
/// ([`crate::canon`]) coincide.  Cheap invariants (schema, domain size,
/// per-relation fact counts) are compared first so that obviously different
/// structures never pay for canonization; the order-preserving encoding of
/// `crate::flat` then proves isomorphism without canonizing when the two
/// structures happen to be written with equally-ordered constants.
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    if a.schema() != b.schema() {
        return false;
    }
    if a.domain_size() != b.domain_size() {
        return false;
    }
    let n_rels = a.rel_names().len() as u32;
    if (0..n_rels).any(|r| a.tuples_of(r).len() != b.tuples_of(r).len()) {
        return false;
    }
    // Identical order-preserving encodings: the dense renumbering is an
    // isomorphism, no need to compute canonical keys.
    if a.flat().canon() == b.flat().canon() {
        return true;
    }
    a.flat().canon_key() == b.flat().canon_key()
}

/// De-duplicate a list of structures up to isomorphism, preserving the first
/// occurrence of each isomorphism class (this is exactly how the basis `W` of
/// Definition 27 is formed from the connected components of `Σ_{v∈V′} v`).
///
/// Single pass: every structure is canonized once ([`crate::canon`], cached
/// on its flat form) and a structure is kept iff its [`IsoClassKey`] was not
/// seen before.
pub fn dedup_up_to_iso(structures: Vec<Structure>) -> Vec<Structure> {
    // See `IsoClassKey` for why the interior-mutability lint is moot: the
    // key's hash/equality read the `OnceLock`-cached canonical key, forced
    // at construction and immutable afterwards.
    #[allow(clippy::mutable_key_type)]
    let mut seen: HashSet<IsoClassKey> = HashSet::new();
    structures
        .into_iter()
        .filter(|s| seen.insert(s.iso_class_key()))
        .collect()
}

/// By-reference variant of [`dedup_up_to_iso`]: the first occurrence of each
/// isomorphism class, without taking (or cloning) the inputs.  The decision
/// procedure uses this to build the basis by cloning only the kept
/// representatives.
pub fn dedup_up_to_iso_refs<'a, I>(structures: I) -> Vec<&'a Structure>
where
    I: IntoIterator<Item = &'a Structure>,
{
    #[allow(clippy::mutable_key_type)]
    let mut seen: HashSet<IsoClassKey> = HashSet::new();
    structures
        .into_iter()
        .filter(|s| seen.insert(s.iso_class_key()))
        .collect()
}

/// A canonical-key hash index over a basis of structures, for repeated
/// multiplicity-vector extraction ([`BasisIndex::vector`]) without
/// re-indexing the basis per call.  Build it once per basis; lookups are one
/// cached canonization plus one hash probe per structure.
pub struct BasisIndex {
    /// Key hash → basis positions, in basis order (first match wins,
    /// preserving linear-scan semantics should a basis contain duplicates).
    buckets: HashMap<u64, Vec<usize>>,
    /// Compiled flat forms of the basis entries (owning their cached keys).
    flats: Vec<Arc<FlatStructure>>,
}

impl BasisIndex {
    /// Index a basis by canonical key.
    pub fn new(basis: &[Structure]) -> BasisIndex {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut flats = Vec::with_capacity(basis.len());
        for (i, b) in basis.iter().enumerate() {
            let flat = b.flat().clone();
            buckets.entry(flat.canon_key().hash).or_default().push(i);
            flats.push(flat);
        }
        BasisIndex { buckets, flats }
    }

    /// Number of basis entries.
    pub fn len(&self) -> usize {
        self.flats.len()
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.flats.is_empty()
    }

    /// The basis position of the isomorphism class of `s`, if present.
    pub fn position(&self, s: &Structure) -> Option<usize> {
        let key = s.flat().canon_key();
        self.buckets
            .get(&key.hash)?
            .iter()
            .copied()
            .find(|&i| self.flats[i].canon_key().bytes == key.bytes)
    }

    /// The multiplicity of each basis representative in `structures`
    /// (counting up to isomorphism); `None` if some structure belongs to no
    /// basis class.
    pub fn vector(&self, structures: &[Structure]) -> Option<Vec<u64>> {
        let mut counts = vec![0u64; self.len()];
        for s in structures {
            counts[self.position(s)?] += 1;
        }
        Some(counts)
    }
}

/// The multiplicity of each representative of `basis` in `structures`
/// (counting up to isomorphism).  Every element of `structures` must be
/// isomorphic to some basis element; returns `None` otherwise.
///
/// This is the "vector representation" of Observation 28 / Definition 29.
/// One-shot convenience over [`BasisIndex`]; callers extracting many vectors
/// against the same basis should build the index once instead.
pub fn multiplicities(basis: &[Structure], structures: &[Structure]) -> Option<Vec<u64>> {
    BasisIndex::new(basis).vector(structures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::structure::Structure;

    fn sch() -> Schema {
        Schema::with_relations([("E", 2), ("P", 1)])
    }

    fn edge(a: u64, b: u64) -> Structure {
        let mut s = Structure::new(sch());
        s.add("E", &[a, b]);
        s
    }

    #[test]
    fn renamed_structures_are_isomorphic() {
        assert!(isomorphic(&edge(0, 1), &edge(10, 20)));
        assert!(isomorphic(&edge(0, 0), &edge(5, 5)));
        assert!(!isomorphic(&edge(0, 1), &edge(5, 5)), "loop vs non-loop");
    }

    #[test]
    fn direction_matters() {
        let mut a = Structure::new(sch());
        a.add("E", &[0, 1]);
        a.add("P", &[0]);
        let mut b = Structure::new(sch());
        b.add("E", &[0, 1]);
        b.add("P", &[1]);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn different_sizes_not_isomorphic() {
        let mut two = Structure::new(sch());
        two.add("E", &[0, 1]);
        two.add("E", &[1, 2]);
        assert!(!isomorphic(&edge(0, 1), &two));
    }

    #[test]
    fn cycles_vs_paths() {
        let mut c3 = Structure::new(sch());
        c3.add("E", &[0, 1]);
        c3.add("E", &[1, 2]);
        c3.add("E", &[2, 0]);
        let mut p3 = Structure::new(sch());
        p3.add("E", &[0, 1]);
        p3.add("E", &[1, 2]);
        p3.add("E", &[2, 3]);
        assert!(!isomorphic(&c3, &p3));
        // Same cycle written with different constants and rotation.
        let mut c3b = Structure::new(sch());
        c3b.add("E", &[7, 9]);
        c3b.add("E", &[9, 11]);
        c3b.add("E", &[11, 7]);
        assert!(isomorphic(&c3, &c3b));
    }

    #[test]
    fn isolated_elements_count() {
        let mut a = edge(0, 1);
        a.add_isolated(5);
        assert!(!isomorphic(&a, &edge(0, 1)));
        let mut b = edge(3, 4);
        b.add_isolated(9);
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn hard_case_same_profile_not_isomorphic() {
        // Both have 3 edges and 3 vertices but only one is a cycle.
        let mut c3 = Structure::new(sch());
        c3.add("E", &[0, 1]);
        c3.add("E", &[1, 2]);
        c3.add("E", &[2, 0]);
        let mut other = Structure::new(sch());
        other.add("E", &[0, 1]);
        other.add("E", &[1, 2]);
        other.add("E", &[0, 2]);
        assert_eq!(c3.profile(), other.profile());
        assert_eq!(c3.domain_size(), other.domain_size());
        assert!(!isomorphic(&c3, &other));
    }

    #[test]
    fn dedup() {
        let items = vec![edge(0, 1), edge(9, 12), edge(3, 3), edge(4, 4), edge(1, 0)];
        let unique = dedup_up_to_iso(items);
        assert_eq!(unique.len(), 2);
        assert!(isomorphic(&unique[0], &edge(0, 1)));
        assert!(isomorphic(&unique[1], &edge(7, 7)));
    }

    #[test]
    fn multiplicity_vectors() {
        let basis = vec![edge(0, 1), edge(3, 3)];
        let items = vec![edge(10, 20), edge(5, 5), edge(6, 6), edge(30, 40)];
        assert_eq!(multiplicities(&basis, &items), Some(vec![2, 2]));
        // An item outside the basis yields None.
        let mut p = Structure::new(sch());
        p.add("P", &[0]);
        assert_eq!(multiplicities(&basis, &[p]), None);
        assert_eq!(multiplicities(&basis, &[]), Some(vec![0, 0]));
    }

    #[test]
    fn nullary_iso() {
        let sch = Schema::with_relations([("H", 0), ("C", 0)]);
        let mut h = Structure::new(sch.clone());
        h.add("H", &[]);
        let mut c = Structure::new(sch.clone());
        c.add("C", &[]);
        assert!(!isomorphic(&h, &c));
        assert!(isomorphic(&h, &h.clone()));
    }
}
