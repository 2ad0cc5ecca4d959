//! True canonical labeling of structures: iterated color refinement with
//! individualization–refinement backtracking.
//!
//! # Why the order-preserving `canon()` encoding is not enough
//!
//! The flat index's `canon()` encoding renumbers the domain *in constant
//! order* — it is an encoding of the structure up to an **order-preserving**
//! renaming.  Two isomorphic structures whose constants happen to sort
//! differently (e.g. `E(0,1)` vs `E(1,0)` — the same single edge, written
//! with its endpoints swapped) produce different encodings, so an
//! `canon()`-keyed map cannot de-duplicate up to isomorphism, and every
//! consumer (basis construction of Definition 27, multiplicity vectors of
//! Definition 29) previously had to fall back to
//! quadratic pairwise `injective_hom_exists` backtracking.
//!
//! # The algorithm
//!
//! This module computes a genuinely **isomorphism-invariant** canonical form
//! (`CanonKey`), the classic individualization–refinement scheme of
//! practical graph-canonization tools (nauty/bliss), specialised to small
//! relational structures over the CSR flat index:
//!
//! 1. **Color refinement.**  Every domain element starts with color `0`.  In
//!    each round, every fact contributes a hash of `(relation, colors of its
//!    argument tuple)` to each of its arguments (tagged with the argument
//!    position); an element's new color is determined by its old color plus
//!    the *multiset* of contributions it received (a commutative sum of
//!    64-bit hashes).  Rounds repeat until the color partition stops
//!    splitting.  Corresponding elements of isomorphic structures receive
//!    identical colors because the computation only reads colors and facts —
//!    never the underlying constant names.
//! 2. **Individualization.**  If the stable partition is not discrete, the
//!    *first smallest* non-singleton color class (an isomorphism-invariant
//!    choice) is split by trying each of its members as a forced singleton
//!    (assigning it a fresh color) and re-refining, recursively.  Every leaf
//!    of this search yields a discrete coloring, i.e. a candidate bijection
//!    `domain → 0..n`; the canonical form is the lexicographically smallest
//!    relabeled-and-re-sorted encoding over all leaves, which makes it
//!    independent of which member of an automorphism orbit was tried first.
//!
//! 3. **Component factoring.**  Refinement and individualization run *per
//!    connected component*: a structure's canonical form is a schema header
//!    (relation names, arities, nullary-fact flags, domain size) followed by
//!    the **sorted multiset** of its components' canonical encodings.  Two
//!    structures are isomorphic iff those multisets coincide (disjoint-union
//!    isomorphism is exactly a bijection between isomorphic components), and
//!    the factoring keeps the symmetry *between* isomorphic components — the
//!    dominant symmetry of real query bodies, e.g. a cross-product query
//!    with `k` copies of the same atom — out of the backtracking search
//!    entirely: without it the search would explore `k!` equivalent leaves.
//!    Isolated elements are singleton components, so they contribute one
//!    tiny payload each instead of a branching cell.
//!
//! Hash collisions inside refinement can only *merge* color classes (make
//! refinement coarser), never split corresponding classes apart — and the
//! individualization search restores exactness regardless of how coarse the
//! refinement is, because the final comparison is between full relabeled
//! encodings of the structure, not between hashes.
//!
//! # Worked example: color refinement on a 3-path vs a 3-cycle
//!
//! Take the directed 3-path `E(a,b), E(b,c)`:
//!
//! * **Round 0** — every element starts with color `0`: the partition is
//!   `{a, b, c}`.
//! * **Round 1** — each fact `E(x,y)` hashes `(E, colors of (x,y))` and
//!   deposits the hash, tagged with the argument position, on `x` and `y`.
//!   `a` receives one *source*-tagged contribution (from `E(a,b)`), `c` one
//!   *target*-tagged contribution (from `E(b,c)`), and `b` one of each —
//!   three distinct contribution multisets, so the partition splits into
//!   `{a} {b} {c}` and is discrete.  No backtracking happens; the canonical
//!   bijection reads straight off the colors.
//!
//! A directed 3-cycle `E(a,b), E(b,c), E(c,a)` is vertex-transitive: every
//! element receives exactly one source- and one target-contribution in
//! every round, so refinement never splits `{a, b, c}` and the
//! individualization search must force one element into a fresh singleton
//! color (after which refinement discretizes).  All three choices lie in
//! one automorphism orbit; the transposition prune explores a single
//! branch.
//!
//! The observable contract — equal keys **iff** isomorphic — surfaces
//! through the public API ([`crate::isomorphic`],
//! [`Structure::iso_class_key`](crate::Structure::iso_class_key)):
//!
//! ```
//! use cqdet_structure::{isomorphic, Schema, Structure};
//!
//! let schema = Schema::binary(["E"]);
//! let path = |v: [u64; 3]| {
//!     let mut s = Structure::new(schema.clone());
//!     s.add("E", &[v[0], v[1]]);
//!     s.add("E", &[v[1], v[2]]);
//!     s
//! };
//! let cycle = |v: [u64; 3]| {
//!     let mut s = path(v);
//!     s.add("E", &[v[2], v[0]]);
//!     s
//! };
//!
//! // Refinement alone separates path endpoints: any renaming — including
//! // one that reverses the constant order, where the cheap
//! // order-preserving encoding disagrees — shares the canonical key.
//! assert!(isomorphic(&path([0, 1, 2]), &path([9, 5, 1])));
//! assert_eq!(
//!     path([0, 1, 2]).iso_class_key(),
//!     path([9, 5, 1]).iso_class_key(),
//! );
//!
//! // The 3-cycle needs the individualization step; rotations and renamings
//! // still collapse to one key, and the path stays distinct.
//! assert!(isomorphic(&cycle([0, 1, 2]), &cycle([40, 2, 11])));
//! assert!(!isomorphic(&path([0, 1, 2]), &cycle([0, 1, 2])));
//! ```
//!
//! # Worst-case honesty
//!
//! Within one connected component, two prunes bound the search on the
//! symmetry families that actually occur: component factoring (above) and
//! a *transposition-automorphism* check — a cell member interchangeable
//! with an already-tried member (swapping the two fixes the fact set) is
//! skipped, which collapses cliques, parallel duplicate atoms and other
//! mutually-interchangeable element sets to one branch per level.  A
//! connected component whose automorphism group is large but contains few
//! transpositions (e.g. a long vertex-transitive circulant) still costs a
//! branch per cell member at the top level; full orbit/stabilizer pruning
//! à la nauty is future work.  The structures canonized in this codebase —
//! frozen query bodies and their components, a handful of atoms each —
//! discretize after one or two refinement rounds in practice; target
//! (data) structures of a hom count are never canonized.
//!
//! The resulting `CanonKey` (canonical bytes plus a 64-bit hash of them) is
//! cached on every compiled structure, so each structure is canonized at
//! most once; [`crate::iso`] compares and buckets keys instead of searching,
//! so isomorphic structures share one key no matter how their constants
//! were named.

use crate::components::Split;
use crate::flat::{sort_dedup_rows, FlatStructure};

/// An isomorphism-invariant canonical key: two structures have equal keys
/// **iff** they are isomorphic (over schemas with identical relation names
/// and arities — the encoding includes both).
#[derive(Debug, Clone)]
pub(crate) struct CanonKey {
    /// 64-bit hash of `bytes` (compared first; used as the bucket hash).
    pub hash: u64,
    /// The canonical encoding: the structure relabeled by its canonical
    /// bijection `domain → 0..n`, rows re-sorted, serialized with relation
    /// names, arities, nullary flags and domain size.
    pub bytes: Box<[u8]>,
}

impl PartialEq for CanonKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for CanonKey {}

impl std::hash::Hash for CanonKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// splitmix64 finalizer: the mixing primitive of the refinement hashes.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the canonical bytes (the stored bucket hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One round of color refinement; returns the new number of color classes.
/// `colors` is replaced by the refined coloring (dense ids `0..k`, assigned
/// in increasing `(old color, contribution multiset)` order, which is
/// isomorphism-invariant).
fn refine_round(b: &FlatStructure, colors: &mut [u32]) -> usize {
    let n = colors.len();
    // Multiset accumulator: commutative sum of per-(fact, position) hashes.
    let mut acc = vec![0u64; n];
    for (rel, &arity) in b.arities().iter().enumerate() {
        if arity == 0 {
            continue;
        }
        for row in b.rows(rel).chunks_exact(arity) {
            let mut h = mix(rel as u64 ^ 0x9E37_79B9_7F4A_7C15);
            for &e in row {
                h = mix(h ^ (colors[e as usize] as u64 + 1));
            }
            for (pos, &e) in row.iter().enumerate() {
                acc[e as usize] =
                    acc[e as usize].wrapping_add(mix(h ^ (pos as u64 + 0x5851_F42D_4C95_7F2D)));
            }
        }
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by_key(|&e| (colors[e as usize], acc[e as usize]));
    let mut new_colors = vec![0u32; n];
    let mut k = 0usize;
    for w in 0..n {
        if w > 0 {
            let (a, b) = (idx[w - 1] as usize, idx[w] as usize);
            if (colors[a], acc[a]) != (colors[b], acc[b]) {
                k += 1;
            }
        }
        new_colors[idx[w] as usize] = k as u32;
    }
    colors.copy_from_slice(&new_colors);
    k + 1
}

/// Refine to a stable partition, starting from `k` classes.
fn refine(b: &FlatStructure, colors: &mut [u32], mut k: usize) -> usize {
    loop {
        let nk = refine_round(b, colors);
        if nk == k {
            return k;
        }
        k = nk;
    }
}

/// Encode a block relabeled by the discrete coloring `perm` (`perm[e]` =
/// canonical local id of element `e`), rows re-sorted.  Relations appear in
/// fixed id order with a row-count prefix, so the encoding is unambiguous
/// without repeating the schema (the whole-structure header carries it).
/// Each relation is relabeled into one fixed-stride buffer, reused across
/// relations, and sorted there.
fn encode_block(b: &FlatStructure, perm: &[u32]) -> Vec<u8> {
    let arities = b.arities();
    let cells: usize = (0..arities.len()).map(|r| b.rows(r).len() + 1).sum();
    let mut out = Vec::with_capacity(4 + cells * 4);
    out.extend_from_slice(&(b.dom.len() as u32).to_le_bytes());
    let mut relabeled: Vec<u32> = Vec::new();
    for (rel, &arity) in arities.iter().enumerate() {
        if arity == 0 {
            continue;
        }
        relabeled.clear();
        relabeled.extend(b.rows(rel).iter().map(|&e| perm[e as usize]));
        // `perm` is a bijection, so the relabeled rows stay distinct and
        // the dedup inside the sort keeps all of them.
        sort_dedup_rows(&mut relabeled, arity);
        out.extend_from_slice(&((relabeled.len() / arity) as u32).to_le_bytes());
        for v in &relabeled {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Per-block search context: the block (one connected component, in its
/// own dense ids) and per-relation row lists for O(log m) fact-membership
/// tests during the transposition-automorphism prune.
struct Ctx<'a> {
    b: &'a FlatStructure,
    sorted_rows: Vec<Vec<&'a [u32]>>,
}

/// Whether swapping elements `a` and `e` (fixing every other element) is an
/// automorphism of the block — i.e. the two are interchangeable.  This is
/// the symmetry family behind the worst factorial searches (cliques,
/// parallel duplicate atoms): members of an interchangeable set contribute
/// identical search subtrees, so one representative suffices.
fn transposition_is_automorphism(ctx: &Ctx, a: u32, e: u32) -> bool {
    for (rel, &arity) in ctx.b.arities().iter().enumerate() {
        if arity == 0 {
            continue;
        }
        for row in ctx.b.rows(rel).chunks_exact(arity) {
            if row.iter().all(|&x| x != a && x != e) {
                continue;
            }
            let mapped: Vec<u32> = row
                .iter()
                .map(|&x| {
                    if x == a {
                        e
                    } else if x == e {
                        a
                    } else {
                        x
                    }
                })
                .collect();
            if ctx.sorted_rows[rel]
                .binary_search(&mapped.as_slice())
                .is_err()
            {
                return false;
            }
        }
    }
    true
}

/// The individualization–refinement search: try every member of the first
/// smallest non-singleton class (modulo the interchangeability prune), keep
/// the lexicographically smallest leaf encoding.
// Invariant-backed expects: a non-discrete refinement always has a class of
// size ≥ 2 to individualize.
#[allow(clippy::expect_used)]
fn search(ctx: &Ctx, colors: &[u32], k: usize, best: &mut Option<Vec<u8>>) {
    let n = colors.len();
    if k == n {
        let cand = encode_block(ctx.b, colors);
        match best {
            Some(prev) if *prev <= cand => {}
            _ => *best = Some(cand),
        }
        return;
    }
    // Target cell: the smallest class of size ≥ 2, lowest color id on ties —
    // both criteria are functions of the invariant coloring alone.
    let mut class_size = vec![0u32; k];
    for &c in colors {
        class_size[c as usize] += 1;
    }
    let target = (0..k)
        .filter(|&c| class_size[c] >= 2)
        .min_by_key(|&c| class_size[c])
        .expect("non-discrete coloring has a class of size >= 2");
    let mut tried: Vec<u32> = Vec::new();
    for e in (0..n as u32).filter(|&e| colors[e as usize] as usize == target) {
        // Interchangeable with an already-tried member: the subtrees are
        // images of each other under the transposition (which fixes the
        // individualized path — path elements hold singleton colors, so they
        // are never cell members), hence yield the same minimal encoding.
        if tried
            .iter()
            .any(|&t| transposition_is_automorphism(ctx, t, e))
        {
            continue;
        }
        let mut c2 = colors.to_vec();
        // A fresh color sorting after every existing class; the same member
        // of the corresponding orbit receives the same value in any
        // isomorphic copy, so the branch set is invariant.
        c2[e as usize] = k as u32;
        let nk = refine(ctx.b, &mut c2, k + 1);
        search(ctx, &c2, nk, best);
        tried.push(e);
    }
}

/// The canonical encoding of one connected block: a component's flat form,
/// whose dense ids serve as its local element ids.
// Invariant-backed expect: individualization always terminates in a
// discrete coloring, so the search necessarily records a leaf.
#[allow(clippy::expect_used)]
pub(crate) fn canonical_block(b: &FlatStructure) -> Vec<u8> {
    let mut colors = vec![0u32; b.dom.len()];
    let k = refine(b, &mut colors, 1);
    // The flat rows are sorted already, so the row lists are too.
    let sorted_rows: Vec<Vec<&[u32]>> = b
        .arities()
        .iter()
        .enumerate()
        .map(|(rel, &arity)| {
            if arity == 0 {
                Vec::new()
            } else {
                b.rows(rel).chunks_exact(arity).collect()
            }
        })
        .collect();
    let ctx = Ctx { b, sorted_rows };
    let mut best = None;
    search(&ctx, &colors, k, &mut best);
    best.expect("individualization search always reaches a discrete leaf")
}

/// Assemble the canonical key of a compiled structure from the canonical
/// encodings of its element components: the schema header (relation names,
/// arities, nullary-fact flags and domain size — fact rows live in the
/// payloads) followed by the sorted, length-prefixed payload multiset.
pub(crate) fn assemble_key(f: &FlatStructure, mut payloads: Vec<&[u8]>) -> CanonKey {
    let mut bytes = Vec::with_capacity(64 + payloads.iter().map(|p| p.len() + 4).sum::<usize>());
    f.encode_header(&mut bytes, false);
    payloads.sort_unstable();
    bytes.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(p);
    }
    CanonKey {
        hash: fnv1a(&bytes),
        bytes: bytes.into_boxed_slice(),
    }
}

/// Compute the canonical key of a compiled structure: schema header plus the
/// sorted multiset of per-component canonical encodings.  Called at most
/// once per [`FlatStructure`] via the `OnceLock` cache
/// ([`FlatStructure::canon_key`]), and not at all for the bodies and
/// components whose keys [`crate::components_keyed`] installs.
pub(crate) fn canonical_key(f: &FlatStructure) -> CanonKey {
    let payloads: Vec<Vec<u8>> = Split::of(f).cut(f).iter().map(canonical_block).collect();
    assemble_key(f, payloads.iter().map(Vec::as_slice).collect())
}

#[cfg(test)]
mod tests {
    use crate::schema::Schema;
    use crate::structure::Structure;

    fn key(s: &Structure) -> (u64, Box<[u8]>) {
        let k = s.flat().canon_key();
        (k.hash, k.bytes.clone())
    }

    fn sch() -> Schema {
        Schema::with_relations([("E", 2), ("P", 1)])
    }

    #[test]
    fn non_order_preserving_renaming_shares_key() {
        // The case the old canon() encoding got wrong: the same edge with
        // endpoints in opposite constant order.
        let mut a = Structure::new(sch());
        a.add("E", &[0, 1]);
        let mut b = Structure::new(sch());
        b.add("E", &[1, 0]);
        assert_ne!(a.flat().canon(), b.flat().canon(), "order-preserving");
        assert_eq!(key(&a), key(&b), "isomorphism-invariant");
    }

    #[test]
    fn cycle_vs_near_cycle_distinguished() {
        // Same profile, same domain size, same degree sequence per slot —
        // only the global structure differs.
        let mut c3 = Structure::new(sch());
        c3.add("E", &[0, 1]);
        c3.add("E", &[1, 2]);
        c3.add("E", &[2, 0]);
        let mut other = Structure::new(sch());
        other.add("E", &[0, 1]);
        other.add("E", &[1, 2]);
        other.add("E", &[0, 2]);
        assert_ne!(key(&c3), key(&other));
        // A rotated, renamed cycle still shares the key.
        let mut c3b = Structure::new(sch());
        c3b.add("E", &[11, 7]);
        c3b.add("E", &[7, 9]);
        c3b.add("E", &[9, 11]);
        assert_eq!(key(&c3), key(&c3b));
    }

    #[test]
    fn symmetric_structures_need_individualization() {
        // A directed 6-cycle is vertex-transitive: refinement alone cannot
        // discretize it, so this exercises the backtracking path.
        let cyc = |offsets: &[u64]| {
            let mut s = Structure::new(sch());
            let n = offsets.len() as u64;
            for i in 0..n {
                s.add("E", &[offsets[i as usize], offsets[((i + 1) % n) as usize]]);
            }
            s
        };
        let a = cyc(&[0, 1, 2, 3, 4, 5]);
        let b = cyc(&[9, 3, 77, 2, 40, 11]);
        assert_eq!(key(&a), key(&b));
        // Two disjoint 3-cycles vs one 6-cycle: same profile, not isomorphic.
        let mut two = cyc(&[0, 1, 2]);
        for f in cyc(&[10, 11, 12]).facts() {
            two.add_fact(f);
        }
        assert_ne!(key(&a), key(&two));
    }

    #[test]
    fn isolated_elements_counted_not_named() {
        let mut a = Structure::new(sch());
        a.add("E", &[0, 1]);
        a.add_isolated(7);
        a.add_isolated(8);
        let mut b = Structure::new(sch());
        b.add("E", &[500, 2]);
        b.add_isolated(1000);
        b.add_isolated(3);
        assert_eq!(key(&a), key(&b));
        let mut c = Structure::new(sch());
        c.add("E", &[0, 1]);
        c.add_isolated(7);
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn nullary_only_structures() {
        let sch = Schema::with_relations([("H", 0), ("C", 0)]);
        let mut h = Structure::new(sch.clone());
        h.add("H", &[]);
        let mut c = Structure::new(sch.clone());
        c.add("C", &[]);
        assert_ne!(key(&h), key(&c));
        assert_eq!(key(&h), key(&h.clone()));
    }

    #[test]
    fn unary_marks_break_symmetry() {
        let mut a = Structure::new(sch());
        a.add("E", &[0, 1]);
        a.add("P", &[0]);
        let mut b = Structure::new(sch());
        b.add("E", &[0, 1]);
        b.add("P", &[1]);
        assert_ne!(key(&a), key(&b), "source-marked vs sink-marked edge");
    }
}
