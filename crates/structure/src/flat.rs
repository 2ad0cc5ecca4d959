//! Compiled flat-index form of a [`Structure`].
//!
//! Homomorphism search is the single most used primitive of the whole
//! reproduction, and the original engine paid a `String`-keyed `BTreeMap`
//! lookup plus a `Vec` allocation per backtracking step.  This module
//! compiles a structure once into contiguous arrays:
//!
//! * the domain becomes a sorted `Vec<Const>`, so every constant is a dense
//!   `u32` id (its index),
//! * every relation's tuples become one row-major `Vec<u32>` of dense ids,
//!   rows sorted lexicographically, so a fact-membership test is a binary
//!   search over a flat slice — no allocation, no tree walk,
//! * every element gets an *occurrence bitmask* over `(relation, position)`
//!   slots, the raw material of the degree/arity candidate filter used by the
//!   search ([`crate::hom`]),
//! * a byte encoding of the whole structure under the order-preserving dense
//!   renumbering, keyed by relation *names* — a cheap equality fast path for
//!   the isomorphism test ([`crate::iso`]),
//! * the true isomorphism-invariant canonical key of [`crate::canon`]
//!   (computed on first use, cached), which de-duplication, multiplicity
//!   vectors and the [`crate::hom::SharedCaches`] memo key on,
//! * a per-target memo of candidate-image lists keyed by occurrence mask
//!   ([`FlatStructure::candidates_for_mask`]), shared across every search
//!   plan targeting the structure.  The memo binds to the candidate family
//!   of the first search that fills it: a decision context's family (whose
//!   cap and counters the context owns), or none for a search run without
//!   a context.
//!
//! The compiled form is cached on the [`Structure`] itself (invalidated on
//! mutation), so the one-time O(n log n) compile cost is amortised over every
//! query against the same structure.

use crate::canon::{canonical_key, CanonKey};
use crate::filter;
use crate::schema::RelTable;
use crate::structure::{Const, Structure};
use cqdet_cache::{Family, ShardedCache};
use std::sync::{Arc, OnceLock};

/// Default byte budget of one candidate memo (a family's cap until its
/// owner retargets it, and the cap of a memo filled without a context):
/// keeps adversarial mask diversity from accumulating unbounded memory on
/// long-lived targets; `cqdet serve --cache-bytes` scales a context's.
pub(crate) const CAND_DEFAULT_BYTES: usize = 16 << 20;

/// True byte cost of one memoized candidate list: mask words, candidate
/// ids, plus a fixed estimate of the map-entry and `Arc` bookkeeping.
#[allow(clippy::borrowed_box)] // must match the cache's `fn(&K, &V)` weigher type
fn cand_weight(key: &Box<[u64]>, value: &Arc<Vec<u32>>) -> usize {
    key.len() * 8 + value.len() * 4 + 64
}

/// Occurrence mask → candidate-image list (see
/// [`FlatStructure::candidates_for_mask`]): few shards (the per-structure
/// mask diversity is modest); a member of `family` when one is given —
/// byte cap, counters and governor shared across the family — else a
/// standalone memo under the default cap.
type CandCache = ShardedCache<Box<[u64]>, Arc<Vec<u32>>>;

fn new_cand_cache(family: Option<&Arc<Family>>) -> CandCache {
    match family {
        Some(f) => ShardedCache::family_member(4, f, cand_weight),
        None => ShardedCache::with_shards(4, CAND_DEFAULT_BYTES, cand_weight),
    }
}

/// Largest domain for which a binary relation gets a dense membership bit
/// matrix (`4096² bits = 2 MiB` per relation at the cap — bounded, and tiny
/// on the query-sized structures the hom search spends its time on).
const PAIR_BITS_MAX_DOM: usize = 4096;

/// The compiled flat form of one structure.
#[derive(Debug)]
pub(crate) struct FlatStructure {
    /// Sorted domain constants; the dense id of a constant is its index.
    pub dom: Vec<Const>,
    /// Arity per relation id (same order as `Structure::rel_names`).
    pub arities: Vec<usize>,
    /// Per relation id: row-major tuples of dense ids, rows sorted
    /// lexicographically.  Empty for nullary relations.
    pub rows: Vec<Vec<u32>>,
    /// Per relation id: whether the (single possible) nullary fact is present.
    pub nullary_present: Vec<bool>,
    /// Number of `u64` words in one occurrence mask.
    pub slot_words: usize,
    /// Element-major occurrence masks, a contiguous fixed-stride lane
    /// matrix: `occ[e * slot_words ..][w]` has bit `k % 64` of word `k / 64`
    /// set iff element `e` occurs at slot `k`.  The candidate filter sweeps
    /// it block-wise through the lane kernels of [`crate::filter`].
    pub occ: Vec<u64>,
    /// Per relation id: bucket boundaries of the sorted rows by *first*
    /// argument (`row_starts[rel][e] .. row_starts[rel][e+1]` is the row
    /// range whose leading dense id is `e`), so a fact-membership probe
    /// binary-searches a handful of rows instead of the whole relation.
    /// Empty for nullary relations.
    pub row_starts: Vec<Vec<u32>>,
    /// Per relation id: for binary relations over a small domain, a dense
    /// bit matrix (`bits[u * words_per_row + v/64]` bit `v%64` ⇔ `(u,v)`
    /// present) answering the hot arity-2 membership probe with one load
    /// and a bit test.  `None` for other arities or very large domains.
    pair_bits: Vec<Option<Vec<u64>>>,
    /// Per relation id, binary relations only: bucket boundaries by *second*
    /// argument (`rev_starts[rel][v] .. rev_starts[rel][v+1]` indexes into
    /// `rev_firsts[rel]`, the first arguments of the rows whose second
    /// argument is `v`).  The hom search enumerates in-neighbours through
    /// it.  Empty for other arities.
    pub rev_starts: Vec<Vec<u32>>,
    pub rev_firsts: Vec<Vec<u32>>,
    /// Relation table (shared with the source structure's schema), for the
    /// canonical encoding.
    table: Arc<RelTable>,
    /// Canonical byte encoding (relation names + arities + dense rows +
    /// domain size), built on first use: two structures with equal encodings
    /// are equal up to an order-preserving renaming of constants.
    canon: OnceLock<Vec<u8>>,
    /// True isomorphism-invariant canonical key ([`crate::canon`]), built on
    /// first use: two structures have equal keys iff they are isomorphic.
    canon_key: OnceLock<CanonKey>,
    /// Memoized candidate lists for homomorphism search *into* this
    /// structure: occurrence mask (in this structure's slot space) → the
    /// elements whose mask is a superset.  Shared across every search plan
    /// targeting this structure, so a fan-in of many small sources (e.g. the
    /// per-view containment gate) scans the domain once per distinct mask
    /// instead of once per plan.  Created by the first search that needs
    /// it and bound to that search's family ([`new_cand_cache`]).
    cand_cache: OnceLock<CandCache>,
}

impl FlatStructure {
    // Invariant-backed expect: every constant fed to `dense` comes from the
    // structure whose domain `dom` enumerates.
    #[allow(clippy::expect_used)]
    pub(crate) fn compile(s: &Structure) -> FlatStructure {
        let dom: Vec<Const> = s.domain().into_iter().collect();
        let dense = |c: Const| -> u32 {
            dom.binary_search(&c).expect("constant from the structure") as u32
        };

        let arities: Vec<usize> = s.rel_arities().to_vec();
        let slot_base: Vec<usize> = arities
            .iter()
            .scan(0usize, |acc, &a| {
                let base = *acc;
                *acc += a;
                Some(base)
            })
            .collect();
        let total_slots: usize = arities.iter().sum();
        let slot_words = total_slots.div_ceil(64).max(1);

        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(arities.len());
        let mut nullary_present = vec![false; arities.len()];
        let mut occ = vec![0u64; dom.len() * slot_words];
        for (rel, &arity) in arities.iter().enumerate() {
            let tuples = s.tuples_of(rel as u32);
            if arity == 0 {
                nullary_present[rel] = !tuples.is_empty();
                rows.push(Vec::new());
                continue;
            }
            let mut flat = Vec::with_capacity(tuples.len() * arity);
            for t in tuples {
                for (pos, &c) in t.iter().enumerate() {
                    let e = dense(c) as usize;
                    flat.push(e as u32);
                    let slot = slot_base[rel] + pos;
                    occ[e * slot_words + slot / 64] |= 1 << (slot % 64);
                }
            }
            // `tuples` is a BTreeSet of Vec<Const> iterated in sorted order and
            // the dense renumbering is monotone, so `flat`'s rows are already
            // sorted lexicographically.
            rows.push(flat);
        }

        let mut pair_bits: Vec<Option<Vec<u64>>> = Vec::with_capacity(arities.len());
        for (rel, &arity) in arities.iter().enumerate() {
            if arity != 2 || dom.len() > PAIR_BITS_MAX_DOM {
                pair_bits.push(None);
                continue;
            }
            let wpr = dom.len().div_ceil(64).max(1);
            let mut bits = vec![0u64; dom.len() * wpr];
            for row in rows[rel].chunks_exact(2) {
                let (u, v) = (row[0] as usize, row[1] as usize);
                bits[u * wpr + v / 64] |= 1 << (v % 64);
            }
            pair_bits.push(Some(bits));
        }

        let mut rev_starts: Vec<Vec<u32>> = Vec::with_capacity(arities.len());
        let mut rev_firsts: Vec<Vec<u32>> = Vec::with_capacity(arities.len());
        for (rel, &arity) in arities.iter().enumerate() {
            if arity != 2 {
                rev_starts.push(Vec::new());
                rev_firsts.push(Vec::new());
                continue;
            }
            // Counting sort of the rows by second argument.
            let mut starts = vec![0u32; dom.len() + 1];
            for row in rows[rel].chunks_exact(2) {
                starts[row[1] as usize + 1] += 1;
            }
            for v in 0..dom.len() {
                starts[v + 1] += starts[v];
            }
            let mut firsts = vec![0u32; rows[rel].len() / 2];
            let mut cursor = starts.clone();
            for row in rows[rel].chunks_exact(2) {
                let c = &mut cursor[row[1] as usize];
                firsts[*c as usize] = row[0];
                *c += 1;
            }
            rev_starts.push(starts);
            rev_firsts.push(firsts);
        }

        let mut row_starts: Vec<Vec<u32>> = Vec::with_capacity(arities.len());
        for (rel, &arity) in arities.iter().enumerate() {
            if arity == 0 {
                row_starts.push(Vec::new());
                continue;
            }
            // Lexicographically sorted rows group by first argument, so the
            // bucket boundaries are one counting pass plus a prefix sum.
            let mut starts = vec![0u32; dom.len() + 1];
            for row in rows[rel].chunks_exact(arity) {
                starts[row[0] as usize + 1] += 1;
            }
            for e in 0..dom.len() {
                starts[e + 1] += starts[e];
            }
            row_starts.push(starts);
        }

        FlatStructure {
            dom,
            arities,
            rows,
            nullary_present,
            slot_words,
            occ,
            row_starts,
            pair_bits,
            rev_starts,
            rev_firsts,
            table: s.schema().table(),
            canon: OnceLock::new(),
            canon_key: OnceLock::new(),
            cand_cache: OnceLock::new(),
        }
    }

    /// The interned relation table this structure was compiled against.
    pub(crate) fn table(&self) -> &RelTable {
        &self.table
    }

    /// The canonical byte encoding (computed once, on first use).
    pub(crate) fn canon(&self) -> &[u8] {
        self.canon.get_or_init(|| {
            encode_canonical(
                &self.table.names,
                &self.arities,
                &self.rows,
                &self.nullary_present,
                self.dom.len(),
            )
        })
    }

    /// The isomorphism-invariant canonical key (computed once, on first use;
    /// see [`crate::canon`] for the labeling algorithm).
    pub(crate) fn canon_key(&self) -> &CanonKey {
        self.canon_key.get_or_init(|| canonical_key(self))
    }

    /// Install a canonical key assembled elsewhere ([`crate::components_keyed`]);
    /// a no-op when the key is already cached (a structure has one key, so
    /// the two agree).
    pub(crate) fn install_canon_key(&self, key: CanonKey) {
        let _ = self.canon_key.set(key);
    }

    /// Number of tuples of relation `rel`.
    #[inline]
    #[allow(clippy::manual_checked_ops)]
    pub(crate) fn row_count(&self, rel: usize) -> usize {
        let a = self.arities[rel];
        if a == 0 {
            usize::from(self.nullary_present[rel])
        } else {
            self.rows[rel].len() / a
        }
    }

    /// Whether relation `rel` contains the dense-id row `row`.
    #[inline]
    pub(crate) fn contains_row(&self, rel: usize, row: &[u32]) -> bool {
        let a = self.arities[rel];
        debug_assert_eq!(a, row.len());
        if a == 0 {
            return self.nullary_present[rel];
        }
        if a == 2 {
            if let Some(bits) = &self.pair_bits[rel] {
                let wpr = self.dom.len().div_ceil(64).max(1);
                let (u, v) = (row[0] as usize, row[1] as usize);
                return bits[u * wpr + v / 64] >> (v % 64) & 1 == 1;
            }
        }
        let data = &self.rows[rel];
        // Narrow to the bucket of rows sharing the probe's first argument
        // (usually a handful), then binary-search the sorted fixed-stride
        // rows inside it.  The hom search probes once per candidate
        // extension, so this lookup is squarely on the hot path.
        let starts = &self.row_starts[rel];
        let mut lo = starts[row[0] as usize] as usize;
        let mut hi = starts[row[0] as usize + 1] as usize;
        if a == 1 {
            return lo < hi;
        }
        while lo < hi {
            let mid = (lo + hi) / 2;
            let cand = &data[mid * a + 1..mid * a + a];
            match cand.cmp(&row[1..]) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The occurrence mask of element `e`, as a word slice.
    #[inline]
    pub(crate) fn mask_of(&self, e: usize) -> &[u64] {
        &self.occ[e * self.slot_words..(e + 1) * self.slot_words]
    }

    /// The elements of this structure whose occurrence mask is a superset of
    /// `mask` (i.e. the candidate images, under this target, of any source
    /// element with that mask), memoized per distinct mask.  `mask` must
    /// live in this structure's slot space.
    ///
    /// `family` is the candidate family of the searching context (`None`
    /// without one).  The first search binds the memo to its family; a
    /// context's searches target its own frozen structures or structures
    /// built fresh for it, so every entry a context fills counts in that
    /// context's family.
    pub(crate) fn candidates_for_mask(
        &self,
        mask: &[u64],
        family: Option<&Arc<Family>>,
    ) -> Arc<Vec<u32>> {
        debug_assert_eq!(mask.len(), self.slot_words);
        let memo = self.cand_cache.get_or_init(|| new_cand_cache(family));
        if let Some(hit) = memo.probe(mask) {
            return hit;
        }
        let cands: Arc<Vec<u32>> = Arc::new(filter::superset_indices(
            mask,
            &self.occ,
            self.slot_words,
            self.dom.len(),
        ));
        memo.insert_or_get(mask.into(), cands)
    }
}

/// Canonical byte encoding; includes relation names so that structures over
/// different schemas can never collide in the memo cache.
pub(crate) fn encode_canonical(
    names: &[String],
    arities: &[usize],
    rows: &[Vec<u32>],
    nullary_present: &[bool],
    dom_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rows.iter().map(|r| r.len() * 4).sum::<usize>());
    out.extend_from_slice(&(dom_len as u64).to_le_bytes());
    out.extend_from_slice(&(arities.len() as u32).to_le_bytes());
    for (rel, name) in names.iter().enumerate() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(arities[rel] as u32).to_le_bytes());
        if arities[rel] == 0 {
            out.push(u8::from(nullary_present[rel]));
            continue;
        }
        out.extend_from_slice(&(rows[rel].len() as u32).to_le_bytes());
        for &e in &rows[rel] {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn compile_basic() {
        let mut s = Structure::new(Schema::with_relations([("E", 2), ("P", 1)]));
        s.add("E", &[5, 9]);
        s.add("E", &[9, 5]);
        s.add("P", &[5]);
        s.add_isolated(7);
        let f = FlatStructure::compile(&s);
        assert_eq!(f.dom, vec![5, 7, 9]);
        // Relation ids are sorted: E=0, P=1.
        assert_eq!(f.arities, vec![2, 1]);
        assert_eq!(f.row_count(0), 2);
        assert_eq!(f.row_count(1), 1);
        assert!(f.contains_row(0, &[0, 2]));
        assert!(f.contains_row(0, &[2, 0]));
        assert!(!f.contains_row(0, &[0, 0]));
        assert!(f.contains_row(1, &[0]));
        assert!(!f.contains_row(1, &[1]));
        // Element 7 (dense id 1) occurs nowhere.
        assert_eq!(f.mask_of(1), &[0]);
        // Element 5 occurs at E.0, E.1 and P.0 — slots 0, 1, 2.
        assert_eq!(f.mask_of(0), &[0b111]);
        // Element 9 occurs at E.0 and E.1 only.
        assert_eq!(f.mask_of(2), &[0b011]);
    }

    #[test]
    fn nullary_and_canonical_keys() {
        let sch = Schema::with_relations([("H", 0), ("P", 1)]);
        let mut a = Structure::new(sch.clone());
        a.add("H", &[]);
        a.add("P", &[3]);
        let mut b = Structure::new(sch.clone());
        b.add("H", &[]);
        b.add("P", &[77]);
        // Same structure up to renaming → same canonical key.
        assert_eq!(
            FlatStructure::compile(&a).canon(),
            FlatStructure::compile(&b).canon()
        );
        let mut c = Structure::new(sch);
        c.add("P", &[3]);
        assert_ne!(
            FlatStructure::compile(&a).canon(),
            FlatStructure::compile(&c).canon()
        );
        assert!(FlatStructure::compile(&a).contains_row(0, &[]));
        assert!(!FlatStructure::compile(&c).contains_row(0, &[]));
    }

    #[test]
    fn isolated_only_differs_from_empty() {
        let sch = Schema::binary(["E"]);
        let empty = Structure::new(sch.clone());
        let mut iso = Structure::new(sch);
        iso.add_isolated(0);
        assert_ne!(
            FlatStructure::compile(&empty).canon(),
            FlatStructure::compile(&iso).canon()
        );
    }
}
