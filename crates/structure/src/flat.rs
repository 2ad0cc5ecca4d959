//! The flat form of a [`Structure`] — its one storage.
//!
//! Homomorphism search is the single most used primitive of the whole
//! reproduction, and canonization and component splitting run once per
//! frozen body, so a structure is stored as contiguous arrays instead of
//! per-fact tree nodes:
//!
//! * the domain is a sorted `Vec<Const>`, so every constant is a dense `u32`
//!   id (its index),
//! * every relation's tuples are row-major dense ids in **one** arena with
//!   per-relation offsets, rows sorted lexicographically and deduplicated,
//!   so a fact-membership test is a binary search over a flat slice — no
//!   allocation, no tree walk,
//! * every element gets an *occurrence bitmask* over `(relation, position)`
//!   slots, the raw material of the degree/arity candidate filter used by the
//!   search ([`crate::hom`]).
//!
//! Those three arrays are the whole core: a structure costs three heap
//! blocks plus its `Arc`, and relation names and arities come from the
//! shared [`RelTable`].  Everything else is derived on first use and cached:
//!
//! * the hom-target indexes ([`TargetIndex`], one block) — row buckets by
//!   first argument, dense bit matrices and reverse buckets for binary
//!   relations — built the first time the structure is a search *target*,
//! * a byte encoding of the whole structure under the order-preserving dense
//!   renumbering, keyed by relation *names* — a cheap equality fast path for
//!   the isomorphism test ([`crate::iso`]),
//! * the true isomorphism-invariant canonical key of [`crate::canon`],
//!   which de-duplication and multiplicity vectors key on.
//!
//! [`FlatStructure::from_sorted_rows`] is the one constructor.  Builder-made
//! structures reach it through [`sorted_cells`] (one sort + dedup of the
//! build log), frozen query bodies through the same routine over dense
//! variable ids, and connected components by cutting their rows
//! out of the parent's arena ([`crate::components`]) — already sorted.

use crate::canon::{canonical_key, CanonKey};
use crate::schema::RelTable;
use crate::structure::Const;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Largest domain for which a binary relation gets a dense membership bit
/// matrix (`4096² bits = 2 MiB` per relation at the cap — bounded, and tiny
/// on the query-sized structures the hom search spends its time on).
const PAIR_BITS_MAX_DOM: usize = 4096;

/// The flat form of one structure.
#[derive(Debug)]
pub(crate) struct FlatStructure {
    /// Relation table (shared with the structure's schema): names, for the
    /// canonical encodings, and the arity of every relation id.
    table: Arc<RelTable>,
    /// Sorted domain constants; the dense id of a constant is its index.
    pub dom: Vec<Const>,
    /// The row arena.  `cells[rel] .. cells[rel + 1]` (for `rel` in
    /// `0..n_rels`) bounds relation `rel`'s rows: row-major dense ids,
    /// sorted lexicographically, no duplicates.  A present nullary fact
    /// occupies one placeholder cell, so every relation's row count is its
    /// cell count over `max(arity, 1)`.
    cells: Vec<u32>,
    /// Number of `u64` words in one occurrence mask.
    pub slot_words: usize,
    /// Element-major occurrence masks, a contiguous fixed-stride lane
    /// matrix: `occ[e * slot_words ..][w]` has bit `k % 64` of word `k / 64`
    /// set iff element `e` occurs at slot `k`.  The candidate filter sweeps
    /// it block-wise through the lane kernels of [`crate::filter`].
    pub occ: Vec<u64>,
    /// The hom-target indexes, built the first time this structure is the
    /// target of a search.
    target: OnceLock<TargetIndex>,
    /// Canonical byte encoding (relation names + arities + dense rows +
    /// domain size), built on first use: two structures with equal encodings
    /// are equal up to an order-preserving renaming of constants.
    canon: OnceLock<Vec<u8>>,
    /// True isomorphism-invariant canonical key ([`crate::canon`]), built on
    /// first use: two structures have equal keys iff they are isomorphic.
    canon_key: OnceLock<CanonKey>,
}

impl FlatStructure {
    /// The flat form with domain `dom` (sorted, distinct) and row arena
    /// `cells` (laid out as documented on the field: sorted, deduplicated
    /// rows of dense ids into `dom`).  Derives the occurrence masks.
    pub(crate) fn from_sorted_rows(
        table: Arc<RelTable>,
        dom: Vec<Const>,
        cells: Vec<u32>,
    ) -> FlatStructure {
        let total_slots: usize = table.arities.iter().sum();
        let slot_words = total_slots.div_ceil(64).max(1);
        let mut occ = vec![0u64; dom.len() * slot_words];
        let mut slot_base = 0usize;
        for (rel, &arity) in table.arities.iter().enumerate() {
            if arity > 0 {
                let rows = &cells[cells[rel] as usize..cells[rel + 1] as usize];
                for row in rows.chunks_exact(arity) {
                    for (pos, &e) in row.iter().enumerate() {
                        let slot = slot_base + pos;
                        occ[e as usize * slot_words + slot / 64] |= 1 << (slot % 64);
                    }
                }
            }
            slot_base += arity;
        }
        FlatStructure {
            table,
            dom,
            cells,
            slot_words,
            occ,
            target: OnceLock::new(),
            canon: OnceLock::new(),
            canon_key: OnceLock::new(),
        }
    }

    /// The interned relation table this structure was built against.
    pub(crate) fn table(&self) -> &Arc<RelTable> {
        &self.table
    }

    /// Arity per relation id.
    #[inline]
    pub(crate) fn arities(&self) -> &[usize] {
        &self.table.arities
    }

    /// The rows of relation `rel` (row-major dense ids, sorted); empty for
    /// nullary relations.
    #[inline]
    pub(crate) fn rows(&self, rel: usize) -> &[u32] {
        if self.table.arities[rel] == 0 {
            return &[];
        }
        &self.cells[self.cells[rel] as usize..self.cells[rel + 1] as usize]
    }

    /// Whether nullary relation `rel` holds its (single possible) fact.
    #[inline]
    pub(crate) fn has_nullary(&self, rel: usize) -> bool {
        self.table.arities[rel] == 0 && self.cells[rel + 1] > self.cells[rel]
    }

    /// Number of tuples of relation `rel`.
    #[inline]
    pub(crate) fn row_count(&self, rel: usize) -> usize {
        (self.cells[rel + 1] - self.cells[rel]) as usize / self.table.arities[rel].max(1)
    }

    /// Total number of facts.
    pub(crate) fn num_facts(&self) -> usize {
        (0..self.table.arities.len())
            .map(|r| self.row_count(r))
            .sum()
    }

    /// The content of the order-preserving encoding ([`Self::canon`]),
    /// unencoded: the relation table (by identity), the domain size and the
    /// row arena.  Equal contents have equal encodings, hence equal
    /// canonical payloads.
    pub(crate) fn content(&self) -> (*const RelTable, usize, &[u32]) {
        (Arc::as_ptr(&self.table), self.dom.len(), &self.cells)
    }

    /// Whether two flat forms over the same relation table hold the same
    /// facts and domain.
    pub(crate) fn same_content(&self, other: &FlatStructure) -> bool {
        self.dom == other.dom && self.cells == other.cells
    }

    /// Whether element `e` occurs in at least one fact.
    #[inline]
    pub(crate) fn is_active(&self, e: usize) -> bool {
        self.mask_of(e).iter().any(|&w| w != 0)
    }

    /// The hom-target indexes (built once, on first use).
    pub(crate) fn target(&self) -> &TargetIndex {
        self.target.get_or_init(|| TargetIndex::build(self))
    }

    /// The canonical byte encoding (computed once, on first use).
    pub(crate) fn canon(&self) -> &[u8] {
        self.canon.get_or_init(|| {
            let mut out = Vec::with_capacity(64 + self.cells.len() * 4);
            self.encode_header(&mut out, true);
            out
        })
    }

    /// Write the order-preserving encoding: domain size, then per relation
    /// its name, arity and either the nullary flag or (cell count and
    /// cells when `with_rows`, else a zero count).  Relation names keep
    /// structures over different schemas from ever colliding in a map.
    pub(crate) fn encode_header(&self, out: &mut Vec<u8>, with_rows: bool) {
        let arities = &self.table.arities;
        out.extend_from_slice(&(self.dom.len() as u64).to_le_bytes());
        out.extend_from_slice(&(arities.len() as u32).to_le_bytes());
        for (rel, name) in self.table.names.iter().enumerate() {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(arities[rel] as u32).to_le_bytes());
            if arities[rel] == 0 {
                out.push(u8::from(self.has_nullary(rel)));
                continue;
            }
            let rows = if with_rows { self.rows(rel) } else { &[] };
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for &e in rows {
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
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

    /// The occurrence mask of element `e`, as a word slice.
    #[inline]
    pub(crate) fn mask_of(&self, e: usize) -> &[u64] {
        &self.occ[e * self.slot_words..(e + 1) * self.slot_words]
    }
}

/// The row arena (see `FlatStructure::cells`) of the facts `rels[i](args…)`:
/// relation ids, and each fact's arguments concatenated in `args`, mapped
/// to dense ids by `dense`.  One counting pass groups the rows by relation,
/// then each relation is sorted and deduplicated in place.
pub(crate) fn sorted_cells<A: Copy>(
    arities: &[usize],
    rels: &[u32],
    args: &[A],
    dense: impl Fn(A) -> u32,
) -> Vec<u32> {
    let n_rels = arities.len();
    // Arena sizes: `cells[rel + 1]` counts relation `rel`'s cells, then a
    // prefix sum turns the counts into start offsets.
    let stride = |rel: usize| arities[rel].max(1);
    let total: usize = rels.iter().map(|&r| stride(r as usize)).sum();
    let mut cells = vec![0u32; n_rels + 1 + total];
    for &r in rels {
        cells[r as usize + 1] += stride(r as usize) as u32;
    }
    cells[0] = (n_rels + 1) as u32;
    for rel in 0..n_rels {
        cells[rel + 1] += cells[rel];
    }
    // Scatter, using `cells[rel]` as relation `rel`'s write cursor; the
    // cursors end at the next relation's start, so shifting them up by one
    // restores the offsets.
    let mut next = 0;
    for &r in rels {
        let r = r as usize;
        let at = cells[r] as usize;
        let arity = arities[r];
        for (slot, &a) in cells[at..at + arity]
            .iter_mut()
            .zip(&args[next..next + arity])
        {
            *slot = dense(a);
        }
        next += arity;
        cells[r] += stride(r) as u32;
    }
    cells.copy_within(0..n_rels, 1);
    cells[0] = (n_rels + 1) as u32;
    // Sort and deduplicate each relation, compacting leftwards.
    let mut write = n_rels + 1;
    for rel in 0..n_rels {
        let (lo, hi) = (cells[rel] as usize, cells[rel + 1] as usize);
        let len = sort_dedup_rows(&mut cells[lo..hi], stride(rel));
        cells.copy_within(lo..lo + len, write);
        cells[rel] = write as u32;
        write += len;
    }
    cells[n_rels] = write as u32;
    cells.truncate(write);
    cells
}

/// Sort the fixed-stride rows of `rows` lexicographically and move the
/// distinct ones to the front; returns their total cell count.
pub(crate) fn sort_dedup_rows(rows: &mut [u32], stride: usize) -> usize {
    match stride {
        1 => sort_dedup_fixed::<1>(rows),
        2 => sort_dedup_fixed::<2>(rows),
        3 => sort_dedup_fixed::<3>(rows),
        4 => sort_dedup_fixed::<4>(rows),
        _ => {
            let mut sorted: Vec<&[u32]> = rows.chunks_exact(stride).collect();
            sorted.sort_unstable();
            sorted.dedup();
            let flat: Vec<u32> = sorted.concat();
            rows[..flat.len()].copy_from_slice(&flat);
            flat.len()
        }
    }
}

fn sort_dedup_fixed<const N: usize>(rows: &mut [u32]) -> usize {
    let (chunks, _) = rows.as_chunks_mut::<N>();
    chunks.sort_unstable();
    let mut kept = 0;
    for i in 0..chunks.len() {
        if kept == 0 || chunks[i] != chunks[kept - 1] {
            chunks[kept] = chunks[i];
            kept += 1;
        }
    }
    kept * N
}

/// Segments of one relation in a [`TargetIndex`], in layout order.
const ROW_STARTS: usize = 0;
const PAIR_BITS: usize = 1;
const REV_STARTS: usize = 2;
const REV_FIRSTS: usize = 3;
const SEGMENTS: usize = 4;

/// The hom-target indexes of one structure, in one block.  Per relation,
/// four segments (empty where they do not apply):
///
/// * `row_starts` (positive arity): bucket boundaries of the sorted rows by
///   *first* argument — rows `row_starts[e] .. row_starts[e + 1]` lead with
///   dense id `e` — so a membership probe binary-searches a handful of rows
///   instead of the whole relation;
/// * `pair_bits` (binary, domain ≤ [`PAIR_BITS_MAX_DOM`]): a dense bit
///   matrix (`bits[u * words_per_row + v / 32]` bit `v % 32` ⇔ `(u, v)`
///   present) answering the hot arity-2 probe with one load and a bit test;
/// * `rev_starts` / `rev_firsts` (binary): bucket boundaries by *second*
///   argument into the first arguments of those rows, through which the
///   search enumerates in-neighbours.
///
/// `cells[r * SEGMENTS + s] .. cells[r * SEGMENTS + s + 1]` bounds segment
/// `s` of relation `r`.
#[derive(Debug)]
pub(crate) struct TargetIndex {
    cells: Vec<u32>,
}

impl TargetIndex {
    fn build(f: &FlatStructure) -> TargetIndex {
        let n = f.dom.len();
        let wpr = n.div_ceil(32).max(1);
        let arities = f.arities();
        let seg_len = |rel: usize, s: usize| -> usize {
            match (arities[rel], s) {
                (0, _) => 0,
                (_, ROW_STARTS) => n + 1,
                (2, PAIR_BITS) if n <= PAIR_BITS_MAX_DOM => n * wpr,
                (2, REV_STARTS) => n + 1,
                (2, REV_FIRSTS) => f.row_count(rel),
                _ => 0,
            }
        };
        let header = arities.len() * SEGMENTS + 1;
        let body: usize = (0..arities.len())
            .map(|rel| (0..SEGMENTS).map(|s| seg_len(rel, s)).sum::<usize>())
            .sum();
        let mut cells = vec![0u32; header + body];
        let mut at = header;
        for rel in 0..arities.len() {
            for s in 0..SEGMENTS {
                cells[rel * SEGMENTS + s] = at as u32;
                at += seg_len(rel, s);
            }
        }
        cells[header - 1] = at as u32;
        let mut idx = TargetIndex { cells };
        for (rel, &arity) in arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            let rows = f.rows(rel);
            // Lexicographically sorted rows group by first argument, so the
            // bucket boundaries are one counting pass plus a prefix sum.
            let starts = idx.seg_mut(rel, ROW_STARTS);
            for row in rows.chunks_exact(arity) {
                starts[row[0] as usize + 1] += 1;
            }
            for e in 0..n {
                starts[e + 1] += starts[e];
            }
            if arity != 2 {
                continue;
            }
            let bits = idx.seg_mut(rel, PAIR_BITS);
            if !bits.is_empty() {
                for row in rows.chunks_exact(2) {
                    let (u, v) = (row[0] as usize, row[1] as usize);
                    bits[u * wpr + v / 32] |= 1 << (v % 32);
                }
            }
            // Counting sort of the rows by second argument: the starts end
            // up as the write cursors' final positions, so fill with the
            // cursors, then shift them back by one bucket.
            let starts = idx.seg_mut(rel, REV_STARTS);
            for row in rows.chunks_exact(2) {
                starts[row[1] as usize + 1] += 1;
            }
            for v in 0..n {
                starts[v + 1] += starts[v];
            }
            let (lo, mid) = (
                idx.cells[rel * SEGMENTS + REV_STARTS] as usize,
                idx.cells[rel * SEGMENTS + REV_FIRSTS] as usize,
            );
            let (head, firsts) = idx.cells.split_at_mut(mid);
            let cursor = &mut head[lo..mid];
            for row in rows.chunks_exact(2) {
                let c = &mut cursor[row[1] as usize];
                firsts[*c as usize] = row[0];
                *c += 1;
            }
            cursor.copy_within(0..n, 1);
            cursor[0] = 0;
        }
        idx
    }

    #[inline]
    fn seg(&self, rel: usize, s: usize) -> &[u32] {
        let h = rel * SEGMENTS + s;
        &self.cells[self.cells[h] as usize..self.cells[h + 1] as usize]
    }

    fn seg_mut(&mut self, rel: usize, s: usize) -> &mut [u32] {
        let h = rel * SEGMENTS + s;
        let (lo, hi) = (self.cells[h] as usize, self.cells[h + 1] as usize);
        &mut self.cells[lo..hi]
    }

    /// Row-bucket boundaries of relation `rel` by first argument.
    #[inline]
    pub(crate) fn row_starts(&self, rel: usize) -> &[u32] {
        self.seg(rel, ROW_STARTS)
    }

    /// In-neighbour bucket boundaries of binary relation `rel`.
    #[inline]
    pub(crate) fn rev_starts(&self, rel: usize) -> &[u32] {
        self.seg(rel, REV_STARTS)
    }

    /// First arguments of binary relation `rel`'s rows, bucketed by second
    /// argument ([`TargetIndex::rev_starts`]).
    #[inline]
    pub(crate) fn rev_firsts(&self, rel: usize) -> &[u32] {
        self.seg(rel, REV_FIRSTS)
    }

    /// Whether relation `rel` of `f` (the structure this index was built
    /// for) contains the dense-id row `row`.
    #[inline]
    pub(crate) fn contains_row(&self, f: &FlatStructure, rel: usize, row: &[u32]) -> bool {
        let a = f.table.arities[rel];
        debug_assert_eq!(a, row.len());
        if a == 0 {
            return f.has_nullary(rel);
        }
        if a == 2 {
            let bits = self.seg(rel, PAIR_BITS);
            if !bits.is_empty() {
                let wpr = f.dom.len().div_ceil(32).max(1);
                let (u, v) = (row[0] as usize, row[1] as usize);
                return bits[u * wpr + v / 32] >> (v % 32) & 1 == 1;
            }
        }
        // Narrow to the bucket of rows sharing the probe's first argument
        // (usually a handful), then binary-search the sorted fixed-stride
        // rows inside it.  The hom search probes once per candidate
        // extension, so this lookup is squarely on the hot path.
        let starts = self.row_starts(rel);
        let mut lo = starts[row[0] as usize] as usize;
        let mut hi = starts[row[0] as usize + 1] as usize;
        if a == 1 {
            return lo < hi;
        }
        let data = f.rows(rel);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match data[mid * a + 1..mid * a + a].cmp(&row[1..]) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::schema::Schema;
    use crate::structure::Structure;

    #[test]
    fn compile_basic() {
        let mut s = Structure::new(Schema::with_relations([("E", 2), ("P", 1)]));
        s.add("E", &[5, 9]);
        s.add("E", &[9, 5]);
        s.add("P", &[5]);
        s.add_isolated(7);
        let f = s.flat();
        let t = f.target();
        assert_eq!(f.dom, vec![5, 7, 9]);
        // Relation ids are sorted: E=0, P=1.
        assert_eq!(f.arities(), &[2, 1]);
        assert_eq!(f.row_count(0), 2);
        assert_eq!(f.row_count(1), 1);
        assert!(t.contains_row(f, 0, &[0, 2]));
        assert!(t.contains_row(f, 0, &[2, 0]));
        assert!(!t.contains_row(f, 0, &[0, 0]));
        assert!(t.contains_row(f, 1, &[0]));
        assert!(!t.contains_row(f, 1, &[1]));
        assert_eq!(t.row_starts(0), &[0, 1, 1, 2]);
        assert_eq!(t.rev_starts(0), &[0, 1, 1, 2]);
        assert_eq!(t.rev_firsts(0), &[2, 0]);
        // Element 7 (dense id 1) occurs nowhere.
        assert_eq!(f.mask_of(1), &[0]);
        // Element 5 occurs at E.0, E.1 and P.0 — slots 0, 1, 2.
        assert_eq!(f.mask_of(0), &[0b111]);
        // Element 9 occurs at E.0 and E.1 only.
        assert_eq!(f.mask_of(2), &[0b011]);
    }

    #[test]
    fn rows_are_sorted_and_deduplicated() {
        let sch = Schema::with_relations([("T", 3), ("W", 5), ("H", 0)]);
        let mut s = Structure::new(sch);
        for args in [[3, 1, 2], [1, 2, 3], [3, 1, 2], [1, 1, 1]] {
            s.add("T", &args);
        }
        s.add("W", &[9, 8, 7, 6, 5]);
        s.add("W", &[5, 6, 7, 8, 9]);
        s.add("W", &[9, 8, 7, 6, 5]);
        s.add("H", &[]);
        s.add("H", &[]);
        let f = s.flat();
        // Relation ids: H=0, T=1, W=2; dom = 1,2,3,5..=9.
        assert!(f.has_nullary(0));
        assert_eq!(f.row_count(0), 1);
        assert_eq!(f.rows(1), &[0, 0, 0, 0, 1, 2, 2, 0, 1]);
        assert_eq!(f.rows(2), &[3, 4, 5, 6, 7, 7, 6, 5, 4, 3]);
        assert_eq!(f.num_facts(), 6);
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
        assert_eq!(a.flat().canon(), b.flat().canon());
        let mut c = Structure::new(sch);
        c.add("P", &[3]);
        assert_ne!(a.flat().canon(), c.flat().canon());
        assert!(a.contains_fact("H", &[]));
        assert!(!c.contains_fact("H", &[]));
    }

    #[test]
    fn isolated_only_differs_from_empty() {
        let sch = Schema::binary(["E"]);
        let empty = Structure::new(sch.clone());
        let mut iso = Structure::new(sch);
        iso.add_isolated(0);
        assert_ne!(empty.flat().canon(), iso.flat().canon());
    }
}
