//! Homomorphism search: enumeration, existence and exact counting.
//!
//! A homomorphism from `A` to `B` is a function `h : dom(A) → dom(B)` such
//! that `R(t⃗) ∈ A` implies `R(h(t⃗)) ∈ B` (Section 2.1).  Boolean conjunctive
//! queries are identified with their frozen bodies, so `q(D) = |hom(q, D)|`
//! — exact counting is the single most used primitive of the whole
//! reproduction.
//!
//! The default engine works on the interned flat-index form of both
//! structures (`crate::flat`): the backtracking state is a dense `Vec<u32>`
//! assignment, candidate targets are precomputed per source element from
//! occurrence-mask (arity + degree) filtering — one scan of the target's
//! occurrence lanes per distinct source mask, per plan, with nothing
//! memoized on the target — and each source fact is checked exactly once
//! per search path, at the moment its last argument is assigned.  The
//! original `BTreeMap` engine is retained verbatim in [`mod@reference`] as
//! the differential-testing oracle; production code never selects it.

use crate::components::connected_components;
use crate::filter;
use crate::flat::{FlatStructure, TargetIndex};
use crate::structure::{Const, Structure};
use cqdet_bigint::Nat;
use cqdet_parallel::{Gas, Interrupt};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A homomorphism, represented as the assignment of source to target constants.
pub type Homomorphism = BTreeMap<Const, Const>;

/// What the backtracking search should do with complete assignments.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Count all homomorphisms.
    CountAll,
    /// Stop at the first homomorphism.
    FindFirst,
    /// Collect all homomorphisms (used by query evaluation and tests).
    Collect,
}

/// How the search enumerates candidate images at one order position.
#[derive(Clone, Copy)]
enum Ext {
    /// Sweep the precomputed candidate list.
    List,
    /// The element is the second argument of a binary fact whose first
    /// argument is assigned earlier: enumerate the out-neighbours of that
    /// image (a contiguous CSR bucket) and keep those passing the
    /// occurrence-mask subset filter.  The driving fact is satisfied by
    /// construction and removed from the consistency checks.
    Fwd { rel: u32, other: u32 },
    /// Mirror image: the element is the *first* argument, enumerated through
    /// the reverse (second-argument) bucket index.
    Rev { rel: u32, other: u32 },
}

/// The compiled search plan: everything that depends only on the pair of
/// structures, not on the traversal.
struct Plan<'a> {
    src: &'a FlatStructure,
    tgt: &'a FlatStructure,
    /// The target's hom-target indexes (built by the first plan against it).
    tgt_idx: &'a TargetIndex,
    n_src: usize,
    n_tgt: usize,
    /// Source elements in assignment order (selectivity-ordered frontier
    /// scheduling inside each connected component: most-constrained element
    /// first, by candidate-list length).  Elements occurring in no fact are
    /// excluded unless `enumerate_all` was requested at build time.
    order: Vec<u32>,
    /// Number of source elements occurring in no fact that were *excluded*
    /// from `order`; each contributes a factor `n_tgt` to the count.
    excluded_unconstrained: usize,
    /// Facts with arity ≥ 1, flattened: relation (already mapped to target
    /// relation ids), offsets, dense argument ids.
    fact_rel: Vec<u32>,
    fact_off: Vec<u32>,
    fact_args: Vec<u32>,
    /// Per order position: the facts whose last argument is assigned there.
    facts_at: Vec<Vec<u32>>,
    /// Candidate target lists, shared between elements with equal occurrence
    /// masks: `cand_lists[cand_of[x]]` is the candidate list of element `x`.
    cand_of: Vec<u32>,
    cand_lists: Vec<Vec<u32>>,
    /// Per order position: the candidate enumeration mode (see [`Ext`]).
    ext: Vec<Ext>,
    /// Cross-schema only: target occurrence masks rebuilt in the source's
    /// slot space (`None` when the layouts agree and `tgt.occ` is directly
    /// comparable), consulted by the per-extension subset filter.
    remapped_occ: Option<Vec<u64>>,
    /// Set when the plan can be answered without any search.
    trivially_zero: bool,
}

impl<'a> Plan<'a> {
    /// Compile a plan.  `enumerate_all` forces every source element into the
    /// search order (needed when complete assignments must be materialised).
    fn build(
        src: &'a FlatStructure,
        tgt: &'a FlatStructure,
        source: &Structure,
        target: &Structure,
        enumerate_all: bool,
    ) -> Plan<'a> {
        let n_src = src.dom.len();
        let n_tgt = tgt.dom.len();
        let mut plan = Plan {
            src,
            tgt,
            tgt_idx: tgt.target(),
            n_src,
            n_tgt,
            order: Vec::new(),
            excluded_unconstrained: 0,
            fact_rel: Vec::new(),
            fact_off: vec![0],
            fact_args: Vec::new(),
            facts_at: Vec::new(),
            cand_of: Vec::new(),
            cand_lists: Vec::new(),
            ext: Vec::new(),
            remapped_occ: None,
            trivially_zero: false,
        };

        // Map source relation ids to target relation ids by name; a source
        // relation with facts but no target counterpart (or with the nullary
        // fact missing from the target) makes the whole answer zero.
        let mut rel_map: Vec<u32> = Vec::with_capacity(src.arities().len());
        for (rel, name) in source.rel_names().iter().enumerate() {
            let mapped = target.rel_id(name);
            match mapped {
                Some(t) if target.rel_arities()[t as usize] == src.arities()[rel] => {
                    rel_map.push(t);
                }
                _ => {
                    if src.row_count(rel) > 0 {
                        plan.trivially_zero = true;
                        return plan;
                    }
                    rel_map.push(u32::MAX);
                }
            }
        }

        // Nullary facts have no variables: check them once up front.
        for (rel, &arity) in src.arities().iter().enumerate() {
            if arity == 0 && src.has_nullary(rel) && !tgt.has_nullary(rel_map[rel] as usize) {
                plan.trivially_zero = true;
                return plan;
            }
        }

        // Flatten the positive-arity facts and build the co-occurrence
        // adjacency in one pass.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_src];
        for (rel, &arity) in src.arities().iter().enumerate() {
            if arity == 0 {
                continue;
            }
            for row in src.rows(rel).chunks_exact(arity) {
                plan.fact_rel.push(rel_map[rel]);
                plan.fact_args.extend_from_slice(row);
                plan.fact_off.push(plan.fact_args.len() as u32);
                for &a in row {
                    for &b in row {
                        if a != b {
                            adj[a as usize].push(b);
                        }
                    }
                }
            }
        }
        for neigh in &mut adj {
            neigh.sort_unstable();
            neigh.dedup();
        }

        // Candidate lists by occurrence-mask filtering: h(x) must occur at
        // every (relation, position) slot x occurs at.  Source masks live in
        // the *source* schema's slot space; when the target has a different
        // relation layout its compiled masks are incomparable, so rebuild the
        // target masks in the source's slot space via `rel_map` first.
        let same_layout = source.rel_names() == target.rel_names()
            && source.rel_arities() == target.rel_arities();
        let sw = src.slot_words;
        plan.remapped_occ = if same_layout {
            None
        } else {
            let mut occ = vec![0u64; n_tgt * sw];
            let mut slot_base = 0usize;
            for (rel, &arity) in src.arities().iter().enumerate() {
                if arity > 0 && rel_map[rel] != u32::MAX {
                    for row in tgt.rows(rel_map[rel] as usize).chunks_exact(arity) {
                        for (pos, &e) in row.iter().enumerate() {
                            let slot = slot_base + pos;
                            occ[e as usize * sw + slot / 64] |= 1 << (slot % 64);
                        }
                    }
                }
                slot_base += arity;
            }
            Some(occ)
        };
        // Candidate lists are computed up front (before the search order is
        // chosen, which consults their lengths): one scan of the target's
        // occurrence lanes per distinct mask, shared between elements with
        // identical masks via a hash-keyed dedup index.
        let occ = plan.remapped_occ.as_deref().unwrap_or(&tgt.occ);
        let constrained = |e: usize| src.mask_of(e).iter().any(|&w| w != 0);
        let eligible = |e: usize| enumerate_all || constrained(e);
        let mut mask_index: HashMap<&[u64], u32> = HashMap::new();
        plan.cand_of = vec![0; n_src];
        for x in 0..n_src {
            if !eligible(x) {
                continue;
            }
            let mask = src.mask_of(x);
            let next_id = mask_index.len() as u32;
            let id = *mask_index.entry(mask).or_insert(next_id);
            plan.cand_of[x] = id;
            if id == next_id {
                plan.cand_lists
                    .push(filter::superset_indices(mask, occ, sw, n_tgt));
            }
        }

        // Selectivity-ordered frontier scheduling: inside each connected
        // component, start from the most-constrained element (fewest
        // candidate images) and repeatedly extend with the most-constrained
        // element adjacent to the ordered prefix, the pick re-evaluated
        // against the candidate counts at every step.  Compared to plain BFS
        // this turns the multiplicative branching of loosely-constrained
        // elements into near-additive work: a loose element is only
        // enumerated once its tightly-constrained neighbours have already
        // pinned the facts it participates in.
        let cand_len = |e: u32| plan.cand_lists[plan.cand_of[e as usize] as usize].len();
        let mut seen = vec![false; n_src];
        let mut placed = vec![false; n_src];
        let mut in_frontier = vec![false; n_src];
        let mut comp: Vec<u32> = Vec::new();
        let mut frontier: Vec<u32> = Vec::new();
        for start in 0..n_src {
            if seen[start] || !eligible(start) {
                continue;
            }
            // Collect the whole component of `start` first (adjacency only
            // ever connects fact-constrained elements, so an unconstrained
            // element under `enumerate_all` is a singleton component).
            comp.clear();
            comp.push(start as u32);
            seen[start] = true;
            let mut qi = 0;
            while qi < comp.len() {
                let x = comp[qi];
                qi += 1;
                for &n in &adj[x as usize] {
                    if !seen[n as usize] {
                        seen[n as usize] = true;
                        comp.push(n);
                    }
                }
            }
            // Seed with the component's most-constrained element (ties break
            // to the smallest id, keeping plans deterministic).
            let mut seed = comp[0];
            for &e in &comp[1..] {
                if (cand_len(e), e) < (cand_len(seed), seed) {
                    seed = e;
                }
            }
            plan.order.push(seed);
            placed[seed as usize] = true;
            frontier.clear();
            for &n in &adj[seed as usize] {
                in_frontier[n as usize] = true;
                frontier.push(n);
            }
            while !frontier.is_empty() {
                let mut bi = 0;
                for i in 1..frontier.len() {
                    let (a, b) = (frontier[i], frontier[bi]);
                    if (cand_len(a), a) < (cand_len(b), b) {
                        bi = i;
                    }
                }
                let x = frontier.swap_remove(bi);
                in_frontier[x as usize] = false;
                plan.order.push(x);
                placed[x as usize] = true;
                for &n in &adj[x as usize] {
                    if !placed[n as usize] && !in_frontier[n as usize] {
                        in_frontier[n as usize] = true;
                        frontier.push(n);
                    }
                }
            }
        }
        plan.excluded_unconstrained = n_src - plan.order.len();

        // Schedule each fact at the order position where its last argument is
        // assigned.
        let mut pos_of = vec![u32::MAX; n_src];
        for (pos, &x) in plan.order.iter().enumerate() {
            pos_of[x as usize] = pos as u32;
        }
        plan.facts_at = vec![Vec::new(); plan.order.len()];
        let n_facts = plan.fact_rel.len();
        for f in 0..n_facts {
            let args = &plan.fact_args[plan.fact_off[f] as usize..plan.fact_off[f + 1] as usize];
            // A fact with no arguments has no placement constraint: check it
            // at the first level.
            let last = args.iter().map(|&a| pos_of[a as usize]).max().unwrap_or(0);
            debug_assert_ne!(last, u32::MAX, "fact argument missing from order");
            plan.facts_at[last as usize].push(f as u32);
        }

        // Fact-driven candidate enumeration: when a binary fact completes at
        // position `idx` and its other argument is assigned earlier, the
        // images of `order[idx]` satisfying that fact are exactly one
        // (forward or reverse) CSR bucket of the target relation — usually a
        // handful of rows instead of the whole candidate list.  The driving
        // fact is removed from the consistency checks (it holds by
        // construction); every enumerated image still passes through the
        // branch-free occurrence-mask subset filter.
        plan.ext = vec![Ext::List; plan.order.len()];
        for (idx, &x) in plan.order.iter().enumerate() {
            let mut chosen: Option<(usize, Ext)> = None;
            for (k, &f) in plan.facts_at[idx].iter().enumerate() {
                let f = f as usize;
                let args =
                    &plan.fact_args[plan.fact_off[f] as usize..plan.fact_off[f + 1] as usize];
                if args.len() != 2 {
                    continue;
                }
                let (a0, a1) = (args[0], args[1]);
                let rel = plan.fact_rel[f];
                if a1 == x && a0 != x && (pos_of[a0 as usize] as usize) < idx {
                    chosen = Some((k, Ext::Fwd { rel, other: a0 }));
                    break;
                }
                if a0 == x && a1 != x && (pos_of[a1 as usize] as usize) < idx {
                    chosen = Some((k, Ext::Rev { rel, other: a1 }));
                    break;
                }
            }
            if let Some((k, e)) = chosen {
                plan.facts_at[idx].swap_remove(k);
                plan.ext[idx] = e;
            }
        }

        if plan
            .order
            .iter()
            .any(|&x| plan.cand_lists[plan.cand_of[x as usize] as usize].is_empty())
        {
            plan.trivially_zero = true;
        }
        plan
    }

    #[inline]
    fn candidates(&self, x: u32) -> &[u32] {
        self.cand_lists[self.cand_of[x as usize] as usize].as_slice()
    }
}

/// Backtracking search state over a [`Plan`].
struct Search<'p, 'a> {
    plan: &'p Plan<'a>,
    mode: Mode,
    /// Dense target id per source element; `u32::MAX` = unassigned.
    assignment: Vec<u32>,
    /// Scratch row buffer for fact-image lookups.
    scratch: Vec<u32>,
    count: u64,
    count_big: Nat,
    found: bool,
    collected: Vec<Vec<u32>>,
    /// Fuel/deadline meter, charged once per candidate extension.
    gas: Gas,
    /// Set when the meter fired: the search unwound early and its partial
    /// results are meaningless.
    stopped: Option<Interrupt>,
}

impl<'p, 'a> Search<'p, 'a> {
    fn new(plan: &'p Plan<'a>, mode: Mode) -> Self {
        Search::with_gas(plan, mode, Gas::unlimited())
    }

    fn with_gas(plan: &'p Plan<'a>, mode: Mode, gas: Gas) -> Self {
        let max_arity = plan
            .fact_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        Search {
            plan,
            mode,
            assignment: vec![u32::MAX; plan.n_src],
            scratch: vec![0; max_arity],
            count: 0,
            count_big: Nat::zero(),
            found: false,
            collected: Vec::new(),
            gas,
            stopped: None,
        }
    }

    fn run(&mut self) {
        if self.plan.trivially_zero {
            return;
        }
        if self.plan.n_src > 0 && self.plan.n_tgt == 0 {
            // Elements exist but there is nothing to map them to.
            return;
        }
        self.recurse(0);
        // Account the tail below the flush granularity, so even a search
        // that finished charges what it used.
        if self.stopped.is_none() {
            if let Err(stop) = self.gas.flush() {
                self.stopped = Some(stop);
            }
        }
    }

    fn register_leaf(&mut self) {
        match self.mode {
            Mode::CountAll => {
                self.count += 1;
                if self.count == u64::MAX {
                    self.count_big += &Nat::from_u64(self.count);
                    self.count = 0;
                }
            }
            Mode::FindFirst => self.found = true,
            Mode::Collect => self.collected.push(self.assignment.clone()),
        }
    }

    #[inline]
    fn done(&self) -> bool {
        self.stopped.is_some() || (self.mode == Mode::FindFirst && self.found)
    }

    fn recurse(&mut self, idx: usize) {
        let plan = self.plan;
        if idx == plan.order.len() {
            self.register_leaf();
            return;
        }
        let x = plan.order[idx];
        match plan.ext[idx] {
            Ext::List => {
                let cands = plan.candidates(x);
                for &t in cands {
                    if self.extend(idx, x, t, None) {
                        return;
                    }
                }
            }
            Ext::Fwd { rel, other } => {
                let rel = rel as usize;
                let key = self.assignment[other as usize] as usize;
                let starts = plan.tgt_idx.row_starts(rel);
                let (lo, hi) = (starts[key] as usize, starts[key + 1] as usize);
                let rows = plan.tgt.rows(rel);
                let mask = plan.src.mask_of(x as usize);
                for i in lo..hi {
                    let t = rows[i * 2 + 1];
                    if self.extend(idx, x, t, Some(mask)) {
                        return;
                    }
                }
            }
            Ext::Rev { rel, other } => {
                let rel = rel as usize;
                let key = self.assignment[other as usize] as usize;
                let starts = plan.tgt_idx.rev_starts(rel);
                let (lo, hi) = (starts[key] as usize, starts[key + 1] as usize);
                let firsts = plan.tgt_idx.rev_firsts(rel);
                let mask = plan.src.mask_of(x as usize);
                for &t in &firsts[lo..hi] {
                    if self.extend(idx, x, t, Some(mask)) {
                        return;
                    }
                }
            }
        }
    }

    /// One candidate extension of `x := t` at order position `idx`; returns
    /// `true` when the enclosing enumeration should unwind (meter fired or a
    /// sought witness was found).  `filter` carries the source occurrence
    /// mask for fact-driven enumerations, whose rows bypass the precomputed
    /// candidate lists and are subset-tested here instead.
    #[inline]
    fn extend(&mut self, idx: usize, x: u32, t: u32, filter: Option<&[u64]>) -> bool {
        // One candidate extension = one fuel step; an exhausted budget or
        // expired deadline unwinds the whole search within one flush
        // window (~4k candidates), not at the next stage boundary.
        if let Err(stop) = self.gas.step() {
            self.stopped = Some(stop);
            return true;
        }
        if let Some(mask) = filter {
            let sup = match &self.plan.remapped_occ {
                None => self.plan.tgt.mask_of(t as usize),
                Some(occ) => {
                    let sw = self.plan.src.slot_words;
                    &occ[t as usize * sw..(t as usize + 1) * sw]
                }
            };
            if !filter::mask_subset(mask, sup) {
                return false;
            }
        }
        self.assignment[x as usize] = t;
        if self.consistent(idx) {
            self.recurse(idx + 1);
        }
        self.assignment[x as usize] = u32::MAX;
        self.done()
    }

    /// Check every source fact completed at order position `idx`: its image
    /// (now fully assigned) must be a fact of the target.
    #[inline]
    fn consistent(&mut self, idx: usize) -> bool {
        let plan = self.plan;
        for &f in &plan.facts_at[idx] {
            let f = f as usize;
            let args = &plan.fact_args[plan.fact_off[f] as usize..plan.fact_off[f + 1] as usize];
            debug_assert!(args
                .iter()
                .all(|&a| self.assignment[a as usize] != u32::MAX));
            for (slot, &a) in args.iter().enumerate() {
                self.scratch[slot] = self.assignment[a as usize];
            }
            if !plan.tgt_idx.contains_row(
                plan.tgt,
                plan.fact_rel[f] as usize,
                &self.scratch[..args.len()],
            ) {
                return false;
            }
        }
        true
    }

    /// Total count, including the `n_tgt^k` factor for the `k` source
    /// elements that occur in no fact and were excluded from the search.
    fn total_count(&self) -> Nat {
        let searched = self.count_big.add_ref(&Nat::from_u64(self.count));
        if self.plan.excluded_unconstrained == 0 || searched.is_zero() {
            return searched;
        }
        searched
            .mul_ref(&Nat::from_usize(self.plan.n_tgt).pow(self.plan.excluded_unconstrained as u64))
    }
}

/// The exact number of homomorphisms from `source` to `target`.
pub fn hom_count(source: &Structure, target: &Structure) -> Nat {
    let plan = Plan::build(source.flat(), target.flat(), source, target, false);
    let mut s = Search::new(&plan, Mode::CountAll);
    s.run();
    s.total_count()
}

/// Whether at least one homomorphism from `source` to `target` exists.
pub fn hom_exists(source: &Structure, target: &Structure) -> bool {
    let plan = Plan::build(source.flat(), target.flat(), source, target, false);
    let mut s = Search::new(&plan, Mode::FindFirst);
    s.run();
    s.found
}

/// [`hom_exists`] under a fuel/deadline meter — the one metered hom kernel
/// (the Definition 25 gate runs it): the search charges one step per
/// candidate extension and unwinds with a typed [`Interrupt`] within one
/// flush window of the budget or deadline firing.  A witness found before
/// the meter fired is still reported.
pub fn hom_exists_gas(
    source: &Structure,
    target: &Structure,
    gas: &mut Gas,
) -> Result<bool, Interrupt> {
    let plan = Plan::build(source.flat(), target.flat(), source, target, false);
    let mut s = Search::with_gas(&plan, Mode::FindFirst, gas.clone());
    s.run();
    *gas = s.gas.clone();
    match s.stopped {
        // A witness found before the meter fired is still a witness.
        None | Some(_) if s.found => Ok(true),
        Some(stop) => Err(stop),
        None => Ok(false),
    }
}

/// Enumerate all homomorphisms from `source` to `target`.
///
/// Intended for small instances (tests, examples, query evaluation with free
/// variables); the count can be exponential in the size of `source`.
pub fn hom_enumerate(source: &Structure, target: &Structure) -> Vec<Homomorphism> {
    let (src, tgt) = (source.flat(), target.flat());
    let plan = Plan::build(src, tgt, source, target, true);
    let mut s = Search::new(&plan, Mode::Collect);
    s.run();
    s.collected
        .into_iter()
        .map(|assignment| {
            assignment
                .iter()
                .enumerate()
                .map(|(x, &t)| (src.dom[x], tgt.dom[t as usize]))
                .collect()
        })
        .collect()
}

/// Homomorphism counting factored through connected components:
/// `|hom(A, B)| = Π_C |hom(C, B)|` over the connected components `C` of `A`
/// (Lemma 4(5)).  Faster than [`hom_count`] when `A` is disconnected, and used
/// as an ablation baseline in the benchmarks.
pub fn hom_count_factored(source: &Structure, target: &Structure) -> Nat {
    let comps = connected_components(source);
    if comps.is_empty() {
        return hom_count(source, target);
    }
    let mut acc = Nat::one();
    for c in &comps {
        acc = acc.mul_ref(&hom_count(c, target));
        if acc.is_zero() {
            return acc;
        }
    }
    acc
}

/// An empty handle, kept only because the `perfbench` replay still passes
/// a decision context's handle to [`with_shared_caches`]; the next
/// benchmark change deletes both.  No hom count is memoized: a
/// counterexample certificate takes each of its base counts once.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct SharedCaches {}

/// Runs `f` and returns its result; `caches` is ignored.  Kept only for
/// the `perfbench` replay, which still calls it; the next benchmark change
/// deletes it together with those calls.
#[doc(hidden)]
pub fn with_shared_caches<R>(_caches: &Arc<SharedCaches>, f: impl FnOnce() -> R) -> R {
    f()
}

/// The original `BTreeMap`-based backtracking engine, kept verbatim as the
/// differential-testing oracle for the flat-index engine.  Not part of the
/// supported API: production code never calls it.
#[doc(hidden)]
pub mod reference {
    use super::Homomorphism;
    use crate::structure::{Const, Structure};
    use cqdet_bigint::Nat;
    use std::collections::{BTreeMap, BTreeSet};

    /// What the oracle search does with complete assignments.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Mode {
        CountAll,
        FindFirst,
        /// Stop at the first *injective* homomorphism.
        FindInjective,
        Collect,
    }

    struct Search<'a> {
        source: &'a Structure,
        target: &'a Structure,
        target_domain: Vec<Const>,
        /// Source elements in assignment order.
        order: Vec<Const>,
        /// For each source element, the facts (relation, args) that mention it.
        facts_of: BTreeMap<Const, Vec<(String, Vec<Const>)>>,
        assignment: BTreeMap<Const, Const>,
        used_targets: BTreeSet<Const>,
        mode: Mode,
        count: u64,
        count_big: Nat,
        found: bool,
        collected: Vec<Homomorphism>,
    }

    impl<'a> Search<'a> {
        fn new(source: &'a Structure, target: &'a Structure, mode: Mode) -> Self {
            let target_domain: Vec<Const> = target.domain().into_iter().collect();
            let order = assignment_order(source);
            let mut facts_of: BTreeMap<Const, Vec<(String, Vec<Const>)>> = BTreeMap::new();
            for f in source.facts() {
                for &a in &f.args {
                    facts_of
                        .entry(a)
                        .or_default()
                        .push((f.relation.clone(), f.args.clone()));
                }
            }
            Search {
                source,
                target,
                target_domain,
                order,
                facts_of,
                assignment: BTreeMap::new(),
                used_targets: BTreeSet::new(),
                mode,
                count: 0,
                count_big: Nat::zero(),
                found: false,
                collected: Vec::new(),
            }
        }

        /// Nullary facts have no variables, so they are checked once up front.
        fn nullary_facts_ok(&self) -> bool {
            self.source
                .facts()
                .filter(|f| f.args.is_empty())
                .all(|f| self.target.contains_fact(&f.relation, &[]))
        }

        fn run(&mut self) {
            if !self.nullary_facts_ok() {
                return;
            }
            if self.order.is_empty() {
                // No variables to assign: exactly the empty homomorphism
                // (|hom(∅, D)| = 1, as the paper notes).
                self.register_leaf();
                return;
            }
            self.recurse(0);
        }

        fn register_leaf(&mut self) {
            match self.mode {
                Mode::CountAll => {
                    self.count += 1;
                    if self.count == u64::MAX {
                        self.count_big += &Nat::from_u64(self.count);
                        self.count = 0;
                    }
                }
                Mode::FindFirst | Mode::FindInjective => self.found = true,
                Mode::Collect => self.collected.push(self.assignment.clone()),
            }
        }

        fn done(&self) -> bool {
            matches!(self.mode, Mode::FindFirst | Mode::FindInjective) && self.found
        }

        fn recurse(&mut self, idx: usize) {
            if self.done() {
                return;
            }
            if idx == self.order.len() {
                self.register_leaf();
                return;
            }
            let x = self.order[idx];
            let injective = matches!(self.mode, Mode::FindInjective);
            for ti in 0..self.target_domain.len() {
                let b = self.target_domain[ti];
                if injective && self.used_targets.contains(&b) {
                    continue;
                }
                self.assignment.insert(x, b);
                if injective {
                    self.used_targets.insert(b);
                }
                if self.consistent(x) {
                    self.recurse(idx + 1);
                }
                self.assignment.remove(&x);
                if injective {
                    self.used_targets.remove(&b);
                }
                if self.done() {
                    return;
                }
            }
        }

        /// Check every source fact mentioning `x` whose arguments are now all
        /// assigned: its image must be a fact of the target.
        fn consistent(&self, x: Const) -> bool {
            let Some(facts) = self.facts_of.get(&x) else {
                return true;
            };
            'facts: for (rel, args) in facts {
                let mut image = Vec::with_capacity(args.len());
                for a in args {
                    match self.assignment.get(a) {
                        Some(&b) => image.push(b),
                        None => continue 'facts,
                    }
                }
                if !self.target.contains_fact(rel, &image) {
                    return false;
                }
            }
            true
        }

        fn total_count(&self) -> Nat {
            self.count_big.add_ref(&Nat::from_u64(self.count))
        }
    }

    /// Order the source domain so that each connected component is visited in
    /// breadth-first order (maximises early constraint propagation).
    fn assignment_order(source: &Structure) -> Vec<Const> {
        let mut order = Vec::new();
        let mut seen = BTreeSet::new();
        // Adjacency between source elements that co-occur in a fact.
        let mut adj: BTreeMap<Const, BTreeSet<Const>> = BTreeMap::new();
        for f in source.facts() {
            for &a in &f.args {
                for &b in &f.args {
                    if a != b {
                        adj.entry(a).or_default().insert(b);
                    }
                }
                adj.entry(a).or_default();
            }
        }
        for &start in source.domain().iter() {
            if seen.contains(&start) {
                continue;
            }
            let mut queue = std::collections::VecDeque::from([start]);
            seen.insert(start);
            while let Some(x) = queue.pop_front() {
                order.push(x);
                if let Some(neigh) = adj.get(&x) {
                    for &n in neigh {
                        if seen.insert(n) {
                            queue.push_back(n);
                        }
                    }
                }
            }
        }
        order
    }

    /// The exact number of homomorphisms from `source` to `target`.
    pub fn hom_count(source: &Structure, target: &Structure) -> Nat {
        let mut s = Search::new(source, target, Mode::CountAll);
        s.run();
        s.total_count()
    }

    /// Whether at least one homomorphism from `source` to `target` exists.
    pub fn hom_exists(source: &Structure, target: &Structure) -> bool {
        let mut s = Search::new(source, target, Mode::FindFirst);
        s.run();
        s.found
    }

    /// Whether an *injective* homomorphism exists.
    pub fn injective_hom_exists(source: &Structure, target: &Structure) -> bool {
        let mut s = Search::new(source, target, Mode::FindInjective);
        s.run();
        s.found
    }

    /// Enumerate all homomorphisms from `source` to `target`.
    pub fn hom_enumerate(source: &Structure, target: &Structure) -> Vec<Homomorphism> {
        let mut s = Search::new(source, target, Mode::Collect);
        s.run();
        s.collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn edge_schema() -> Schema {
        Schema::binary(["E"])
    }

    /// The directed path with `n` edges: 0 → 1 → … → n.
    fn path(n: usize) -> Structure {
        let mut s = Structure::new(edge_schema());
        for i in 0..n {
            s.add("E", &[i as Const, (i + 1) as Const]);
        }
        s
    }

    /// The directed cycle with `n` vertices.
    fn cycle(n: usize) -> Structure {
        let mut s = Structure::new(edge_schema());
        for i in 0..n {
            s.add("E", &[i as Const, ((i + 1) % n) as Const]);
        }
        s
    }

    /// The complete directed graph (with loops) on `n` vertices.
    fn clique_with_loops(n: usize) -> Structure {
        let mut s = Structure::new(edge_schema());
        for i in 0..n {
            for j in 0..n {
                s.add("E", &[i as Const, j as Const]);
            }
        }
        s
    }

    #[test]
    fn empty_source_has_one_hom() {
        let empty = Structure::new(edge_schema());
        assert_eq!(hom_count(&empty, &path(3)), Nat::one());
        assert_eq!(hom_count(&empty, &empty), Nat::one());
        assert!(hom_exists(&empty, &empty));
    }

    #[test]
    fn single_edge_counts_edges() {
        // hom(edge, G) = number of edges of G.
        let e = path(1);
        assert_eq!(hom_count(&e, &path(4)), Nat::from_u64(4));
        assert_eq!(hom_count(&e, &cycle(5)), Nat::from_u64(5));
        assert_eq!(hom_count(&e, &clique_with_loops(3)), Nat::from_u64(9));
    }

    #[test]
    fn path_into_clique_with_loops() {
        // Every map of the k+1 vertices is a homomorphism: n^(k+1).
        assert_eq!(
            hom_count(&path(2), &clique_with_loops(3)),
            Nat::from_u64(27)
        );
        assert_eq!(
            hom_count(&path(3), &clique_with_loops(2)),
            Nat::from_u64(16)
        );
    }

    #[test]
    fn path_into_path_counts() {
        // hom(P_k, P_n) (paths as directed edge-paths) = n - k + 1 for k <= n.
        assert_eq!(hom_count(&path(2), &path(4)), Nat::from_u64(3));
        assert_eq!(hom_count(&path(4), &path(4)), Nat::from_u64(1));
        assert_eq!(hom_count(&path(5), &path(4)), Nat::zero());
        assert!(!hom_exists(&path(5), &path(4)));
    }

    #[test]
    fn cycle_into_cycle() {
        // A directed 3-cycle maps into a directed 3-cycle by rotation: 3 homs.
        assert_eq!(hom_count(&cycle(3), &cycle(3)), Nat::from_u64(3));
        // No hom from a 3-cycle into a 4-cycle (lengths incompatible).
        assert_eq!(hom_count(&cycle(3), &cycle(4)), Nat::zero());
        // 4-cycle into 2-cycle: wraps around, 2 homs.
        assert_eq!(hom_count(&cycle(4), &cycle(2)), Nat::from_u64(2));
    }

    #[test]
    fn disconnected_source_multiplies() {
        // Two disjoint edges into C_5: 5 * 5 = 25 (Lemma 4(5)).
        let mut two_edges = Structure::new(edge_schema());
        two_edges.add("E", &[0, 1]);
        two_edges.add("E", &[10, 11]);
        let t = cycle(5);
        assert_eq!(hom_count(&two_edges, &t), Nat::from_u64(25));
        assert_eq!(hom_count_factored(&two_edges, &t), Nat::from_u64(25));
    }

    #[test]
    fn factored_matches_plain_on_various_inputs() {
        let mut src = Structure::new(edge_schema());
        src.add("E", &[0, 1]);
        src.add("E", &[1, 2]);
        src.add("E", &[5, 6]);
        for target in [path(3), cycle(4), clique_with_loops(3)] {
            assert_eq!(hom_count(&src, &target), hom_count_factored(&src, &target));
        }
    }

    #[test]
    fn isolated_source_elements_map_anywhere() {
        let mut src = Structure::new(edge_schema());
        src.add_isolated(42);
        // One isolated vertex → |dom(target)| homomorphisms.
        assert_eq!(hom_count(&src, &path(3)), Nat::from_u64(4));
        let mut tgt = path(2);
        tgt.add_isolated(99);
        assert_eq!(hom_count(&src, &tgt), Nat::from_u64(4));
    }

    #[test]
    fn unary_and_mixed_arity() {
        let sch = Schema::with_relations([("R", 2), ("P", 1)]);
        let mut src = Structure::new(sch.clone());
        src.add("R", &[0, 1]);
        src.add("P", &[0]);
        let mut tgt = Structure::new(sch);
        tgt.add("R", &[10, 11]);
        tgt.add("R", &[12, 11]);
        tgt.add("P", &[10]);
        // Only the edge (10,11) has a P-marked source.
        assert_eq!(hom_count(&src, &tgt), Nat::one());
        assert!(hom_exists(&src, &tgt));
    }

    #[test]
    fn nullary_facts_gate_everything() {
        let sch = Schema::with_relations([("H", 0), ("P", 1)]);
        let mut src = Structure::new(sch.clone());
        src.add("H", &[]);
        src.add("P", &[0]);
        let mut tgt_without = Structure::new(sch.clone());
        tgt_without.add("P", &[5]);
        assert_eq!(hom_count(&src, &tgt_without), Nat::zero());
        let mut tgt_with = tgt_without.clone();
        tgt_with.add("H", &[]);
        assert_eq!(hom_count(&src, &tgt_with), Nat::one());
    }

    #[test]
    fn enumerate_returns_all_assignments() {
        let homs = hom_enumerate(&path(1), &path(2));
        assert_eq!(homs.len(), 2);
        for h in &homs {
            assert_eq!(h.len(), 2);
            let (a, b) = (h[&0], h[&1]);
            assert!(path(2).contains_fact("E", &[a, b]));
        }
    }

    #[test]
    fn reference_injective_homs() {
        use reference::injective_hom_exists;
        assert!(injective_hom_exists(&path(2), &path(2)));
        assert!(injective_hom_exists(&path(2), &path(5)));
        // C_4 maps into C_2 homomorphically but not injectively.
        assert!(hom_exists(&cycle(4), &cycle(2)));
        assert!(!injective_hom_exists(&cycle(4), &cycle(2)));
        // One edge plus one isolated element has no room in a 2-element
        // target, but fits a 3-element one.
        let mut src = path(1);
        src.add_isolated(9);
        assert!(hom_exists(&src, &path(1)));
        assert!(!injective_hom_exists(&src, &path(1)));
        assert!(injective_hom_exists(&src, &path(2)));
    }

    #[test]
    fn hom_composition_closure() {
        // If hom(A,B) and hom(B,C) are nonempty then hom(A,C) is nonempty.
        let a = path(3);
        let b = cycle(3);
        let c = clique_with_loops(2);
        assert!(hom_exists(&a, &b));
        assert!(hom_exists(&b, &c));
        assert!(hom_exists(&a, &c));
    }

    #[test]
    fn flat_engine_agrees_with_reference_on_edge_cases() {
        let empty = Structure::new(edge_schema());
        let mut iso_only = Structure::new(edge_schema());
        iso_only.add_isolated(3);
        iso_only.add_isolated(8);
        let cases: Vec<(Structure, Structure)> = vec![
            (empty.clone(), empty.clone()),
            (iso_only.clone(), empty.clone()),
            (empty.clone(), iso_only.clone()),
            (iso_only.clone(), iso_only.clone()),
            (path(2), iso_only.clone()),
            (iso_only, cycle(3)),
        ];
        for (s, t) in &cases {
            assert_eq!(hom_count(s, t), reference::hom_count(s, t), "{s} -> {t}");
            assert_eq!(hom_exists(s, t), reference::hom_exists(s, t), "{s} -> {t}");
        }
    }

    #[test]
    fn enumerate_includes_unconstrained_elements() {
        let mut src = path(1);
        src.add_isolated(7);
        let homs = hom_enumerate(&src, &path(2));
        // 2 edge placements × 3 choices for the isolated element.
        assert_eq!(homs.len(), 6);
        for h in &homs {
            assert_eq!(h.len(), 3);
            assert!(h.contains_key(&7));
        }
        assert_eq!(homs.len(), reference::hom_enumerate(&src, &path(2)).len());
    }

    #[test]
    fn cross_schema_sources_count_zero_or_factor_out() {
        // Source over schema {E, F}, target over {E} only: an F-fact makes
        // the count zero; without F-facts the F relation is irrelevant.
        let sch_ef = Schema::binary(["E", "F"]);
        let mut with_f = Structure::new(sch_ef.clone());
        with_f.add("E", &[0, 1]);
        with_f.add("F", &[0, 1]);
        let mut without_f = Structure::new(sch_ef);
        without_f.add("E", &[0, 1]);
        let tgt = cycle(3);
        assert_eq!(hom_count(&with_f, &tgt), Nat::zero());
        assert_eq!(hom_count(&without_f, &tgt), Nat::from_u64(3));
        assert_eq!(
            hom_count(&with_f, &tgt),
            reference::hom_count(&with_f, &tgt)
        );
        assert_eq!(
            hom_count(&without_f, &tgt),
            reference::hom_count(&without_f, &tgt)
        );
    }

    #[test]
    fn cross_schema_slot_offsets_do_not_misalign_masks() {
        // Regression: the source schema has an extra relation A sorting
        // before E, so E's occurrence slots sit at different offsets in the
        // two schemas; the candidate filter must remap, not compare raw masks.
        let src_sch = Schema::with_relations([("A", 2), ("E", 2)]);
        let mut src = Structure::new(src_sch);
        src.add("E", &[0, 1]);
        let mut tgt = Structure::new(Schema::binary(["E"]));
        tgt.add("E", &[0, 1]);
        assert_eq!(hom_count(&src, &tgt), Nat::one());
        assert_eq!(hom_count(&src, &tgt), reference::hom_count(&src, &tgt));
        assert!(hom_exists(&src, &tgt));
        // And the other direction: target schema has the extra relation.
        let mut src2 = Structure::new(Schema::binary(["E"]));
        src2.add("E", &[0, 1]);
        let mut tgt2 = Structure::new(Schema::with_relations([("A", 2), ("E", 2)]));
        tgt2.add("A", &[5, 6]);
        tgt2.add("E", &[0, 1]);
        tgt2.add("E", &[1, 2]);
        assert_eq!(hom_count(&src2, &tgt2), Nat::from_u64(2));
        assert_eq!(hom_count(&src2, &tgt2), reference::hom_count(&src2, &tgt2));
    }

    /// `K_n` without loops: `hom(K8, K7)` is empty (no proper 7-colouring
    /// of K8), and the search visits >10k candidate extensions to say so.
    fn clique(n: usize) -> Structure {
        let mut s = Structure::new(edge_schema());
        for i in 0..n as u64 {
            for j in 0..n as u64 {
                if i != j {
                    s.add("E", &[i, j]);
                }
            }
        }
        s
    }

    #[test]
    fn fuelled_search_matches_unfuelled_or_stops_typed() {
        use cqdet_parallel::{Budget, CancelToken};
        let (src, tgt) = (clique(8), clique(7));
        let exact = hom_exists(&src, &tgt);
        assert!(!exact, "K8 has no proper 7-colouring");
        // Generous budget: identical answer, and the search charged fuel.
        let budget = Budget::with_limits(Some(1 << 30), None);
        let mut gas = Gas::new(&CancelToken::none(), &budget, "gate");
        assert_eq!(hom_exists_gas(&src, &tgt, &mut gas).unwrap(), exact);
        assert!(budget.steps_spent() > 0, "the search must charge fuel");
        // A 1-step budget: typed exhaustion, no panic.
        let tiny = Budget::with_limits(Some(1), None);
        let mut gas = Gas::new(&CancelToken::none(), &tiny, "gate");
        let stop = hom_exists_gas(&src, &tgt, &mut gas).unwrap_err();
        assert!(matches!(stop, Interrupt::Exhausted(e) if e.what == "steps"));
        // An expired deadline surfaces as Expired with the stage label.
        let ctl = CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut gas = Gas::new(&ctl, &Budget::none(), "gate");
        let stop = hom_exists_gas(&src, &tgt, &mut gas).unwrap_err();
        assert!(matches!(stop, Interrupt::Expired(e) if e.stage == "gate"));
    }

    #[test]
    fn fuelled_exists_keeps_found_witnesses() {
        use cqdet_parallel::{Budget, CancelToken};
        // FindFirst succeeds long before any realistic budget: a found
        // witness survives even a post-hoc budget overrun check.
        let src = path(2);
        let tgt = clique_with_loops(3);
        let budget = Budget::with_limits(Some(1 << 20), None);
        let mut gas = Gas::new(&CancelToken::none(), &budget, "gate");
        assert!(hom_exists_gas(&src, &tgt, &mut gas).unwrap());
    }
}
