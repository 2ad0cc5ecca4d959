//! Finite relational structures (databases) over a [`Schema`].
//!
//! Relation names are interned at construction time: the sorted relation
//! names of the schema become contiguous `u32` ids, and all per-relation
//! storage is a plain `Vec` indexed by that id.  The `&str`-based public API
//! is a thin shim over a binary search on the sorted name table, so no
//! `String`-keyed map lookup happens anywhere on a hot path.  The first
//! homomorphism query against a structure additionally compiles (and caches)
//! a flat CSR form of the structure — see `crate::flat`.

use crate::flat::FlatStructure;
use crate::schema::{RelTable, Schema};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A constant (domain element).  Constants are plain integers; structures over
/// the "infinite set of constants" of the paper only ever mention finitely
/// many of them.
pub type Const = u64;

/// A fact `R(t⃗)`: a relation name applied to a tuple of constants.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// Relation symbol.
    pub relation: String,
    /// Argument tuple (length = arity of the relation).
    pub args: Vec<Const>,
}

impl Fact {
    /// Construct a fact.
    pub fn new<S: Into<String>>(relation: S, args: Vec<Const>) -> Self {
        Fact {
            relation: relation.into(),
            args,
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A finite relational structure: a set of facts over a schema, plus an
/// optional set of isolated domain elements (the paper's Section 3 explicitly
/// allows the domain to be larger than the active domain).
#[derive(Clone)]
pub struct Structure {
    schema: Schema,
    /// Interned relation table (shared with the schema and every sibling
    /// structure): sorted names and arities, index = relation id.
    table: Arc<RelTable>,
    /// Tuples per relation id.
    tuples: Vec<BTreeSet<Vec<Const>>>,
    /// Constants appearing in at least one fact (maintained incrementally).
    active: BTreeSet<Const>,
    /// Domain elements that occur in no fact.
    isolated: BTreeSet<Const>,
    /// Lazily compiled flat form; reset on mutation.
    flat: OnceLock<Arc<FlatStructure>>,
}

impl Default for Structure {
    fn default() -> Self {
        Structure::new(Schema::default())
    }
}

impl PartialEq for Structure {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.tuples == other.tuples
            && self.isolated == other.isolated
    }
}

impl Eq for Structure {}

impl Structure {
    /// The empty structure over a schema.
    pub fn new(schema: Schema) -> Self {
        let table = schema.table();
        let tuples = vec![BTreeSet::new(); table.names.len()];
        Structure {
            schema,
            table,
            tuples,
            active: BTreeSet::new(),
            isolated: BTreeSet::new(),
            flat: OnceLock::new(),
        }
    }

    /// Build a structure from facts.
    pub fn from_facts<I>(schema: Schema, facts: I) -> Self
    where
        I: IntoIterator<Item = Fact>,
    {
        let mut s = Structure::new(schema);
        for f in facts {
            s.add_fact(f);
        }
        s
    }

    /// The schema of this structure.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The interned id of a relation name, if it exists in the schema.
    #[inline]
    pub fn rel_id(&self, relation: &str) -> Option<u32> {
        self.table
            .names
            .binary_search_by(|n| n.as_str().cmp(relation))
            .ok()
            .map(|i| i as u32)
    }

    /// The interned relation names, sorted (index = relation id).
    pub fn rel_names(&self) -> &[String] {
        &self.table.names
    }

    /// Arity per relation id.
    pub fn rel_arities(&self) -> &[usize] {
        &self.table.arities
    }

    /// The tuple set of a relation id.
    pub(crate) fn tuples_of(&self, rel: u32) -> &BTreeSet<Vec<Const>> {
        &self.tuples[rel as usize]
    }

    fn invalidate(&mut self) {
        self.flat = OnceLock::new();
    }

    /// The compiled flat form of this structure (built on first use, cached
    /// until the next mutation).
    pub(crate) fn flat(&self) -> &Arc<FlatStructure> {
        self.flat
            .get_or_init(|| Arc::new(FlatStructure::compile(self)))
    }

    /// Add a fact; panics if the relation is unknown or the arity is wrong.
    // The panic is this constructor's documented contract for malformed
    // input; schema-checked callers (the parser) validate first.
    #[allow(clippy::panic)]
    pub fn add_fact(&mut self, fact: Fact) {
        let rel = self
            .rel_id(&fact.relation)
            .unwrap_or_else(|| panic!("unknown relation {} in fact", fact.relation));
        let arity = self.table.arities[rel as usize];
        assert_eq!(
            arity,
            fact.args.len(),
            "arity mismatch for relation {}: expected {}, got {}",
            fact.relation,
            arity,
            fact.args.len()
        );
        for &a in &fact.args {
            self.isolated.remove(&a);
            self.active.insert(a);
        }
        self.tuples[rel as usize].insert(fact.args);
        self.invalidate();
    }

    /// Convenience: add the fact `relation(args…)`.
    pub fn add<S: Into<String>>(&mut self, relation: S, args: &[Const]) {
        self.add_fact(Fact::new(relation, args.to_vec()));
    }

    /// Add a fact by interned relation id (see [`Structure::rel_id`]) without
    /// allocating a relation-name string.  Panics if the id is out of range
    /// or the arity is wrong.
    pub fn add_by_id(&mut self, rel: u32, args: Vec<Const>) {
        let arity = self.table.arities[rel as usize];
        assert_eq!(
            arity,
            args.len(),
            "arity mismatch for relation {}: expected {}, got {}",
            self.table.names[rel as usize],
            arity,
            args.len()
        );
        for &a in &args {
            self.isolated.remove(&a);
            self.active.insert(a);
        }
        self.tuples[rel as usize].insert(args);
        self.invalidate();
    }

    /// Add an isolated domain element (one that occurs in no fact).
    pub fn add_isolated(&mut self, c: Const) {
        if !self.active.contains(&c) && self.isolated.insert(c) {
            self.invalidate();
        }
    }

    /// Whether the structure contains the given fact.
    pub fn contains_fact(&self, relation: &str, args: &[Const]) -> bool {
        match self.rel_id(relation) {
            Some(rel) => self.tuples[rel as usize].contains(args),
            None => false,
        }
    }

    /// The tuples of one relation (empty iterator if the relation has no facts).
    pub fn relation_tuples(&self, relation: &str) -> impl Iterator<Item = &Vec<Const>> {
        self.rel_id(relation)
            .map(|rel| &self.tuples[rel as usize])
            .into_iter()
            .flatten()
    }

    /// Number of tuples in one relation.
    pub fn relation_size(&self, relation: &str) -> usize {
        self.rel_id(relation)
            .map(|rel| self.tuples[rel as usize].len())
            .unwrap_or(0)
    }

    /// Iterator over all facts in deterministic order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.table
            .names
            .iter()
            .zip(self.tuples.iter())
            .flat_map(|(rel, tuples)| {
                tuples
                    .iter()
                    .map(move |args| Fact::new(rel.clone(), args.clone()))
            })
    }

    /// Total number of facts.
    pub fn num_facts(&self) -> usize {
        self.tuples.iter().map(BTreeSet::len).sum()
    }

    /// Whether the structure has no facts and no isolated elements.
    pub fn is_empty(&self) -> bool {
        self.num_facts() == 0 && self.isolated.is_empty()
    }

    /// The active domain: constants appearing in facts.
    pub fn active_domain(&self) -> BTreeSet<Const> {
        self.active.clone()
    }

    /// The domain: active domain plus isolated elements.
    pub fn domain(&self) -> BTreeSet<Const> {
        let mut dom = self.active.clone();
        dom.extend(self.isolated.iter().copied());
        dom
    }

    /// Domain size.
    pub fn domain_size(&self) -> usize {
        // `active` and `isolated` are disjoint by construction.
        self.active.len() + self.isolated.len()
    }

    /// Apply a constant-renaming function to every fact (and isolated element).
    ///
    /// The mapping need not be injective; the result is the homomorphic image.
    pub fn map_constants<F: Fn(Const) -> Const>(&self, f: F) -> Structure {
        let mut out = Structure::new(self.schema.clone());
        for fact in self.facts() {
            out.add_fact(Fact::new(
                fact.relation,
                fact.args.iter().map(|&a| f(a)).collect(),
            ));
        }
        for &c in &self.isolated {
            out.add_isolated(f(c));
        }
        out
    }

    /// Rename constants to `0..n` (dense renumbering), preserving order.
    pub fn compact(&self) -> Structure {
        let dom: Vec<Const> = self.domain().into_iter().collect();
        let index: BTreeMap<Const, Const> = dom
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as Const))
            .collect();
        self.map_constants(|c| index[&c])
    }

    /// The largest constant mentioned (useful when generating fresh constants).
    pub fn max_constant(&self) -> Option<Const> {
        match (
            self.active.iter().next_back(),
            self.isolated.iter().next_back(),
        ) {
            (Some(&a), Some(&b)) => Some(a.max(b)),
            (Some(&a), None) => Some(a),
            (None, Some(&b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Per-relation fact counts, in deterministic order (an isomorphism
    /// invariant used for fast non-isomorphism detection).
    pub fn profile(&self) -> Vec<(String, usize)> {
        self.table
            .names
            .iter()
            .zip(self.tuples.iter())
            .map(|(n, t)| (n.clone(), t.len()))
            .collect()
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Structure{{")?;
        let mut first = true;
        for fact in self.facts() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
            first = false;
        }
        for c in &self.isolated {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "·{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("P", 1)])
    }

    #[test]
    fn add_and_query_facts() {
        let mut s = Structure::new(schema());
        s.add("R", &[1, 2]);
        s.add("R", &[2, 3]);
        s.add("P", &[1]);
        assert_eq!(s.num_facts(), 3);
        assert!(s.contains_fact("R", &[1, 2]));
        assert!(!s.contains_fact("R", &[2, 1]));
        assert_eq!(s.relation_size("R"), 2);
        assert_eq!(s.relation_size("P"), 1);
        assert_eq!(s.relation_size("Q"), 0);
        assert_eq!(s.active_domain(), BTreeSet::from([1, 2, 3]));
        assert_eq!(s.domain_size(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn duplicate_facts_are_set_like() {
        let mut s = Structure::new(schema());
        s.add("R", &[1, 2]);
        s.add("R", &[1, 2]);
        assert_eq!(s.num_facts(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        let mut s = Structure::new(schema());
        s.add("Q", &[1]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut s = Structure::new(schema());
        s.add("R", &[1]);
    }

    #[test]
    fn isolated_elements() {
        let mut s = Structure::new(schema());
        s.add_isolated(7);
        s.add("P", &[1]);
        assert_eq!(s.active_domain(), BTreeSet::from([1]));
        assert_eq!(s.domain(), BTreeSet::from([1, 7]));
        // Adding a fact mentioning 7 removes it from the isolated set.
        s.add("P", &[7]);
        assert_eq!(s.domain(), BTreeSet::from([1, 7]));
        assert_eq!(s.active_domain(), BTreeSet::from([1, 7]));
        // Adding an isolated element that is already active is a no-op.
        s.add_isolated(1);
        assert_eq!(s.domain_size(), 2);
    }

    #[test]
    fn map_and_compact() {
        let mut s = Structure::new(schema());
        s.add("R", &[10, 20]);
        s.add("P", &[30]);
        let c = s.compact();
        assert_eq!(c.active_domain(), BTreeSet::from([0, 1, 2]));
        assert!(c.contains_fact("R", &[0, 1]));
        assert!(c.contains_fact("P", &[2]));
        // Non-injective mapping merges constants.
        let merged = s.map_constants(|_| 0);
        assert_eq!(merged.domain_size(), 1);
        assert!(merged.contains_fact("R", &[0, 0]));
    }

    #[test]
    fn nullary_facts() {
        let sch = Schema::with_relations([("H", 0usize)]);
        let mut s = Structure::new(sch);
        s.add("H", &[]);
        assert_eq!(s.num_facts(), 1);
        assert!(s.contains_fact("H", &[]));
        assert_eq!(s.domain_size(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn profile_and_display() {
        let mut s = Structure::new(schema());
        s.add("R", &[1, 2]);
        s.add("P", &[1]);
        assert_eq!(
            s.profile(),
            vec![("P".to_string(), 1), ("R".to_string(), 1)]
        );
        let d = format!("{s}");
        assert!(d.contains("R(1,2)") && d.contains("P(1)"));
    }

    #[test]
    fn from_facts_and_equality() {
        let s1 = Structure::from_facts(
            schema(),
            [Fact::new("R", vec![1, 2]), Fact::new("P", vec![1])],
        );
        let s2 = Structure::from_facts(
            schema(),
            [Fact::new("P", vec![1]), Fact::new("R", vec![1, 2])],
        );
        assert_eq!(s1, s2, "fact insertion order must not matter");
        assert_eq!(s1.max_constant(), Some(2));
        assert_eq!(Structure::new(schema()).max_constant(), None);
    }

    #[test]
    fn interned_relation_ids_follow_sorted_name_order() {
        let s = Structure::new(schema());
        assert_eq!(s.rel_id("P"), Some(0));
        assert_eq!(s.rel_id("R"), Some(1));
        assert_eq!(s.rel_id("Z"), None);
        assert_eq!(s.rel_names(), &["P".to_string(), "R".to_string()]);
        assert_eq!(s.rel_arities(), &[1, 2]);
    }

    #[test]
    fn mutation_invalidates_flat_cache() {
        let mut s = Structure::new(schema());
        s.add("R", &[0, 1]);
        let before = s.flat().clone();
        assert_eq!(before.dom, vec![0, 1]);
        s.add("R", &[1, 2]);
        let after = s.flat();
        assert_eq!(after.dom, vec![0, 1, 2]);
    }
}
