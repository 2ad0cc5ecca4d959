//! Finite relational structures (databases) over a [`Schema`].
//!
//! A structure's one storage is its flat form (`crate::flat`): the sorted
//! domain, every relation's rows as dense ids in one arena, and the
//! occurrence masks.  Relation names are interned by the schema (sorted
//! names = contiguous `u32` ids), and the `&str`-based public API is a thin
//! shim over a binary search on that table.
//!
//! The `add*` builder methods append to a build log instead; the first read
//! compiles the log into the flat form with one sort + dedup and frees it.
//! An `add*` on a compiled structure thaws it back into a log, so code that
//! builds a structure should finish adding before it reads.  Cloning a
//! compiled structure is an `Arc` bump, and frozen query bodies and their
//! components are born flat ([`Structure::from_dense`],
//! [`crate::components_keyed`]) and never have a log.

use crate::flat::{sorted_cells, FlatStructure};
use crate::schema::Schema;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

/// What the `add*` methods appended since the structure was last compiled:
/// relation ids, each fact's arguments concatenated, and domain elements
/// added as isolated (kept only if no fact mentions them).
#[derive(Default)]
struct Log {
    rels: Vec<u32>,
    args: Vec<Const>,
    isolated: Vec<Const>,
}

impl Log {
    /// Compile into the flat form: the domain is every mentioned constant,
    /// sorted and deduplicated; the rows one sort + dedup per relation.
    // Invariant-backed expect: every argument is in the domain built from
    // the same log.
    #[allow(clippy::expect_used)]
    fn compile(self, schema: &Schema) -> FlatStructure {
        let mut dom = self.isolated;
        dom.extend_from_slice(&self.args);
        dom.sort_unstable();
        dom.dedup();
        let table = schema.table();
        let cells = sorted_cells(&table.arities, &self.rels, &self.args, |c| {
            dom.binary_search(&c).expect("constant from the log") as u32
        });
        FlatStructure::from_sorted_rows(table.clone(), dom, cells)
    }

    /// Refill an empty log with the content of a compiled structure.
    fn thaw(&mut self, f: &FlatStructure) {
        for (rel, &arity) in f.arities().iter().enumerate() {
            if f.has_nullary(rel) {
                self.rels.push(rel as u32);
            }
            if arity == 0 {
                continue;
            }
            for row in f.rows(rel).chunks_exact(arity) {
                self.rels.push(rel as u32);
                self.args.extend(row.iter().map(|&e| f.dom[e as usize]));
            }
        }
        self.isolated.extend(
            (0..f.dom.len())
                .filter(|&e| !f.is_active(e))
                .map(|e| f.dom[e]),
        );
    }
}

/// A finite relational structure: a set of facts over a schema, plus an
/// optional set of isolated domain elements (the paper's Section 3 explicitly
/// allows the domain to be larger than the active domain).
pub struct Structure {
    schema: Schema,
    /// The flat form: the structure's content once compiled.
    flat: OnceLock<Arc<FlatStructure>>,
    /// The build log: the structure's content while `flat` is unset;
    /// drained by the compile that sets it.
    log: Mutex<Log>,
}

impl Default for Structure {
    fn default() -> Self {
        Structure::new(Schema::default())
    }
}

impl Clone for Structure {
    /// Compiles `self` if need be; the clone shares the flat form.
    fn clone(&self) -> Self {
        Structure::from_flat(self.schema.clone(), self.flat().clone())
    }
}

impl PartialEq for Structure {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.flat().same_content(other.flat())
    }
}

impl Eq for Structure {}

impl Structure {
    /// The empty structure over a schema.
    pub fn new(schema: Schema) -> Self {
        Structure {
            schema,
            flat: OnceLock::new(),
            log: Mutex::new(Log::default()),
        }
    }

    /// A structure whose content is an already-built flat form.
    pub(crate) fn from_flat(schema: Schema, flat: Arc<FlatStructure>) -> Self {
        Structure {
            schema,
            flat: OnceLock::from(flat),
            log: Mutex::new(Log::default()),
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

    /// The structure over `schema` with domain `0..n` whose facts are
    /// `rels[i](…)`: relation ids (see [`Schema::rel_id`]) and dense
    /// constants below `n`, each fact's arguments concatenated in `args`.
    /// The rows are sorted and deduplicated straight into the flat form, no
    /// build log involved — this is how query bodies are frozen.
    ///
    /// Panics if a relation id, an argument count or a constant is out of
    /// range.
    pub fn from_dense(schema: &Schema, n: u32, rels: &[u32], args: &[u32]) -> Self {
        let table = schema.table();
        let cells: usize = rels.iter().map(|&r| table.arities[r as usize]).sum();
        assert_eq!(cells, args.len(), "argument count does not match arities");
        assert!(args.iter().all(|&a| a < n), "constant out of range");
        let cells = sorted_cells(&table.arities, rels, args, |a| a);
        let dom = (0..Const::from(n)).collect();
        let flat = FlatStructure::from_sorted_rows(table.clone(), dom, cells);
        Structure::from_flat(schema.clone(), Arc::new(flat))
    }

    /// The schema of this structure.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The interned id of a relation name, if it exists in the schema.
    #[inline]
    pub fn rel_id(&self, relation: &str) -> Option<u32> {
        self.schema.rel_id(relation)
    }

    /// The interned relation names, sorted (index = relation id).
    pub fn rel_names(&self) -> &[String] {
        &self.schema.table().names
    }

    /// Arity per relation id.
    pub fn rel_arities(&self) -> &[usize] {
        &self.schema.table().arities
    }

    /// The flat form of this structure, compiling (and draining) the build
    /// log on first use.
    pub(crate) fn flat(&self) -> &Arc<FlatStructure> {
        self.flat.get_or_init(|| {
            let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::new(std::mem::take(&mut *log).compile(&self.schema))
        })
    }

    /// The build log, ready for appending: a compiled structure is thawed
    /// back into it first.
    fn log_mut(&mut self) -> &mut Log {
        let log = self.log.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(flat) = self.flat.take() {
            log.thaw(&flat);
        }
        log
    }

    /// Add a fact; panics if the relation is unknown or the arity is wrong.
    // The panic is this constructor's documented contract for malformed
    // input; schema-checked callers (the parser) validate first.
    #[allow(clippy::panic)]
    pub fn add_fact(&mut self, fact: Fact) {
        let rel = self
            .rel_id(&fact.relation)
            .unwrap_or_else(|| panic!("unknown relation {} in fact", fact.relation));
        self.add_by_id(rel, fact.args);
    }

    /// Convenience: add the fact `relation(args…)`.
    pub fn add<S: Into<String>>(&mut self, relation: S, args: &[Const]) {
        self.add_fact(Fact::new(relation, args.to_vec()));
    }

    /// Add a fact by interned relation id (see [`Structure::rel_id`]) without
    /// allocating a relation-name string.  Panics if the id is out of range
    /// or the arity is wrong.
    pub fn add_by_id(&mut self, rel: u32, args: Vec<Const>) {
        let table = self.schema.table();
        let arity = table.arities[rel as usize];
        assert_eq!(
            arity,
            args.len(),
            "arity mismatch for relation {}: expected {}, got {}",
            table.names[rel as usize],
            arity,
            args.len()
        );
        let log = self.log_mut();
        log.rels.push(rel);
        log.args.extend_from_slice(&args);
    }

    /// Add an isolated domain element (one that occurs in no fact).
    pub fn add_isolated(&mut self, c: Const) {
        self.log_mut().isolated.push(c);
    }

    /// Whether the structure contains the given fact.
    pub fn contains_fact(&self, relation: &str, args: &[Const]) -> bool {
        let Some(rel) = self.rel_id(relation) else {
            return false;
        };
        let f = self.flat();
        let row: Option<Vec<u32>> = args
            .iter()
            .map(|c| f.dom.binary_search(c).ok().map(|e| e as u32))
            .collect();
        row.is_some_and(|row| {
            row.len() == f.arities()[rel as usize] && f.target().contains_row(f, rel as usize, &row)
        })
    }

    /// The tuples of one relation, in sorted order (empty if the relation
    /// has no facts).
    pub fn relation_tuples(&self, relation: &str) -> impl Iterator<Item = Vec<Const>> + '_ {
        let f = self.flat();
        let rel = self.rel_id(relation).map(|r| r as usize);
        let arity = rel.map_or(1, |r| f.arities()[r].max(1));
        let rows = rel.map_or(&[][..], |r| f.rows(r));
        // A present nullary fact is the one empty tuple.
        let nullary = rel.is_some_and(|r| f.has_nullary(r));
        nullary.then(Vec::new).into_iter().chain(
            rows.chunks_exact(arity)
                .map(move |row| row.iter().map(|&e| f.dom[e as usize]).collect()),
        )
    }

    /// Number of tuples in one relation.
    pub fn relation_size(&self, relation: &str) -> usize {
        self.rel_id(relation)
            .map(|rel| self.flat().row_count(rel as usize))
            .unwrap_or(0)
    }

    /// Iterator over all facts in deterministic order: relations by name,
    /// each relation's tuples sorted.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rel_names().iter().flat_map(move |rel| {
            self.relation_tuples(rel)
                .map(move |args| Fact::new(rel, args))
        })
    }

    /// Total number of facts.
    pub fn num_facts(&self) -> usize {
        self.flat().num_facts()
    }

    /// Whether the structure has no facts and no isolated elements.
    pub fn is_empty(&self) -> bool {
        self.flat().dom.is_empty() && self.num_facts() == 0
    }

    /// The active domain: constants appearing in facts.
    pub fn active_domain(&self) -> BTreeSet<Const> {
        let f = self.flat();
        (0..f.dom.len())
            .filter(|&e| f.is_active(e))
            .map(|e| f.dom[e])
            .collect()
    }

    /// The isolated elements: domain elements occurring in no fact.
    fn isolated(&self) -> impl Iterator<Item = Const> + '_ {
        let f = self.flat();
        (0..f.dom.len())
            .filter(|&e| !f.is_active(e))
            .map(|e| f.dom[e])
    }

    /// The domain: active domain plus isolated elements.
    pub fn domain(&self) -> BTreeSet<Const> {
        self.flat().dom.iter().copied().collect()
    }

    /// Domain size.
    pub fn domain_size(&self) -> usize {
        self.flat().dom.len()
    }

    /// Apply a constant-renaming function to every fact (and isolated element).
    ///
    /// The mapping need not be injective; the result is the homomorphic image.
    pub fn map_constants<F: Fn(Const) -> Const>(&self, f: F) -> Structure {
        let flat = self.flat();
        let mut out = Structure::new(self.schema.clone());
        let log = out.log_mut();
        log.thaw(flat);
        for c in log.args.iter_mut().chain(&mut log.isolated) {
            *c = f(*c);
        }
        out
    }

    /// Rename constants to `0..n` (dense renumbering), preserving order.
    pub fn compact(&self) -> Structure {
        let dom = &self.flat().dom;
        self.map_constants(|c| dom.partition_point(|&d| d < c) as Const)
    }

    /// The largest constant mentioned (useful when generating fresh constants).
    pub fn max_constant(&self) -> Option<Const> {
        self.flat().dom.last().copied()
    }

    /// Per-relation fact counts, in deterministic order (an isomorphism
    /// invariant used for fast non-isomorphism detection).
    pub fn profile(&self) -> Vec<(String, usize)> {
        let f = self.flat();
        self.rel_names()
            .iter()
            .enumerate()
            .map(|(rel, n)| (n.clone(), f.row_count(rel)))
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
        for c in self.isolated() {
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
        assert!(s.contains_fact("R", &[0, 1]), "thawed facts survive");
    }

    #[test]
    fn clone_of_a_compiled_structure_shares_its_flat_form() {
        let mut s = Structure::new(schema());
        s.add("R", &[0, 1]);
        let c = s.clone();
        assert!(Arc::ptr_eq(s.flat(), c.flat()));
        assert_eq!(c, s);
    }

    #[test]
    fn dense_construction_matches_the_builder() {
        // R = id 1, P = id 0; rows out of order, one duplicate.
        let d = Structure::from_dense(&schema(), 4, &[1, 0, 1, 1], &[2, 0, 1, 0, 1, 2, 0]);
        let mut b = Structure::new(schema());
        b.add("R", &[2, 0]);
        b.add("P", &[1]);
        b.add("R", &[0, 1]);
        b.add_isolated(3);
        assert_eq!(d, b);
        assert_eq!(format!("{d}"), "Structure{P(1), R(0,1), R(2,0), ·3}");
        assert_eq!(
            d.relation_tuples("R").collect::<Vec<_>>(),
            vec![vec![0, 1], vec![2, 0]]
        );
    }
}
