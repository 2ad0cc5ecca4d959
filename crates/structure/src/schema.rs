//! Relational schemas: finite sets of relation symbols with arities.

use std::fmt;
use std::sync::Arc;

/// The interned relation table of a schema: sorted names (index = relation
/// id) and their arities.  It *is* the schema's storage, shared by every
/// clone of the schema and every [`crate::Structure`] over it, so cloning a
/// schema or freezing a query over it allocates nothing.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RelTable {
    pub names: Vec<String>,
    pub arities: Vec<usize>,
}

/// A relational schema Σ: a finite map from relation names to arities.
///
/// The paper calls a schema *n-ary* when every relation has arity at most `n`;
/// path queries (Section 3) require a *binary* schema.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Schema {
    /// Sorted relation table behind an `Arc`: clones are reference bumps,
    /// and a mutation copies the table only while it is shared.
    table: Arc<RelTable>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// A schema built from `(name, arity)` pairs.
    pub fn with_relations<I, S>(relations: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut s = Schema::new();
        for (name, arity) in relations {
            s.add_relation(name, arity);
        }
        s
    }

    /// A binary schema with the given relation names (the setting of the
    /// path-query results, Section 3).
    pub fn binary<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema::with_relations(names.into_iter().map(|n| (n, 2)))
    }

    /// Add (or overwrite) a relation symbol.
    pub fn add_relation<S: Into<String>>(&mut self, name: S, arity: usize) {
        let name = name.into();
        let t = Arc::make_mut(&mut self.table);
        match t.names.binary_search(&name) {
            Ok(i) => t.arities[i] = arity,
            Err(i) => {
                t.names.insert(i, name);
                t.arities.insert(i, arity);
            }
        }
    }

    /// The interned relation table (names sorted, index = relation id).
    pub(crate) fn table(&self) -> &Arc<RelTable> {
        &self.table
    }

    /// The relation id of `name` (its index in sorted name order).
    pub fn rel_id(&self, name: &str) -> Option<u32> {
        self.table
            .names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// The arity of `name`, if the relation exists.
    pub fn arity(&self, name: &str) -> Option<usize> {
        self.rel_id(name).map(|i| self.table.arities[i as usize])
    }

    /// Whether the schema contains the relation `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.rel_id(name).is_some()
    }

    /// Iterator over `(name, arity)` pairs in deterministic (sorted) order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, usize)> {
        self.table
            .names
            .iter()
            .zip(&self.table.arities)
            .map(|(n, &a)| (n.as_str(), a))
    }

    /// Relation names in deterministic (sorted) order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.table.names.iter().map(String::as_str).collect()
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.table.names.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.table.names.is_empty()
    }

    /// The maximum arity over all relations (`0` for the empty schema).
    pub fn max_arity(&self) -> usize {
        self.table.arities.iter().copied().max().unwrap_or(0)
    }

    /// Whether every relation is binary (the path-query setting).
    pub fn is_binary(&self) -> bool {
        self.table.arities.iter().all(|&a| a == 2)
    }

    /// Whether every relation has arity at least one.
    ///
    /// The Theorem 3 machinery (Lemma 4 parts (1)–(2)) needs this: a nullary
    /// atom forms a connected component for which the disjoint-union counting
    /// rules do not hold.
    pub fn all_positive_arity(&self) -> bool {
        self.table.arities.iter().all(|&a| a >= 1)
    }

    /// The union of two schemas; panics if a shared name has conflicting arity.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut out = self.clone();
        for (name, arity) in other.relations() {
            if let Some(existing) = out.arity(name) {
                assert_eq!(
                    existing, arity,
                    "conflicting arities for relation {name} in schema union"
                );
            }
            out.add_relation(name, arity);
        }
        out
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema{{")?;
        for (i, (n, a)) in self.relations().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}/{a}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Schema::with_relations([("R", 2), ("P", 1), ("H", 0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.arity("R"), Some(2));
        assert_eq!(s.arity("P"), Some(1));
        assert_eq!(s.arity("H"), Some(0));
        assert_eq!(s.arity("X"), None);
        assert!(s.contains("P"));
        assert!(!s.contains("Q"));
        assert_eq!(s.max_arity(), 2);
        assert!(!s.is_binary());
        assert!(!s.all_positive_arity());
        assert!(!s.is_empty());
        assert!(Schema::new().is_empty());
    }

    #[test]
    fn binary_schema() {
        let s = Schema::binary(["A", "B", "C"]);
        assert!(s.is_binary());
        assert!(s.all_positive_arity());
        assert_eq!(s.relation_names(), vec!["A", "B", "C"]);
    }

    #[test]
    fn union_ok() {
        let a = Schema::with_relations([("R", 2)]);
        let b = Schema::with_relations([("S", 1), ("R", 2)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.arity("S"), Some(1));
    }

    #[test]
    #[should_panic(expected = "conflicting arities")]
    fn union_conflict_panics() {
        let a = Schema::with_relations([("R", 2)]);
        let b = Schema::with_relations([("R", 3)]);
        let _ = a.union(&b);
    }

    #[test]
    fn display() {
        let s = Schema::with_relations([("R", 2), ("P", 1)]);
        assert_eq!(format!("{s}"), "Schema{P/1, R/2}");
    }
}
