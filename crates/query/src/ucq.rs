//! Unions of conjunctive queries (UCQs).

use crate::cq::ConjunctiveQuery;
use cqdet_structure::Schema;
use std::fmt;

/// A union (disjunction) of boolean conjunctive queries.
///
/// Under bag semantics the result of a boolean UCQ over `D` is the **sum** of
/// the results of its disjuncts (Section 2.1) — so, unlike in the set world,
/// repeating a disjunct changes the query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionQuery {
    name: String,
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Construct a UCQ from its disjuncts.
    ///
    /// All disjuncts must have the same arity.
    pub fn new<S: Into<String>>(name: S, disjuncts: Vec<ConjunctiveQuery>) -> Self {
        assert!(!disjuncts.is_empty(), "a UCQ needs at least one disjunct");
        let arity = disjuncts[0].arity();
        assert!(
            disjuncts.iter().all(|d| d.arity() == arity),
            "all disjuncts of a UCQ must have the same arity"
        );
        UnionQuery {
            name: name.into(),
            disjuncts,
        }
    }

    /// A UCQ with a single disjunct (every CQ is a UCQ).
    pub fn from_cq(cq: ConjunctiveQuery) -> Self {
        let name = cq.name().to_string();
        UnionQuery::new(name, vec![cq])
    }

    /// The query's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// The disjuncts, moved out of the union.
    pub fn into_disjuncts(self) -> Vec<ConjunctiveQuery> {
        self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Always false (a UCQ has at least one disjunct).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The arity of the UCQ.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].arity()
    }

    /// Whether the UCQ is boolean.
    pub fn is_boolean(&self) -> bool {
        self.arity() == 0
    }

    /// Whether the UCQ is a single conjunctive query.
    pub fn is_single_cq(&self) -> bool {
        self.disjuncts.len() == 1
    }

    /// The minimal schema containing every relation of every disjunct.
    pub fn inferred_schema(&self) -> Schema {
        let mut s = Schema::new();
        for d in &self.disjuncts {
            s = s.union(&d.inferred_schema());
        }
        s
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∨  ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Atom;

    fn cq(name: &str, rel: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![Atom::new(rel, &["x", "y"])])
    }

    #[test]
    fn construction() {
        let u = UnionQuery::new("u", vec![cq("a", "R"), cq("b", "S")]);
        assert_eq!(u.len(), 2);
        assert!(u.is_boolean());
        assert!(!u.is_single_cq());
        assert!(!u.is_empty());
        assert_eq!(u.arity(), 0);
        assert_eq!(u.name(), "u");
        let s = u.inferred_schema();
        assert!(s.contains("R") && s.contains("S"));
        assert!(u.to_string().contains("∨"));
    }

    #[test]
    fn from_single_cq() {
        let u = UnionQuery::from_cq(cq("a", "R"));
        assert!(u.is_single_cq());
        assert_eq!(u.name(), "a");
    }

    #[test]
    #[should_panic(expected = "at least one disjunct")]
    fn empty_ucq_panics() {
        let _ = UnionQuery::new("u", vec![]);
    }

    #[test]
    #[should_panic(expected = "same arity")]
    fn mixed_arity_panics() {
        let unary = ConjunctiveQuery::new("v", &["x"], vec![Atom::new("R", &["x", "y"])]);
        let _ = UnionQuery::new("u", vec![cq("a", "R"), unary]);
    }
}
