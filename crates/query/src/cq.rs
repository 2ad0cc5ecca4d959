//! Conjunctive queries: AST, frozen bodies, connectivity, containment.

use cqdet_structure::{hom_exists, isomorphic, Const, Schema, Structure};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A relational atom `R(x₁, …, x_k)` over variable names.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Atom {
    /// Relation symbol.
    pub relation: String,
    /// Variable names.
    pub vars: Vec<String>,
}

impl Atom {
    /// Construct an atom.
    pub fn new<S: Into<String>>(relation: S, vars: &[&str]) -> Self {
        Atom {
            relation: relation.into(),
            vars: vars.iter().map(|v| v.to_string()).collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.relation, self.vars.join(","))
    }
}

/// A conjunctive query `∃ y⃗ . φ(x⃗, y⃗)`.
///
/// Free variables are listed explicitly (`free_vars`); every other variable of
/// the body is existentially quantified.  A query with no free variables is
/// **boolean**; boolean queries are identified with their frozen bodies
/// throughout the paper and this workspace.
///
/// The name, free variables and atoms live behind one shared allocation:
/// a query is immutable once built, so a clone is a reference-count bump.
/// A mutable session's view list, a task's copy of it and the response
/// that echoes it all hold the same bodies.
#[derive(Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery(Arc<QueryBody>);

#[derive(Clone)]
struct QueryBody {
    name: String,
    free_vars: Vec<String>,
    atoms: Vec<Atom>,
    /// The first atom of each (relation, arity) pair the body uses, in
    /// first-occurrence order.  Computed on first use by [`common_schema`],
    /// which then folds in one atom per pair instead of every atom.
    relation_atoms: OnceLock<Vec<usize>>,
}

impl PartialEq for QueryBody {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.free_vars == other.free_vars && self.atoms == other.atoms
    }
}

impl Eq for QueryBody {}

impl ConjunctiveQuery {
    /// Construct a query with the given free variables and body atoms.
    ///
    /// Panics if a free variable does not occur in the body (the paper's
    /// queries are always "safe" in this sense).
    pub fn new<S: Into<String>>(name: S, free_vars: &[&str], atoms: Vec<Atom>) -> Self {
        let q = ConjunctiveQuery(Arc::new(QueryBody {
            name: name.into(),
            free_vars: free_vars.iter().map(|v| v.to_string()).collect(),
            atoms,
            relation_atoms: OnceLock::new(),
        }));
        for v in q.free_vars() {
            assert!(
                q.body_vars().contains(v),
                "free variable {v} does not occur in the body of {}",
                q.name()
            );
        }
        q
    }

    /// Construct a boolean query (no free variables).
    pub fn boolean<S: Into<String>>(name: S, atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery::new(name, &[], atoms)
    }

    /// The query's name (used for display and diagnostics only).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The free variables `x⃗`.
    pub fn free_vars(&self) -> &[String] {
        &self.0.free_vars
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.0.atoms
    }

    /// The arity `|x⃗|` of the query.
    pub fn arity(&self) -> usize {
        self.free_vars().len()
    }

    /// Whether the query is boolean.
    pub fn is_boolean(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// All variables occurring in the body, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in self.atoms() {
            for v in &a.vars {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// The existential variables `y⃗` (body variables that are not free).
    pub fn existential_vars(&self) -> Vec<String> {
        self.body_vars()
            .into_iter()
            .filter(|v| !self.free_vars().contains(v))
            .collect()
    }

    /// The minimal schema containing every relation used by this query, with
    /// arities inferred from the atoms.
    ///
    /// Panics if the same relation is used with two different arities;
    /// [`common_schema`] reports that as an error instead.
    #[allow(clippy::panic)]
    pub fn inferred_schema(&self) -> Schema {
        common_schema(&[self]).unwrap_or_else(|conflict| panic!("{conflict}"))
    }

    /// The frozen body (Section 2.1): the structure obtained by bijectively
    /// replacing variables with fresh constants — the `i`-th variable in
    /// first-occurrence order ([`ConjunctiveQuery::body_vars`]) becomes the
    /// constant `i` (see [`ConjunctiveQuery::frozen_constants`]).
    ///
    /// The structure is built over `schema` (which must contain every relation
    /// of the query) so that different queries freeze over a common schema.
    pub fn frozen_body_over(&self, schema: &Schema) -> Structure {
        // Hot path of the decision procedure: variables are numbered by
        // borrowed name and facts written as relation ids and dense
        // constants straight into the structure's flat form, so freezing
        // allocates no per-variable, per-relation or per-fact storage.
        let atoms = self.atoms();
        let mut ids: BTreeMap<&str, u32> = BTreeMap::new();
        let mut rels = Vec::with_capacity(atoms.len());
        let mut args = Vec::with_capacity(atoms.iter().map(|a| a.vars.len()).sum());
        for a in atoms {
            // Documented precondition: `schema` must contain every relation
            // of the query.  The decision pipeline always freezes over
            // `common_schema` of all queries involved, so this is not
            // reachable from a request.
            #[allow(clippy::panic)]
            let rel = schema
                .rel_id(&a.relation)
                .unwrap_or_else(|| panic!("unknown relation {} in fact", a.relation));
            rels.push(rel);
            for v in &a.vars {
                let next = ids.len() as u32;
                args.push(*ids.entry(v.as_str()).or_insert(next));
            }
        }
        Structure::from_dense(schema, ids.len() as u32, &rels, &args)
    }

    /// The frozen body over the query's own inferred schema.
    pub fn frozen_body(&self) -> Structure {
        self.frozen_body_over(&self.inferred_schema())
    }

    /// The variable → constant mapping of the frozen body
    /// ([`ConjunctiveQuery::frozen_body_over`]): body variables in
    /// first-occurrence order are the constants `0, 1, …`.
    pub fn frozen_constants(&self) -> BTreeMap<String, Const> {
        self.body_vars().into_iter().zip(0..).collect()
    }

    /// Whether this boolean query is connected (used by Corollary 33).
    pub fn is_connected(&self) -> bool {
        cqdet_structure::is_connected(&self.frozen_body())
    }

    /// Set-semantics containment of **boolean** queries:
    /// `self ⊆_set other` iff every structure satisfying `self` satisfies
    /// `other`, iff `hom(other, self) ≠ ∅` (Section 2.1).
    ///
    /// Panics if either query is not boolean.
    pub fn contained_in_set(&self, other: &ConjunctiveQuery, schema: &Schema) -> bool {
        assert!(
            self.is_boolean() && other.is_boolean(),
            "contained_in_set is defined for boolean queries"
        );
        hom_exists(
            &other.frozen_body_over(schema),
            &self.frozen_body_over(schema),
        )
    }

    /// Set-semantics equivalence of boolean queries (containment both ways).
    pub fn equivalent_set(&self, other: &ConjunctiveQuery, schema: &Schema) -> bool {
        self.contained_in_set(other, schema) && other.contained_in_set(self, schema)
    }

    /// Whether two boolean queries have isomorphic frozen bodies.
    pub fn isomorphic_to(&self, other: &ConjunctiveQuery, schema: &Schema) -> bool {
        isomorphic(
            &self.frozen_body_over(schema),
            &other.frozen_body_over(schema),
        )
    }

    /// Rename the query.  The renamed query gets its own body; clones of
    /// the original keep the old name.
    pub fn with_name<S: Into<String>>(self, name: S) -> Self {
        let QueryBody {
            free_vars,
            atoms,
            relation_atoms,
            ..
        } = Arc::unwrap_or_clone(self.0);
        ConjunctiveQuery(Arc::new(QueryBody {
            name: name.into(),
            free_vars,
            atoms,
            relation_atoms,
        }))
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConjunctiveQuery")
            .field("name", &self.0.name)
            .field("free_vars", &self.0.free_vars)
            .field("atoms", &self.0.atoms)
            .finish()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) :- ", self.name(), self.free_vars().join(","))?;
        for (i, a) in self.atoms().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A relation used with two different arities, by one body or by two
/// queries that share a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityConflict {
    /// The relation name.
    pub relation: String,
    /// The arity the relation was first used with.
    pub first: usize,
    /// The conflicting arity.
    pub second: usize,
}

impl fmt::Display for ArityConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relation {} used with conflicting arities {} and {}",
            self.relation, self.first, self.second
        )
    }
}

impl std::error::Error for ArityConflict {}

/// Fold one query's atoms into `schema` in place, checking that every
/// relation keeps one arity.  Only the first atom of each (relation, arity)
/// pair can add a relation or conflict, so only those atoms are folded in.
fn add_atoms_to_schema(schema: &mut Schema, q: &ConjunctiveQuery) -> Result<(), ArityConflict> {
    let atoms = q.atoms();
    let firsts = q.0.relation_atoms.get_or_init(|| {
        let mut firsts: Vec<usize> = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            let same = |b: &Atom| b.relation == a.relation && b.vars.len() == a.vars.len();
            if !firsts.iter().any(|&j| same(&atoms[j])) {
                firsts.push(i);
            }
        }
        firsts
    });
    for a in firsts.iter().map(|&i| &atoms[i]) {
        match schema.arity(&a.relation) {
            Some(first) if first != a.vars.len() => {
                return Err(ArityConflict {
                    relation: a.relation.clone(),
                    first,
                    second: a.vars.len(),
                })
            }
            Some(_) => {}
            None => schema.add_relation(a.relation.clone(), a.vars.len()),
        }
    }
    Ok(())
}

/// Build the common schema of a set of queries (arity inferred from atoms):
/// one in-place pass, no per-query schema allocation or clone-and-union.
/// Fails on the first relation used with two arities.
pub fn common_schema(queries: &[&ConjunctiveQuery]) -> Result<Schema, ArityConflict> {
    let mut schema = Schema::new();
    for q in queries {
        add_atoms_to_schema(&mut schema, q)?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_structure::{connected_components, dedup_up_to_iso};

    /// The connected components of a boolean query's body over `schema`.
    fn components_over(q: &ConjunctiveQuery, schema: &Schema) -> Vec<Structure> {
        connected_components(&q.frozen_body_over(schema))
    }

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    /// The query q of Example 2: ∃u,y,z P(u,x), R(x,y), S(y,z)  (free x).
    fn example2_q() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "q",
            &["x"],
            vec![
                atom("P", &["u", "x"]),
                atom("R", &["x", "y"]),
                atom("S", &["y", "z"]),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let q = example2_q();
        assert_eq!(q.arity(), 1);
        assert!(!q.is_boolean());
        assert_eq!(q.free_vars(), &["x".to_string()]);
        assert_eq!(q.body_vars(), vec!["u", "x", "y", "z"]);
        assert_eq!(q.existential_vars(), vec!["u", "y", "z"]);
        assert_eq!(q.atoms().len(), 3);
        assert_eq!(q.to_string(), "q(x) :- P(u,x), R(x,y), S(y,z)");
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn unsafe_query_panics() {
        let _ = ConjunctiveQuery::new("bad", &["x"], vec![atom("R", &["y", "z"])]);
    }

    #[test]
    fn inferred_schema() {
        let q = example2_q();
        let s = q.inferred_schema();
        assert_eq!(s.arity("P"), Some(2));
        assert_eq!(s.arity("R"), Some(2));
        assert_eq!(s.arity("S"), Some(2));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn conflicting_arity_panics() {
        // Within one body, and across two bodies that share a schema.
        let q = ConjunctiveQuery::boolean("bad", vec![atom("R", &["x", "y"]), atom("R", &["x"])]);
        let v = ConjunctiveQuery::boolean("v", vec![atom("R", &["x", "y"])]);
        let w = ConjunctiveQuery::boolean("w", vec![atom("R", &["x"])]);
        for err in [common_schema(&[&q]), common_schema(&[&v, &w])].map(Result::unwrap_err) {
            assert_eq!(
                err.to_string(),
                "relation R used with conflicting arities 2 and 1"
            );
        }
    }

    #[test]
    fn frozen_body_shape() {
        let q = example2_q();
        let body = q.frozen_body();
        let mapping = q.frozen_constants();
        assert_eq!(body.num_facts(), 3);
        assert_eq!(body.domain_size(), 4);
        assert_eq!(mapping.len(), 4);
        // The frozen body contains P(c_u, c_x).
        assert!(body.contains_fact("P", &[mapping["u"], mapping["x"]]));
    }

    #[test]
    fn boolean_query_components() {
        // ∃… R(x,y), R(z,w): two isomorphic connected components.
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["z", "w"])]);
        let schema = q.inferred_schema();
        let comps = components_over(&q, &schema);
        assert_eq!(comps.len(), 2);
        assert!(isomorphic(&comps[0], &comps[1]));
        assert!(!q.is_connected());
        assert_eq!(dedup_up_to_iso(comps).len(), 1);
    }

    #[test]
    fn set_containment_of_boolean_queries() {
        // q = ∃x,y,z R(x,y), R(y,z)  (2-path);  v = ∃x,y R(x,y)  (1 edge).
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])]);
        let v = ConjunctiveQuery::boolean("v", vec![atom("R", &["x", "y"])]);
        let schema = common_schema(&[&q, &v]).unwrap();
        // Every structure with a 2-path has an edge: q ⊆ v.
        assert!(q.contained_in_set(&v, &schema));
        // But not the other way round.
        assert!(!v.contained_in_set(&q, &schema));
        // A query is contained in itself, and in a loop-query it is not.
        assert!(q.contained_in_set(&q, &schema));
        let loopq = ConjunctiveQuery::boolean("l", vec![atom("R", &["x", "x"])]);
        assert!(loopq.contained_in_set(&v, &schema));
        assert!(!v.contained_in_set(&loopq, &schema));
        assert!(!q.equivalent_set(&v, &schema));
        assert!(q.equivalent_set(&q, &schema));
    }

    #[test]
    fn isomorphic_queries() {
        let a = ConjunctiveQuery::boolean("a", vec![atom("R", &["x", "y"])]);
        let b = ConjunctiveQuery::boolean("b", vec![atom("R", &["s", "t"])]);
        let schema = common_schema(&[&a, &b]).unwrap();
        assert!(a.isomorphic_to(&b, &schema));
        let c = ConjunctiveQuery::boolean("c", vec![atom("R", &["x", "x"])]);
        assert!(!a.isomorphic_to(&c, &schema));
    }

    #[test]
    fn component_basis_across_queries() {
        // v1 = edge + loop; v2 = edge: basis = {edge, loop}.
        let v1 =
            ConjunctiveQuery::boolean("v1", vec![atom("R", &["x", "y"]), atom("R", &["z", "z"])]);
        let v2 = ConjunctiveQuery::boolean("v2", vec![atom("R", &["a", "b"])]);
        let schema = common_schema(&[&v1, &v2]).unwrap();
        let mut all = components_over(&v1, &schema);
        all.extend(components_over(&v2, &schema));
        assert_eq!(dedup_up_to_iso(all).len(), 2);
    }
}
