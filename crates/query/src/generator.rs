//! Random query-workload generation for the benchmark harness.
//!
//! The paper contains no experimental workloads, so `EXPERIMENTS.md` defines
//! synthetic ones; this module is their implementation.  Three families are
//! provided:
//!
//! * random boolean conjunctive queries (optionally connected),
//! * random *view sets + query* instances for the Theorem 3 decision
//!   procedure, including a "plant a determined instance" mode where the
//!   query is a disjoint sum of copies of view components (so that the
//!   expected answer is known),
//! * random path-query workloads for the Theorem 1 machinery.

use crate::cq::{Atom, ConjunctiveQuery};
use crate::path::PathQuery;
use cqdet_structure::Schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic (seeded) random query generator.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    relations: Vec<String>,
    seed: u64,
    counter: u64,
}

impl QueryGenerator {
    /// A generator producing queries over `num_relations` binary relations
    /// named `R0, R1, …`.
    pub fn new(num_relations: usize, seed: u64) -> Self {
        QueryGenerator {
            relations: (0..num_relations).map(|i| format!("R{i}")).collect(),
            seed,
            counter: 0,
        }
    }

    /// The (binary) schema of the generated queries.
    pub fn schema(&self) -> Schema {
        Schema::binary(self.relations.iter().map(String::as_str))
    }

    fn next_rng(&mut self) -> StdRng {
        self.counter += 1;
        StdRng::seed_from_u64(self.seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ self.counter)
    }

    /// A random boolean CQ with `num_atoms` binary atoms over at most
    /// `num_vars` variables.  If `connected` is set, consecutive atoms share a
    /// variable, so the query body is connected.
    pub fn random_boolean_cq(
        &mut self,
        name: &str,
        num_atoms: usize,
        num_vars: usize,
        connected: bool,
    ) -> ConjunctiveQuery {
        let mut rng = self.next_rng();
        assert!(num_atoms >= 1 && num_vars >= 1);
        let var = |i: usize| format!("v{i}");
        let mut atoms = Vec::with_capacity(num_atoms);
        let mut used_vars: Vec<usize> = Vec::new();
        for i in 0..num_atoms {
            let rel = self.relations[rng.gen_range(0..self.relations.len())].clone();
            let a = if connected && i > 0 {
                used_vars[rng.gen_range(0..used_vars.len())]
            } else {
                rng.gen_range(0..num_vars)
            };
            let b = rng.gen_range(0..num_vars);
            for v in [a, b] {
                if !used_vars.contains(&v) {
                    used_vars.push(v);
                }
            }
            atoms.push(Atom {
                relation: rel,
                vars: vec![var(a), var(b)],
            });
        }
        ConjunctiveQuery::boolean(name, atoms)
    }

    /// A random determinacy instance `(V₀, q)` of boolean CQs.
    ///
    /// When `plant_determined` is set, `q` is built as a disjoint sum of
    /// components copied from the views, so that its vector representation is
    /// a non-negative integer combination of the view vectors and the instance
    /// is determined by construction (Lemma 31 (⇐)).  Otherwise `q` is an
    /// independent random query.
    pub fn random_instance(
        &mut self,
        num_views: usize,
        atoms_per_view: usize,
        plant_determined: bool,
    ) -> (Vec<ConjunctiveQuery>, ConjunctiveQuery) {
        let views: Vec<ConjunctiveQuery> = (0..num_views)
            .map(|i| {
                self.random_boolean_cq(&format!("v{i}"), atoms_per_view, atoms_per_view + 1, true)
            })
            .collect();
        let q = if plant_determined && !views.is_empty() {
            // q := the disjoint sum of all views (vector = sum of view vectors).
            let mut atoms = Vec::new();
            for (i, v) in views.iter().enumerate() {
                for a in v.atoms() {
                    atoms.push(Atom {
                        relation: a.relation.clone(),
                        vars: a.vars.iter().map(|x| format!("{x}_copy{i}")).collect(),
                    });
                }
            }
            ConjunctiveQuery::boolean("q", atoms)
        } else {
            self.random_boolean_cq("q", atoms_per_view, atoms_per_view + 1, true)
        };
        (views, q)
    }

    /// A random path query of the given length.
    pub fn random_path_query(&mut self, length: usize) -> PathQuery {
        let mut rng = self.next_rng();
        PathQuery::new(
            (0..length).map(|_| self.relations[rng.gen_range(0..self.relations.len())].clone()),
        )
    }

    /// A random path-determinacy instance: a query of length `query_len` and
    /// `num_views` views.  When `derivable` is set, the views are factors of a
    /// factorisation of `q`, so that `ε ⇝ q` holds in `G_{q,V}` and the
    /// instance is determined.
    pub fn random_path_instance(
        &mut self,
        query_len: usize,
        num_views: usize,
        view_len: usize,
        derivable: bool,
    ) -> (Vec<PathQuery>, PathQuery) {
        let mut rng = self.next_rng();
        let q = self.random_path_query(query_len);
        let mut views = Vec::with_capacity(num_views);
        if derivable {
            // Cut q into consecutive chunks; those views alone let us walk ε → q.
            let mut start = 0;
            while start < q.len() {
                let end = (start + view_len.max(1)).min(q.len());
                views.push(PathQuery::new(q.letters()[start..end].to_vec()));
                start = end;
            }
        }
        while views.len() < num_views {
            views.push(self.random_path_query(view_len.max(1) + rng.gen_range(0..2)));
        }
        views.truncate(num_views.max(views.len()));
        (views, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::common_schema;

    #[test]
    fn deterministic_and_shaped() {
        let mut g1 = QueryGenerator::new(3, 11);
        let mut g2 = QueryGenerator::new(3, 11);
        let a = g1.random_boolean_cq("a", 4, 5, true);
        let b = g2.random_boolean_cq("a", 4, 5, true);
        assert_eq!(a, b);
        assert_eq!(a.atoms().len(), 4);
        assert!(a.is_boolean());
        assert!(a.is_connected());
    }

    #[test]
    fn connected_flag() {
        let mut g = QueryGenerator::new(2, 3);
        for i in 0..10 {
            let q = g.random_boolean_cq(&format!("q{i}"), 5, 8, true);
            assert!(q.is_connected(), "query {q} should be connected");
        }
    }

    #[test]
    fn schema_covers_generated_queries() {
        let mut g = QueryGenerator::new(4, 9);
        let q = g.random_boolean_cq("q", 6, 4, false);
        let schema = g.schema();
        for a in q.atoms() {
            assert_eq!(schema.arity(&a.relation), Some(2));
        }
    }

    #[test]
    fn planted_instances_sum_views() {
        let mut g = QueryGenerator::new(2, 21);
        let (views, q) = g.random_instance(3, 2, true);
        assert_eq!(views.len(), 3);
        let expected_atoms: usize = views.iter().map(|v| v.atoms().len()).sum();
        assert_eq!(q.atoms().len(), expected_atoms);
        // All queries live in the generator's schema.
        let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(&q)).collect();
        let schema = common_schema(&all).unwrap();
        assert!(schema.is_binary());
    }

    #[test]
    fn path_instances() {
        let mut g = QueryGenerator::new(3, 5);
        let (views, q) = g.random_path_instance(6, 4, 2, true);
        assert_eq!(q.len(), 6);
        assert!(views.len() >= 3, "need at least the covering chunks");
        // The concatenation of the first ceil(6/2)=3 views is q.
        let joined = views[..3]
            .iter()
            .fold(PathQuery::epsilon(), |acc, v| acc.concat(v));
        assert_eq!(joined, q);
        let (views2, q2) = g.random_path_instance(5, 2, 2, false);
        assert_eq!(q2.len(), 5);
        assert_eq!(views2.len(), 2);
    }
}
