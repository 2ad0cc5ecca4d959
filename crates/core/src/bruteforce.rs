//! Bounded brute-force determinacy checking — the baseline.
//!
//! Definition 1 quantifies over *all* finite structure pairs, so without the
//! paper's Theorem 3 the only generic approach is to enumerate structures up
//! to some size and look for a counterexample pair.  This module implements
//! that baseline:
//!
//! * it can **refute** determinacy (by exhibiting a pair `D, D′` that agrees
//!   on every view and disagrees on the query), but
//! * it can never **confirm** it — "no counterexample up to size n" proves
//!   nothing (and Theorem 2 shows that for UCQs nothing ever could).
//!
//! It is used for cross-validation of the Theorem 3 decision procedure on
//! small instances and as the baseline of the `BASELINE` benchmark of
//! `EXPERIMENTS.md` (where the crossover against the exact procedure is
//! measured).

use cqdet_bigint::Nat;
use cqdet_query::eval::eval_boolean_cq;
use cqdet_query::ConjunctiveQuery;
use cqdet_structure::{Schema, Structure};

/// The outcome of a bounded brute-force search.
// The counterexample variant is much larger than the others; boxing it would
// push the size into every caller's match arms for no measurable gain here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum BruteForceOutcome {
    /// A counterexample pair was found: determinacy is refuted.
    CounterexampleFound {
        /// First structure of the pair.
        d: Structure,
        /// Second structure of the pair; agrees with `d` on every view, not on
        /// the query.
        d_prime: Structure,
    },
    /// No counterexample exists among the enumerated structures.  This says
    /// nothing about determinacy in general.
    NoneFoundWithinBounds {
        /// Number of structures enumerated.
        structures_checked: usize,
    },
}

impl BruteForceOutcome {
    /// Whether a counterexample was found.
    pub fn refuted(&self) -> bool {
        matches!(self, BruteForceOutcome::CounterexampleFound { .. })
    }
}

/// Enumerate every structure over `schema` whose domain is `{0, …, n-1}` for
/// `n ≤ max_domain`, up to `limit` structures in total.
///
/// The enumeration is exhaustive per domain size (every subset of the possible
/// facts), so it is exponential; keep `max_domain` tiny.
pub fn enumerate_structures(schema: &Schema, max_domain: usize, limit: usize) -> Vec<Structure> {
    let mut out = Vec::new();
    'outer: for n in 0..=max_domain {
        let mut tuples: Vec<(String, Vec<u64>)> = Vec::new();
        for (rel, arity) in schema.relations() {
            if arity == 0 {
                tuples.push((rel.to_string(), vec![]));
                continue;
            }
            if n == 0 {
                continue;
            }
            let mut idx = vec![0usize; arity];
            loop {
                tuples.push((rel.to_string(), idx.iter().map(|&x| x as u64).collect()));
                let mut pos = 0;
                loop {
                    if pos == arity {
                        break;
                    }
                    idx[pos] += 1;
                    if idx[pos] < n {
                        break;
                    }
                    idx[pos] = 0;
                    pos += 1;
                }
                if pos == arity {
                    break;
                }
            }
        }
        if tuples.len() >= 30 {
            // 2^30 structures will never be enumerated; stop at this domain size.
            break;
        }
        for mask in 0u64..(1u64 << tuples.len()) {
            let mut s = Structure::new(schema.clone());
            for c in 0..n {
                s.add_isolated(c as u64);
            }
            for (bit, (rel, args)) in tuples.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    s.add(rel, args);
                }
            }
            out.push(s);
            if out.len() >= limit {
                break 'outer;
            }
        }
    }
    out
}

/// Search for a counterexample to `views ⟶_bag query` among all structures
/// with at most `max_domain` domain elements (capped at `limit` structures).
///
/// Structures are grouped by their view-answer vector, so the search is
/// linear in the number of structures (times the cost of evaluation) rather
/// than quadratic in pairs.
///
/// Panics if a relation is used with two arities (the decision pipeline
/// reports that as [`crate::DeterminacyError::ConflictingArity`]).
#[allow(clippy::panic)]
pub fn brute_force_search(
    views: &[ConjunctiveQuery],
    query: &ConjunctiveQuery,
    max_domain: usize,
    limit: usize,
) -> BruteForceOutcome {
    let all: Vec<&ConjunctiveQuery> = views.iter().chain(std::iter::once(query)).collect();
    let schema =
        cqdet_query::cq::common_schema(&all).unwrap_or_else(|conflict| panic!("{conflict}"));
    let structures = enumerate_structures(&schema, max_domain, limit);
    let mut seen: std::collections::HashMap<Vec<Nat>, (Structure, Nat)> =
        std::collections::HashMap::new();
    for d in &structures {
        let key: Vec<Nat> = views
            .iter()
            .map(|v| eval_boolean_cq(v, &schema, d))
            .collect();
        let qval = eval_boolean_cq(query, &schema, d);
        match seen.get(&key) {
            None => {
                seen.insert(key, (d.clone(), qval));
            }
            Some((other, other_q)) => {
                if *other_q != qval {
                    return BruteForceOutcome::CounterexampleFound {
                        d: other.clone(),
                        d_prime: d.clone(),
                    };
                }
            }
        }
    }
    BruteForceOutcome::NoneFoundWithinBounds {
        structures_checked: structures.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_query::cq::Atom;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::new(rel, vars)
    }

    fn edge(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"])])
    }

    fn two_path(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(name, vec![atom("R", &["x", "y"]), atom("R", &["y", "z"])])
    }

    #[test]
    fn enumeration_counts() {
        let schema = Schema::binary(["R"]);
        // Domain sizes 0, 1, 2: 1 + 2^1 + 2^4 = 19 structures.
        let all = enumerate_structures(&schema, 2, 10_000);
        assert_eq!(all.len(), 1 + 2 + 16);
        // The limit is respected.
        assert_eq!(enumerate_structures(&schema, 2, 5).len(), 5);
        // Nullary relations are enumerated too.
        let schema2 = Schema::with_relations([("H", 0usize)]);
        let all2 = enumerate_structures(&schema2, 0, 100);
        assert_eq!(all2.len(), 2);
    }

    #[test]
    fn refutes_edge_vs_two_path() {
        // Not determined; small structures already witness it
        // (e.g. a 2-path vs a 3-path have 2 resp. 3 edges … domain 3 needed,
        // but a loop vs a 2-cycle also works within domain 2).
        let q = two_path("q");
        let v = edge("v");
        let outcome = brute_force_search(std::slice::from_ref(&v), &q, 3, 100_000);
        match outcome {
            BruteForceOutcome::CounterexampleFound { d, d_prime } => {
                let schema = cqdet_query::cq::common_schema(&[&v, &q]).unwrap();
                assert_eq!(
                    eval_boolean_cq(&v, &schema, &d),
                    eval_boolean_cq(&v, &schema, &d_prime)
                );
                assert_ne!(
                    eval_boolean_cq(&q, &schema, &d),
                    eval_boolean_cq(&q, &schema, &d_prime)
                );
            }
            BruteForceOutcome::NoneFoundWithinBounds { .. } => {
                panic!("a counterexample exists within domain size 3")
            }
        }
    }

    #[test]
    fn does_not_refute_determined_instance() {
        // q = edge, V = {edge}: determined, so no bound can refute it.
        let outcome = brute_force_search(&[edge("v")], &edge("q"), 3, 100_000);
        assert!(!outcome.refuted());
        if let BruteForceOutcome::NoneFoundWithinBounds { structures_checked } = outcome {
            assert!(structures_checked > 100);
        }
    }

    #[test]
    fn planted_linear_combination_not_refuted() {
        // q = 2 disjoint edges = 2·v: determined; brute force agrees (finds nothing).
        let q =
            ConjunctiveQuery::boolean("q", vec![atom("R", &["x", "y"]), atom("R", &["z", "w"])]);
        let outcome = brute_force_search(&[edge("v")], &q, 2, 100_000);
        assert!(!outcome.refuted());
    }
}
