//! Property-based tests for query parsing, printing, evaluation and
//! set-semantics containment.

use cqdet_bigint::Nat;
use cqdet_query::cq::common_schema;
use cqdet_query::eval::{eval_boolean_cq, eval_cq};
use cqdet_query::{parse_query, ConjunctiveQuery, PathQuery, QueryGenerator, UnionQuery};
use cqdet_structure::{disjoint_union, hom_exists, Schema, Structure, StructureGenerator};
use proptest::prelude::*;

fn random_boolean_cq(seed: u64, atoms: usize) -> ConjunctiveQuery {
    QueryGenerator::new(2, seed).random_boolean_cq("q", atoms.max(1), atoms.max(1) + 1, true)
}

fn random_db(seed: u64, domain: usize, facts: usize) -> Structure {
    StructureGenerator::new(Schema::binary(["R0", "R1"]), seed)
        .random_with_facts(domain.max(1), facts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pretty-print → parse is the identity on generated boolean CQs.
    #[test]
    fn print_parse_round_trip(seed in 0u64..10_000, atoms in 1usize..6) {
        let q = random_boolean_cq(seed, atoms);
        let printed = q.to_string();
        let reparsed = parse_query(&printed).unwrap();
        prop_assert!(reparsed.is_single_cq());
        prop_assert_eq!(reparsed.disjuncts()[0].atoms(), q.atoms());
        prop_assert_eq!(reparsed.disjuncts()[0].free_vars(), q.free_vars());
    }

    /// Path queries: word ↔ CQ round trip, prefixes compose, and display is
    /// parse-stable through the compact form.
    #[test]
    fn path_query_round_trips(letters in prop::collection::vec(0u8..3, 1..8)) {
        let word: String = letters.iter().map(|&l| (b'A' + l) as char).collect();
        let p = PathQuery::from_compact(&word);
        prop_assert_eq!(p.len(), word.len());
        prop_assert_eq!(PathQuery::from_cq(&p.to_cq("q")), Some(p.clone()));
        prop_assert_eq!(PathQuery::from_compact(&p.to_string()), p.clone());
        for i in 0..=p.len() {
            let pre = p.prefix(i);
            prop_assert!(pre.is_prefix_of(&p));
            let rest = p.strip_prefix(&pre).unwrap();
            prop_assert_eq!(pre.concat(&rest), p.clone());
        }
    }

    /// Boolean evaluation is multiplicative over disjoint unions of the
    /// *query* (because hom(A+B, D) = hom(A,D)·hom(B,D)), and the bag answer
    /// of a boolean query equals the homomorphism count.
    #[test]
    fn boolean_eval_properties(seed in 0u64..10_000, atoms in 1usize..4) {
        let q1 = random_boolean_cq(seed, atoms);
        let q2 = random_boolean_cq(seed.wrapping_add(1), atoms);
        let schema = common_schema(&[&q1, &q2]).unwrap();
        let d = random_db(seed.wrapping_add(2), 3, 6);
        // Conjoining two boolean queries multiplies counts when their variable
        // sets are disjoint; rename q2's variables to force disjointness.
        let renamed: Vec<cqdet_query::Atom> = q2
            .atoms()
            .iter()
            .map(|a| cqdet_query::Atom {
                relation: a.relation.clone(),
                vars: a.vars.iter().map(|v| format!("{v}_r")).collect(),
            })
            .collect();
        let mut combined_atoms = q1.atoms().to_vec();
        combined_atoms.extend(renamed);
        let combined = ConjunctiveQuery::boolean("q1q2", combined_atoms);
        prop_assert_eq!(
            eval_boolean_cq(&combined, &schema, &d),
            eval_boolean_cq(&q1, &schema, &d) * eval_boolean_cq(&q2, &schema, &d)
        );
        // Evaluating over a disjoint union of databases: the boolean count of
        // a connected query adds up.
        if q1.is_connected() {
            let d2 = random_db(seed.wrapping_add(3), 3, 5);
            prop_assert_eq!(
                eval_boolean_cq(&q1, &schema, &disjoint_union(&d, &d2)),
                eval_boolean_cq(&q1, &schema, &d) + eval_boolean_cq(&q1, &schema, &d2)
            );
        }
    }

    /// The bag answer's total multiplicity for a non-boolean query equals the
    /// homomorphism count of its frozen body.
    #[test]
    fn bag_total_equals_hom_count(seed in 0u64..10_000) {
        let mut generator = QueryGenerator::new(2, seed);
        let base = generator.random_boolean_cq("b", 2, 3, true);
        // Promote one variable to a free variable.
        let free = base.atoms()[0].vars[0].clone();
        let q = ConjunctiveQuery::new("q", &[free.as_str()], base.atoms().to_vec());
        let schema = q.inferred_schema();
        let d = random_db(seed.wrapping_add(9), 3, 6);
        let bag = eval_cq(&q, &schema, &d);
        let boolean = ConjunctiveQuery::boolean("qb", q.atoms().to_vec());
        prop_assert_eq!(bag.total(), eval_boolean_cq(&boolean, &schema, &d));
    }

    /// Set-semantics containment is reflexive, transitive, and sound: if
    /// q ⊆_set v then on every database q > 0 implies v > 0.
    #[test]
    fn containment_properties(seed in 0u64..5000) {
        let a = random_boolean_cq(seed, 2);
        let b = random_boolean_cq(seed.wrapping_add(1), 2);
        let c = random_boolean_cq(seed.wrapping_add(2), 3);
        let schema = common_schema(&[&a, &b, &c]).unwrap();
        prop_assert!(a.contained_in_set(&a, &schema));
        if a.contained_in_set(&b, &schema) && b.contained_in_set(&c, &schema) {
            prop_assert!(a.contained_in_set(&c, &schema));
        }
        if a.contained_in_set(&b, &schema) {
            for probe_seed in 0..3u64 {
                let d = random_db(seed.wrapping_add(100 + probe_seed), 3, 5);
                if !eval_boolean_cq(&a, &schema, &d).is_zero() {
                    prop_assert!(!eval_boolean_cq(&b, &schema, &d).is_zero());
                }
            }
        }
        // Containment agrees with its homomorphism characterisation.
        let abody = a.frozen_body_over(&schema);
        let bbody = b.frozen_body_over(&schema);
        prop_assert_eq!(a.contained_in_set(&b, &schema), hom_exists(&bbody, &abody));
    }

    /// UCQ evaluation is the sum over disjuncts, and permuting the disjuncts
    /// does not change the answer.
    #[test]
    fn ucq_sum_and_permutation(seed in 0u64..5000, n in 1usize..4) {
        let disjuncts: Vec<ConjunctiveQuery> = (0..n)
            .map(|i| random_boolean_cq(seed.wrapping_add(i as u64), 2))
            .collect();
        let refs: Vec<&ConjunctiveQuery> = disjuncts.iter().collect();
        let schema = common_schema(&refs).unwrap();
        let d = random_db(seed.wrapping_add(77), 3, 6);
        let u = UnionQuery::new("u", disjuncts.clone());
        let total = cqdet_query::eval_boolean_ucq(&u, &schema, &d);
        let sum = disjuncts
            .iter()
            .fold(Nat::zero(), |acc, q| acc + eval_boolean_cq(q, &schema, &d));
        prop_assert_eq!(total.clone(), sum);
        let mut reversed = disjuncts.clone();
        reversed.reverse();
        let u2 = UnionQuery::new("u2", reversed);
        prop_assert_eq!(cqdet_query::eval_boolean_ucq(&u2, &schema, &d), total);
    }
}
