//! Differential tests of flat-born structures against builder-built ones.
//!
//! A frozen query body is written straight into the flat form
//! (`Structure::from_dense`), and its components are cut from the parent's
//! row arena (`components_keyed`).  The same facts added one by one
//! through the `Structure::add*` builder go through the build log and one
//! sort + dedup instead.  On random queries — repeated variables
//! (`E(x,x)`), duplicate atoms, nullary, unary and ternary relations —
//! both must give the same structure, the same canonical keys and the same
//! components in the same order, and the oracles (`components::reference`,
//! `hom::reference`) must agree with both.

use cqdet_query::{Atom, ConjunctiveQuery};
use cqdet_structure::components::reference as components_oracle;
use cqdet_structure::hom::reference as hom_oracle;
use cqdet_structure::{
    components_keyed, hom_count, Const, Fact, Schema, Structure, StructureGenerator,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const RELATIONS: [(&str, usize); 5] = [("H", 0), ("U", 1), ("E", 2), ("F", 2), ("T", 3)];

fn schema() -> Schema {
    Schema::with_relations(RELATIONS)
}

/// A boolean query over a pool of six variables, so repeated variables and
/// duplicate atoms are common.
fn query(atoms: &[(u8, u8, u8, u8)]) -> ConjunctiveQuery {
    let atoms = atoms
        .iter()
        .map(|&(r, a, b, c)| {
            let (name, arity) = RELATIONS[r as usize % RELATIONS.len()];
            Atom {
                relation: name.to_string(),
                vars: [a, b, c][..arity].iter().map(|v| format!("x{v}")).collect(),
            }
        })
        .collect();
    ConjunctiveQuery::boolean("q", atoms)
}

/// The frozen body of `q`, built fact by fact through the builder: the
/// three `add*` entry points in rotation, plus `add_isolated` on elements
/// that are already active (a no-op).
fn builder_copy(q: &ConjunctiveQuery, schema: &Schema) -> Structure {
    let consts = q.frozen_constants();
    let mut s = Structure::new(schema.clone());
    for (i, a) in q.atoms().iter().enumerate() {
        let args: Vec<Const> = a.vars.iter().map(|v| consts[v]).collect();
        if let Some(&first) = args.first() {
            s.add_isolated(first);
        }
        match i % 3 {
            0 => s.add(a.relation.as_str(), &args),
            1 => s.add_fact(Fact::new(a.relation.as_str(), args)),
            _ => {
                let rel = s.rel_id(&a.relation).expect("relation in schema");
                s.add_by_id(rel, args);
            }
        }
    }
    s
}

/// A fresh builder-built copy of `s` (facts and whole domain), whose keys
/// are therefore computed from scratch.
fn rebuilt(s: &Structure) -> Structure {
    let mut copy = Structure::from_facts(s.schema().clone(), s.facts());
    for c in s.domain() {
        copy.add_isolated(c);
    }
    copy
}

/// `components_keyed` against the oracle decomposition: the same
/// components, nullary-fact components first and then by smallest element
/// (the oracle orders element components by union–find root, so it is
/// sorted first), and every installed key equal to a from-scratch key.
fn check_components(s: &Structure) {
    let (comps, key) = components_keyed(std::slice::from_ref(s)).remove(0);
    let mut oracle = components_oracle::connected_components(s);
    oracle.sort_by_key(|c| c.domain().first().copied());
    prop_assert_eq!(&comps, &oracle);
    prop_assert_eq!(key, rebuilt(s).iso_class_key());
    for c in &comps {
        prop_assert_eq!(c.iso_class_key(), rebuilt(c).iso_class_key());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flat-born frozen body equals its builder-built twin in content,
    /// rendering, keys, components and homomorphism counts.
    #[test]
    fn flat_born_bodies_match_builder_built(
        atoms in prop::collection::vec((0u8..5, 0u8..6, 0u8..6, 0u8..6), 1..7),
        seed in 0u64..10_000,
    ) {
        let schema = schema();
        let q = query(&atoms);
        let flat = q.frozen_body_over(&schema);
        let built = builder_copy(&q, &schema);
        // The facts are the query's distinct atoms under the variable
        // numbering, in `Fact` order (relation name, then arguments).
        let consts = q.frozen_constants();
        let expected: BTreeSet<Fact> = q
            .atoms()
            .iter()
            .map(|a| Fact::new(a.relation.as_str(), a.vars.iter().map(|v| consts[v]).collect()))
            .collect();
        prop_assert_eq!(flat.facts().collect::<Vec<_>>(), expected.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(&flat, &built);
        prop_assert_eq!(flat.facts().collect::<Vec<_>>(), built.facts().collect::<Vec<_>>());
        prop_assert_eq!(flat.domain(), built.domain());
        prop_assert_eq!(flat.to_string(), built.to_string());
        prop_assert_eq!(flat.iso_class_key(), built.iso_class_key());
        check_components(&flat);
        check_components(&built);
        let mut keyed = components_keyed(&[flat.clone(), built.clone()]);
        prop_assert_eq!(keyed.remove(0).0, keyed.remove(0).0);

        // Homomorphism counts into and out of a small random structure,
        // against the naive oracle on the builder-built twin.
        let d = StructureGenerator::new(schema.clone(), seed).random_with_facts(3, 6);
        prop_assert_eq!(hom_count(&flat, &d), hom_oracle::hom_count(&built, &d));
        prop_assert_eq!(hom_count(&d, &flat), hom_oracle::hom_count(&d, &built));
        prop_assert_eq!(hom_count(&flat, &built), hom_oracle::hom_count(&built, &flat));
    }

    /// Builder-built structures with isolated elements: each one is a
    /// singleton component cut from the split, in smallest-element order.
    #[test]
    fn isolated_elements_split_like_the_oracle(
        atoms in prop::collection::vec((0u8..5, 0u8..6, 0u8..6, 0u8..6), 1..6),
        isolated in prop::collection::vec(0u64..12, 0..4),
    ) {
        let schema = schema();
        let mut s = builder_copy(&query(&atoms), &schema);
        for c in isolated {
            s.add_isolated(c);
        }
        check_components(&s);
        prop_assert_eq!(rebuilt(&s).to_string(), s.to_string());
    }
}
