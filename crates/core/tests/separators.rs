//! Lemma 43's separator search with no candidates: the induced
//! substructures of the larger structure alone separate a pair, on inputs
//! no bounded enumeration of small structures reaches.

use cqdet_core::witness::{find_separating_structure, WitnessError};
use cqdet_core::{CancelToken, Nat, Schema, Structure};
use cqdet_structure::hom_count;

fn separate(a: &Structure, b: &Structure) -> Result<Structure, WitnessError> {
    find_separating_structure(a, b, &[], &CancelToken::none())
}

/// Two 4-ary facts over the same four elements, one with its first two
/// arguments swapped: no structure with fewer than four elements separates
/// the pair, so a fact-mask enumeration capped at 24 possible facts (two
/// 4-ary relations give 32 over two elements) cannot reach a separator.
/// The induced search finds the whole of `a`, its last candidate.
#[test]
fn wide_arity_pair_is_separated_without_candidates() {
    let schema = Schema::with_relations([("R", 4), ("S", 4)]);
    let mut a = Structure::new(schema.clone());
    a.add("R", &[0, 1, 2, 3]);
    a.add("S", &[0, 1, 2, 3]);
    let mut b = Structure::new(schema);
    b.add("R", &[0, 1, 2, 3]);
    b.add("S", &[1, 0, 2, 3]);
    let h = separate(&a, &b).unwrap();
    assert_eq!(h, a);
    assert_eq!(hom_count(&a, &h), Nat::one());
    assert_eq!(hom_count(&b, &h), Nat::zero());
}

/// Nullary facts: `X[∅]` keeps them, and only it separates `{P()}` from
/// `{P()}` plus an isolated element.
#[test]
fn empty_subset_separates_nullary_pairs() {
    let schema = Schema::with_relations([("P", 0)]);
    let mut a = Structure::new(schema);
    a.add("P", &[]);
    let mut b = a.clone();
    b.add_isolated(0);
    assert_eq!(separate(&a, &b), Ok(a));
}

/// Isomorphic inputs exhaust the search: a bug in the caller, reported as
/// data rather than a panic.
#[test]
fn isomorphic_inputs_are_an_internal_error() {
    let schema = Schema::binary(["R"]);
    let mut a = Structure::new(schema.clone());
    a.add("R", &[0, 1]);
    let mut b = Structure::new(schema);
    b.add("R", &[5, 7]);
    assert!(matches!(separate(&a, &b), Err(WitnessError::Internal(_))));
}
