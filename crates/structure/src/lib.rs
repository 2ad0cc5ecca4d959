//! Finite relational structures (databases) and the graph-theoretic toolkit of
//! the paper's Section 2.
//!
//! This crate provides
//!
//! * [`Schema`] and [`Structure`] — relational schemas and finite structures
//!   (sets of facts over an infinite supply of constants),
//! * homomorphism enumeration, existence and exact counting ([`hom`]),
//! * true canonical labeling — isomorphism-invariant keys via color
//!   refinement + individualization ([`canon`]),
//! * isomorphism testing and de-duplication up to isomorphism ([`iso`]),
//! * connected components ([`components`]),
//! * the structure algebra of Section 2.2: disjoint union `A + B`, product
//!   `A × B`, scalar multiple `t·A`, power `Aᵗ` and the all-loops point `A⁰`
//!   ([`ops`]),
//! * Lovász's Lemma 4 in executable form, both as a test oracle and as the
//!   evaluation engine behind symbolic structures ([`expr`]),
//! * incidence matrices of binary relations (Definition 16, used by the
//!   path-query machinery) ([`adjacency`]),
//! * random structure generators for benchmarks and property tests
//!   ([`generator`]).

// The hom-search and canonicalization kernels run inside budgeted server
// requests: failures must surface as typed errors (or documented
// assertions), never stray unwraps.  Tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod canon;
pub mod components;
pub mod expr;
pub(crate) mod filter;
pub(crate) mod flat;
pub mod generator;
pub mod hom;
pub mod iso;
pub mod ops;
pub mod schema;
pub mod structure;

pub use adjacency::incidence_matrix;
pub use components::{components_keyed, connected_components, is_connected};
pub use expr::StructureExpr;
pub use generator::StructureGenerator;
pub use hom::{
    hom_count, hom_count_factored, hom_enumerate, hom_exists, hom_exists_gas, Homomorphism,
};
#[doc(hidden)]
pub use hom::{with_shared_caches, SharedCaches};
pub use iso::{dedup_up_to_iso, isomorphic, multiplicities, BasisIndex, IsoClassKey};
pub use ops::{all_loops_point, disjoint_union, power, product, scalar_multiple};
pub use schema::Schema;
pub use structure::{Const, Fact, Structure};

pub use cqdet_bigint::{Int, Nat};
