//! The Theorem 2 reduction (Appendix A): bag-determinacy of boolean **UCQs**
//! is undecidable, by reduction from Hilbert's Tenth Problem.
//!
//! Given a Diophantine instance `I = {m₁, …, m_k}` (a set of monomials with
//! integer coefficients, asking whether `Σ mᵢ(x⃗) = 0` has a solution over ℕ),
//! the reduction produces
//!
//! * a schema with nullary predicates `H`, `C` and unary predicates
//!   `X₁, …, X_n` (one per unknown),
//! * the boolean UCQ query `q = H`,
//! * views `V₁ = H ∨ C`, `V_{xᵢ} = ∃y Xᵢ(y)` and `V_I = Ψ_P ∨ Ψ_N`,
//!
//! such that `I` has **no** solution over ℕ iff `V ⟶_bag q`.  Since the query
//! language is undecidable here, this crate cannot (and does not) decide
//! determinacy — it implements the reduction itself, evaluation of the encoded
//! queries, the counterexample constructed from a solution (Lemma 63 (⇐)),
//! and a bounded solution search that yields a sound but incomplete
//! non-determinacy detector.

pub mod encoding;
pub mod monomial;
pub mod structures;

pub use encoding::{encode, HilbertEncoding};
pub use monomial::{DiophantineInstance, Monomial, SearchStopped};
pub use structures::{counterexample_from_solution, structure_for_assignment};
