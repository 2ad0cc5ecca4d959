//! Monomials and Diophantine instances (Hilbert's Tenth Problem, Problem 58).

use cqdet_bigint::Int;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial `c · x₁^{d₁} ⋯ x_n^{d_n}` with an integer coefficient.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Monomial {
    /// The coefficient `c(m)` (non-zero).
    pub coefficient: i64,
    /// The degree `m(x)` of each unknown occurring in the monomial.
    pub degrees: BTreeMap<String, u32>,
}

impl Monomial {
    /// Construct a monomial from a coefficient and `(unknown, degree)` pairs.
    ///
    /// Panics if the coefficient is zero or a degree is zero.
    pub fn new(coefficient: i64, degrees: &[(&str, u32)]) -> Self {
        assert!(
            coefficient != 0,
            "a monomial must have a non-zero coefficient"
        );
        let mut map = BTreeMap::new();
        for (v, d) in degrees {
            assert!(
                *d > 0,
                "unknowns present in a monomial must have positive degree"
            );
            *map.entry(v.to_string()).or_insert(0) += d;
        }
        Monomial {
            coefficient,
            degrees: map,
        }
    }

    /// A constant monomial (no unknowns).
    pub fn constant(coefficient: i64) -> Self {
        Monomial::new(coefficient, &[])
    }

    /// The degree `m(x)` of an unknown (0 if absent).
    pub fn degree(&self, unknown: &str) -> u32 {
        self.degrees.get(unknown).copied().unwrap_or(0)
    }

    /// The total degree of the monomial.
    pub fn total_degree(&self) -> u32 {
        self.degrees.values().sum()
    }

    /// Evaluate the monomial under an assignment of the unknowns
    /// (missing unknowns default to 0).
    pub fn evaluate(&self, assignment: &BTreeMap<String, u64>) -> Int {
        let mut acc = Int::from_i64(self.coefficient);
        for (x, d) in &self.degrees {
            let value = assignment.get(x).copied().unwrap_or(0);
            acc = acc.mul_ref(&Int::from_u64(value).pow(*d as u64));
        }
        acc
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.coefficient)?;
        for (x, d) in &self.degrees {
            if *d == 1 {
                write!(f, "·{x}")?;
            } else {
                write!(f, "·{x}^{d}")?;
            }
        }
        Ok(())
    }
}

/// An instance of Hilbert's Tenth Problem: does `Σ_{m ∈ I} m(x⃗) = 0` have a
/// solution over the natural numbers?
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiophantineInstance {
    monomials: Vec<Monomial>,
}

impl DiophantineInstance {
    /// Build an instance from its monomials.
    pub fn new(monomials: Vec<Monomial>) -> Self {
        assert!(
            !monomials.is_empty(),
            "an instance needs at least one monomial"
        );
        DiophantineInstance { monomials }
    }

    /// Build an instance from `(coefficient, [(unknown, degree)…])` terms.
    pub fn from_terms(terms: &[(i64, &[(&str, u32)])]) -> Self {
        DiophantineInstance::new(terms.iter().map(|(c, ds)| Monomial::new(*c, ds)).collect())
    }

    /// The monomials of the instance.
    pub fn monomials(&self) -> &[Monomial] {
        &self.monomials
    }

    /// Monomials with positive coefficient (the set `P` of Appendix A).
    pub fn positive(&self) -> Vec<&Monomial> {
        self.monomials
            .iter()
            .filter(|m| m.coefficient > 0)
            .collect()
    }

    /// Monomials with negative coefficient (the set `N` of Appendix A).
    pub fn negative(&self) -> Vec<&Monomial> {
        self.monomials
            .iter()
            .filter(|m| m.coefficient < 0)
            .collect()
    }

    /// The unknowns occurring in the instance, sorted.
    pub fn unknowns(&self) -> Vec<String> {
        let mut set: Vec<String> = self
            .monomials
            .iter()
            .flat_map(|m| m.degrees.keys().cloned())
            .collect();
        set.sort();
        set.dedup();
        set
    }

    /// Evaluate `Σ m(x⃗)` under an assignment.
    pub fn evaluate(&self, assignment: &BTreeMap<String, u64>) -> Int {
        let mut acc = Int::zero();
        for m in &self.monomials {
            acc += &m.evaluate(assignment);
        }
        acc
    }

    /// Whether an assignment is a solution (`Σ m(x⃗) = 0`).
    pub fn is_solution(&self, assignment: &BTreeMap<String, u64>) -> bool {
        self.evaluate(assignment).is_zero()
    }

    /// Exhaustively search for a solution with every unknown at most `bound`.
    ///
    /// Complete for that box, but of course not in general — Hilbert's Tenth
    /// Problem is undecidable, which is the whole point of Theorem 2.  The
    /// box holds `(bound+1)^n` assignments, so the search polls `stop` every
    /// 4096 of them and gives up with [`SearchStopped`] once it returns
    /// `true` (pass `|| false` to search the whole box).
    pub fn bounded_search(
        &self,
        bound: u64,
        mut stop: impl FnMut() -> bool,
    ) -> Result<Option<BTreeMap<String, u64>>, SearchStopped> {
        let unknowns = self.unknowns();
        let n = unknowns.len();
        let mut values = vec![0u64; n];
        let mut visited = 0u64;
        loop {
            visited += 1;
            if visited.is_multiple_of(STOP_POLL_ASSIGNMENTS) && stop() {
                return Err(SearchStopped);
            }
            let assignment: BTreeMap<String, u64> = unknowns
                .iter()
                .cloned()
                .zip(values.iter().copied())
                .collect();
            if self.is_solution(&assignment) {
                return Ok(Some(assignment));
            }
            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == n {
                    return Ok(None);
                }
                values[pos] += 1;
                if values[pos] <= bound {
                    break;
                }
                values[pos] = 0;
                pos += 1;
            }
            if n == 0 {
                return Ok(None);
            }
        }
    }
}

/// How many assignments [`DiophantineInstance::bounded_search`] visits
/// between polls of its stop predicate.
const STOP_POLL_ASSIGNMENTS: u64 = 4096;

/// A bounded search abandoned because its stop predicate fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStopped;

impl fmt::Display for DiophantineInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.monomials.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({m})")?;
        }
        write!(f, " = 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// x² + y² − z² = 0 (Pythagorean triples).
    fn pythagorean() -> DiophantineInstance {
        DiophantineInstance::from_terms(&[(1, &[("x", 2)]), (1, &[("y", 2)]), (-1, &[("z", 2)])])
    }

    #[test]
    fn monomial_evaluation() {
        let m = Monomial::new(3, &[("x", 2), ("y", 1)]);
        assert_eq!(m.degree("x"), 2);
        assert_eq!(m.degree("z"), 0);
        assert_eq!(m.total_degree(), 3);
        assert_eq!(
            m.evaluate(&assign(&[("x", 2), ("y", 5)])),
            Int::from_i64(60)
        );
        assert_eq!(
            m.evaluate(&assign(&[("x", 2)])),
            Int::zero(),
            "missing unknown is 0"
        );
        assert_eq!(
            Monomial::constant(-7).evaluate(&assign(&[])),
            Int::from_i64(-7)
        );
        assert_eq!(m.to_string(), "3·x^2·y");
    }

    #[test]
    #[should_panic(expected = "non-zero coefficient")]
    fn zero_coefficient_panics() {
        let _ = Monomial::new(0, &[("x", 1)]);
    }

    #[test]
    fn repeated_unknowns_accumulate_degree() {
        let m = Monomial::new(1, &[("x", 1), ("x", 2)]);
        assert_eq!(m.degree("x"), 3);
    }

    #[test]
    fn instance_evaluation_and_solutions() {
        let p = pythagorean();
        assert_eq!(p.unknowns(), vec!["x", "y", "z"]);
        assert_eq!(p.positive().len(), 2);
        assert_eq!(p.negative().len(), 1);
        assert!(p.is_solution(&assign(&[("x", 3), ("y", 4), ("z", 5)])));
        assert!(p.is_solution(&assign(&[("x", 0), ("y", 0), ("z", 0)])));
        assert!(!p.is_solution(&assign(&[("x", 1), ("y", 1), ("z", 1)])));
        assert_eq!(
            p.evaluate(&assign(&[("x", 1), ("y", 1), ("z", 1)])),
            Int::from_i64(1)
        );
        assert!(p.to_string().contains("= 0"));
    }

    #[test]
    fn bounded_search_finds_nontrivial_solutions() {
        // x·y − 6 = 0 has (1,6), (2,3), … but we exclude trivial zero by
        // requiring the constant −6.
        let inst = DiophantineInstance::from_terms(&[(1, &[("x", 1), ("y", 1)]), (-6, &[])]);
        let sol = inst.bounded_search(6, || false).unwrap().unwrap();
        assert!(inst.is_solution(&sol));
        assert_eq!(sol["x"] * sol["y"], 6);
        // x + 1 = 0 has no solution over ℕ.
        let none = DiophantineInstance::from_terms(&[(1, &[("x", 1)]), (1, &[])]);
        assert_eq!(none.bounded_search(50, || false), Ok(None));
        // A constant-only unsolvable instance.
        let c = DiophantineInstance::from_terms(&[(2, &[])]);
        assert_eq!(c.bounded_search(10, || false), Ok(None));
        // A constant-only solvable instance (2 − 2 = 0).
        let ok = DiophantineInstance::from_terms(&[(2, &[]), (-2, &[])]);
        assert!(ok.bounded_search(0, || false).unwrap().is_some());
    }

    #[test]
    fn bounded_search_respects_bound() {
        // x − 10 = 0: solution at x = 10, not found with bound 5.
        let inst = DiophantineInstance::from_terms(&[(1, &[("x", 1)]), (-10, &[])]);
        assert_eq!(inst.bounded_search(5, || false), Ok(None));
        assert_eq!(inst.bounded_search(10, || false).unwrap().unwrap()["x"], 10);
    }

    #[test]
    fn bounded_search_stops_when_asked() {
        // x + y + 1 = 0 has no solution, so only the predicate ends the
        // 101² search early; it is polled once per STOP_POLL_ASSIGNMENTS.
        let inst = DiophantineInstance::from_terms(&[(1, &[("x", 1)]), (1, &[("y", 1)]), (1, &[])]);
        let mut polls = 0;
        let stopped = inst.bounded_search(100, || {
            polls += 1;
            true
        });
        assert_eq!(stopped, Err(SearchStopped));
        assert_eq!(polls, 1);
        // A box smaller than one poll interval is never interrupted.
        assert_eq!(inst.bounded_search(10, || true), Ok(None));
    }
}
