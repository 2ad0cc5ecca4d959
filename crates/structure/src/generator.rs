//! Random structure generation for benchmarks and property-based tests.
//!
//! The paper has no experimental workloads; these generators supply the
//! synthetic workloads used by `cqdet-bench` (see `EXPERIMENTS.md`), and by
//! property tests that compare independent implementations of the same
//! quantity (e.g. Lemma-4 evaluation vs. brute-force counting).

use crate::schema::Schema;
use crate::structure::{Const, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic (seeded) random structure generator over a fixed schema.
#[derive(Debug, Clone)]
pub struct StructureGenerator {
    schema: Schema,
    rng_seed: u64,
    counter: u64,
}

impl StructureGenerator {
    /// Create a generator over `schema` with the given seed.
    pub fn new(schema: Schema, seed: u64) -> Self {
        StructureGenerator {
            schema,
            rng_seed: seed,
            counter: 0,
        }
    }

    /// The schema used by this generator.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_rng(&mut self) -> StdRng {
        self.counter += 1;
        StdRng::seed_from_u64(self.rng_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.counter)
    }

    /// A random structure with `domain_size` elements where every possible
    /// fact is included independently with probability `density` (per mille,
    /// i.e. `density = 500` means 1/2).
    pub fn random_structure(&mut self, domain_size: usize, density_per_mille: u32) -> Structure {
        let mut rng = self.next_rng();
        let mut s = Structure::new(self.schema.clone());
        if domain_size == 0 {
            return s;
        }
        for c in 0..domain_size {
            s.add_isolated(c as Const);
        }
        let relations: Vec<(String, usize)> = self
            .schema
            .relations()
            .map(|(n, a)| (n.to_string(), a))
            .collect();
        for (rel, arity) in relations {
            let mut tuple = vec![0usize; arity];
            loop {
                if rng.gen_range(0..1000) < density_per_mille {
                    let args: Vec<Const> = tuple.iter().map(|&x| x as Const).collect();
                    s.add(&rel, &args);
                }
                // Advance the mixed-radix counter over all tuples.
                let mut pos = 0;
                loop {
                    if arity == 0 || pos == arity {
                        break;
                    }
                    tuple[pos] += 1;
                    if tuple[pos] < domain_size {
                        break;
                    }
                    tuple[pos] = 0;
                    pos += 1;
                }
                if arity == 0 || pos == arity {
                    break;
                }
            }
        }
        s
    }

    /// A random structure with exactly (at most) `num_facts` facts drawn
    /// uniformly with replacement over a domain of the given size.
    pub fn random_with_facts(&mut self, domain_size: usize, num_facts: usize) -> Structure {
        let mut rng = self.next_rng();
        let mut s = Structure::new(self.schema.clone());
        let relations: Vec<(String, usize)> = self
            .schema
            .relations()
            .map(|(n, a)| (n.to_string(), a))
            .collect();
        if relations.is_empty() || domain_size == 0 {
            return s;
        }
        for _ in 0..num_facts {
            let (rel, arity) = &relations[rng.gen_range(0..relations.len())];
            let args: Vec<Const> = (0..*arity)
                .map(|_| rng.gen_range(0..domain_size) as Const)
                .collect();
            s.add(rel, &args);
        }
        s
    }

    /// A random *connected* structure: facts are added so that each new fact
    /// shares at least one constant with the already-generated part.
    ///
    /// Useful for generating connected components / basis queries.
    pub fn random_connected(&mut self, num_facts: usize) -> Structure {
        let mut rng = self.next_rng();
        let mut s = Structure::new(self.schema.clone());
        let relations: Vec<(String, usize)> = self
            .schema
            .relations()
            .map(|(n, a)| (n.to_string(), a))
            .filter(|(_, a)| *a >= 1)
            .collect();
        if relations.is_empty() {
            return s;
        }
        // The domain so far, kept locally (fresh constants only ever grow,
        // so pushing keeps it sorted) instead of re-reading `s` between adds.
        let mut dom: Vec<Const> = Vec::new();
        let mut next_const: Const = 0;
        for i in 0..num_facts {
            let (rel, arity) = &relations[rng.gen_range(0..relations.len())];
            let fresh = next_const;
            let mut args = Vec::with_capacity(*arity);
            for pos in 0..*arity {
                // With probability 1/2 (or always for the anchoring position of
                // a non-first fact) reuse an existing constant.
                let reuse = !dom.is_empty() && (rng.gen_bool(0.5) || (i > 0 && pos == 0));
                if reuse {
                    args.push(dom[rng.gen_range(0..dom.len())]);
                } else {
                    args.push(next_const);
                    next_const += 1;
                }
            }
            dom.extend(fresh..next_const);
            s.add(rel, &args);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;

    fn sch() -> Schema {
        Schema::with_relations([("E", 2), ("P", 1)])
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut g1 = StructureGenerator::new(sch(), 42);
        let mut g2 = StructureGenerator::new(sch(), 42);
        assert_eq!(g1.random_structure(4, 300), g2.random_structure(4, 300));
        assert_eq!(g1.random_with_facts(5, 7), g2.random_with_facts(5, 7));
        let mut g3 = StructureGenerator::new(sch(), 43);
        // Different seed → (almost surely) different structure.
        let a = g1.random_with_facts(6, 10);
        let b = g3.random_with_facts(6, 10);
        assert!(a != b || a.num_facts() == 0);
    }

    #[test]
    fn density_extremes() {
        let mut g = StructureGenerator::new(sch(), 7);
        let empty = g.random_structure(3, 0);
        assert_eq!(empty.num_facts(), 0);
        assert_eq!(empty.domain_size(), 3, "isolated elements are kept");
        let full = g.random_structure(3, 1000);
        // All possible facts: 3^2 for E plus 3 for P.
        assert_eq!(full.num_facts(), 9 + 3);
    }

    #[test]
    fn fact_count_bound() {
        let mut g = StructureGenerator::new(sch(), 1);
        let s = g.random_with_facts(4, 10);
        assert!(s.num_facts() <= 10);
        assert!(s.domain_size() <= 4);
    }

    #[test]
    fn connected_generator_produces_connected_structures() {
        let mut g = StructureGenerator::new(sch(), 5);
        for n in 1..8 {
            let s = g.random_connected(n);
            assert!(
                is_connected(&s),
                "structure with {n} facts must be connected: {s:?}"
            );
            assert!(s.num_facts() <= n);
        }
    }

    #[test]
    fn zero_domain_or_empty_schema() {
        let mut g = StructureGenerator::new(Schema::new(), 3);
        assert!(g.random_with_facts(5, 5).is_empty());
        let mut g2 = StructureGenerator::new(sch(), 3);
        assert!(g2.random_with_facts(0, 5).is_empty());
    }
}
