//! Walk through the full counterexample construction of Sections 5–7 for a
//! small undetermined instance, printing every intermediate object of the
//! proof: the basis `W`, the good basis `S`, the evaluation matrix `M`, the
//! orthogonal vector `z⃗`, the perturbation factor `t`, and the final pair
//! `D, D′` — then verify the certificate, symbolically and (because this
//! instance is tiny) by materialising the structures and recounting every
//! homomorphism by brute force.
//!
//! Run with `cargo run --example counterexample`.

use cqdet::core::witness::check_certificate_arithmetic;
use cqdet::prelude::*;

fn cq(text: &str) -> ConjunctiveQuery {
    parse_query(text).expect("valid query").disjuncts()[0].clone()
}

fn main() {
    // q = "number of R-paths of length 2", V = {"number of R-edges"}.
    let q = cq("q() :- R(x,y), R(y,z)");
    let v = cq("v() :- R(x,y)");
    let views = vec![v];

    let analysis = decide_bag_determinacy(&views, &q).expect("boolean CQs");
    println!("determined: {}", analysis.determined);
    println!("basis W ({} components):", analysis.basis_size());
    for (i, w) in analysis.basis.iter().enumerate() {
        println!("  w{} = {w}", i + 1);
    }
    println!("q⃗ = {}", analysis.query_vector);
    for (pos, vec) in analysis.view_vectors.iter().enumerate() {
        println!("v⃗{} = {vec}", pos + 1);
    }

    let witness =
        build_counterexample(&analysis, &q, &CancelToken::none()).expect("not determined");
    println!("\ngood basis S (symbolic):");
    for (i, s) in witness.good_basis.iter().enumerate() {
        println!("  s{} = {s}", i + 1);
    }
    println!("\nevaluation matrix M(i,j) = |hom(wᵢ, sⱼ)|:");
    print!("{}", witness.evaluation_matrix);
    println!("z⃗ = {}   (⊥ to every v⃗, not ⊥ to q⃗)", witness.z);
    println!("t  = {}", witness.t);
    println!(
        "α⃗  = {:?}",
        witness
            .alpha
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
    );
    println!(
        "α⃗′ = {:?}",
        witness
            .alpha_prime
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
    );
    println!("\nD  = {}", witness.d);
    println!("D' = {}", witness.d_prime);

    println!(
        "\ncertificate arithmetic holds: {}",
        check_certificate_arithmetic(&witness, &analysis)
    );
    println!("symbolic verification: {}", witness.verify(&views, &q));
    println!(
        "v(D) = {}   v(D') = {}",
        witness.eval_on_d(&views[0]),
        witness.eval_on_d_prime(&views[0])
    );
    println!(
        "q(D) = {}   q(D') = {}",
        witness.eval_on_d(&q),
        witness.eval_on_d_prime(&q)
    );

    match witness.verify_by_materialization(&views, &q, 2_000) {
        Some(ok) => println!("brute-force verification on the materialised structures: {ok}"),
        None => println!("structures too large to materialise (symbolic certificate only)"),
    }
}
