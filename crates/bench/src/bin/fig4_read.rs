//! Figure 4 — selections: (a) whole-graph reads Q8–Q13, (b) id lookups
//! Q14–Q15, (c) Q11 with an attribute index.

use gm_bench::{instances_for, print_block, run_queries, DataBank, Env};
use gm_core::report::RunMode;

fn main() {
    let env = Env::from_env();
    let bank = DataBank::generate(&env);
    for (id, data) in bank.freebase() {
        let rep = run_queries(
            &env,
            data,
            &instances_for(8..=13),
            &[RunMode::Isolation],
            false,
        );
        print_block(
            "Figure 4(a) — selections Q8–Q13",
            id,
            &rep,
            RunMode::Isolation,
        );
        let rep = run_queries(
            &env,
            data,
            &instances_for(14..=15),
            &[RunMode::Isolation],
            false,
        );
        print_block(
            "Figure 4(b) — id search Q14–Q15",
            id,
            &rep,
            RunMode::Isolation,
        );
        let rep = run_queries(
            &env,
            data,
            &instances_for(11..=11),
            &[RunMode::Isolation],
            true, // build the attribute index first
        );
        print_block(
            "Figure 4(c) — Q11 with attribute index",
            id,
            &rep,
            RunMode::Isolation,
        );
    }
    println!(
        "\nExpected shape (paper): bitmap fastest counts; document slowest\n\
         whole-graph reads (materializes every document); relational an order\n\
         faster on Q11–Q13; the index helps linked/cluster/relational by\n\
         orders of magnitude but changes nothing for bitmap and document.\n\
         (The paper also has Titan gain from it; our columnar engine only\n\
         records the declaration and scans either way — a fidelity gap listed\n\
         in ROADMAP.)"
    );
}
