//! Automaton-layer benchmarks: Prestar saturation and the MRD pipeline
//! (the paper's Fig. 21 column 6 / Fig. 22 column 6 quantities).
//! Run with: `cargo bench -p specslice-bench --bench automata`

use specslice::encode::MAIN_CONTROL;
use specslice::{criteria, Criterion, Slicer};
use specslice_bench::timer;
use specslice_fsa::mrd;
use specslice_pds::prestar;

fn main() {
    println!("{}", timer::header());
    bench_prestar();
    bench_mrd();
}

fn bench_prestar() {
    for name in ["tcas", "gzip", "go"] {
        let prog = specslice_corpus::by_name(name).unwrap();
        let slicer = Slicer::from_source(prog.source).unwrap();
        let enc = slicer.encoding();
        let criterion = Criterion::printf_actuals(slicer.sdg());
        let query = criteria::query_automaton(slicer.sdg(), enc, &criterion).unwrap();
        println!(
            "{}",
            timer::run(&format!("prestar/saturate/{name}"), 20, || {
                prestar(&enc.pds, &query).expect("well-formed query")
            })
            .row()
        );
    }
}

fn bench_mrd() {
    for name in ["tcas", "gzip", "go"] {
        let prog = specslice_corpus::by_name(name).unwrap();
        let slicer = Slicer::from_source(prog.source).unwrap();
        let enc = slicer.encoding();
        let criterion = Criterion::printf_actuals(slicer.sdg());
        let query = criteria::query_automaton(slicer.sdg(), enc, &criterion).unwrap();
        let a1_trim = prestar(&enc.pds, &query)
            .expect("well-formed query")
            .trimmed_nfa(MAIN_CONTROL);
        println!(
            "{}",
            timer::run(&format!("mrd/pipeline/{name}"), 20, || mrd::mrd(&a1_trim)).row()
        );
    }
}
