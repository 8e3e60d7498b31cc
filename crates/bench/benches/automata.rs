//! Automaton-layer benchmarks: Prestar saturation and the MRD pipeline
//! (the paper's Fig. 21 column 6 / Fig. 22 column 6 quantities).
//! Run with: `cargo bench -p specslice-bench --bench automata`

use specslice::encode::MAIN_CONTROL;
use specslice::{criteria, Criterion, Slicer};
use specslice_bench::timer;
use specslice_fsa::mrd;
use specslice_pds::{
    prestar, saturate_a1_with_stats, Direction, SaturationBase, SaturationScratch,
};

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
        let mut sat = SaturationScratch::default();
        let (a1, _) = saturate_a1_with_stats(
            Direction::Backward,
            &enc.index,
            SaturationBase::empty(),
            &query,
            MAIN_CONTROL,
            &mut sat,
        )
        .expect("well-formed query");
        println!(
            "{}",
            timer::run(&format!("mrd/pipeline/{name}"), 20, || {
                mrd::mrd_of_transposed(a1)
            })
            .row()
        );
    }
}
