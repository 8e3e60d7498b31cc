//! Quickstart: specialize the paper's Fig. 1 program and print the result.
//!
//! Run with: `cargo run -p specslice --example quickstart`

use specslice::exec::{self, ExecRequest};
use specslice::{Criterion, Slicer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 1(a): three calls to p, each needing different parameters.
    let source = specslice_corpus::examples::FIG1;
    println!("=== original program ===\n{source}");

    // One session runs frontend → SDG → PDS encoding and caches them.
    let slicer = Slicer::from_source(source)?;
    let criterion = Criterion::printf_actuals(slicer.sdg());
    let slice = slicer.slice(&criterion)?;

    println!("specialized procedures:");
    for v in &slice.variants() {
        println!(
            "  {:<8} ({} vertices, params kept: {:?})",
            v.name,
            v.vertices.len(),
            v.kept_params(slicer.sdg())
        );
    }

    // Regenerate executable source (the paper's Fig. 1(b)).
    let regen = slicer.regenerate(&slice)?;
    println!("\n=== specialization slice ===\n{}", regen.source);

    // Both programs print the same criterion value (`exec::run` is the
    // reference interpreter; `exec::backend` picks the VM instead).
    let a = exec::run(&ExecRequest::new(slicer.program().expect("from source")))?;
    let b = exec::run(&ExecRequest::new(&regen.program))?;
    assert_eq!(a.output, b.output);
    println!("both print: {:?} — executable slice verified", a.output);
    Ok(())
}
