//! Export the nine Fig. 3 histories (and, where the criterion is
//! causal and satisfiable, a witnessing causal order) as Graphviz DOT —
//! the visual counterpart of `fig3_classification`.
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig3_dot [out_dir]
//! ```
//!
//! Writes `fig3a.dot` … `fig3i.dot` into `out_dir` (default
//! `target/figures`). Render with `dot -Tsvg fig3c.dot -o fig3c.svg`.

use cbm_adt::memory::Memory;
use cbm_adt::queue::{FifoQueue, HdRhQueue};
use cbm_adt::window::WindowStream;
use cbm_adt::Adt;
use cbm_bench::outln;
use cbm_check::causal::check_cc;
use cbm_check::figures;
use cbm_check::Budget;
use cbm_history::dot::to_dot;
use cbm_history::History;
use std::fmt::Debug;
use std::fs;
use std::path::Path;

fn export<T: Adt>(
    dir: &Path,
    name: &str,
    adt: &T,
    h: &History<T::Input, T::Output>,
) -> std::io::Result<()>
where
    T::Input: Debug,
    T::Output: Debug,
{
    // attach a CC witness when one exists (dashed extra edges)
    let witness = check_cc(adt, h, &Budget::default()).witness;
    let dot = to_dot(h, witness.as_ref(), name);
    let path = dir.join(format!("{name}.dot"));
    fs::write(&path, dot)?;
    outln!("wrote {}", path.display());
    Ok(())
}

fn main() -> std::io::Result<()> {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/figures".to_string());
    let dir = Path::new(&dir);
    fs::create_dir_all(dir)?;

    let w2 = WindowStream::new(2);
    export(dir, "fig3a", &w2, &figures::fig3a())?;
    export(dir, "fig3b", &w2, &figures::fig3b())?;
    export(dir, "fig3c", &w2, &figures::fig3c())?;
    export(dir, "fig3d", &w2, &figures::fig3d())?;
    export(dir, "fig3e", &FifoQueue, &figures::fig3e())?;
    export(dir, "fig3f", &FifoQueue, &figures::fig3f())?;
    export(dir, "fig3g", &HdRhQueue, &figures::fig3g())?;
    export(dir, "fig3h", &Memory::new(5), &figures::fig3h())?;
    export(dir, "fig3i", &Memory::new(4), &figures::fig3i())?;
    outln!("\nrender with: dot -Tsvg <file>.dot -o <file>.svg");
    Ok(())
}
