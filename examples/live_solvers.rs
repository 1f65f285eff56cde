//! Live tuning of the real BT/SP solvers and the LULESH proxy.
//!
//! The three evaluation applications run on the actual work-sharing
//! runtime (real threads, real math) with ARCS-Online attached through the
//! OMPT→APEX→policy chain — the full Fig. 2 wiring. The point demonstrated
//! here is *safety and transparency*: ARCS retunes threads/schedule/chunk
//! between region invocations while the numerics stay bit-for-bit
//! deterministic (BT/SP keep converging to the manufactured solution,
//! LULESH stays sane).
//!
//! ```sh
//! cargo run --release --example live_solvers
//! ```
//!
//! Stdout carries the numerics and the region counts, which are the same
//! on every run and host; the tuner's config changes, selective-tuning
//! skips and converged configurations depend on measured time, so they
//! go to stderr.

use arcs::{ArcsLive, ConfigSpace, ThreadChoice, TunerOptions};
use arcs_kernels::{BtSolver, CgSolver, Class, Lulesh, MgSolver, SpSolver};
use arcs_omprt::Runtime;
use std::sync::Arc;

fn host_space(threads: usize) -> ConfigSpace {
    let base = ConfigSpace::for_machine(&arcs_powersim::Machine::crill());
    ConfigSpace {
        threads: (0..=threads.ilog2())
            .map(|p| ThreadChoice::Count(1 << p))
            .chain([ThreadChoice::Default])
            .collect(),
        default_threads: threads,
        ..base
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);

    // --- BT: manufactured-solution convergence under live tuning. -------
    let rt = Arc::new(Runtime::new(threads));
    let live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(host_space(threads)));
    let mut bt = BtSolver::new(Arc::clone(&rt), Class::S);
    let e0 = bt.error_rms();
    bt.run(10);
    let e1 = bt.error_rms();
    println!("BT.S : error {e0:.3e} -> {e1:.3e} over 10 steps (monotone convergence)");
    assert!(e1 < e0, "tuning must not disturb the numerics");
    let stats = live.stats();
    println!(
        "       ARCS saw {} region invocations across {} regions",
        stats.invocations, stats.regions
    );
    eprintln!("       {} config changes", stats.config_changes);

    // --- SP on its own runtime. ------------------------------------------
    let rt = Arc::new(Runtime::new(threads));
    let _live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(host_space(threads)));
    let mut sp = SpSolver::new(Arc::clone(&rt), Class::S);
    let e0 = sp.error_rms();
    sp.run(10);
    println!("SP.S : error {e0:.3e} -> {:.3e} over 10 steps", sp.error_rms());
    assert!(sp.error_rms() < e0);

    // --- CG: irregular sparse solver, residual must still vanish. -------
    let rt = Arc::new(Runtime::new(threads));
    let _live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(host_space(threads)));
    let mut cg = CgSolver::new(Arc::clone(&rt), Class::S);
    let r = cg.conj_grad(15);
    println!("CG.S : residual {r:.3e} after one tuned conj_grad call");
    assert!(r < 1e-3);

    // --- MG: multi-scale regions under live tuning. ----------------------
    let rt = Arc::new(Runtime::new(threads));
    let _live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(host_space(threads)));
    let mut mg = MgSolver::new(Arc::clone(&rt), Class::S);
    let r0 = mg.residual_norm();
    mg.run(3);
    let r3 = mg.residual_history.last().copied().unwrap();
    println!("MG.S : residual {r0:.3e} -> {r3:.3e} over 3 tuned V-cycles");
    assert!(r3 < r0 * 0.1);

    // --- LULESH proxy with selective tuning (future-work extension). ----
    let rt = Arc::new(Runtime::new(threads));
    let live = ArcsLive::attach(
        Arc::clone(&rt),
        TunerOptions::online(host_space(threads)).with_min_region_time(1e-4),
    );
    let mut lulesh = Lulesh::new(Arc::clone(&rt), 12);
    lulesh.run(30);
    assert!(lulesh.is_sane(), "hydro state must stay finite");
    let stats = live.stats();
    println!("LULESH(12³): 30 cycles sane; {} invocations", stats.invocations);
    eprintln!("       {} tiny regions skipped by selective tuning", stats.skipped_regions);
    for (region, cfg) in live.best_configs() {
        eprintln!("       {:40} -> [{}]", region, cfg);
    }
}
