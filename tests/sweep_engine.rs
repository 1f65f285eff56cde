//! The sweep engine's contract: parallel execution changes nothing, the
//! shared memo cache works across cells, and the unified Backend driver
//! reproduces the §III-C overhead accounting exactly.

use arcs::{
    overhead_power_w, ConfigSpace, NoiseModel, Objective, RegionTuner, Runner, SimExecutor,
    SweepEngine, SweepGrid, SweepStrategy, TunerOptions,
};
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;

fn paper_grid(machine: &Machine) -> SweepGrid {
    let mut wl = model::sp(Class::B);
    wl.timesteps = 6;
    SweepGrid::new(machine.clone())
        .workload(wl)
        .caps(&[55.0, 85.0, 115.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .with_noise(0.1, 9)
}

/// A parallel sweep must produce bit-identical AppRunReports to a serial
/// one, cell by cell — even under measurement noise, because the noise is
/// a stateless function of (seed, region, invocation) and every cell runs
/// on fresh executors.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let m = Machine::crill();
    let grid = paper_grid(&m);
    let serial = SweepEngine::new(m.clone()).with_workers(1).run(&grid);
    let parallel = SweepEngine::new(m.clone()).with_workers(8).run(&grid);

    assert_eq!(serial.cells.len(), 9);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.cap_w, p.cap_w);
        assert_eq!(s.strategy.label(), p.strategy.label());
        assert_eq!(s.report, p.report, "{} @ {}W diverged", s.strategy.label(), s.cap_w);
        assert_eq!(s.history, p.history);
    }
    // Both sweeps resolve the same set of distinct (region, config) points,
    // so they miss (= compute) the same number of simulations.
    assert_eq!(serial.cache.misses, parallel.cache.misses);
}

/// Cells share the memo cache: the Default cell simulates the same five
/// (region, default-config) points every timestep, and the Online cell at
/// the same cap revisits many of the same search points.
#[test]
fn sweep_reports_cross_cell_cache_hits() {
    let m = Machine::crill();
    let report = SweepEngine::new(m.clone()).run(&paper_grid(&m));
    assert!(report.cache.hits > 0, "no cross-cell cache reuse: {:?}", report.cache);
    assert!(report.cache.misses > 0);
    assert_eq!(report.cache.lookups(), report.cache.hits + report.cache.misses);
    // Offline training sweeps the whole 252-point space (mostly misses),
    // but the Default/Online cells at each cap still re-find hundreds of
    // already-simulated points.
    assert!(
        report.cache.hits as f64 > 0.2 * report.cache.misses as f64,
        "cross-cell reuse collapsed: {:?}",
        report.cache
    );
}

/// The unified Backend driver must charge §III-C overheads exactly as the
/// pre-refactor SimExecutor did on SP class B: every tuned invocation pays
/// the instrumentation cost, every configuration change pays ≈8 ms, and
/// overhead time is priced at near-idle package power.
#[test]
fn backend_overhead_accounting_matches_paper_model_on_sp_b() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 10;
    let cap = 85.0;

    let tuned = SweepEngine::new(m.clone())
        .run_cell(&wl, cap, SweepStrategy::Online, Objective::Time, None)
        .report;
    let stats = tuned.tuner.as_ref().expect("online run records tuner stats");

    // Instrumentation: exactly one charge per tuned invocation.
    assert_eq!(stats.invocations, (wl.timesteps * wl.step.len()) as u64);
    let expected_instr = stats.invocations as f64 * m.instrumentation_s;
    assert!(
        (tuned.instrumentation_overhead_s - expected_instr).abs() < 1e-12,
        "instr overhead {} != invocations x instrumentation_s {}",
        tuned.instrumentation_overhead_s,
        expected_instr
    );

    // Config changes: exactly one ≈8 ms charge per ICV move.
    let expected_change = stats.config_changes as f64 * m.config_change_s;
    assert!(
        (tuned.config_change_overhead_s - expected_change).abs() < 1e-12,
        "change overhead {} != config_changes x config_change_s {}",
        tuned.config_change_overhead_s,
        expected_change
    );
    assert!(stats.config_changes > 0, "Nelder-Mead never moved the configuration");

    // Wall time includes both overheads on top of the region time.
    let region_time: f64 = tuned.per_region.values().map(|r| r.total_time_s).sum();
    let total = region_time + tuned.config_change_overhead_s + tuned.instrumentation_overhead_s;
    assert!((tuned.time_s - total).abs() < 1e-9);

    // Overhead energy is charged at near-idle power, far below the cap.
    assert!(overhead_power_w(&m) < cap);

    // A default run pays no overheads at all.
    let base = Runner::new(&mut SimExecutor::new(m.clone(), cap)).workload(&wl).run().unwrap();
    assert_eq!(base.config_change_overhead_s, 0.0);
    assert_eq!(base.instrumentation_overhead_s, 0.0);
    assert!(base.tuner.is_none());
}

/// The sweep engine's cells and hand-built serial runs must agree exactly:
/// each strategy's recipe, rolled by hand through `Runner` on fresh
/// executors with private caches, gives the same reports and history as the
/// parallel engine over its shared cache.
#[test]
fn sweep_cells_match_hand_rolled_serial_runs() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 6;
    let cap = 85.0;

    let grid = SweepGrid::new(m.clone()).workload(wl.clone()).caps(&[cap]).strategies(&[
        SweepStrategy::Default,
        SweepStrategy::Online,
        SweepStrategy::Offline,
    ]);
    let report = SweepEngine::new(m.clone()).run(&grid);

    let space = ConfigSpace::for_machine(&m);
    let exec = || SimExecutor::new(m.clone(), cap);
    let tuned = |options: TunerOptions, label: &str| {
        let mut tuner = RegionTuner::new(options);
        Runner::new(&mut exec()).workload(&wl).tuner(&mut tuner).label(label).run().unwrap()
    };
    assert_eq!(
        report.cell("sp.B", cap, "default").unwrap().report,
        Runner::new(&mut exec()).workload(&wl).run().unwrap()
    );
    assert_eq!(
        report.cell("sp.B", cap, "arcs-online").unwrap().report,
        tuned(TunerOptions::online(space.clone()), "arcs-online")
    );
    // ARCS-Offline trains and measures in separate executions.
    let off_hist = Runner::new(&mut exec())
        .workload(&wl)
        .train(TunerOptions::offline_train(space.clone()), "sp.B.crill.85W.time")
        .unwrap();
    let off_rep = tuned(TunerOptions::offline_replay(space, off_hist.clone()), "arcs-offline");
    let cell = report.cell("sp.B", cap, "arcs-offline").unwrap();
    assert_eq!(cell.report, off_rep);
    assert_eq!(cell.history.as_ref(), Some(&off_hist));
}

/// Noisy cells depend only on (seed, region, invocation): running the same
/// noisy executor grid twice in different orders yields the same reports.
#[test]
fn stateless_noise_gives_reproducible_noisy_cells() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 4;
    let run = || {
        let mut exec = SimExecutor::new(m.clone(), 85.0).with_noise(0.05, 42);
        Runner::new(&mut exec).workload(&wl).run().unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);

    // And the noise model itself is a pure function.
    let n = NoiseModel { cv: 0.05, seed: 42 };
    assert_eq!(n.factor("sp/x_solve", 3), n.factor("sp/x_solve", 3));
    assert_ne!(n.factor("sp/x_solve", 3), n.factor("sp/x_solve", 4));
}
