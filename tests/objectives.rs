//! Integration tests for the objective layer: time/energy/EDP scoring
//! through the mainline tuner stack, the DVFS fourth knob on the shared
//! `TunableSpace` encoding, and the trace taxonomy of DVFS-enabled runs.
//!
//! Energy here is differenced from the simulated package meter (1 ms
//! quantum, so individual measurements are quantized to ~0.1 J); tests
//! that compare energies therefore use small relative margins instead of
//! exact inequalities. Time scoring is exact — the simulator's region
//! times are noise-free.

use arcs::dvfs::tune_region;
use arcs::{
    Objective, OmpConfig, RegionTuner, Runner, SimExecutor, TunableSpace, TunerOptions, TuningMode,
};
use arcs_harmony::NmOptions;
use arcs_kernels::{model, Class};
use arcs_powersim::{simulate_region_at_freq, Machine, RegionModel};
use arcs_trace::{TraceEvent, VecSink};
use std::sync::Arc;

fn z_solve() -> RegionModel {
    model::sp(Class::B).step.into_iter().find(|r| r.name.ends_with("z_solve")).unwrap()
}

/// The DVFS space is the paper's grid plus one more axis, and its default
/// point is the paper's default configuration at uncapped frequency.
#[test]
fn space_has_four_axes() {
    let m = Machine::crill();
    let s = TunableSpace::with_dvfs(&m, 4);
    assert_eq!(s.to_search_space().dim(), 4);
    assert_eq!(s.freqs_ghz.len(), 5);
    assert_eq!(s.freqs_ghz[4], None);
    let d = s.decode(&s.default_point());
    assert_eq!(d.freq_ghz, None);
    assert_eq!(d.omp, OmpConfig::default_for(&m));
}

/// For a stall-dominated region the energy objective clamps the clock —
/// stalls don't scale with frequency, so a lower clock costs little time
/// and saves real energy — while the time objective never gives up speed.
#[test]
fn energy_objective_picks_lower_frequency_for_memory_bound_region() {
    let m = Machine::crill();
    let s = TunableSpace::with_dvfs(&m, 4);
    let region = z_solve();
    let time_best = tune_region(&m, 115.0, &region, &s, Objective::Time, TuningMode::OfflineTrain);
    let energy_best =
        tune_region(&m, 115.0, &region, &s, Objective::Energy, TuningMode::OfflineTrain);
    // The energy optimum uses no more energy than the time optimum (2%
    // margin for the meter-quantized search scores).
    assert!(energy_best.report.energy_j <= time_best.report.energy_j * 1.02);
    // ...and for this stall-dominated region it prefers a clamped clock.
    assert!(
        energy_best.config.freq_ghz.is_some(),
        "expected a DVFS clamp, got {}",
        energy_best.config
    );
    // Time optimum never clocks below the energy optimum's choice.
    assert!(time_best.report.time_s <= energy_best.report.time_s + 1e-12);
}

/// Clamping frequency can only slow a region down; the Time objective
/// must therefore land on "uncapped" or tie it.
#[test]
fn dvfs_cannot_beat_unclamped_time() {
    let m = Machine::crill();
    let s = TunableSpace::with_dvfs(&m, 3);
    let region = z_solve();
    let best = tune_region(&m, 85.0, &region, &s, Objective::Time, TuningMode::OfflineTrain);
    let uncapped = tune_region(
        &m,
        85.0,
        &region,
        &TunableSpace { base: s.base.clone(), freqs_ghz: vec![None] },
        Objective::Time,
        TuningMode::OfflineTrain,
    );
    assert!(best.report.time_s <= uncapped.report.time_s + 1e-12);
}

/// EDP is the compromise objective: at least as slow as the pure time
/// optimum and at least as hungry as the pure energy optimum.
#[test]
fn edp_sits_between_time_and_energy() {
    let m = Machine::crill();
    let s = TunableSpace::with_dvfs(&m, 4);
    let region = z_solve();
    let t = tune_region(&m, 115.0, &region, &s, Objective::Time, TuningMode::OfflineTrain);
    let e = tune_region(&m, 115.0, &region, &s, Objective::Energy, TuningMode::OfflineTrain);
    let edp = tune_region(&m, 115.0, &region, &s, Objective::EnergyDelay, TuningMode::OfflineTrain);
    assert!(edp.report.time_s + 1e-12 >= t.report.time_s);
    assert!(edp.report.energy_j >= e.report.energy_j * 0.99 - 1e-9);
}

/// Nelder–Mead drives the 4-knob space through the same session
/// machinery at a fraction of the exhaustive budget and still clearly
/// beats the default configuration on energy.
#[test]
fn nelder_mead_works_on_the_extended_space() {
    let m = Machine::crill();
    let s = TunableSpace::with_dvfs(&m, 4);
    let region = z_solve();
    let nm = tune_region(
        &m,
        85.0,
        &region,
        &s,
        Objective::Energy,
        TuningMode::Online(NmOptions::default()),
    );
    let ex = tune_region(&m, 85.0, &region, &s, Objective::Energy, TuningMode::OfflineTrain);
    assert!(
        nm.evaluations < ex.evaluations / 3,
        "NM {} vs exhaustive {}",
        nm.evaluations,
        ex.evaluations
    );
    // NM is a local method on a 4-D discrete space: it must clearly beat
    // the default configuration even if it misses the global optimum by
    // some margin.
    let default_rep =
        simulate_region_at_freq(&m, 85.0, &region, OmpConfig::default_for(&m).as_sim(), None);
    assert!(
        nm.report.energy_j < default_rep.energy_j * 0.95,
        "NM {} vs default {}",
        nm.report.energy_j,
        default_rep.energy_j
    );
    assert!(nm.report.energy_j <= ex.report.energy_j * 1.6);
}

/// The acceptance cell: on LULESH, `Runner::objective(Energy)` converges
/// to a different best configuration than the default time objective for
/// at least one region, and the reports record what they were scored by.
#[test]
fn runner_energy_objective_selects_different_lulesh_configs() {
    let m = Machine::crill();
    let mut wl = model::lulesh(45);
    wl.timesteps = 64;
    let space = TunableSpace::with_dvfs(&m, 3);

    let train = |objective: Objective| {
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let mut tuner =
            RegionTuner::new(TunerOptions::new(space.clone(), TuningMode::OfflineTrain));
        let mut report = None;
        for _ in 0..32 {
            report = Some(
                Runner::new(&mut exec)
                    .workload(&wl)
                    .tuner(&mut tuner)
                    .objective(objective)
                    .run()
                    .unwrap(),
            );
            if tuner.converged() {
                break;
            }
        }
        let report = report.unwrap();
        assert!(tuner.converged(), "exhaustive training must finish");
        assert_eq!(tuner.objective(), objective, "Runner::objective must reach the tuner");
        assert_eq!(report.objective, objective);
        tuner.best_tuned_configs()
    };

    let by_time = train(Objective::Time);
    let by_energy = train(Objective::Energy);
    assert_eq!(by_time.len(), by_energy.len());
    assert!(!by_time.is_empty());
    let differing: Vec<&str> = by_time
        .iter()
        .filter(|(region, cfg)| by_energy[*region] != **cfg)
        .map(|(region, _)| region.as_str())
        .collect();
    assert!(
        !differing.is_empty(),
        "energy objective must change the winner for at least one region"
    );
}

/// DVFS tuning runs through the standard RegionTuner + Backend stack and
/// therefore emits the same trace taxonomy as any other tuned run, with
/// the v3 objective fields filled in.
#[test]
fn dvfs_runs_emit_the_standard_trace_taxonomy() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 8;
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 85.0);
    let mut tuner = RegionTuner::new(TunerOptions::new(
        TunableSpace::with_dvfs(&m, 3),
        TuningMode::Online(NmOptions::default()),
    ));
    Runner::new(&mut exec)
        .workload(&wl)
        .trace(sink.clone())
        .tuner(&mut tuner)
        .objective(Objective::Energy)
        .run()
        .unwrap();

    let records = sink.drain();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    assert!(count("RegionBegin") > 0);
    assert_eq!(count("RegionBegin"), count("RegionEnd"));
    assert!(count("SearchIteration") > 0);
    assert!(count("ConfigSwitch") > 0);
    assert!(count("OverheadCharged") > 0);
    assert!(count("CacheMiss") > 0);

    let mut overhead_energy = 0.0;
    for r in &records {
        match &r.event {
            TraceEvent::SearchIteration { objective, point, .. } => {
                assert_eq!(*objective, Objective::Energy);
                assert_eq!(point.len(), 4, "DVFS searches walk the 4-knob grid");
            }
            TraceEvent::RegionEnd { objective_value, .. } => {
                assert!(objective_value.is_some(), "tuned invocations are scored");
            }
            TraceEvent::OverheadCharged { energy_j, .. } => overhead_energy += energy_j,
            _ => {}
        }
    }
    assert!(overhead_energy > 0.0, "overhead intervals draw meter energy");
}
