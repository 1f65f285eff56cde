//! Cross-crate integration tests: the full ARCS stack, both backends.

use arcs::{
    AppRunReport, ConfigSpace, OmpConfig, RegionTuner, Runner, SimExecutor, SweepEngine, SweepGrid,
    SweepReport, SweepStrategy, TunerOptions,
};
use arcs_kernels::{model, Class};
use arcs_powersim::{Machine, WorkloadDescriptor};

/// `strategies` for `wl` at every cap, on a fresh engine.
fn sweep(
    m: &Machine,
    wl: &WorkloadDescriptor,
    caps: &[f64],
    strategies: &[SweepStrategy],
) -> SweepReport {
    let grid = SweepGrid::new(m.clone()).workload(wl.clone()).caps(caps).strategies(strategies);
    SweepEngine::new(m.clone()).run(&grid)
}

/// The report of the (`wl`, `cap`, `strategy`) cell of `sweep`.
fn cell<'a>(sweep: &'a SweepReport, wl: &str, cap: f64, strategy: &str) -> &'a AppRunReport {
    &sweep.cell(wl, cap, strategy).expect("cell present").report
}

/// ARCS-Offline on SP must land in the paper's improvement band at every
/// power level (Fig. 4: 26–40% time, energy up to ~40%).
#[test]
fn sp_offline_beats_default_at_every_power_level() {
    let m = Machine::crill();
    let wl = model::sp(Class::B);
    let caps = [55.0, 70.0, 85.0, 100.0, 115.0];
    let sweep = sweep(&m, &wl, &caps, &[SweepStrategy::Default, SweepStrategy::Offline]);
    for cap in caps {
        let base = cell(&sweep, "sp.B", cap, "default");
        let off = cell(&sweep, "sp.B", cap, "arcs-offline");
        let t = off.time_s / base.time_s;
        let e = off.energy_j / base.energy_j;
        assert!((0.55..0.85).contains(&t), "time ratio {t} at {cap}W");
        assert!(e < 0.9, "energy ratio {e} at {cap}W");
    }
}

/// BT's gains are small (§V-B) and ARCS-Online can be *worse* than the
/// default — the overhead offsets the gains (Fig. 7).
#[test]
fn bt_gains_are_small_and_online_can_lose() {
    let m = Machine::crill();
    let wl = model::bt(Class::B);
    let sweep = sweep(&m, &wl, &[85.0], &arcs_bench::PAPER_STRATEGIES);
    let base = cell(&sweep, "bt.B", 85.0, "default");
    let off = cell(&sweep, "bt.B", 85.0, "arcs-offline");
    let on = cell(&sweep, "bt.B", 85.0, "arcs-online");
    let off_ratio = off.time_s / base.time_s;
    assert!((0.85..1.0).contains(&off_ratio), "offline {off_ratio}");
    assert!(on.time_s / base.time_s > 1.0, "online should lose on BT");
}

/// LULESH on Crill: tiny regions make ARCS-Online lose at every cap
/// (§V-C), while energy stays close to par.
#[test]
fn lulesh_online_loses_on_crill() {
    let m = Machine::crill();
    let wl = model::lulesh(45);
    let sweep = sweep(&m, &wl, &[55.0, 115.0], &[SweepStrategy::Default, SweepStrategy::Online]);
    for cap in [55.0, 115.0] {
        let base = cell(&sweep, &wl.name, cap, "default");
        let on = cell(&sweep, &wl.name, cap, "arcs-online");
        let t = on.time_s / base.time_s;
        assert!(t > 1.0 && t < 1.15, "online ratio {t} at {cap}W");
    }
}

/// Cross-architecture (§V-A): SP improves by roughly the paper's 37% on
/// the POWER8 model; BT by much less.
#[test]
fn minotaur_sp_reproduces_the_37_percent_win() {
    let m = Machine::minotaur();
    let tdp = m.power.tdp_w;
    let grid = SweepGrid::new(m.clone())
        .workload(model::sp(Class::B))
        .workload(model::bt(Class::B))
        .caps(&[tdp])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Offline]);
    let sweep = SweepEngine::new(m).run(&grid);
    let base = cell(&sweep, "sp.B", tdp, "default");
    let off = cell(&sweep, "sp.B", tdp, "arcs-offline");
    let gain = 1.0 - off.time_s / base.time_s;
    assert!((0.35 - 0.12..=0.35 + 0.12).contains(&gain), "SP Minotaur gain {gain}");

    let base_bt = cell(&sweep, "bt.B", tdp, "default");
    let off_bt = cell(&sweep, "bt.B", tdp, "arcs-offline");
    let gain_bt = 1.0 - off_bt.time_s / base_bt.time_s;
    assert!(gain_bt < gain, "BT gain {gain_bt} must be smaller than SP's {gain}");
}

/// The offline history replays deterministically: two replay runs under
/// the same history are identical, and replaying beats re-searching.
#[test]
fn offline_history_replay_is_deterministic() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 25;
    let history = arcs_bench::offline_history(&m, 85.0, &wl);
    let space = ConfigSpace::for_machine(&m);
    let run = |h| {
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space.clone(), h));
        Runner::new(&mut SimExecutor::new(m.clone(), 85.0))
            .workload(&wl)
            .tuner(&mut tuner)
            .run()
            .unwrap()
    };
    let a = run(history.clone());
    let b = run(history);
    assert_eq!(a.time_s, b.time_s);
    assert_eq!(a.energy_j, b.energy_j);
}

/// History files survive a round-trip through disk (the paper's "saved
/// values can be used instead of repeating the search").
#[test]
fn history_file_roundtrip_through_disk() {
    let m = Machine::crill();
    let mut wl = model::bt(Class::W);
    wl.timesteps = 30;
    let history = arcs_bench::offline_history(&m, 115.0, &wl);
    let dir = std::env::temp_dir().join("arcs-e2e");
    let path = dir.join("bt.history.json");
    history.save(&path).unwrap();
    let loaded: arcs_harmony::History<OmpConfig> = arcs_harmony::History::load(&path).unwrap();
    assert_eq!(loaded.context, history.context);
    assert_eq!(loaded.len(), history.len());
    for (region, entry) in &history.entries {
        let back = loaded.get(region).expect("region survives the roundtrip");
        assert_eq!(back.config, entry.config, "{region}");
        assert_eq!(back.evaluations, entry.evaluations);
        // JSON float formatting may cost the last ULP.
        assert!((back.value - entry.value).abs() <= entry.value.abs() * 1e-12);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Selective tuning (the paper's future work) must not hurt: skipping
/// tiny regions keeps LULESH at or below the tune-everything cost.
#[test]
fn selective_tuning_never_hurts_lulesh() {
    let m = Machine::crill();
    let wl = model::lulesh(30);
    let selective = SweepStrategy::OnlineSelective { min_region_time_s: 4.0 * m.config_change_s };
    let sweep = sweep(&m, &wl, &[115.0], &[SweepStrategy::Online, selective]);
    let naive = cell(&sweep, &wl.name, 115.0, "arcs-online");
    let selective = cell(&sweep, &wl.name, 115.0, "arcs-online-selective");
    assert!(selective.time_s <= naive.time_s * 1.01);
    assert!(selective.tuner.unwrap().skipped_regions > 0);
}

/// Power-capping invariants at application level: time decreases and
/// energy increases monotonically with the cap (energy: higher caps burn
/// more power for less time — package energy grows in our model's regime).
#[test]
fn app_time_monotone_in_cap() {
    let m = Machine::crill();
    let mut wl = model::bt(Class::B);
    wl.timesteps = 30;
    let mut prev = f64::INFINITY;
    for cap in [55.0, 70.0, 85.0, 100.0, 115.0] {
        let rep = Runner::new(&mut SimExecutor::new(m.clone(), cap)).workload(&wl).run().unwrap();
        assert!(rep.time_s <= prev, "time must not rise with cap");
        // Node power = both capped packages + DRAM (outside the cap, as on
        // the real machine: "we used maximum power for other components").
        let dram = m.sockets as f64 * m.power.p_dram_background_w;
        assert!(
            rep.avg_power_w() <= 2.0 * cap + dram + 1e-9,
            "power {} exceeds caps+DRAM at {cap}W",
            rep.avg_power_w()
        );
        prev = rep.time_s;
    }
}
