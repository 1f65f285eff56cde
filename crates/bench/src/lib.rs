//! # arcs-bench — regenerating every table and figure of the ARCS paper
//!
//! Each paper artefact is one function in [`figures`] that renders its
//! rows/series as text: `arcs-sim figure <name>` prints it, and the root
//! package's `tests/figures.rs` byte-compares it with `results/<name>.txt`.
//! The experiment helpers live here so integration tests can assert the
//! *shapes* (who wins, by roughly what factor, where crossovers fall)
//! without parsing text.
//!
//! | figure | paper artefact |
//! |--------|----------------|
//! | `table1` | Table I — search parameter sets |
//! | `fig1` | Fig. 1 — BT `x_solve` time across configs × power levels |
//! | `fig2` | Fig. 2 — the framework wiring, as a live self-check |
//! | `table2` | Table II — ARCS-Offline optimal configs for SP regions |
//! | `fig3` | Fig. 3 — SP region features, default vs ARCS-Offline |
//! | `fig4` | Fig. 4 — SP app time+energy × 5 power levels |
//! | `fig5` | Fig. 5 — SP class C time+energy at TDP |
//! | `fig6` | Fig. 6 — BT `compute_rhs` features |
//! | `fig7` | Fig. 7 — BT app time+energy × 5 power levels |
//! | `fig8` | Fig. 8 — LULESH time+energy (Crill) and time (Minotaur) |
//! | `fig9` | Fig. 9 — LULESH OMPT event breakdown, top regions |
//! | `fig10` | Fig. 10 — LULESH `CalcFBHourglassForceForElems` features |
//! | `overheads` | §III-C — overhead characterisation |
//! | `xarch` | §V — cross-architecture results on the POWER8 model |
//! | `ablation` | extension — selective tuning + search-strategy ablations |
//! | `extension_dvfs` | extension — per-region DVFS as a fourth knob |
//! | `extension_noise` | extension — measurement noise and config diversity |
//! | `extension_suite` | extension — CG, EP and MG |

pub mod figures;

use arcs::{
    AppRunReport, ConfigSpace, Objective, OmpConfig, SimExecutor, SweepEngine, SweepReport,
    SweepStrategy,
};
use arcs_harmony::History;
use arcs_powersim::{Machine, SimConfig, SimReport, WorkloadDescriptor};

/// The paper's Crill power levels (W); the last is the TDP.
pub const POWER_LEVELS: [f64; 5] = [55.0, 70.0, 85.0, 100.0, 115.0];

/// The paper's three measured strategies, in presentation order.
pub const PAPER_STRATEGIES: [SweepStrategy; 3] =
    [SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline];

pub fn power_label(cap: f64) -> String {
    if cap >= 115.0 {
        "TDP(115W)".to_string()
    } else {
        format!("{cap:.0}W")
    }
}

/// One power level's comparison: default vs ARCS-Online vs ARCS-Offline.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub cap_w: f64,
    pub default: AppRunReport,
    pub online: AppRunReport,
    pub offline: AppRunReport,
}

impl SweepPoint {
    pub fn online_time_ratio(&self) -> f64 {
        self.online.time_s / self.default.time_s
    }

    pub fn offline_time_ratio(&self) -> f64 {
        self.offline.time_s / self.default.time_s
    }

    pub fn online_energy_ratio(&self) -> f64 {
        self.online.energy_j / self.default.energy_j
    }

    pub fn offline_energy_ratio(&self) -> f64 {
        self.offline.energy_j / self.default.energy_j
    }
}

/// The default/online/offline comparison at one cap (panics if any of the
/// three cells is missing).
pub fn point_at(report: &SweepReport, workload: &str, cap_w: f64) -> SweepPoint {
    let pick = |label: &str| {
        report
            .cell(workload, cap_w, label)
            .unwrap_or_else(|| panic!("sweep missing cell ({workload}, {cap_w}W, {label})"))
            .report
            .clone()
    };
    SweepPoint {
        cap_w,
        default: pick("default"),
        online: pick("arcs-online"),
        offline: pick("arcs-offline"),
    }
}

/// The [`SweepPoint`] series for one workload over `caps_w`.
pub fn points(report: &SweepReport, workload: &str, caps_w: &[f64]) -> Vec<SweepPoint> {
    caps_w.iter().map(|&cap| point_at(report, workload, cap)).collect()
}

/// Exhaustive oracle for a single region at one power cap: the best
/// configuration over the whole Table I grid and its region time.
pub fn region_oracle(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    region: &str,
) -> (OmpConfig, SimReport) {
    let model = wl
        .step
        .iter()
        .find(|r| r.name == region)
        .unwrap_or_else(|| panic!("unknown region {region}"));
    let space = ConfigSpace::for_machine(machine);
    let grid = space.to_search_space();
    let mut exec = SimExecutor::new(machine.clone(), cap_w);
    let mut best: Option<(OmpConfig, SimReport)> = None;
    for p in grid.iter_points() {
        let cfg = space.decode(&p);
        let rep = exec.simulate(model, cfg.as_sim());
        if best.as_ref().is_none_or(|(_, b)| rep.time_s < b.time_s) {
            best = Some((cfg, (*rep).clone()));
        }
    }
    best.expect("non-empty grid")
}

/// Simulate one region at a fixed configuration (Fig. 1 bars).
pub fn region_at(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    region: &str,
    cfg: SimConfig,
) -> SimReport {
    let model = wl
        .step
        .iter()
        .find(|r| r.name == region)
        .unwrap_or_else(|| panic!("unknown region {region}"));
    (*SimExecutor::new(machine.clone(), cap_w).simulate(model, cfg)).clone()
}

/// Train ARCS-Offline and return the history (Table II).
pub fn offline_history(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
) -> History<OmpConfig> {
    SweepEngine::new(machine.clone())
        .run_cell(wl, cap_w, SweepStrategy::Offline, Objective::Time, None)
        .history
        .expect("offline cells export their history")
}

/// Feature comparison (Figs. 3, 6, 10): per-region normalised metrics of
/// the ARCS-Offline configuration relative to the default (default = 1.0).
#[derive(Debug, Clone)]
pub struct FeatureRow {
    pub region: String,
    pub config: OmpConfig,
    /// Normalised to the default configuration (1.0 = no change).
    pub l1: f64,
    pub l2: f64,
    pub l3: f64,
    pub barrier: f64,
}

pub fn feature_comparison(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    regions: &[&str],
) -> Vec<FeatureRow> {
    let history = offline_history(machine, cap_w, wl);
    let default_cfg = OmpConfig::default_for(machine);
    regions
        .iter()
        .map(|&name| {
            let cfg = history.get(name).map(|e| e.config).unwrap_or(default_cfg);
            let base = region_at(machine, cap_w, wl, name, default_cfg.as_sim());
            let tuned = region_at(machine, cap_w, wl, name, cfg.as_sim());
            let norm = |t: f64, b: f64| if b > 0.0 { t / b } else { 1.0 };
            FeatureRow {
                region: name.to_string(),
                config: cfg,
                l1: norm(tuned.cache.l1_miss_rate, base.cache.l1_miss_rate),
                l2: norm(tuned.cache.l2_miss_rate, base.cache.l2_miss_rate),
                l3: norm(tuned.cache.l3_miss_rate, base.cache.l3_miss_rate),
                barrier: norm(tuned.barrier_total_s(), base.barrier_total_s()),
            }
        })
        .collect()
}

/// Render a table with a title into `out`.
pub fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    *out += &format!("\n{title}\n{}\n{}\n", "-".repeat(title.len().max(20)), fmt_row(&headers));
    for row in rows {
        *out += &fmt_row(row);
        out.push('\n');
    }
}

/// Shorthand for `{:.3}` cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Standard per-figure header: reminds the reader what the paper showed.
pub fn preamble(id: &str, paper_claim: &str) -> String {
    format!(
        "=== {id} ===\npaper: {paper_claim}\n\
         (simulated Crill/Minotaur; see EXPERIMENTS.md for the comparison)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs::SweepGrid;
    use arcs_kernels::{model, Class};

    #[test]
    fn oracle_beats_or_matches_default_everywhere() {
        let m = Machine::crill();
        let wl = model::bt(Class::B);
        for cap in [55.0, 115.0] {
            let (cfg, best) = region_oracle(&m, cap, &wl, "bt/x_solve");
            let def = region_at(&m, cap, &wl, "bt/x_solve", OmpConfig::default_for(&m).as_sim());
            assert!(best.time_s <= def.time_s, "oracle worse than default at {cap}");
            assert!(cfg.threads >= 2);
        }
    }

    fn paper_grid(m: &Machine, timesteps: usize) -> SweepGrid {
        let mut wl = model::sp(Class::B);
        wl.timesteps = timesteps;
        SweepGrid::new(m.clone()).workload(wl).caps(&[85.0]).strategies(&PAPER_STRATEGIES)
    }

    #[test]
    fn sweep_point_ratios_are_consistent() {
        let m = Machine::crill();
        let report = SweepEngine::new(m.clone()).run(&paper_grid(&m, 20));
        let pt = point_at(&report, "sp.B", 85.0);
        assert!(pt.offline_time_ratio() > 0.0);
        assert!((pt.offline.time_s / pt.default.time_s - pt.offline_time_ratio()).abs() < 1e-12);
        assert_eq!(points(&report, "sp.B", &[85.0]).len(), 1);
        assert_eq!(report.cells.len(), 3);
        assert!(report.cache.misses > 0, "a fresh engine must simulate something");
    }

    #[test]
    fn repeated_sweeps_reuse_the_warm_cache() {
        let m = Machine::crill();
        let grid = paper_grid(&m, 6);
        let engine = SweepEngine::new(m);
        let cold = engine.run(&grid);
        // A repetition on the same engine resolves every lookup from cache.
        let warm = engine.run(&grid);
        assert_eq!(warm.cache.misses, 0);
        assert!(warm.cache.hits > 0);
        // And the sweep itself is deterministic across repetitions.
        assert_eq!(
            point_at(&warm, "sp.B", 85.0).default.time_s,
            point_at(&cold, "sp.B", 85.0).default.time_s
        );
    }

    #[test]
    fn feature_rows_cover_requested_regions() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 20;
        let rows = feature_comparison(&m, 115.0, &wl, &["sp/x_solve", "sp/z_solve"]);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.l1 > 0.0 && r.l3 > 0.0 && r.barrier > 0.0);
        }
    }
}
