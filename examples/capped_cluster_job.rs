//! Cluster scenario from the paper's motivation (§II): "the resource
//! manager may add/remove nodes and adjust their power level dynamically.
//! To get the best per-node performance at each power level, the runtime
//! configurations need to be changed dynamically."
//!
//! A long LULESH job runs while the facility's power manager re-caps the
//! node three times. Two policies are compared:
//!
//! * **frozen** — tune once at the initial cap (ARCS-Offline) and keep
//!   those configurations forever;
//! * **adaptive** — keep a per-cap history (the ARCS history file is keyed
//!   by run context, which includes the cap) and switch configurations
//!   when the cap changes.
//!
//! ```sh
//! cargo run --release --example capped_cluster_job
//! ```

use arcs::{
    ConfigSpace, Objective, OmpConfig, RegionTuner, Runner, SimExecutor, SweepEngine,
    SweepStrategy, TunerOptions,
};
use arcs_harmony::History;
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;
use std::collections::HashMap;

fn main() {
    let machine = Machine::crill();
    // A power schedule imposed by the facility: (cap watts, timesteps).
    let phases = [(115.0, 80usize), (55.0, 80), (85.0, 80)];
    let mut wl = model::sp(Class::B);

    // Train per-cap histories (in production these come from earlier runs
    // of the same job shape at each power level).
    let space = ConfigSpace::for_machine(&machine);
    let engine = SweepEngine::new(machine.clone());
    let mut histories: HashMap<u64, History<OmpConfig>> = HashMap::new();
    for &(cap, _) in &phases {
        let cell = engine.run_cell(&wl, cap, SweepStrategy::Offline, Objective::Time, None);
        histories.insert(cap as u64, cell.history.expect("offline cells export their history"));
    }
    let frozen = histories[&(phases[0].0 as u64)].clone();

    let mut total = HashMap::from([("default", 0.0f64), ("frozen", 0.0), ("adaptive", 0.0)]);
    let mut energy = total.clone();
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12}",
        "cap", "steps", "default[s]", "frozen[s]", "adaptive[s]"
    );
    for &(cap, steps) in &phases {
        wl.timesteps = steps;
        let base = Runner::new(&mut SimExecutor::new(machine.clone(), cap))
            .workload(&wl)
            .run()
            .expect("workload is set");

        let run_with = |history: &History<OmpConfig>| {
            let mut tuner =
                RegionTuner::new(TunerOptions::offline_replay(space.clone(), history.clone()));
            Runner::new(&mut SimExecutor::new(machine.clone(), cap))
                .workload(&wl)
                .tuner(&mut tuner)
                .run()
                .expect("workload is set")
        };
        let frozen_rep = run_with(&frozen);
        let adaptive_rep = run_with(&histories[&(cap as u64)]);

        println!(
            "{:<8} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            format!("{cap:.0}W"),
            steps,
            base.time_s,
            frozen_rep.time_s,
            adaptive_rep.time_s
        );
        *total.get_mut("default").unwrap() += base.time_s;
        *total.get_mut("frozen").unwrap() += frozen_rep.time_s;
        *total.get_mut("adaptive").unwrap() += adaptive_rep.time_s;
        *energy.get_mut("default").unwrap() += base.energy_j;
        *energy.get_mut("frozen").unwrap() += frozen_rep.energy_j;
        *energy.get_mut("adaptive").unwrap() += adaptive_rep.energy_j;
    }

    println!("\njob totals:");
    for k in ["default", "frozen", "adaptive"] {
        println!(
            "  {:<9} {:>8.1}s ({:+5.1}%)   {:>9.0}J ({:+5.1}%)",
            k,
            total[k],
            (total[k] / total["default"] - 1.0) * 100.0,
            energy[k],
            (energy[k] / energy["default"] - 1.0) * 100.0,
        );
    }
    let delta = (total["adaptive"] / total["frozen"] - 1.0) * 100.0;
    if delta.abs() < 0.5 {
        println!(
            "\nadaptive vs frozen: {delta:+.1}% — on SP the per-region optima happen to \
             coincide across these caps (see EXPERIMENTS.md, deviation D2), so the \
             per-cap history is free insurance rather than a win. The machinery is \
             what matters: the resource manager can re-cap the node at any time and \
             ARCS swaps in the right configurations with one history lookup."
        );
    } else {
        println!("\nadaptive vs frozen: {delta:+.1}% time — re-tuning per power level pays.");
    }
}
