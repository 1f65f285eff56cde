//! Power-sweep scenario: the paper's headline experiment in miniature.
//!
//! SP (class B) runs on the simulated dual-socket Sandy Bridge node at
//! five RAPL package caps. At each cap we compare the OpenMP default
//! configuration against ARCS-Online and ARCS-Offline, reporting execution
//! time, package energy, and the configurations the offline search chose —
//! demonstrating the paper's central claims: the optimal configuration
//! depends on the power cap, and selecting it buys double-digit time *and*
//! energy improvements at every cap.
//!
//! The grid runs through the [`SweepEngine`], so the fifteen cells execute
//! concurrently over one shared simulation memo cache.
//!
//! ```sh
//! cargo run --release --example power_sweep
//! ```

use arcs::prelude::*;
use arcs_kernels::{model, Class};

fn main() {
    let machine = Machine::crill();
    let workload = model::sp(Class::B);
    println!(
        "SP class B on {} — {} regions/step × {} timesteps\n",
        machine.name,
        workload.step.len(),
        workload.timesteps
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10}   {:>12} {:>10} {:>10}",
        "cap", "default[s]", "online", "offline", "default[J]", "online", "offline"
    );

    let caps = [55.0, 70.0, 85.0, 100.0, 115.0];
    let grid = SweepGrid::new(machine.clone())
        .workload(workload.clone())
        .caps(&caps)
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline]);
    let report = SweepEngine::new(machine).run(&grid);

    let mut last_history = None;
    for cap in caps {
        let base = &report.cell(&workload.name, cap, "default").unwrap().report;
        let online = &report.cell(&workload.name, cap, "arcs-online").unwrap().report;
        let offline = report.cell(&workload.name, cap, "arcs-offline").unwrap();
        println!(
            "{:<10} {:>12.1} {:>10.3} {:>10.3}   {:>12.0} {:>10.3} {:>10.3}",
            format!("{cap:.0}W"),
            base.time_s,
            online.time_s / base.time_s,
            offline.report.time_s / base.time_s,
            base.energy_j,
            online.energy_j / base.energy_j,
            offline.report.energy_j / base.energy_j,
        );
        last_history = Some((cap, offline.history.clone().expect("offline cells train")));
    }

    if let Some((cap, history)) = &last_history {
        println!("\nconfigurations chosen at {cap:.0}W (the TDP):");
        for (region, entry) in &history.entries {
            println!("  {:16} [{}]  ({} evaluations)", region, entry.config, entry.evaluations);
        }
    }

    // The §II claim: the best configuration *changes* with the cap.
    let history_at = |cap: f64| {
        report.cell(&workload.name, cap, "arcs-offline").unwrap().history.as_ref().unwrap()
    };
    let (h55, h115) = (history_at(55.0), history_at(115.0));
    let moved = h55
        .entries
        .iter()
        .filter(|(r, e)| h115.get(r).map(|x| x.config != e.config).unwrap_or(true))
        .count();
    println!(
        "\nregions whose optimal configuration differs between 55W and TDP: {moved}/{}",
        h55.len()
    );
    // Cache counts and the worker count depend on the host's core count,
    // so they go to stderr and stdout stays a reproducible artefact.
    eprintln!(
        "memo cache over the sweep: {} hits / {} misses on {} workers",
        report.cache.hits, report.cache.misses, report.workers
    );
}
