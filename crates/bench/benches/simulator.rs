//! Simulator benchmarks: per-invocation simulation cost (what a full
//! figure sweep pays) for representative regions and schedules.

use arcs::{Objective, SweepEngine, SweepStrategy};
use arcs_kernels::{model, Class};
use arcs_omprt::Schedule;
use arcs_powersim::{simulate_region, Machine, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn region_simulation(c: &mut Criterion) {
    let m = Machine::crill();
    let sp = model::sp(Class::B);
    let coarse = sp.step[1].clone(); // x_solve: 100 iterations
    let lulesh = model::lulesh(45);
    let fine = lulesh.step[1].clone(); // FBHourglass: 91k iterations

    let mut g = c.benchmark_group("simulate_region");
    g.bench_function("coarse_static", |b| {
        b.iter(|| {
            black_box(simulate_region(
                &m,
                85.0,
                &coarse,
                SimConfig { threads: 32, schedule: Schedule::static_block() },
            ))
        })
    });
    g.bench_function("coarse_guided", |b| {
        b.iter(|| {
            black_box(simulate_region(
                &m,
                85.0,
                &coarse,
                SimConfig { threads: 32, schedule: Schedule::guided(1) },
            ))
        })
    });
    g.bench_function("fine_91k_static", |b| {
        b.iter(|| {
            black_box(simulate_region(
                &m,
                85.0,
                &fine,
                SimConfig { threads: 32, schedule: Schedule::static_block() },
            ))
        })
    });
    g.bench_function("fine_91k_dynamic_64", |b| {
        b.iter(|| {
            black_box(simulate_region(
                &m,
                85.0,
                &fine,
                SimConfig { threads: 32, schedule: Schedule::dynamic(64) },
            ))
        })
    });
    g.finish();
}

fn offline_training_sweep(c: &mut Criterion) {
    // The full ARCS-Offline pipeline on a reduced workload: the cost of
    // regenerating one Table II column.
    let m = Machine::crill();
    let mut wl = model::sp(Class::W);
    wl.timesteps = 10;
    c.bench_function("offline_train_sp_w", |b| {
        b.iter(|| {
            black_box(SweepEngine::new(m.clone()).run_cell(
                &wl,
                85.0,
                SweepStrategy::Offline,
                Objective::Time,
                None,
            ))
        })
    });
}

criterion_group!(benches, region_simulation, offline_training_sweep);
criterion_main!(benches);
