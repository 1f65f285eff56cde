//! Hot-path benchmarks: the three layers a figure sweep spends its time
//! in, measured separately so a regression names its layer.
//!
//! * `cache_lookup` — the memo-cache warm path (interned id through a
//!   [`arcs_powersim::CacheReader`], lock-free on warm hits) against the
//!   string-keyed compatibility path it replaced.
//! * `region_eval` — one fully-warm tuned run of sp.B (every simulate
//!   memoised; what remains is pure driver semantics).
//! * `sweep_cell` — one cell of the fig. 4 grid end to end.

use arcs::{Objective, SweepEngine, SweepGrid, SweepStrategy};
use arcs_bench::{PAPER_STRATEGIES, POWER_LEVELS};
use arcs_kernels::{model, Class};
use arcs_omprt::Schedule;
use arcs_powersim::{simulate_region, Machine, SharedSimCache, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cache_lookup(c: &mut Criterion) {
    let m = Machine::crill();
    let sp = model::sp(Class::B);
    let region = &sp.step[1]; // x_solve
    let cfg = SimConfig { threads: 16, schedule: Schedule::dynamic(8) };

    let cache = SharedSimCache::new(&m.name);
    let id = cache.intern(&region.name);
    let mut reader = cache.reader();
    cache.get_or_insert_id(&mut reader, id, region.iterations, cfg, 85.0, None, || {
        simulate_region(&m, 85.0, region, cfg)
    });

    let mut g = c.benchmark_group("cache_lookup");
    g.bench_function("warm_hit_interned", |b| {
        b.iter(|| {
            black_box(cache.get_or_insert_id(
                &mut reader,
                id,
                region.iterations,
                cfg,
                85.0,
                None,
                || unreachable!("warm"),
            ))
        })
    });
    g.bench_function("warm_hit_string_keyed", |b| {
        b.iter(|| {
            black_box(cache.get_or_insert_with(&region.name, region.iterations, cfg, 85.0, || {
                unreachable!("warm")
            }))
        })
    });
    g.finish();
}

fn region_eval(c: &mut Criterion) {
    let m = Machine::crill();
    let wl = model::sp(Class::B);
    // One engine (one cache) shared by every iteration: the warm-up runs
    // pay the misses, the measured steady state is the pure driver loop.
    let engine = SweepEngine::new(m);
    let cell = |strategy| engine.run_cell(&wl, 85.0, strategy, Objective::Time, None);
    cell(SweepStrategy::Default);
    cell(SweepStrategy::Online);

    let mut g = c.benchmark_group("region_eval");
    g.bench_function("sp_b_default_warm", |b| b.iter(|| black_box(cell(SweepStrategy::Default))));
    g.bench_function("sp_b_online_warm", |b| b.iter(|| black_box(cell(SweepStrategy::Online))));
    g.finish();
}

fn sweep_cell(c: &mut Criterion) {
    let m = Machine::crill();
    let grid = SweepGrid::new(m.clone())
        .workload(model::sp(Class::B))
        .caps(&POWER_LEVELS)
        .strategies(&PAPER_STRATEGIES);
    let mut g = c.benchmark_group("sweep_cell");
    g.bench_function("fig4_grid", |b| b.iter(|| black_box(SweepEngine::new(m.clone()).run(&grid))));
    g.finish();
}

criterion_group!(benches, cache_lookup, region_eval, sweep_cell);
criterion_main!(benches);
