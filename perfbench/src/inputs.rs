//! Seeded input generation. Every workload input is a pure function of
//! the `--seed` argument; the program under test only ever sees the
//! generated values.

use arcs::{SweepGrid, SweepStrategy};
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;
use arcs_serve::JobSpec;
use arcs_trace::Objective;

/// The seed the golden digests were recorded with.
pub const DEFAULT_SEED: u64 = 42;

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed for iteration `i` of a run seeded `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// FNV-1a over a stream of 64-bit words: the golden-digest hash.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Five power caps, one drawn from each 12 W stratum of 55–115 W and
/// rounded to 0.5 W. Stratifying keeps a pass's cost nearly independent
/// of the seed (low caps and high caps always both appear), so seeds vary
/// the cache keys without varying the amount of work.
pub fn sweep_caps(seed: u64) -> Vec<f64> {
    let mut rng = seed ^ 0x5EED_CA95;
    (0..5)
        .map(|k| {
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let w = 55.0 + 12.0 * (k as f64 + u);
            (w * 2.0).round() / 2.0
        })
        .collect()
}

/// The figure grid: {sp.B, cg.B, lulesh(30), mc.W} × caps ×
/// {default, online, offline} × {time, energy}.
pub fn sweep_grid(seed: u64) -> SweepGrid {
    SweepGrid::new(Machine::crill())
        .workload(model::sp(Class::B))
        .workload(model::cg(Class::B))
        .workload(model::lulesh(30))
        .workload(model::mc(Class::W))
        .caps(&sweep_caps(seed))
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .objectives(&[Objective::Time, Objective::Energy])
}

/// One grid cell as its own single-cell grid, in the engine's declaration
/// order (workload, cap, strategy, objective).
pub fn single_cell_grids(grid: &SweepGrid) -> Vec<SweepGrid> {
    let mut cells = Vec::with_capacity(grid.cell_count());
    for wl in &grid.workloads {
        for &cap in &grid.caps_w {
            for &strategy in &grid.strategies {
                for &objective in &grid.objectives {
                    cells.push(
                        SweepGrid::new(grid.machine.clone())
                            .workload(wl.clone())
                            .caps(&[cap])
                            .strategies(&[strategy])
                            .objectives(&[objective]),
                    );
                }
            }
        }
    }
    cells
}

const STREAM_WORKLOADS: [&str; 5] = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S"];

/// Tenants of the broker and wire streams.
const STREAM_TENANTS: u64 = 4;
/// Every 97th job is planted inadmissible (its floor tops the budget).
const REJECT_EVERY: usize = 97;
/// Every 16th job runs under a flaky-RAPL fault plan.
const FAULT_EVERY: usize = 16;

/// The load generator's seeded 4-tenant arrival stream: `jobs` specs with
/// planted inadmissible jobs (floor = twice `budget_w`) and flaky-RAPL
/// jobs, the same recipe `arcs-serve-loadgen` replays.
pub fn job_stream(seed: u64, jobs: usize, budget_w: f64) -> Vec<JobSpec> {
    let mut rng = seed;
    (0..jobs)
        .map(|i| {
            let r = splitmix64(&mut rng);
            let tenant = format!("tenant{}", r % STREAM_TENANTS);
            let workload = STREAM_WORKLOADS[(r >> 8) as usize % STREAM_WORKLOADS.len()];
            let mut spec = JobSpec::new(tenant, workload).timesteps(4 + ((r >> 16) % 9) as usize);
            if (i + 1) % REJECT_EVERY == 0 {
                spec = spec.floor_w(budget_w * 2.0);
            }
            if (i + 1) % FAULT_EVERY == 0 {
                spec = spec.fault_seed(r >> 24);
            }
            spec
        })
        .collect()
}

/// How many `step()` calls follow each submission in the broker stream.
pub fn steps_after_submit(seed: u64, jobs: usize) -> Vec<u8> {
    let mut rng = seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    (0..jobs).map(|_| (splitmix64(&mut rng) % 3) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for spec in job_stream(seed, 300, 800.0) {
            out.extend(serde_json::to_string(&spec).unwrap().into_bytes());
            out.push(b'\n');
        }
        out.extend(steps_after_submit(seed, 300));
        out
    }

    fn grid_bytes(seed: u64) -> String {
        let g = sweep_grid(seed);
        let names: Vec<&str> = g.workloads.iter().map(|w| w.name.as_str()).collect();
        let cells: Vec<String> = single_cell_grids(&g)
            .iter()
            .map(|c| {
                format!(
                    "{}/{}/{}/{}",
                    c.workloads[0].name,
                    c.caps_w[0].to_bits(),
                    c.strategies[0].label(),
                    c.objectives[0]
                )
            })
            .collect();
        format!(
            "{names:?}|{:?}|{cells:?}",
            g.caps_w.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_stream_and_grid() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_eq!(grid_bytes(7), grid_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
        assert_ne!(grid_bytes(7), grid_bytes(8));
    }

    #[test]
    fn caps_cover_every_stratum() {
        for seed in 0..50 {
            let caps = sweep_caps(seed);
            assert_eq!(caps.len(), 5);
            for (k, cap) in caps.iter().enumerate() {
                let lo = 55.0 + 12.0 * k as f64;
                assert!(
                    (lo..=lo + 12.0).contains(cap),
                    "seed {seed}: cap {cap} outside stratum {k}"
                );
            }
        }
    }

    #[test]
    fn stream_plants_rejections_and_faults() {
        let jobs = job_stream(3, 200, 800.0);
        assert_eq!(jobs.iter().filter(|j| j.floor_w == Some(1600.0)).count(), 2);
        assert_eq!(jobs.iter().filter(|j| j.fault_seed.is_some()).count(), 12);
        assert_eq!(single_cell_grids(&sweep_grid(3)).len(), 120);
    }
}
