//! The six workloads, their cells, and every id and metric name mvbench
//! reports.
//!
//! Each configuration is pinned here from `mv_sim::Env` / `GuestPaging`
//! constructors, so editing a shared experiment helper cannot move the
//! benchmark. Ids are mvbench's own: `SimConfig::label` gives shadow paging
//! over 2 MiB nested pages the same label as over 4 KiB ones, which is how
//! an earlier throughput record came to list one environment twice.

use std::num::NonZeroUsize;

use mv_chaos::ChaosSpec;
use mv_sim::{Env, GuestPaging, SampleSpec, SimConfig};
use mv_types::{PageSize, MIB};
use mv_workloads::WorkloadKind;

/// Workload names, in the order `--all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "walk2d",
    "walk3d",
    "bypass0d",
    "churn-shadow",
    "sampled-mix",
    "grid-ragged",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which statistic of a metric's repeats is its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    Best,
}

/// An end-to-end metric. Its bound lives in `BENCHMARK.json`, which
/// `--compare` reads; `floor` is the least change, in the metric's unit,
/// that `--compare` counts.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub stat: Stat,
    pub floor: f64,
}

/// The end-to-end metrics.
///
/// Throughput reports its best repeat. On a host shared with other
/// machines, interference only ever slows a repeat, and it comes in bursts
/// that can cover most of a 10 s run: over ten runs of `walk2d` in a busy
/// hour the median repeat spread 20% from run to run and the best repeat
/// 10%. The median, quartiles and worst repeat are still recorded.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "accesses_per_s",
        unit: "acc/s",
        better: Better::Higher,
        stat: Stat::Best,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        stat: Stat::Median,
        // `bypass0d` builds in microseconds, where cache state alone moves
        // the time by more than any relative bound.
        floor: 0.002,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        stat: Stat::Median,
        floor: 0.0,
    },
];

/// Per-layer metrics from the traced run: (name, unit). A metric that does
/// not apply to a workload (no such calls, no pool, no sampling) reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.next_access_ns", "ns/call"),
    ("core.access_ns", "ns/call"),
    ("core.l1_hit_ns", "ns/call"),
    ("core.l2_hit_ns", "ns/call"),
    ("core.walk_ns", "ns/walk"),
    ("core.bypass_ns", "ns/call"),
    ("core.functional_ns", "ns/call"),
    ("core.warm_ns", "ns/call"),
    ("core.l1_miss_per_kacc", "count/kacc"),
    ("core.walks_per_kacc", "count/kacc"),
    ("core.refs_per_walk", "refs/walk"),
    ("core.l2_hit_ratio", "ratio"),
    ("sim.ctx_ns", "ns/call"),
    ("sim.fault_ns.guest", "ns/fault"),
    ("sim.fault_ns.nested", "ns/fault"),
    ("sim.fault_ns.mid", "ns/fault"),
    ("sim.fault_ns.prot", "ns/fault"),
    ("sim.faults_per_kacc", "count/kacc"),
    ("sim.churn_ns", "ns/event"),
    ("sim.churn_per_kacc", "count/kacc"),
    ("sim.vm_exits_per_kacc", "count/kacc"),
    ("sim.driver_self_ns", "ns/access"),
    ("sim.sample_err_pct", "%"),
    ("sim.sample_speedup.gups-4k4k", "x"),
    ("sim.sample_speedup.gups-4kgd", "x"),
    ("sim.sample_speedup.gups-4kshadow", "x"),
    ("sim.sample_speedup.memcached-4k4k", "x"),
    ("sim.sample_speedup.memcached-4kgd", "x"),
    ("sim.sample_speedup.memcached-4kshadow", "x"),
    ("par.efficiency", "ratio"),
    ("par.tail_s", "s"),
    ("par.steals", "count"),
    ("ledger.residual_pct", "%"),
    ("ledger.trace_overhead_ratio", "x"),
];

/// The sampling schedule of `sampled-mix`: detailed window, interval, and
/// re-warm tail, in accesses.
pub const SAMPLE_SPEC: SampleSpec = SampleSpec {
    window: 2_000,
    interval: 40_000,
    warmup: 500,
};

/// A sampled estimate may differ from full fidelity by at most this much
/// (percent) before the run counts as failed.
pub const SAMPLE_ERR_BOUND_PCT: f64 = 2.0;

/// How a workload drives its cells.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One `Simulation::run` per repeat.
    Single,
    /// `Simulation::run_sampled` on every cell, one after another.
    Sampled(SampleSpec),
    /// One `Simulation::run_grid` over all cells on `jobs` workers.
    Grid(NonZeroUsize),
}

/// One configuration a workload runs.
#[derive(Debug, Clone)]
pub struct Cell {
    pub id: String,
    pub cfg: SimConfig,
    pub chaos: Option<ChaosSpec>,
}

/// A named workload: its shape and cells.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Accesses one repeat drives, warmup included, over all cells.
    pub fn driven(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.cfg.warmup + c.cfg.accesses)
            .sum()
    }
}

const G4K: GuestPaging = GuestPaging::Fixed(PageSize::Size4K);

/// The environments mvbench uses, by id.
fn env(id: &str) -> (GuestPaging, Env) {
    match id {
        "native4k" => (G4K, Env::native()),
        "nativeds" => (G4K, Env::native_direct()),
        "4k4k" => (G4K, Env::base_virtualized(PageSize::Size4K)),
        "4k2m" => (G4K, Env::base_virtualized(PageSize::Size2M)),
        "2m2m" => (
            GuestPaging::Fixed(PageSize::Size2M),
            Env::base_virtualized(PageSize::Size2M),
        ),
        "4kvd" => (G4K, Env::vmm_direct()),
        "4kgd" => (G4K, Env::guest_direct(PageSize::Size4K)),
        "dd" => (G4K, Env::dual_direct()),
        "4kshadow" => (
            G4K,
            Env::Shadow {
                nested: PageSize::Size4K,
            },
        ),
        "4kshadow2m" => (
            G4K,
            Env::Shadow {
                nested: PageSize::Size2M,
            },
        ),
        "4kl2" => (G4K, Env::l2(false, false, false)),
        "4kl2shadow" => (G4K, Env::l2_shadow()),
        other => unreachable!("unknown environment id {other}"),
    }
}

/// The ten environments of the paper cross-section: native with and
/// without a direct segment, the four virtualized modes, and shadow paging
/// over both nested page sizes.
const PAPER_10: [&str; 10] = [
    "native4k",
    "nativeds",
    "4k4k",
    "4k2m",
    "2m2m",
    "4kvd",
    "4kgd",
    "dd",
    "4kshadow",
    "4kshadow2m",
];

/// Chaos for the grid's degradable cells: 200 injected faults per million
/// accesses from a fixed fault seed, so the oracle checks every access.
const GRID_CHAOS: ChaosSpec = ChaosSpec {
    seed: 11,
    fault_rate_per_million: 200,
    storm_start: 0,
    storm_len: 0,
};

const FOOTPRINT: u64 = 256 * MIB;

/// Smoke runs divide access counts by this and shrink the arena.
const SMOKE_DIV: u64 = 50;
const SMOKE_FOOTPRINT: u64 = 32 * MIB;

fn workload_id(w: WorkloadKind) -> &'static str {
    match w {
        WorkloadKind::Gups => "gups",
        WorkloadKind::Memcached => "memcached",
        other => unreachable!("mvbench does not run {other:?}"),
    }
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let name = *WORKLOADS.iter().find(|&&n| n == name)?;
    let cell = |w: WorkloadKind, env_id: &str, warmup: u64, accesses: u64| {
        let (guest_paging, env) = env(env_id);
        let (div, footprint) = if smoke {
            (SMOKE_DIV, SMOKE_FOOTPRINT)
        } else {
            (1, FOOTPRINT)
        };
        Cell {
            id: format!("{}-{env_id}", workload_id(w)),
            cfg: SimConfig {
                workload: w,
                footprint,
                guest_paging,
                env,
                accesses: accesses / div,
                warmup: warmup / div,
                seed,
            },
            chaos: None,
        }
    };
    let gups = WorkloadKind::Gups;
    let memcached = WorkloadKind::Memcached;
    let (shape, cells) = match name {
        "walk2d" => (Shape::Single, vec![cell(gups, "4k4k", 250_000, 2_000_000)]),
        "walk3d" => (Shape::Single, vec![cell(gups, "4kl2", 250_000, 1_250_000)]),
        "bypass0d" => (Shape::Single, vec![cell(gups, "dd", 250_000, 15_000_000)]),
        "churn-shadow" => (
            Shape::Single,
            vec![cell(memcached, "4kshadow", 250_000, 3_750_000)],
        ),
        "sampled-mix" => (
            Shape::Sampled(SAMPLE_SPEC),
            [gups, memcached]
                .into_iter()
                .flat_map(|w| ["4k4k", "4kgd", "4kshadow"].map(|e| cell(w, e, 250_000, 2_000_000)))
                .collect(),
        ),
        "grid-ragged" => {
            let grid_cell = |w, e: &str| cell(w, e, 150_000, 600_000);
            let chaos_cell = |w, e: &str| {
                let mut c = grid_cell(w, e);
                c.id.push_str("-chaos");
                c.chaos = Some(GRID_CHAOS);
                c
            };
            let mut cells = Vec::new();
            for w in [gups, memcached] {
                cells.extend(PAPER_10.iter().map(|e| grid_cell(w, e)));
                cells.push(chaos_cell(w, "dd"));
                cells.push(chaos_cell(w, "4kvd"));
            }
            // The heaviest cells go last, where the block partition hands
            // them all to one worker and only stealing can rebalance.
            for w in [gups, memcached] {
                cells.push(grid_cell(w, "4kl2shadow"));
                cells.push(grid_cell(w, "4kl2"));
            }
            let jobs = NonZeroUsize::new(2).expect("2 is nonzero");
            (Shape::Grid(jobs), cells)
        }
        _ => unreachable!("every name in WORKLOADS has a definition"),
    };
    Some(Workload { name, shape, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `s` is a valid id: one or more of `[A-Za-z0-9_.-]`.
    fn valid_id(s: &str) -> bool {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn all_workloads() -> Vec<Workload> {
        WORKLOADS
            .iter()
            .map(|n| workload(n, 42, false).expect("known workload"))
            .collect()
    }

    #[test]
    fn ids_are_unique_and_well_formed() {
        let mut names = BTreeSet::new();
        for w in all_workloads() {
            assert!(valid_id(w.name), "workload {}", w.name);
            assert!(
                names.insert(w.name.to_string()),
                "workload {} twice",
                w.name
            );
            let mut cells = BTreeSet::new();
            for c in &w.cells {
                assert!(valid_id(&c.id), "cell {}", c.id);
                assert!(
                    cells.insert(c.id.clone()),
                    "cell {} twice in {}",
                    c.id,
                    w.name
                );
            }
        }
        let mut metrics = BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| m.name);
        for m in e2e.chain(PER_LAYER.iter().map(|m| m.0)) {
            assert!(valid_id(m), "metric {m}");
            assert!(metrics.insert(m), "metric {m} twice");
        }
    }

    #[test]
    fn ids_tell_apart_what_config_labels_merge() {
        let grid = workload("grid-ragged", 42, false).expect("known workload");
        let find = |id: &str| grid.cells.iter().find(|c| c.id == id).expect(id).cfg;
        let (shadow4k, shadow2m) = (find("gups-4kshadow"), find("gups-4kshadow2m"));
        assert_ne!(shadow4k.env, shadow2m.env);
        assert_eq!(shadow4k.label(), shadow2m.label());
    }

    #[test]
    fn sample_speedup_metrics_name_the_sampled_cells() {
        let sampled = workload("sampled-mix", 42, false).expect("known workload");
        let named: BTreeSet<String> = PER_LAYER
            .iter()
            .filter_map(|m| m.0.strip_prefix("sim.sample_speedup."))
            .map(str::to_string)
            .collect();
        let cells: BTreeSet<String> = sampled.cells.iter().map(|c| c.id.clone()).collect();
        assert_eq!(named, cells);
    }

    #[test]
    fn benchmark_json_lists_what_mvbench_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = mv_prof::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(str::to_string));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0.to_string()));
        for m in doc
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .expect("end_to_end")
        {
            let name = m.get("name").and_then(|n| n.as_str()).expect("name");
            let e = END_TO_END.iter().find(|e| e.name == name).expect(name);
            assert_eq!(
                m.get("unit").and_then(|u| u.as_str()),
                Some(e.unit),
                "{name}"
            );
            assert_eq!(
                m.get("better").and_then(|b| b.as_str()),
                Some(e.better.label())
            );
        }
    }

    #[test]
    fn seed_reaches_every_cell() {
        for w in WORKLOADS.map(|n| workload(n, 7, true).expect("known workload")) {
            assert!(w.cells.iter().all(|c| c.cfg.seed == 7), "{}", w.name);
        }
    }
}
