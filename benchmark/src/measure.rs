//! Running one workload: set-up timing, untraced repeats through the
//! public entry points, and the separate traced run.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use mv_core::{MmuConfig, MmuCounters};
use mv_sim::machine::L2Machine;
use mv_sim::{
    Env, GridCell, Machine, NativeMachine, RunResult, ShadowMachine, SimConfig, SimError,
    Simulation, VirtualizedMachine,
};

use crate::spans::{Kind, Tracer};
use crate::stats::{median, Summary};
use crate::suite::{Better, Cell, Shape, Workload, PER_LAYER, SAMPLE_ERR_BOUND_PCT};
use crate::traced::{self, Digest};

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured repeats and their set-up slices continue until they add up
    /// to this many seconds and at least `min_repeats` ran. One unmeasured
    /// warm-up repeat runs first.
    pub seconds: f64,
    pub min_repeats: usize,
    /// Before each repeat, set-up is timed round after round for at least
    /// this long (and at least one round). Set-up samples so spread over
    /// the whole run, like the repeats, rather than over its first second.
    pub setup_slice_s: f64,
    pub trace: bool,
    /// Fail a sampled estimate off by more than `SAMPLE_ERR_BOUND_PCT`.
    /// The bound assumes the warmup reached steady state, which smoke-sized
    /// runs do not.
    pub sample_bound: bool,
}

/// One line of the ledger: `count` calls at `ns_per_op` each.
#[derive(Debug, Clone)]
pub struct LedgerTerm {
    pub name: &'static str,
    pub count: u64,
    pub ns_per_op: f64,
}

/// The ledger: the untraced wall time of the traced cells against
/// Σ count × self ns per operation from the traced run.
///
/// Self times have the instrumentation taken out, so summed against the
/// traced wall they would account for it exactly by construction. Summed
/// against the untraced wall they test something: a residual is cost the
/// per-layer numbers do not explain, such as tracing disturbing the caches.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub terms: Vec<LedgerTerm>,
}

impl Ledger {
    pub fn predicted_s(&self) -> f64 {
        self.terms
            .iter()
            .map(|t| t.count as f64 * t.ns_per_op)
            .sum::<f64>()
            / 1e9
    }

    /// Share of the untraced wall time the terms do not account for
    /// (negative when they predict more).
    pub fn residual_pct(&self) -> f64 {
        ratio(
            100.0 * (self.untraced_wall_s - self.predicted_s()),
            self.untraced_wall_s,
        )
    }
}

/// Everything one workload process measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub jobs: usize,
    pub cells: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// In `suite::END_TO_END` order.
    pub end_to_end: Vec<Summary>,
    /// In `suite::PER_LAYER` order; empty when the run was not traced.
    pub per_layer: Vec<f64>,
    pub digest: String,
    pub ledger: Option<Ledger>,
    pub trace_jsonl: Option<String>,
}

impl Report {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Counts one run of `cell` and checks it: it must have succeeded,
    /// kept the chaos oracle clean, and reproduced the cell's digest.
    fn check(&mut self, cell: &Cell, run: Result<&RunResult, &String>, want: &mut Option<Digest>) {
        self.attempted += 1;
        let r = match run {
            Ok(r) => r,
            Err(e) => return self.fail(format!("{}: {e}", cell.id)),
        };
        if let Some(v) = r
            .chaos
            .as_ref()
            .map(|c| c.oracle_violations)
            .filter(|&v| v > 0)
        {
            return self.fail(format!("{}: {v} translation-oracle violations", cell.id));
        }
        self.expect_digest(cell, Digest::of(r), want, "a repeat");
    }

    fn expect_digest(&mut self, cell: &Cell, got: Digest, want: &mut Option<Digest>, what: &str) {
        match want {
            None => *want = Some(got),
            Some(w) if *w == got => {}
            Some(_) => self.fail(format!("{}: {what} changed the counter digest", cell.id)),
        }
    }
}

impl Digest {
    fn of(r: &RunResult) -> Digest {
        Digest {
            counters: r.counters,
            vm_exits: r.vm_exits,
        }
    }
}

/// Results of the untraced repeats.
struct Untraced {
    /// Wall time of each measured repeat.
    walls: Vec<f64>,
    /// Mean set-up round of each measured repeat's set-up slice.
    setups: Vec<f64>,
    /// Per cell, its wall time in each measured repeat (sampled workloads).
    cell_walls: Vec<Vec<f64>>,
    digests: Vec<Option<Digest>>,
    first: Vec<Option<RunResult>>,
}

/// Measures `w` by `plan`.
pub fn run(w: &Workload, plan: &Plan) -> Report {
    let mut rep = Report {
        workload: w.name,
        seed: w.cells[0].cfg.seed,
        jobs: match w.shape {
            Shape::Grid(jobs) => jobs.get(),
            _ => 1,
        },
        cells: w.cells.iter().map(|c| c.id.clone()).collect(),
        attempted: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        digest: String::new(),
        ledger: None,
        trace_jsonl: None,
    };
    let untraced = repeats(w, plan, &mut rep);
    let rss = peak_rss_mib().unwrap_or_else(|| {
        rep.fail("cannot read VmHWM from /proc/self/status".to_string());
        0.0
    });
    let driven = w.driven() as f64;
    let rates: Vec<f64> = untraced.walls.iter().map(|wall| driven / wall).collect();
    let or_zero = |v: &[f64]| if v.is_empty() { vec![0.0] } else { v.to_vec() };
    rep.end_to_end = vec![
        Summary::of(&or_zero(&rates), Better::Higher),
        Summary::of(&or_zero(&untraced.setups), Better::Lower),
        Summary::of(&[rss], Better::Lower),
    ];
    let samples = matches!(w.shape, Shape::Sampled(_))
        .then(|| check_samples(w, &untraced, plan.sample_bound, &mut rep));
    rep.digest = format!(
        "{:016x}",
        fnv1a(format!("{:?}", untraced.digests).as_bytes())
    );
    if plan.trace {
        traced_run(w, untraced, samples, &mut rep);
    }
    rep
}

/// Times `Machine::build` for every cell, round after round, for at least
/// `plan.setup_slice_s`. Returns the mean round (one build of each cell)
/// and the slice's summed build time, or `None` if a build failed.
fn setup_slice(w: &Workload, plan: &Plan, rep: &mut Report) -> Option<(f64, f64)> {
    rep.attempted += 1;
    let (mut total, mut rounds) = (0.0, 0u32);
    while rounds == 0 || total < plan.setup_slice_s {
        for cell in &w.cells {
            match time_build(&cell.cfg) {
                Ok(secs) => total += secs,
                Err(e) => {
                    rep.fail(format!("{}: build failed: {e}", cell.id));
                    return None;
                }
            }
        }
        rounds += 1;
    }
    Some((total / f64::from(rounds), total))
}

fn time_build(cfg: &SimConfig) -> Result<f64, SimError> {
    match cfg.env {
        Env::Native { .. } => time_build_on::<NativeMachine>(cfg),
        Env::Virtualized { .. } => time_build_on::<VirtualizedMachine>(cfg),
        Env::Shadow { .. } => time_build_on::<ShadowMachine>(cfg),
        Env::L2 { .. } => time_build_on::<L2Machine>(cfg),
    }
}

fn time_build_on<M: Machine>(cfg: &SimConfig) -> Result<f64, SimError> {
    let t = Instant::now();
    let built = M::build(cfg, MmuConfig::default())?;
    let secs = t.elapsed().as_secs_f64();
    drop(black_box(built));
    Ok(secs)
}

fn grid_cell(cell: &Cell) -> GridCell {
    let g = GridCell::new(cell.cfg);
    match cell.chaos {
        Some(spec) => g.with_chaos(spec),
        None => g,
    }
}

/// One warm-up repeat, then measured repeats until the plan is met or a
/// run fails. Each repeat follows a set-up slice.
fn repeats(w: &Workload, plan: &Plan, rep: &mut Report) -> Untraced {
    let n = w.cells.len();
    let mut u = Untraced {
        walls: Vec::new(),
        setups: Vec::new(),
        cell_walls: vec![Vec::new(); n],
        digests: vec![None; n],
        first: vec![None; n],
    };
    let mut measured = 0.0;
    for repeat in 0.. {
        let Some((setup, setup_wall)) = setup_slice(w, plan, rep) else {
            break;
        };
        let (wall, outcomes) = one_repeat(w);
        let failed_before = rep.failures.len();
        for (ci, (run, cell_wall)) in outcomes.into_iter().enumerate() {
            rep.check(&w.cells[ci], run.as_ref(), &mut u.digests[ci]);
            if repeat > 0 {
                u.cell_walls[ci].push(cell_wall);
            }
            if u.first[ci].is_none() {
                u.first[ci] = run.ok();
            }
        }
        if rep.failures.len() > failed_before {
            break;
        }
        if repeat > 0 {
            u.walls.push(wall);
            u.setups.push(setup);
            measured += wall + setup_wall;
            if u.walls.len() >= plan.min_repeats && measured >= plan.seconds {
                break;
            }
        }
    }
    u
}

type Outcome = (Result<RunResult, String>, f64);

/// One call of the workload's public entry point(s): the repeat's wall
/// time and each cell's result with its own wall time (0 inside a grid).
fn one_repeat(w: &Workload) -> (f64, Vec<Outcome>) {
    match w.shape {
        Shape::Single | Shape::Sampled(_) => {
            let out: Vec<Outcome> = w
                .cells
                .iter()
                .map(|c| {
                    let t = Instant::now();
                    let run = match w.shape {
                        Shape::Sampled(spec) => {
                            Simulation::run_sampled(&c.cfg, MmuConfig::default(), None, spec)
                        }
                        _ => Simulation::run(&c.cfg),
                    };
                    (run.map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
                })
                .collect();
            (out.iter().map(|o| o.1).sum(), out)
        }
        Shape::Grid(jobs) => {
            let grid: Vec<GridCell> = w.cells.iter().map(grid_cell).collect();
            let t = Instant::now();
            let report = Simulation::run_grid(&grid, jobs);
            let wall = t.elapsed().as_secs_f64();
            let out = report
                .into_outcomes()
                .into_iter()
                .map(|o| (o.outcome.map_err(|e| e.to_string()), 0.0))
                .collect();
            (wall, out)
        }
    }
}

/// What the full-fidelity references of a sampled workload showed.
struct Samples {
    worst_err_pct: f64,
    /// Per cell: full-fidelity wall ÷ median sampled wall.
    speedups: Vec<f64>,
}

/// Runs every sampled cell once at full fidelity and checks the sampled
/// estimates against it (failing them only when `bound` is set).
fn check_samples(w: &Workload, u: &Untraced, bound: bool, rep: &mut Report) -> Samples {
    let mut s = Samples {
        worst_err_pct: 0.0,
        speedups: Vec::new(),
    };
    for (ci, cell) in w.cells.iter().enumerate() {
        rep.attempted += 1;
        let t = Instant::now();
        let full = Simulation::run(&cell.cfg);
        let full_wall = t.elapsed().as_secs_f64();
        s.speedups.push(ratio(full_wall, median(&u.cell_walls[ci])));
        let (full, Some(sampled)) = (full, &u.first[ci]) else {
            continue;
        };
        let full = match full {
            Ok(r) => r,
            Err(e) => {
                rep.fail(format!("{}: full-fidelity reference failed: {e}", cell.id));
                continue;
            }
        };
        let err = sample_err_pct(sampled, &full);
        s.worst_err_pct = s.worst_err_pct.max(err);
        if bound && err > SAMPLE_ERR_BOUND_PCT {
            rep.fail(format!(
                "{}: sampled estimate off by {err:.3}% (bound {SAMPLE_ERR_BOUND_PCT}%)",
                cell.id
            ));
        }
    }
    s
}

/// Worst relative error of a sampled run's translation cycles and overhead
/// against full fidelity. Differences within one walk's cycles per sample
/// interval (or 0.2 points of overhead) count as exact, so near-zero
/// quantities cannot blow the ratio up.
fn sample_err_pct(sampled: &RunResult, full: &RunResult) -> f64 {
    let rel = |est: f64, act: f64, floor: f64| {
        if (est - act).abs() <= floor {
            0.0
        } else {
            100.0 * (est - act).abs() / act.abs().max(floor)
        }
    };
    rel(sampled.translation_cycles, full.translation_cycles, 2_000.0).max(rel(
        sampled.overhead,
        full.overhead,
        0.002,
    ))
}

/// The par metrics of a grid workload, from each cell run alone and the
/// grid run on the pool `run_grid` uses.
struct Par {
    efficiency: f64,
    tail_s: f64,
    steals: u64,
    /// Serial wall time of the cells the traced run re-drives.
    traced_cells_wall: f64,
}

fn run_cell(cell: &Cell) -> Result<RunResult, String> {
    match cell.chaos {
        Some(spec) => Simulation::run_chaos(&cell.cfg, MmuConfig::default(), None, spec),
        None => Simulation::run(&cell.cfg),
    }
    .map_err(|e| e.to_string())
}

fn par_metrics(w: &Workload, jobs: NonZeroUsize, u: &mut Untraced, rep: &mut Report) -> Par {
    let mut serial = 0.0;
    let mut traced_cells_wall = 0.0;
    for (ci, cell) in w.cells.iter().enumerate() {
        let t = Instant::now();
        let run = run_cell(cell);
        let wall = t.elapsed().as_secs_f64();
        serial += wall;
        if cell.chaos.is_none() {
            traced_cells_wall += wall;
        }
        rep.check(cell, run.as_ref(), &mut u.digests[ci]);
    }
    let origin = Instant::now();
    let (out, stats) = mv_par::par_map_with_stats(jobs, &w.cells, |_, cell| {
        let run = run_cell(cell);
        (
            run,
            origin.elapsed().as_secs_f64(),
            std::thread::current().id(),
        )
    });
    let grid_wall = origin.elapsed().as_secs_f64();
    let mut last_end = HashMap::new();
    for (ci, job) in out.into_iter().enumerate() {
        let run = match job {
            Ok((run, end, worker)) => {
                let last = last_end.entry(worker).or_insert(0.0f64);
                *last = last.max(end);
                run
            }
            Err(panic) => Err(panic.to_string()),
        };
        rep.check(&w.cells[ci], run.as_ref(), &mut u.digests[ci]);
    }
    // The tail: from the first worker running dry to the grid's end.
    let first_idle = last_end.values().copied().fold(grid_wall, f64::min);
    Par {
        efficiency: ratio(serial, jobs.get() as f64 * grid_wall),
        tail_s: grid_wall - first_idle,
        steals: stats.total_steals(),
        traced_cells_wall,
    }
}

/// Re-drives every cell under the tracer (chaos cells excepted: fault
/// injection has no public per-call hook), checks each digest against the
/// untraced runs, and fills the per-layer metrics and the ledger.
fn traced_run(w: &Workload, mut u: Untraced, samples: Option<Samples>, rep: &mut Report) {
    let par = match w.shape {
        Shape::Grid(jobs) => Some(par_metrics(w, jobs, &mut u, rep)),
        _ => None,
    };
    let spec = match w.shape {
        Shape::Sampled(spec) => Some(spec),
        _ => None,
    };
    let mut tr = Tracer::calibrated();
    let mut counters = MmuCounters::default();
    let (mut vm_exits, mut driven) = (0u64, 0u64);
    let start = Instant::now();
    for (ci, cell) in w.cells.iter().enumerate() {
        if cell.chaos.is_some() {
            continue;
        }
        rep.attempted += 1;
        match traced::drive(&cell.cfg, spec, &mut tr) {
            Ok(d) => {
                rep.expect_digest(cell, d, &mut u.digests[ci], "tracing");
                counters.merge(&d.counters);
                vm_exits += d.vm_exits;
                driven += cell.cfg.warmup + cell.cfg.accesses;
            }
            Err(e) => rep.fail(format!("{}: traced run failed: {e}", cell.id)),
        }
    }
    let traced_wall_s = start.elapsed().as_secs_f64();
    tr.recalibrate();
    let ledger = Ledger {
        traced_wall_s,
        untraced_wall_s: match &par {
            Some(p) => p.traced_cells_wall,
            None => median(&u.walls),
        },
        terms: Kind::ALL
            .iter()
            .filter(|&&k| tr.count(k) > 0)
            .map(|&k| LedgerTerm {
                name: k.name(),
                count: tr.count(k),
                ns_per_op: tr.ns_per_op(k),
            })
            .collect(),
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let ns = |k: Kind| tr.ns_per_op(k);
    let count = |k: Kind| tr.count(k);
    let accesses = [
        Kind::L1Hit,
        Kind::L2Hit,
        Kind::Walk,
        Kind::Bypass,
        Kind::AccessFault,
    ];
    let access_self: f64 = accesses.iter().map(|&k| tr.self_ns(k)).sum();
    let access_count: u64 = accesses.iter().map(|&k| count(k)).sum();
    let per_kacc = |v: u64, of: u64| ratio(1000.0 * v as f64, of as f64);
    let c = &counters;
    m.insert("workloads.next_access_ns", ns(Kind::NextAccess));
    m.insert("core.access_ns", ratio(access_self, access_count as f64));
    m.insert("core.l1_hit_ns", ns(Kind::L1Hit));
    m.insert("core.l2_hit_ns", ns(Kind::L2Hit));
    m.insert("core.walk_ns", ns(Kind::Walk));
    m.insert("core.bypass_ns", ns(Kind::Bypass));
    m.insert("core.functional_ns", ns(Kind::Functional));
    m.insert("core.warm_ns", ns(Kind::Warm));
    m.insert("core.l1_miss_per_kacc", per_kacc(c.l1_misses, c.accesses));
    m.insert("core.walks_per_kacc", per_kacc(c.walks(), c.accesses));
    m.insert(
        "core.refs_per_walk",
        ratio(c.walk_refs() as f64, c.walks() as f64),
    );
    let l1_misses = count(Kind::L2Hit) + count(Kind::Walk) + count(Kind::Bypass);
    m.insert(
        "core.l2_hit_ratio",
        ratio(count(Kind::L2Hit) as f64, l1_misses as f64),
    );
    m.insert("sim.ctx_ns", ns(Kind::Ctx));
    m.insert("sim.fault_ns.guest", ns(Kind::FaultGuest));
    m.insert("sim.fault_ns.nested", ns(Kind::FaultNested));
    m.insert("sim.fault_ns.mid", ns(Kind::FaultMid));
    m.insert("sim.fault_ns.prot", ns(Kind::FaultProt));
    let faults = c.guest_faults + c.nested_faults + c.mid_faults + c.prot_faults;
    m.insert("sim.faults_per_kacc", per_kacc(faults, c.accesses));
    m.insert("sim.churn_ns", ns(Kind::Churn));
    m.insert("sim.churn_per_kacc", per_kacc(count(Kind::Churn), driven));
    m.insert("sim.vm_exits_per_kacc", per_kacc(vm_exits, c.accesses));
    m.insert(
        "sim.driver_self_ns",
        ratio(tr.self_ns(Kind::Batch), driven as f64),
    );
    if let Some(s) = &samples {
        m.insert("sim.sample_err_pct", s.worst_err_pct);
        for (cell, speedup) in w.cells.iter().zip(&s.speedups) {
            let name = PER_LAYER
                .iter()
                .map(|p| p.0)
                .find(|n| n.strip_prefix("sim.sample_speedup.") == Some(cell.id.as_str()))
                .expect("every sampled cell has a speed-up metric");
            m.insert(name, *speedup);
        }
    }
    if let Some(p) = &par {
        m.insert("par.efficiency", p.efficiency);
        m.insert("par.tail_s", p.tail_s);
        m.insert("par.steals", p.steals as f64);
    }
    m.insert("ledger.residual_pct", ledger.residual_pct());
    m.insert(
        "ledger.trace_overhead_ratio",
        ratio(ledger.traced_wall_s, ledger.untraced_wall_s),
    );
    debug_assert!(m.keys().all(|k| PER_LAYER.iter().any(|p| p.0 == *k)));
    rep.per_layer = PER_LAYER
        .iter()
        .map(|p| m.get(p.0).copied().unwrap_or(0.0))
        .collect();
    rep.trace_jsonl = Some(tr.jsonl());
    rep.ledger = Some(ledger);
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a, for a short printable digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workloads_run_clean_and_report_every_layer() {
        let plan = Plan {
            seconds: 0.0,
            min_repeats: 1,
            setup_slice_s: 0.0,
            trace: true,
            sample_bound: false,
        };
        for name in ["churn-shadow", "sampled-mix"] {
            let w = crate::suite::workload(name, 42, true).expect("known workload");
            let rep = run(&w, &plan);
            assert_eq!(rep.failures, Vec::<String>::new(), "{name}");
            assert_eq!(rep.per_layer.len(), PER_LAYER.len());
            let layer = |n: &str| rep.per_layer[PER_LAYER.iter().position(|p| p.0 == n).expect(n)];
            assert!(layer("core.access_ns") > 0.0, "{name}");
            assert!(layer("sim.vm_exits_per_kacc") > 0.0, "{name}");
            assert!(rep
                .trace_jsonl
                .as_deref()
                .is_some_and(|t| t.contains("core.access.l1_hit")));
            assert!(rep.end_to_end.iter().all(|s| s.median > 0.0), "{name}");
        }
    }

    #[test]
    fn ledger_residual_is_the_unaccounted_share() {
        let ledger = Ledger {
            traced_wall_s: 3.0,
            untraced_wall_s: 2.0,
            terms: vec![LedgerTerm {
                name: "core.access.walk",
                count: 1_000_000,
                ns_per_op: 1_500.0,
            }],
        };
        assert!((ledger.predicted_s() - 1.5).abs() < 1e-12);
        assert!((ledger.residual_pct() - 25.0).abs() < 1e-9);
    }
}
