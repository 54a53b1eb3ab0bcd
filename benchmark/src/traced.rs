//! The traced driver: re-drives one configuration through the public
//! `Machine` and `Mmu` calls, in the order the simulator's own driver makes
//! them, with one span around each call.
//!
//! The order is warmup reset, then the churn check, then a batch that
//! borrows one memory context for as many accesses as it can, then the
//! fault-retry loop; sampled runs switch fidelity on the sampling schedule.
//! Any drift from the simulator's driver shows as a counter digest that no
//! longer equals the untraced run's, which fails the workload.

use mv_core::{HitPath, MemoryContext, Mmu, MmuConfig, MmuCounters, TranslationFault};
use mv_sim::machine::L2Machine;
use mv_sim::{
    Env, FaultService, Machine, NativeMachine, SampleSpec, ShadowMachine, SimConfig,
    VirtualizedMachine,
};
use mv_types::Gva;
use mv_workloads::Workload;

use crate::spans::{Kind, Tracer};

/// Fault retries allowed per access, as in the simulator's driver.
const MAX_FAULTS_PER_ACCESS: u32 = 64;

/// What a run must reproduce exactly: its counters over the measured
/// window (scaled estimates for a sampled run) and its VM exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub counters: MmuCounters,
    pub vm_exits: u64,
}

/// Runs `cfg` (sampled on `sample`, if given) under the tracer.
pub fn drive(
    cfg: &SimConfig,
    sample: Option<SampleSpec>,
    tr: &mut Tracer,
) -> Result<Digest, String> {
    match cfg.env {
        Env::Native { .. } => drive_on::<NativeMachine>(cfg, sample, tr),
        Env::Virtualized { .. } => drive_on::<VirtualizedMachine>(cfg, sample, tr),
        Env::Shadow { .. } => drive_on::<ShadowMachine>(cfg, sample, tr),
        Env::L2 { .. } => drive_on::<L2Machine>(cfg, sample, tr),
    }
}

/// Fidelity of one span of accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Detailed,
    Warm,
    Functional,
}

/// The phase at offset `off` into the measured region and the offset at
/// which it ends: each interval opens with the detailed window and closes
/// with the re-warm tail, with functional accesses between.
fn phase_at(spec: &SampleSpec, off: u64) -> (Phase, u64) {
    let p = off % spec.interval;
    let start = off - p;
    if p < spec.window {
        (Phase::Detailed, start + spec.window)
    } else if p >= spec.interval - spec.warmup {
        (Phase::Warm, start + spec.interval)
    } else {
        (Phase::Functional, start + spec.interval - spec.warmup)
    }
}

/// Churn events fall every `interval` accesses, never at access 0.
struct Churn {
    interval: u64,
}

impl Churn {
    fn new(per_million: u64) -> Churn {
        Churn {
            interval: 1_000_000u64
                .checked_div(per_million)
                .map_or(0, |i| i.max(1)),
        }
    }

    fn due(&self, i: u64) -> bool {
        self.interval > 0 && i % self.interval == 0 && i > 0
    }

    fn next_due(&self, i: u64) -> u64 {
        i.checked_div(self.interval)
            .map_or(u64::MAX, |q| (q + 1) * self.interval)
    }
}

fn drive_on<M: Machine>(
    cfg: &SimConfig,
    sample: Option<SampleSpec>,
    tr: &mut Tracer,
) -> Result<Digest, String> {
    tr.start();
    let built = M::build(cfg, MmuConfig::default());
    tr.finish(Kind::Build);
    let (mut machine, mut mmu) = built.map_err(|e| e.to_string())?;
    let mut workload = cfg.workload.build(cfg.footprint, cfg.seed);
    let churn = Churn::new(workload.churn_per_million());
    let (base, asid) = (machine.arena_base(), machine.asid());
    let total = cfg.warmup + cfg.accesses;
    let mut i = 0u64;
    while i < total {
        if i == cfg.warmup {
            mmu.reset_counters();
            tr.start();
            machine.window_open();
            tr.finish(Kind::WindowOpen);
        }
        if churn.due(i) {
            tr.start();
            let churned = machine.churn_event(&mut mmu);
            tr.finish(Kind::Churn);
            churned.map_err(|e| e.to_string())?;
        }
        let (phase, phase_end) = match sample {
            _ if i < cfg.warmup => (Phase::Detailed, cfg.warmup),
            Some(spec) => {
                let (phase, end) = phase_at(&spec, i - cfg.warmup);
                (phase, cfg.warmup + end)
            }
            None => (Phase::Detailed, total),
        };
        let end = phase_end.min(total).min(churn.next_due(i));
        tr.start();
        let ran = batch(
            &mut machine,
            &mut mmu,
            workload.as_mut(),
            (base, asid),
            phase,
            i..end,
            tr,
        );
        tr.finish(Kind::Batch);
        ran?;
        i = end;
    }
    let vm_exits = machine.exit_stats().vm_exits;
    let counters = match sample {
        Some(_) => mmu.counters().scaled(cfg.accesses, mmu.counters().accesses),
        None => *mmu.counters(),
    };
    tr.start();
    drop((machine, mmu, workload));
    tr.finish(Kind::Teardown);
    Ok(Digest { counters, vm_exits })
}

/// Accesses `range` at one fidelity: one context borrow until a fault,
/// then service and retry with a fresh context.
fn batch<M: Machine>(
    machine: &mut M,
    mmu: &mut Mmu,
    workload: &mut dyn Workload,
    (base, asid): (u64, u16),
    phase: Phase,
    range: std::ops::Range<u64>,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut i = range.start;
    while i < range.end {
        tr.start();
        let ctx = machine.ctx();
        tr.finish(Kind::Ctx);
        let mut faulted = None;
        while i < range.end {
            tr.start();
            let acc = workload.next_access();
            tr.finish(Kind::NextAccess);
            let va = Gva::new(base + acc.offset);
            match access(mmu, &ctx, asid, va, acc.write, phase, tr) {
                Ok(()) => i += 1,
                Err(fault) => {
                    faulted = Some((va, acc.write, fault));
                    break;
                }
            }
        }
        let Some((va, write, mut fault)) = faulted else {
            continue;
        };
        let mut tries = 0u32;
        loop {
            tr.start();
            let serviced = machine.service_fault(fault);
            tr.finish(fault_kind(fault));
            let serviced = serviced.map_err(|e| e.to_string())?;
            tries += 1;
            if serviced == FaultService::Unserviceable || tries > MAX_FAULTS_PER_ACCESS {
                return Err(format!(
                    "access at {:#x} kept faulting: {fault}",
                    va.as_u64()
                ));
            }
            tr.start();
            let ctx = machine.ctx();
            tr.finish(Kind::Ctx);
            match access(mmu, &ctx, asid, va, write, phase, tr) {
                Ok(()) => break,
                Err(f) => fault = f,
            }
        }
        i += 1;
    }
    Ok(())
}

fn access(
    mmu: &mut Mmu,
    ctx: &MemoryContext<'_>,
    asid: u16,
    va: Gva,
    write: bool,
    phase: Phase,
    tr: &mut Tracer,
) -> Result<(), TranslationFault> {
    tr.start();
    let (result, kind) = match phase {
        Phase::Detailed => match mmu.access(ctx, asid, va, write) {
            Ok(outcome) => (Ok(()), path_kind(outcome.path)),
            Err(fault) => (Err(fault), Kind::AccessFault),
        },
        Phase::Warm => (mmu.access_warm(ctx, asid, va, write).map(drop), Kind::Warm),
        Phase::Functional => (
            mmu.access_functional(ctx, asid, va, write).map(drop),
            Kind::Functional,
        ),
    };
    tr.finish(kind);
    result
}

fn path_kind(path: HitPath) -> Kind {
    match path {
        HitPath::L1Hit => Kind::L1Hit,
        HitPath::L2Hit => Kind::L2Hit,
        HitPath::PageWalk => Kind::Walk,
        HitPath::SegmentBypass => Kind::Bypass,
    }
}

fn fault_kind(fault: TranslationFault) -> Kind {
    match fault {
        TranslationFault::GuestNotMapped { .. } => Kind::FaultGuest,
        TranslationFault::NestedNotMapped { .. } => Kind::FaultNested,
        TranslationFault::MidNotMapped { .. } => Kind::FaultMid,
        TranslationFault::WriteProtected { .. } => Kind::FaultProt,
        _ => Kind::FaultOther,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_core::MmuConfig;
    use mv_sim::Simulation;
    use mv_types::{PageSize, MIB};
    use mv_workloads::WorkloadKind;

    fn cfg(workload: WorkloadKind, env: Env) -> SimConfig {
        SimConfig {
            workload,
            footprint: 8 * MIB,
            guest_paging: mv_sim::GuestPaging::Fixed(PageSize::Size4K),
            env,
            accesses: 30_000,
            warmup: 5_000,
            seed: 3,
        }
    }

    #[test]
    fn traced_drive_reproduces_the_simulator() {
        let envs = [
            Env::native(),
            Env::base_virtualized(PageSize::Size4K),
            Env::dual_direct(),
            Env::Shadow {
                nested: PageSize::Size2M,
            },
            Env::l2(false, false, false),
            Env::l2_shadow(),
        ];
        let mut tr = Tracer::calibrated();
        for w in [WorkloadKind::Gups, WorkloadKind::Memcached] {
            for env in envs {
                let c = cfg(w, env);
                let run = Simulation::run(&c).expect("simulates");
                let traced = drive(&c, None, &mut tr).expect("traces");
                assert_eq!(traced.counters, run.counters, "{w:?} {env:?}");
                assert_eq!(traced.vm_exits, run.vm_exits, "{w:?} {env:?}");
            }
        }
        assert!(tr.count(Kind::Walk) > 0 && tr.count(Kind::Bypass) > 0);
    }

    #[test]
    fn traced_sampled_drive_reproduces_run_sampled() {
        let spec = SampleSpec {
            window: 200,
            interval: 4_000,
            warmup: 50,
        };
        let mut tr = Tracer::calibrated();
        for env in [
            Env::guest_direct(PageSize::Size4K),
            Env::Shadow {
                nested: PageSize::Size4K,
            },
        ] {
            let c = cfg(WorkloadKind::Memcached, env);
            let run =
                Simulation::run_sampled(&c, MmuConfig::default(), None, spec).expect("samples");
            let traced = drive(&c, Some(spec), &mut tr).expect("traces");
            assert_eq!(traced.counters, run.counters, "{env:?}");
            assert_eq!(traced.vm_exits, run.vm_exits, "{env:?}");
        }
        assert!(tr.count(Kind::Functional) > 0 && tr.count(Kind::Warm) > 0);
    }

    #[test]
    fn churn_schedule_skips_access_zero() {
        let c = Churn::new(45_000);
        assert_eq!(c.interval, 22);
        assert!(!c.due(0) && c.due(22) && !c.due(23));
        assert_eq!(c.next_due(0), 22);
        assert_eq!(c.next_due(22), 44);
        assert_eq!(Churn::new(0).next_due(5), u64::MAX);
    }
}
