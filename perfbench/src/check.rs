//! Output checks. A cell fails if it panics, hits the cycle limit, or
//! commits a different number of instructions than the functional
//! emulator executes for the same (program, seed, scale). Traced cells
//! also fail if instrumentation or a cache round-trip changes their
//! statistics, and probed cells if their stall stack breaks
//! conservation.

use std::collections::HashMap;
use std::fmt;

use pp_core::{SimStats, StallStack};
use pp_func::Emulator;
use pp_sweep::SweepCell;
use pp_workloads::Workload;

/// Functional step budget for the reference run.
const REFERENCE_STEP_LIMIT: u64 = 20_000_000_000;

#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    Panic(String),
    CycleLimit,
    Committed {
        got: u64,
        want: u64,
    },
    StallConservation {
        charged: u64,
        offered: u64,
        commit_slots: u64,
        committed: u64,
    },
    InstrumentedDiffers,
    ReloadDiffers,
    NotCached,
    Nondeterministic,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Panic(m) => write!(f, "panicked: {}", m.lines().next().unwrap_or("")),
            Fault::CycleLimit => write!(f, "hit the cycle limit"),
            Fault::Committed { got, want } => {
                write!(f, "committed {got} instructions, the functional emulator executed {want}")
            }
            Fault::StallConservation { charged, offered, commit_slots, committed } => write!(
                f,
                "stall stack charged {charged} of {offered} slots, {commit_slots} commit slots for {committed} commits"
            ),
            Fault::InstrumentedDiffers => write!(f, "instrumented SimStats differ from the plain run's"),
            Fault::ReloadDiffers => write!(f, "SimStats reloaded from the cache differ from the simulated ones"),
            Fault::NotCached => write!(f, "a cell just written was not served from the cache"),
            Fault::Nondeterministic => write!(f, "SimStats differ between passes of the same seed"),
        }
    }
}

/// Dynamic instruction counts from the functional emulator, per
/// (program, seed, scale).
#[derive(Debug, Default)]
pub struct Reference(HashMap<(Workload, Option<u64>, u64), u64>);

impl Reference {
    /// `true` once `cell`'s program has a reference count.
    pub fn has(&self, cell: &SweepCell) -> bool {
        self.0.contains_key(&key(cell))
    }

    /// Run `program`, built for `cell`, on the functional emulator and
    /// keep its dynamic instruction count.
    pub fn add(&mut self, cell: &SweepCell, program: &pp_isa::Program) {
        let summary = Emulator::new(program)
            .run(REFERENCE_STEP_LIMIT)
            .expect("the reference program halts");
        self.0.insert(key(cell), summary.instructions);
    }

    /// Total reference instructions over the distinct programs.
    pub fn instructions(&self) -> u64 {
        self.0.values().sum()
    }

    /// Check one simulated cell against the reference.
    pub fn check(&self, cell: &SweepCell, stats: &SimStats) -> Result<(), Fault> {
        if stats.hit_cycle_limit {
            return Err(Fault::CycleLimit);
        }
        let want = self.0[&key(cell)];
        if stats.committed_instructions != want {
            return Err(Fault::Committed {
                got: stats.committed_instructions,
                want,
            });
        }
        Ok(())
    }
}

fn key(c: &SweepCell) -> (Workload, Option<u64>, u64) {
    (c.workload, c.seed, c.scale)
}

/// The stall stack's conservation law: every commit slot of every cycle
/// is charged once, and commit slots equal commits.
pub fn check_stall(stats: &SimStats, st: &StallStack, width: u64) -> Result<(), Fault> {
    if st.total_slots() == stats.cycles * width && st.commit_slots == stats.committed_instructions {
        Ok(())
    } else {
        Err(Fault::StallConservation {
            charged: st.total_slots(),
            offered: stats.cycles * width,
            commit_slots: st.commit_slots,
            committed: stats.committed_instructions,
        })
    }
}

/// Attempted and failed cells of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one cell; report its fault, if any, on stderr.
    pub fn cell(&mut self, cell: &SweepCell, outcome: Result<(), Fault>) {
        self.attempted += 1;
        if let Err(fault) = outcome {
            self.failed += 1;
            eprintln!(
                "perfbench: cell {} [{}] FAILED: {fault}",
                cell.label(),
                cell.config_summary()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::{SimConfig, Simulator};

    fn cell() -> SweepCell {
        SweepCell {
            workload: Workload::Compress,
            seed: Some(7),
            scale: 40,
            config: SimConfig::baseline(),
        }
    }

    fn build(c: &SweepCell) -> pp_isa::Program {
        c.workload.build_seeded(c.scale, c.seed.expect("seeded"))
    }

    #[test]
    fn a_committed_count_off_by_one_is_rejected() {
        let c = cell();
        let mut reference = Reference::default();
        reference.add(&c, &build(&c));
        let mut stats = Simulator::new(&build(&c), c.config.clone()).run();
        assert_eq!(reference.check(&c, &stats), Ok(()));
        stats.committed_instructions += 1;
        assert!(matches!(
            reference.check(&c, &stats),
            Err(Fault::Committed { .. })
        ));
        stats.committed_instructions -= 2;
        assert!(matches!(
            reference.check(&c, &stats),
            Err(Fault::Committed { .. })
        ));
        stats.committed_instructions += 1;
        stats.hit_cycle_limit = true;
        assert_eq!(reference.check(&c, &stats), Err(Fault::CycleLimit));
    }

    #[test]
    fn a_broken_stall_stack_is_rejected() {
        let c = cell();
        let mut sim = Simulator::new(&build(&c), c.config.clone());
        sim.enable_stall_accounting();
        let stats = sim.run();
        let width = c.config.commit_width as u64;
        let st = *sim.stall_stack().expect("accounting on");
        assert_eq!(check_stall(&stats, &st, width), Ok(()));
        let mut lost = st;
        lost.window_full += 1;
        assert!(check_stall(&stats, &lost, width).is_err());
        let mut moved = st;
        moved.commit_slots -= 1;
        moved.window_full += 1;
        assert!(check_stall(&stats, &moved, width).is_err());
    }
}
