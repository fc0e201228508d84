//! One pass over a workload's grid, plain or traced, and the set-up
//! and probes around it. Every pass is single-threaded: the sweep engine
//! runs with one worker, so scheduler tail imbalance never reaches the
//! wall time.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use pp_core::{SimStats, Simulator, StallStack, DEFAULT_FLIGHT_DEPTH};
use pp_isa::Program;
use pp_sweep::{payload_message, CellResult, ResultStore, SweepCell, SweepEngine};
use pp_telemetry::TelemetryObserver;

use crate::check::{check_stall, Fault, Reference, Tally};
use crate::grid::{experiment, Kind};
use crate::spans::Tracer;

/// The grid and its programs' reference counts.
pub struct Setup {
    pub cells: Vec<SweepCell>,
    pub reference: Reference,
    pub times: SetupTimes,
}

/// How long each set-up step took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub grid: Duration,
    pub build: Duration,
    pub reference_run: Duration,
}

/// Build the grid, then build and run on the functional emulator every
/// distinct (program, seed, scale) in it.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let t = Instant::now();
    let cells = kind.grid(seed);
    let grid = t.elapsed();
    let (mut build, mut reference_run) = (Duration::ZERO, Duration::ZERO);
    let mut reference = Reference::default();
    for cell in &cells {
        if reference.has(cell) {
            continue;
        }
        let t = Instant::now();
        let p = program(cell);
        build += t.elapsed();
        let t = Instant::now();
        reference.add(cell, &p);
        reference_run += t.elapsed();
    }
    Setup {
        cells,
        reference,
        times: SetupTimes {
            grid,
            build,
            reference_run,
        },
    }
}

fn program(cell: &SweepCell) -> Program {
    let seed = cell.seed.expect("benchmark cells are seeded");
    cell.workload.build_seeded(cell.scale, seed)
}

/// A simulator with the observer layers attached, as `sweep run
/// stallstack` and `--telemetry-out` run it: stall accounting,
/// self-profiling and a default telemetry observer.
fn observed_sim(program: &Program, cell: &SweepCell) -> Simulator {
    let mut sim = Simulator::new(program, cell.config.clone());
    sim.enable_stall_accounting();
    sim.enable_self_profiling();
    sim.set_observer(Box::new(TelemetryObserver::new()));
    sim
}

/// Detach and seal the telemetry observer (callers time its drop with
/// it: releasing the recorded trace is part of the observer's cost).
fn seal(sim: &mut Simulator) -> Box<TelemetryObserver> {
    let mut tel = TelemetryObserver::from_box(sim.take_observer().expect("observer attached"))
        .expect("a TelemetryObserver was attached");
    tel.seal();
    tel
}

fn run_caught(sim: &mut Simulator) -> Result<SimStats, Fault> {
    catch_unwind(AssertUnwindSafe(|| sim.run()))
        .map_err(|p| Fault::Panic(payload_message(p.as_ref())))
}

/// The stall stack of an observed run and its commit width.
fn stall(sim: &Simulator) -> (StallStack, u64) {
    (
        *sim.stall_stack().expect("accounting on"),
        sim.config().commit_width as u64,
    )
}

/// Per-cell outcome of a pass: the first fault found wins.
struct Outcomes(Vec<Option<Fault>>);

impl Outcomes {
    fn new(n: usize) -> Self {
        Outcomes(vec![None; n])
    }

    fn note(&mut self, i: usize, outcome: Result<(), Fault>) {
        if let Err(f) = outcome {
            self.0[i].get_or_insert(f);
        }
    }

    fn tally(self, cells: &[SweepCell], tally: &mut Tally) {
        for (cell, fault) in cells.iter().zip(self.0) {
            tally.cell(cell, fault.map_or(Ok(()), Err));
        }
    }
}

/// What an untraced pass measured.
pub struct Plain {
    pub wall: Duration,
    /// Host time inside the simulate calls.
    pub sim: Duration,
    pub committed: u64,
    /// Per-cell stats in grid order; `None` where the cell failed.
    pub stats: Vec<Option<SimStats>>,
    /// Per-cell host seconds inside the simulate call, in grid order (0
    /// where the cell failed).
    pub cell_secs: Vec<f64>,
    /// Sweep-engine wall not spent simulating.
    pub engine_overhead: Duration,
}

/// One pass as a user runs it, `sweep run` on a cold cache: the engine
/// simulates the grid, then each further experiment on the same grid is
/// served from the cache. `first` holds the first pass's stats: every
/// later pass on the same seed must reproduce them.
pub fn plain_pass(
    kind: Kind,
    setup: &Setup,
    dir: &Path,
    first: Option<&[Option<SimStats>]>,
    tally: &mut Tally,
) -> Plain {
    fresh_dir(dir);
    let cells = &setup.cells;
    let engine = SweepEngine::new().with_workers(1).with_cache(dir);
    let start = Instant::now();
    let report = engine.run(cells);
    let mut engine_wall = start.elapsed();
    if report.all_completed() {
        for (i, name) in kind.renders().iter().enumerate() {
            let results = if i == 0 {
                report.completed_owned()
            } else {
                let t = Instant::now();
                let again = engine.run(cells);
                engine_wall += t.elapsed();
                again.completed_owned()
            };
            black_box(experiment(name).render(&results));
        }
    }
    let wall = start.elapsed();
    std::fs::remove_dir_all(dir).ok();

    let mut out = Outcomes::new(cells.len());
    for e in &report.errors {
        out.note(
            e.index,
            Err(match &e.kind {
                pp_sweep::CellErrorKind::CycleLimit { .. } => Fault::CycleLimit,
                pp_sweep::CellErrorKind::Panic(m) => Fault::Panic(m.clone()),
            }),
        );
    }
    let mut pass = Plain {
        wall,
        sim: Duration::ZERO,
        committed: 0,
        stats: vec![None; cells.len()],
        cell_secs: vec![0.0; cells.len()],
        engine_overhead: Duration::ZERO,
    };
    for r in report.results.into_iter().flatten() {
        out.note(r.index, setup.reference.check(&r.cell, &r.stats));
        if first.is_some_and(|f| f[r.index].as_ref() != Some(&r.stats)) {
            out.note(r.index, Err(Fault::Nondeterministic));
        }
        pass.sim += r.wall;
        pass.committed += r.stats.committed_instructions;
        pass.cell_secs[r.index] = r.wall.as_secs_f64();
        pass.stats[r.index] = Some(r.stats);
    }
    pass.engine_overhead = engine_wall.saturating_sub(pass.sim);
    out.tally(cells, tally);
    pass
}

/// What a traced pass measured; its spans are in the tracer.
pub struct Traced {
    /// Start and end of the pass, as offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
    pub stats: Vec<Option<SimStats>>,
    pub merge_forks: u64,
    pub merge_parks: u64,
    pub merge_resumes: u64,
}

/// Span names of the five kernel phases, in `HostProfile::phases` order.
const PHASE_SPANS: [&str; 5] = [
    "core.fetch",
    "core.dispatch",
    "core.issue",
    "core.writeback",
    "core.commit",
];

/// The pass again, with each layer call made from here under a span:
/// the sweep engine's per-cell steps (fingerprint, cache lookup, build,
/// simulate, cache write) for every cell, the cache reads the engine
/// makes for each further experiment, and the renders. Kernel phase
/// times come from self-profiling, which is on in every traced cell.
/// A cell fails if its stats differ from the plain pass's (`plain`) or
/// if what the cache hands back differs from what was simulated.
pub fn traced_pass(
    kind: Kind,
    setup: &Setup,
    dir: &Path,
    plain: &[Option<SimStats>],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Traced {
    fresh_dir(dir);
    let cells = &setup.cells;
    let store = ResultStore::new(dir);
    let mut out = Outcomes::new(cells.len());
    let mut pass = Traced {
        start: Duration::ZERO,
        end: Duration::ZERO,
        stats: vec![None; cells.len()],
        merge_forks: 0,
        merge_parks: 0,
        merge_resumes: 0,
    };
    pass.start = tracer.now();
    for (i, cell) in cells.iter().enumerate() {
        let at = Some(i);
        let span = tracer.enter("cell", at);
        black_box(tracer.time("sweep.fingerprint", at, || cell.fingerprint()));
        black_box(tracer.time("sweep.cache_lookup", at, || store.load(cell)));
        let p = tracer.time("workloads.build", at, || program(cell));
        let mut sim = tracer.time("core.new", at, || {
            let mut sim = Simulator::new(&p, cell.config.clone());
            sim.enable_flight_recorder(DEFAULT_FLIGHT_DEPTH);
            sim.enable_self_profiling();
            sim
        });
        let run_span = tracer.enter("core.run", at);
        let run = run_caught(&mut sim);
        tracer.exit(run_span);
        let stats = match run {
            Ok(s) => s,
            Err(f) => {
                out.note(i, Err(f));
                tracer.exit(span);
                continue;
            }
        };
        let profile = sim.host_profile().expect("self-profiling on");
        let phases: Vec<(&'static str, Duration)> = PHASE_SPANS
            .iter()
            .zip(profile.phases())
            .map(|(&name, (label, d))| {
                debug_assert_eq!(name, format!("core.{label}"));
                (name, d)
            })
            .collect();
        tracer.add_children(run_span, &phases);
        let ms = *sim.merge_stats();
        pass.merge_forks += ms.forks_tracked;
        pass.merge_parks += ms.parks;
        pass.merge_resumes += ms.resumes;
        let mut outcome = setup.reference.check(cell, &stats);
        if plain[i].as_ref().is_some_and(|p| *p != stats) {
            outcome = outcome.and(Err(Fault::InstrumentedDiffers));
        }
        out.note(i, outcome);
        tracer
            .time("sweep.cache_write", at, || store.save(cell, &stats))
            .expect("the cache directory is writable");
        pass.stats[i] = Some(stats);
        tracer.time("core.drop", at, || drop(sim));
        tracer.exit(span);
    }

    // The first render takes the simulated results, each further one a
    // fresh cache read of the grid, as `sweep run` does; with no render,
    // one cache read checks the round-trip.
    let renders = kind.renders();
    let mut results: Vec<CellResult> = pass
        .stats
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.clone().map(|stats| result(i, &cells[i], stats)))
        .collect();
    for (k, name) in renders.iter().enumerate() {
        if k > 0 {
            results = reload(cells, &pass.stats, &store, tracer, &mut out);
        }
        if results.len() == cells.len() {
            let exp = experiment(name);
            black_box(tracer.time("experiments.render", None, || exp.render(&results)));
        }
    }
    if renders.is_empty() {
        reload(cells, &pass.stats, &store, tracer, &mut out);
    }
    pass.end = tracer.now();
    out.tally(cells, tally);
    pass
}

/// Read every simulated cell back from the cache.
fn reload(
    cells: &[SweepCell],
    simulated: &[Option<SimStats>],
    store: &ResultStore,
    tracer: &mut Tracer,
    out: &mut Outcomes,
) -> Vec<CellResult> {
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let Some(simulated) = &simulated[i] else {
            continue;
        };
        match tracer.time("sweep.cache_read", Some(i), || store.load(cell)) {
            Some(s) if s == *simulated => results.push(result(i, cell, s)),
            Some(_) => out.note(i, Err(Fault::ReloadDiffers)),
            None => out.note(i, Err(Fault::NotCached)),
        }
    }
    results
}

/// A completed cell as the sweep engine reports it.
pub fn result(index: usize, cell: &SweepCell, stats: SimStats) -> CellResult {
    CellResult {
        index,
        cell: cell.clone(),
        stats,
        cached: false,
        wall: Duration::ZERO,
    }
}

/// Host time of one cell run plain, with self-profiling only, and with
/// the observer layers (plus sealing the observer).
#[derive(Default)]
pub struct Probe {
    pub plain: Duration,
    pub selfprof: Duration,
    pub observed: Duration,
    pub seal: Duration,
}

/// Run each headline-config cell three ways and time the
/// instrumentation: plain, with self-profiling only, and with the
/// observer layers. A cell fails if an instrumented run's stats differ
/// from the plain run's or its stall stack breaks conservation.
pub fn probe(kind: Kind, setup: &Setup, tally: &mut Tally) -> Probe {
    let headline = kind.headline();
    let mut probe = Probe::default();
    let picked: Vec<SweepCell> = setup
        .cells
        .iter()
        .filter(|c| c.config == headline)
        .cloned()
        .collect();
    let mut out = Outcomes::new(picked.len());
    for (i, cell) in picked.iter().enumerate() {
        let p = program(cell);
        let timed = |sim: &mut Simulator| {
            let t = Instant::now();
            let r = run_caught(sim);
            (r, t.elapsed())
        };
        let mut plain_sim = Simulator::new(&p, cell.config.clone());
        let (plain, t_plain) = timed(&mut plain_sim);
        let mut sp_sim = Simulator::new(&p, cell.config.clone());
        sp_sim.enable_self_profiling();
        let (sp, t_sp) = timed(&mut sp_sim);
        let mut obs_sim = observed_sim(&p, cell);
        let (obs, t_obs) = timed(&mut obs_sim);
        let t = Instant::now();
        drop(black_box(seal(&mut obs_sim)));
        let t_seal = t.elapsed();
        let outcome = (|| {
            let plain = plain?;
            setup.reference.check(cell, &plain)?;
            if sp? != plain {
                return Err(Fault::InstrumentedDiffers);
            }
            let obs = obs?;
            if obs != plain {
                return Err(Fault::InstrumentedDiffers);
            }
            let (st, width) = stall(&obs_sim);
            check_stall(&obs, &st, width)
        })();
        out.note(i, outcome);
        probe.plain += t_plain;
        probe.selfprof += t_sp;
        probe.observed += t_obs;
        probe.seal += t_seal;
    }
    out.tally(&picked, tally);
    probe
}

fn fresh_dir(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("the run directory is writable");
}
