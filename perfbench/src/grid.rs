//! The benchmark workloads: which grid each runs, at what scale, and
//! which configurations its simulated headline metrics compare.

use pp_core::{MergeConfig, SimConfig, SimStats};
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{harmonic_mean, named_config, Config};
use pp_sweep::SweepCell;

/// A benchmark workload (one grid of cells; a cell is one program ×
/// config and one operation for failure counting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `fig8` grid (8 programs × the paper's 6 configs) through the
    /// sweep engine into a fresh cache, then the `fig8`/`sec51`/`sec52`
    /// renders.
    PaperCold,
    /// The `multipath_frontier` grid (monopath + the 2×2×2 policy cube)
    /// through the sweep engine into a fresh cache, unrendered.
    FrontierCold,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::PaperCold, Kind::FrontierCold];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper_cold",
            Kind::FrontierCold => "frontier_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `PP_SCALE` for this workload: sized so that one pass takes a few
    /// seconds on one core and a run holds several passes.
    pub fn scale(self) -> f64 {
        match self {
            Kind::PaperCold => 0.15,
            Kind::FrontierCold => 0.07,
        }
    }

    /// Registry experiments whose grid this workload sweeps and which it
    /// renders, in the order `sweep run` would. The first one's grid is
    /// the workload's grid. `frontier_cold` renders nothing in its timed
    /// pass: the `multipath_frontier` render re-simulates its merge
    /// telemetry at the default input, ignoring the cell seed.
    pub fn renders(self) -> &'static [&'static str] {
        match self {
            Kind::PaperCold => &["fig8", "sec51", "sec52"],
            Kind::FrontierCold => &[],
        }
    }

    /// The workload's cells at the current `PP_SCALE`, on input `seed`.
    pub fn grid(self, seed: u64) -> Vec<SweepCell> {
        let cells = match self {
            Kind::PaperCold => experiment("fig8").grid(),
            Kind::FrontierCold => experiment("multipath_frontier").grid(),
        };
        cells.into_iter().map(|c| c.with_seed(seed)).collect()
    }

    /// The configuration `ipc_hmean` reports: SEE/JRS, or SEE/JRS+merge
    /// on `frontier_cold`.
    pub fn headline(self) -> SimConfig {
        match self {
            Kind::FrontierCold => see().with_merge(MergeConfig::paper_default()),
            Kind::PaperCold => see(),
        }
    }
}

/// The registry experiment `name`.
pub fn experiment(name: &str) -> Box<dyn pp_sweep::Experiment> {
    pp_experiments::suite::find(name).unwrap_or_else(|| panic!("experiment {name} is registered"))
}

/// gshare monopath, the paper's comparator.
pub fn mono() -> SimConfig {
    named_config(Config::Monopath, BASELINE_HISTORY_BITS)
}

/// SEE with the JRS estimator, the paper's machine.
pub fn see() -> SimConfig {
    named_config(Config::SeeJrs, BASELINE_HISTORY_BITS)
}

/// Harmonic-mean IPC over the completed cells whose config is `config`
/// (0 when none completed; such a run reports failed cells anyway).
pub fn hmean_ipc(cells: &[SweepCell], stats: &[Option<SimStats>], config: &SimConfig) -> f64 {
    let ipcs: Vec<f64> = cells
        .iter()
        .zip(stats)
        .filter(|(c, _)| c.config == *config)
        .filter_map(|(_, s)| s.as_ref().map(SimStats::ipc))
        .collect();
    if ipcs.is_empty() {
        0.0
    } else {
        harmonic_mean(&ipcs)
    }
}

/// The simulated end-to-end metrics of one pass: headline hmean IPC,
/// SEE/JRS over monopath and SEE/JRS+merge over SEE/JRS (both in %,
/// `None` where the grid lacks the configs).
pub struct SimSummary {
    pub ipc_hmean: f64,
    pub see_speedup_pct: f64,
    pub merge_gain_pct: Option<f64>,
}

pub fn summarize(kind: Kind, cells: &[SweepCell], stats: &[Option<SimStats>]) -> SimSummary {
    let see_h = hmean_ipc(cells, stats, &see());
    let mono_h = hmean_ipc(cells, stats, &mono());
    let headline = hmean_ipc(cells, stats, &kind.headline());
    SimSummary {
        ipc_hmean: headline,
        see_speedup_pct: pct(see_h, mono_h),
        merge_gain_pct: (kind == Kind::FrontierCold).then(|| pct(headline, see_h)),
    }
}

fn pct(new: f64, old: f64) -> f64 {
    if old > 0.0 {
        100.0 * (new / old - 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_workloads::Workload;

    #[test]
    fn every_grid_holds_one_cell_per_program_for_each_compared_config() {
        for kind in Kind::ALL {
            let cells = kind.grid(3);
            for config in [mono(), see(), kind.headline()] {
                for w in Workload::ALL {
                    let n = cells
                        .iter()
                        .filter(|c| c.workload == w && c.config == config)
                        .count();
                    assert_eq!(n, 1, "{} {w}", kind.name());
                }
            }
        }
        assert_eq!(Kind::PaperCold.grid(3).len(), 48);
        assert_eq!(Kind::FrontierCold.grid(3).len(), 72);
    }

    #[test]
    fn the_seed_changes_the_inputs_and_nothing_else() {
        for kind in Kind::ALL {
            let (a, b) = (kind.grid(7), kind.grid(8));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.seed, y.seed), (Some(7), Some(8)));
                assert_eq!(
                    (x.workload, x.scale, &x.config),
                    (y.workload, y.scale, &y.config)
                );
            }
        }
        // In the programs, only data differs: the data segments, and
        // the immediates some programs load their generator state from.
        let mut changed = 0;
        for w in Workload::ALL {
            let (p, q) = (w.build_seeded(40, 7), w.build_seeded(40, 8));
            assert_eq!(
                (p.code.len(), p.entry, &p.labels),
                (q.code.len(), q.entry, &q.labels),
                "{w}"
            );
            for (a, b) in p.code.iter().zip(&q.code) {
                let same_shape = match (a, b) {
                    (pp_isa::Op::Li { rd: x, .. }, pp_isa::Op::Li { rd: y, .. }) => x == y,
                    _ => a == b,
                };
                assert!(same_shape, "{w}: the seed changed {a:?} into {b:?}");
            }
            assert_eq!(
                w.build_seeded(40, 7),
                p,
                "{w}: a seed gives the same program every time"
            );
            changed += usize::from(p != q);
        }
        assert_eq!(
            changed,
            Workload::ALL.len(),
            "every program's input data depends on the seed"
        );
    }
}
