//! The benchmark's workloads: fixed config lists, generated from the
//! command-line seed. Why each workload exists is in `perfbench/README.md`.

use st_bench::experiment::RunConfig;
use st_bench::workload::{StructureKind, WorkloadSpec};
use st_check::{CheckConfig, ExploreConfig, ExploreMode, Structure};
use st_reclaim::Scheme;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper list, StackTrack only, warmed predictor: HTM-bound reads.
    ListStackTrack,
    /// Write-only hash table: allocation, retirement and scans.
    HashChurn,
    /// Paper skip list with more threads than hardware contexts.
    SkiplistOversub,
    /// Bounded DFS model check with every oracle armed.
    CheckDfs,
}

/// Exploration budget of `check-dfs`: bounded DFS at a fixed decision
/// depth, preemption bound and schedule cap.
pub const CHECK_EXPLORE: ExploreConfig = ExploreConfig {
    mode: ExploreMode::Dfs {
        depth: 40,
        preemption_bound: 2,
    },
    max_schedules: 400,
};

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ListStackTrack,
        Workload::HashChurn,
        Workload::SkiplistOversub,
        Workload::CheckDfs,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ListStackTrack => "list-stacktrack",
            Workload::HashChurn => "hash-churn",
            Workload::SkiplistOversub => "skiplist-oversub",
            Workload::CheckDfs => "check-dfs",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figure-style configs run through `st_bench::experiment::run`
    /// (empty for `check-dfs`).
    pub fn figure_configs(self, seed: u64) -> Vec<RunConfig> {
        let grid = |spec: WorkloadSpec, schemes: &[Scheme], threads: &[usize], ms: u64| {
            let mut configs = Vec::new();
            for &scheme in schemes {
                for &t in threads {
                    let mut c = RunConfig::new(spec.clone(), scheme, t, ms);
                    c.seed = seed;
                    configs.push(c);
                }
            }
            configs
        };
        match self {
            Workload::ListStackTrack => {
                let mut configs = grid(
                    WorkloadSpec::paper_list(),
                    &[Scheme::StackTrack],
                    &[1, 4, 8],
                    5,
                );
                for c in &mut configs {
                    // Unmeasured virtual warm-up: the split predictor
                    // converges before the measured 5 ms start.
                    c.warmup_ms = 5;
                }
                configs
            }
            Workload::HashChurn => {
                let spec = WorkloadSpec::builder(StructureKind::Hash)
                    .initial_size(10_000)
                    .key_range(20_000)
                    .mutation_pct(100)
                    .buckets(4096)
                    .build()
                    .expect("hash-churn spec is valid");
                grid(
                    spec,
                    &[
                        Scheme::StackTrack,
                        Scheme::Hazard,
                        Scheme::Nbr,
                        Scheme::Hyaline,
                    ],
                    &[4, 8],
                    10,
                )
            }
            Workload::SkiplistOversub => grid(
                WorkloadSpec::paper_skiplist(),
                &[Scheme::Epoch, Scheme::Nbr, Scheme::StackTrack],
                &[12, 16],
                5,
            ),
            Workload::CheckDfs => Vec::new(),
        }
    }

    /// The model-check configs run through `st_check::check` (empty for
    /// the figure workloads).
    pub fn check_configs(self, seed: u64) -> Vec<CheckConfig> {
        if self != Workload::CheckDfs {
            return Vec::new();
        }
        let mut configs = Vec::new();
        for structure in [Structure::List, Structure::Hash, Structure::Queue] {
            for scheme in [Scheme::StackTrack, Scheme::Nbr] {
                configs.push(CheckConfig {
                    structure,
                    scheme,
                    seed,
                    ..CheckConfig::default()
                });
            }
        }
        configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_config_lists_match_the_readme() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::ListStackTrack.figure_configs(1).len(), 3);
        assert_eq!(Workload::HashChurn.figure_configs(1).len(), 8);
        assert_eq!(Workload::SkiplistOversub.figure_configs(1).len(), 6);
        assert_eq!(Workload::CheckDfs.check_configs(1).len(), 6);
        assert!(Workload::CheckDfs.figure_configs(1).is_empty());
        assert!(Workload::HashChurn.check_configs(1).is_empty());
    }

    #[test]
    fn the_seed_reaches_every_config() {
        assert!(Workload::HashChurn
            .figure_configs(77)
            .iter()
            .all(|c| c.seed == 77));
        assert!(Workload::CheckDfs
            .check_configs(77)
            .iter()
            .all(|c| c.seed == 77));
    }
}
