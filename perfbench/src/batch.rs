//! Timing one config run, and the correctness gate every config run
//! passes through.

use crate::host;
use st_bench::experiment::RunResult;
use st_bench::report;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One call's outcome with its host wall and thread-CPU time.
#[derive(Debug)]
pub struct Timed<R> {
    /// The value, or the panic message.
    pub out: Result<R, String>,
    /// Wall time, ms.
    pub host_ms: f64,
    /// CPU time of the calling thread, ms.
    pub cpu_ms: f64,
}

/// Calls `f` under `catch_unwind`, timing it.
pub fn timed_catch<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let (out, host_ms, cpu_ms) = host::timed(|| catch_unwind(AssertUnwindSafe(f)));
    Timed {
        out: out.map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        }),
        host_ms,
        cpu_ms,
    }
}

/// Checks one figure run's outputs: threads' operations sum to the
/// total, the run completed operations, and its metrics snapshot passes
/// the program's own validators. Returns a description of the first
/// problem found.
pub fn check_figure(result: &RunResult) -> Result<(), String> {
    let per_thread: u64 = result.per_thread.iter().map(|t| t.ops).sum();
    if per_thread != result.total_ops {
        return Err(format!(
            "per-thread ops sum to {per_thread}, total_ops is {}",
            result.total_ops
        ));
    }
    if result.total_ops == 0 {
        return Err("no operation completed".into());
    }
    let snapshot = report::metrics_snapshot("perfbench", std::slice::from_ref(result)).to_string();
    let parsed = report::parse_metrics_snapshot(&snapshot)?;
    report::validate_per_thread(&parsed)?;
    report::validate_scheme_counters(&parsed)?;
    Ok(())
}

/// Counts attempted and failed config runs (or schedules), printing
/// each failure with the config it belongs to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts `units` attempted units (a config run is one, an
    /// exploration is its schedules); a failure counts as one failed
    /// unit and is printed to stderr with its label.
    pub fn record(&mut self, label: &str, units: u64, outcome: Result<(), String>) {
        self.attempted += units;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAILED {label}: {why}");
        }
    }

    /// Failed share of attempted units (0 when nothing ran).
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `Ok` when a digest matches the first one seen for its config.
pub fn same_digest(first: Option<&str>, now: &str) -> Result<(), String> {
    match first {
        Some(d) if d != now => Err(format!("digest {now} differs from the first run's {d}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_bench::experiment::{run, RunConfig};
    use st_bench::workload::WorkloadSpec;
    use st_reclaim::Scheme;

    fn tiny_run() -> RunResult {
        let spec = WorkloadSpec::paper_list().shrunk(100);
        run(&RunConfig::new(spec, Scheme::StackTrack, 2, 1))
    }

    #[test]
    fn a_sound_run_passes_the_gate() {
        assert_eq!(check_figure(&tiny_run()), Ok(()));
    }

    #[test]
    fn every_failure_kind_is_counted() {
        let mut tally = Tally::default();
        let good = tiny_run();
        tally.record("good", 1, check_figure(&good));

        let mut lost_ops = good.clone();
        lost_ops.per_thread[0].ops += 1;
        tally.record("per-thread mismatch", 1, check_figure(&lost_ops));

        let mut mislabeled = good.clone();
        mislabeled.metrics.add("scheme.bogus.freed", 1);
        tally.record("unknown scheme counter", 1, check_figure(&mislabeled));

        let panicked = timed_catch(|| -> u64 { panic!("boom") });
        assert_eq!(panicked.out.as_ref().unwrap_err(), "boom");
        tally.record("panic", 1, panicked.out.map(|_| ()));

        tally.record("digest drift", 1, same_digest(Some("aa"), "bb"));
        tally.record("digest kept", 1, same_digest(Some("aa"), "aa"));
        tally.record("first digest", 1, same_digest(None, "aa"));

        assert_eq!(tally.attempted, 7);
        assert_eq!(tally.failed, 4);
        assert!((tally.failed_share() - 4.0 / 7.0).abs() < 1e-12);
    }
}
