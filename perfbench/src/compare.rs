//! Like-for-like comparison of two sets of benchmark records.
//!
//! Configs are joined on (workload, scheme, structure, threads, seed).
//! A ratio is only printed for a workload when both sides ran exactly
//! the same configs and every config simulated the same statistics
//! (equal digests); otherwise the comparison is refused, because a
//! host-time ratio between different simulations means nothing.

use crate::stats::quartiles;
use st_obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One config's identity: workload, scheme, structure, threads, seed.
pub type Key = (String, String, String, u64, u64);

/// The parts of one untraced run record the comparison reads.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Median round CPU time, s.
    pub cpu_s: f64,
    /// Median round wall time, s.
    pub host_s: f64,
    /// Each config's identity and digest.
    pub configs: Vec<(Key, String)>,
}

/// Parses one record file; `Ok(None)` for a traced run's record.
pub fn parse_record(text: &str) -> Result<Option<Record>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let num = |o: &Json, k: &str| {
        o.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("record missing number {k:?}"))
    };
    let text = |o: &Json, k: &str| {
        o.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("record missing string {k:?}"))
    };
    if num(&doc, "trace")? != 0.0 {
        return Ok(None);
    }
    let workload = text(&doc, "workload")?;
    let seed = num(&doc, "seed")? as u64;
    let configs = doc
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or("record missing configs")?
        .iter()
        .map(|c| {
            let key = (
                workload.clone(),
                text(c, "scheme")?,
                text(c, "structure")?,
                num(c, "threads")? as u64,
                seed,
            );
            Ok((key, text(c, "digest")?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(Record {
        cpu_s: num(&doc, "cpu_s")?,
        host_s: num(&doc, "host_s")?,
        workload,
        configs,
    }))
}

/// Reads every untraced record (`*.json`) in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        if let Some(r) = parse_record(&text).map_err(|e| format!("{}: {e}", p.display()))? {
            records.push(r);
        }
    }
    Ok(records)
}

/// Every config's digest on one side; refuses a side whose repeated
/// runs of one config disagree.
fn digests(records: &[&Record]) -> Result<BTreeMap<Key, String>, String> {
    let mut out = BTreeMap::new();
    for r in records {
        for (key, digest) in &r.configs {
            if let Some(prev) = out.insert(key.clone(), digest.clone()) {
                if &prev != digest {
                    return Err(format!("{key:?} simulated differently across runs"));
                }
            }
        }
    }
    Ok(out)
}

/// One workload's comparison.
#[derive(Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// Quartiles of per-run CPU seconds, each side.
    pub cpu: ([f64; 3], [f64; 3]),
    /// Quartiles of per-run wall seconds, each side.
    pub host: ([f64; 3], [f64; 3]),
    /// New over old median CPU time, or why no ratio is given.
    pub ratio: Result<f64, String>,
}

/// Compares two record sets workload by workload.
pub fn compare(old: &[Record], new: &[Record]) -> Vec<Row> {
    let workloads: BTreeSet<&str> = old.iter().chain(new).map(|r| r.workload.as_str()).collect();
    workloads
        .into_iter()
        .map(|w| {
            let (o, n) = (of_workload(old, w), of_workload(new, w));
            let q = |rs: &[&Record], f: fn(&Record) -> f64| {
                quartiles(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
            };
            let cpu = (q(&o, |r| r.cpu_s), q(&n, |r| r.cpu_s));
            let ratio = join_check(&o, &n).map(|()| cpu.1[1] / cpu.0[1]);
            Row {
                workload: w.to_string(),
                runs: (o.len(), n.len()),
                cpu,
                host: (q(&o, |r| r.host_s), q(&n, |r| r.host_s)),
                ratio,
            }
        })
        .collect()
}

fn of_workload<'a>(records: &'a [Record], workload: &str) -> Vec<&'a Record> {
    records.iter().filter(|r| r.workload == workload).collect()
}

/// `Ok` when both sides ran the same configs with the same digests.
fn join_check(old: &[&Record], new: &[&Record]) -> Result<(), String> {
    if old.is_empty() || new.is_empty() {
        return Err("one side has no runs".into());
    }
    let (a, b) = (digests(old)?, digests(new)?);
    let (ka, kb): (BTreeSet<&Key>, BTreeSet<&Key>) = (a.keys().collect(), b.keys().collect());
    if ka != kb {
        let only_old = ka.difference(&kb).count();
        let only_new = kb.difference(&ka).count();
        return Err(format!(
            "config sets differ ({only_old} only in old, {only_new} only in new)"
        ));
    }
    if let Some((key, _)) = a.iter().find(|(k, d)| b[*k] != **d) {
        return Err(format!("{key:?} simulated different statistics"));
    }
    Ok(())
}

/// Prints the comparison; returns false if any ratio was refused.
pub fn print(rows: &[Row]) -> bool {
    let mut all = true;
    println!(
        "{:<18} {:>4} {:>4}  {:>26}  {:>26}",
        "workload", "side", "runs", "cpu_s q1 / median / q3", "host_s q1 / median / q3"
    );
    for r in rows {
        let fmt = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
        println!(
            "{:<18} {:>4} {:>4}  {:>26}  {:>26}",
            r.workload,
            "old",
            r.runs.0,
            fmt(r.cpu.0),
            fmt(r.host.0)
        );
        println!(
            "{:<18} {:>4} {:>4}  {:>26}  {:>26}",
            "",
            "new",
            r.runs.1,
            fmt(r.cpu.1),
            fmt(r.host.1)
        );
        match &r.ratio {
            Ok(x) => println!(
                "{:<18} cpu_s new/old = {x:.4} (base: old median {:.4} s)",
                "", r.cpu.0[1]
            ),
            Err(why) => {
                all = false;
                println!("{:<18} ratio refused: {why}", "");
            }
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, cpu_s: f64, configs: &[(&str, u64, &str)]) -> Record {
        Record {
            workload: workload.into(),
            cpu_s,
            host_s: cpu_s / 2.0,
            configs: configs
                .iter()
                .map(|&(scheme, threads, digest)| {
                    let key = (workload.into(), scheme.into(), "Hash".into(), threads, 1);
                    (key, digest.into())
                })
                .collect(),
        }
    }

    #[test]
    fn matching_sets_give_a_ratio_of_medians() {
        let cfgs = [("NBR", 4, "d1"), ("Hazards", 8, "d2")];
        let old: Vec<Record> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&c| record("hash-churn", c, &cfgs))
            .collect();
        let new: Vec<Record> = [1.0, 1.0, 1.0]
            .iter()
            .map(|&c| record("hash-churn", c, &cfgs))
            .collect();
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].runs, (3, 3));
        assert_eq!(rows[0].cpu.0[1], 2.0);
        assert_eq!(rows[0].ratio, Ok(0.5));
    }

    #[test]
    fn a_different_config_set_is_refused() {
        let old = vec![record("hash-churn", 1.0, &[("NBR", 4, "d1")])];
        let new = vec![record(
            "hash-churn",
            1.0,
            &[("NBR", 4, "d1"), ("NBR", 8, "d3")],
        )];
        let rows = compare(&old, &new);
        assert!(rows[0]
            .ratio
            .as_ref()
            .unwrap_err()
            .contains("config sets differ"));
        assert!(!print(&rows));
    }

    #[test]
    fn a_different_digest_is_refused() {
        let old = vec![record("hash-churn", 1.0, &[("NBR", 4, "d1")])];
        let new = vec![record("hash-churn", 1.0, &[("NBR", 4, "XX")])];
        let rows = compare(&old, &new);
        assert!(rows[0]
            .ratio
            .as_ref()
            .unwrap_err()
            .contains("different statistics"));
    }

    #[test]
    fn a_side_that_disagrees_with_itself_is_refused() {
        let old = vec![
            record("hash-churn", 1.0, &[("NBR", 4, "d1")]),
            record("hash-churn", 1.0, &[("NBR", 4, "d2")]),
        ];
        let new = vec![record("hash-churn", 1.0, &[("NBR", 4, "d1")])];
        let rows = compare(&old, &new);
        assert!(rows[0].ratio.as_ref().unwrap_err().contains("across runs"));
    }

    #[test]
    fn a_workload_on_one_side_only_is_refused() {
        let old = vec![record("hash-churn", 1.0, &[("NBR", 4, "d1")])];
        let rows = compare(&old, &[]);
        assert_eq!(rows[0].ratio, Err("one side has no runs".into()));
    }

    #[test]
    fn records_round_trip_and_traced_records_are_skipped() {
        let text = r#"{"workload":"hash-churn","seed":5,"trace":0,"cpu_s":1.5,"host_s":0.8,
            "configs":[{"scheme":"NBR","structure":"Hash","threads":4,"digest":"ab"}]}"#;
        let r = parse_record(text).unwrap().unwrap();
        assert_eq!(
            r.configs[0].0,
            ("hash-churn".into(), "NBR".into(), "Hash".into(), 4, 5)
        );
        assert_eq!(r.cpu_s, 1.5);
        let traced = r#"{"workload":"hash-churn","seed":5,"trace":1}"#;
        assert!(parse_record(traced).unwrap().is_none());
        assert!(parse_record(r#"{"trace":0}"#).is_err());
    }
}
