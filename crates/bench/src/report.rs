//! Plain-text table formatting for the figure commands, matching the
//! quantities the paper's figures plot.

use spatial_hints::{AccessClass, AccessClassification};
use swarm_noc::TrafficClass;

use crate::pool::{ResultCurve, StatsResult};

/// Geometric mean of a slice of positive values (0 if empty).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Format a speedup-vs-cores table: one row per core count, one column per
/// labelled series (the layout of Fig. 2a / Fig. 4 / Fig. 7 / Fig. 10). A
/// failed point renders as an `n/a` cell instead of aborting the figure.
pub fn format_speedup_table_results(series: &[ResultCurve]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "cores"));
    for (label, _) in series {
        out.push_str(&format!("{label:>14}"));
    }
    out.push('\n');
    if let Some((_, first)) = series.first() {
        for (i, slot) in first.iter().enumerate() {
            // Every slot knows its core count: a failed one via the request
            // embedded in its error.
            let cores = match slot {
                Ok(point) => point.request.cores,
                Err(err) => err.request().cores,
            };
            out.push_str(&format!("{cores:>8}"));
            for (_, points) in series {
                match points.get(i) {
                    Some(Ok(point)) => out.push_str(&format!("{:>14.2}", point.speedup)),
                    _ => out.push_str(&format!("{:>14}", "n/a")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Format a cycle-breakdown table normalized to the first `Ok` row's total
/// (the layout of Fig. 2b / Fig. 5a / Fig. 8a / Fig. 11). A failed row
/// renders as `n/a` cells.
pub fn format_breakdown_table_results(entries: &[(String, StatsResult)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "scheduler", "total", "commit", "abort", "spill", "stall", "empty"
    ));
    let baseline_total = entries
        .iter()
        .find_map(|(_, r)| r.as_ref().ok())
        .map(|s| s.breakdown.total().max(1))
        .unwrap_or(1);
    for (label, result) in entries {
        match result {
            Ok(stats) => {
                let b = stats.breakdown;
                let norm = |v: u64| v as f64 / baseline_total as f64;
                out.push_str(&format!(
                    "{:>12}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}\n",
                    label,
                    norm(b.total()),
                    norm(b.committed),
                    norm(b.aborted),
                    norm(b.spill),
                    norm(b.stall),
                    norm(b.empty)
                ));
            }
            Err(_) => out.push_str(&na_row(label, 6, 10)),
        }
    }
    out
}

/// Format a NoC-traffic breakdown table normalized to the first `Ok` row's
/// total (the layout of Fig. 5b / Fig. 8b). A failed row renders as `n/a`
/// cells.
pub fn format_traffic_table_results(entries: &[(String, StatsResult)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "scheduler", "total", "mem", "abort", "task", "gvt"
    ));
    let baseline_total = entries
        .iter()
        .find_map(|(_, r)| r.as_ref().ok())
        .map(|s| s.traffic.total().max(1))
        .unwrap_or(1);
    for (label, result) in entries {
        match result {
            Ok(stats) => {
                let t = stats.traffic;
                let norm = |v: u64| v as f64 / baseline_total as f64;
                out.push_str(&format!(
                    "{:>12}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}\n",
                    label,
                    norm(t.total()),
                    norm(t.of(TrafficClass::Memory)),
                    norm(t.of(TrafficClass::Abort)),
                    norm(t.of(TrafficClass::Task)),
                    norm(t.of(TrafficClass::Gvt))
                ));
            }
            Err(_) => out.push_str(&na_row(label, 5, 10)),
        }
    }
    out
}

/// [`format_traffic_table_results`] extended with a `queue` column: the
/// NoC queueing cycles each run accumulated under the contention model,
/// normalized to the first `Ok` row's queueing cycles (so the first
/// scheduler reads 1.000 and the others read their relative queueing
/// cost). Only used when `--noc contention` is active; the analytic
/// figures keep the pinned five-column formatter above.
pub fn format_traffic_queueing_table_results(entries: &[(String, StatsResult)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "scheduler", "total", "mem", "abort", "task", "gvt", "queue"
    ));
    let first_ok = entries.iter().find_map(|(_, r)| r.as_ref().ok());
    let baseline_total = first_ok.map(|s| s.traffic.total().max(1)).unwrap_or(1);
    let baseline_queue = first_ok.map(|s| s.noc_queue_cycles.max(1)).unwrap_or(1);
    for (label, result) in entries {
        match result {
            Ok(stats) => {
                let t = stats.traffic;
                let norm = |v: u64| v as f64 / baseline_total as f64;
                out.push_str(&format!(
                    "{:>12}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}\n",
                    label,
                    norm(t.total()),
                    norm(t.of(TrafficClass::Memory)),
                    norm(t.of(TrafficClass::Abort)),
                    norm(t.of(TrafficClass::Task)),
                    norm(t.of(TrafficClass::Gvt)),
                    stats.noc_queue_cycles as f64 / baseline_queue as f64
                ));
            }
            Err(_) => out.push_str(&na_row(label, 6, 10)),
        }
    }
    out
}

/// One table row of `n/a` cells for a failed entry: the label right-aligned
/// in 12 columns, then `columns` cells of `width` each.
fn na_row(label: &str, columns: usize, width: usize) -> String {
    let mut row = format!("{label:>12}");
    for _ in 0..columns {
        row.push_str(&format!("{:>width$}", "n/a"));
    }
    row.push('\n');
    row
}

/// Format an access-classification table (Fig. 3 / Fig. 6): fractions per
/// category, optionally normalized to a baseline total access count.
pub fn format_classification_row(
    label: &str,
    c: &AccessClassification,
    baseline_total: u64,
) -> String {
    let denom = baseline_total.max(1) as f64;
    let mut row = format!("{label:>12}");
    for class in AccessClass::ALL {
        row.push_str(&format!("{:>12.3}", c.of(class) as f64 / denom));
    }
    row.push_str(&format!("{:>12.3}", c.total() as f64 / denom));
    row.push('\n');
    row
}

/// The row [`format_classification_row`] prints in place of a failed point:
/// the label, then `n/a` in every column.
pub(crate) fn format_classification_na_row(label: &str) -> String {
    na_row(label, AccessClass::ALL.len() + 1, 12)
}

/// Header row matching [`format_classification_row`].
pub fn classification_header() -> String {
    let mut row = format!("{:>12}", "app");
    for class in AccessClass::ALL {
        row.push_str(&format!("{:>12}", class.label()));
    }
    row.push_str(&format!("{:>12}\n", "total"));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::runner::RunRequest;
    use spatial_hints::Scheduler;
    use swarm_apps::{AppSpec, BenchmarkId, InputScale};

    #[test]
    fn gmean_of_identical_values_is_the_value() {
        assert!((gmean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
        // gmean(1, 100) = 10
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_and_traffic_tables_render() {
        let entries = Pool::new(2).try_run_labeled(vec![(
            "Random".to_string(),
            RunRequest::new(
                AppSpec::coarse(BenchmarkId::Nocsim),
                Scheduler::Random,
                4,
                InputScale::Tiny,
            ),
        )]);
        let b = format_breakdown_table_results(&entries);
        assert!(b.contains("Random"));
        assert!(b.contains("commit"));
        assert!(!b.contains("n/a"), "{b}");
        // The only row is its own baseline.
        assert!(b.lines().nth(1).expect("a Random row").contains("1.000"), "{b}");
        let t = format_traffic_table_results(&entries);
        assert!(t.contains("gvt"));
    }

    #[test]
    fn speedup_table_renders_pool_curves() {
        let curves = Pool::new(2).try_speedup_curves(
            &[("Hints".to_string(), AppSpec::coarse(BenchmarkId::Nocsim), Scheduler::Hints)],
            &[1, 4],
            InputScale::Tiny,
            0xF1605,
        );
        let table = format_speedup_table_results(&curves);
        assert!(table.contains("cores"));
        assert!(table.contains("Hints"));
        assert!(!table.contains("n/a"), "{table}");
        assert_eq!(table.lines().count(), 3, "header + one row per core count");
    }

    #[test]
    fn failed_points_render_as_na_cells() {
        use crate::pool::FailurePolicy;
        use swarm_sim::{FaultEvent, FaultKind};
        let doom = FaultEvent { at_cycle: 0, kind: FaultKind::LostTaskWake { ts: 1 } };
        let pool = Pool::new(2).with_policy(FailurePolicy::CollectAll);
        let entries = vec![
            (
                "Random".to_string(),
                RunRequest::new(
                    AppSpec::coarse(BenchmarkId::Nocsim),
                    Scheduler::Random,
                    4,
                    InputScale::Tiny,
                ),
            ),
            (
                "Hints".to_string(),
                RunRequest::new(
                    AppSpec::coarse(BenchmarkId::Nocsim),
                    Scheduler::Hints,
                    4,
                    InputScale::Tiny,
                )
                .with_fault(doom),
            ),
        ];
        let tried = pool.try_run_labeled(entries);
        assert!(tried[1].1.is_err());
        let b = format_breakdown_table_results(&tried);
        let hints_row = b.lines().find(|l| l.contains("Hints")).expect("a Hints row");
        assert_eq!(hints_row.matches("n/a").count(), 6, "{hints_row}");
        let t = format_traffic_table_results(&tried);
        let hints_row = t.lines().find(|l| l.contains("Hints")).expect("a Hints row");
        assert_eq!(hints_row.matches("n/a").count(), 5, "{hints_row}");

        // And a speedup table whose faulted series fails its baseline.
        let curves = pool.try_speedup_curves(
            &[("Hints".to_string(), AppSpec::coarse(BenchmarkId::Nocsim), Scheduler::Hints)],
            &[1, 4],
            InputScale::Tiny,
            0xF1605,
        );
        let mut curves = curves;
        let err = crate::runner::RunError::Skipped {
            request: RunRequest::new(
                AppSpec::coarse(BenchmarkId::Nocsim),
                Scheduler::Hints,
                4,
                InputScale::Tiny,
            ),
        };
        curves[0].1[1] = Err(err);
        let table = format_speedup_table_results(&curves);
        assert!(table.lines().nth(2).expect("4-core row").contains("n/a"), "{table}");
    }

    #[test]
    fn classification_table_has_all_columns() {
        let header = classification_header();
        for class in AccessClass::ALL {
            assert!(header.contains(class.label()));
        }
        let row = format_classification_row("x", &AccessClassification::default(), 10);
        assert!(row.starts_with(&format!("{:>12}", "x")));
        let na = format_classification_na_row("x");
        assert_eq!(na.len(), row.len(), "an n/a row keeps the column layout");
        assert_eq!(na.matches("n/a").count(), AccessClass::ALL.len() + 1);
    }
}
