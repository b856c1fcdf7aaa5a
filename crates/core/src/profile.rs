//! Architecture-independent access classification (Fig. 3 and Fig. 6).
//!
//! The paper profiles all memory accesses made by committing tasks and
//! classifies every location along two dimensions:
//!
//! * **read-only vs read-write**: a location is read-only if it is read at
//!   least [`RO_READS_PER_WRITE`] times per write over its lifetime (data
//!   that is initialised before the parallel region and then only read
//!   counts as read-only);
//! * **single-hint vs multi-hint**: a location is single-hint if more than
//!   [`SINGLE_HINT_FRACTION`] of its accesses come from tasks with one hint.
//!
//! Accesses to task arguments form a fifth category. Hints are effective for
//! data that is single-hint — especially single-hint *read-write* data, where
//! mapping all accessors to one tile both improves locality and removes
//! conflicts.

use std::collections::HashMap;

use swarm_sim::CommittedTaskAccesses;
use swarm_types::Hint;

/// Minimum reads-per-write ratio for a location to count as read-only (the
/// paper's threshold).
pub const RO_READS_PER_WRITE: u64 = 1000;

/// Fraction of a location's accesses that must come from one hint, exceeded,
/// for it to count as single-hint (the paper's 90%).
pub const SINGLE_HINT_FRACTION: f64 = 0.9;

/// The five access categories of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Accesses to task arguments.
    Arguments,
    /// Read-write data accessed (almost) exclusively by tasks of one hint.
    SingleHintRw,
    /// Read-write data accessed by tasks with many different hints.
    MultiHintRw,
    /// Read-only data accessed (almost) exclusively by tasks of one hint.
    SingleHintRo,
    /// Read-only data accessed by tasks with many different hints.
    MultiHintRo,
}

impl AccessClass {
    /// All classes in the paper's stacking order.
    pub const ALL: [AccessClass; 5] = [
        AccessClass::Arguments,
        AccessClass::SingleHintRw,
        AccessClass::MultiHintRw,
        AccessClass::SingleHintRo,
        AccessClass::MultiHintRo,
    ];

    /// Short label used in harness tables.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Arguments => "args",
            AccessClass::SingleHintRw => "1hint-RW",
            AccessClass::MultiHintRw => "Nhint-RW",
            AccessClass::SingleHintRo => "1hint-RO",
            AccessClass::MultiHintRo => "Nhint-RO",
        }
    }
}

/// Access counts per category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessClassification {
    /// Argument accesses.
    pub arguments: u64,
    /// Accesses to single-hint read-write locations.
    pub single_hint_rw: u64,
    /// Accesses to multi-hint read-write locations.
    pub multi_hint_rw: u64,
    /// Accesses to single-hint read-only locations.
    pub single_hint_ro: u64,
    /// Accesses to multi-hint read-only locations.
    pub multi_hint_ro: u64,
}

impl AccessClassification {
    /// Total accesses over all categories.
    pub fn total(&self) -> u64 {
        self.arguments
            + self.single_hint_rw
            + self.multi_hint_rw
            + self.single_hint_ro
            + self.multi_hint_ro
    }

    /// Count for one category.
    pub fn of(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::Arguments => self.arguments,
            AccessClass::SingleHintRw => self.single_hint_rw,
            AccessClass::MultiHintRw => self.multi_hint_rw,
            AccessClass::SingleHintRo => self.single_hint_ro,
            AccessClass::MultiHintRo => self.multi_hint_ro,
        }
    }

    /// Fraction of total accesses for one category (0 when empty).
    pub fn fraction(&self, class: AccessClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.of(class) as f64 / total as f64
        }
    }

    /// Fraction of *non-argument* read-write accesses that are single-hint.
    /// This is the quantity the paper argues predicts hint effectiveness.
    pub fn single_hint_rw_share(&self) -> f64 {
        let rw = self.single_hint_rw + self.multi_hint_rw;
        if rw == 0 {
            0.0
        } else {
            self.single_hint_rw as f64 / rw as f64
        }
    }
}

#[derive(Default)]
struct LocationStats {
    reads: u64,
    writes: u64,
    per_hint: HashMap<Hint, u64>,
    total: u64,
}

/// Classify the accesses of a set of committed tasks.
pub fn classify_accesses(tasks: &[CommittedTaskAccesses]) -> AccessClassification {
    let mut locations: HashMap<u64, LocationStats> = HashMap::new();
    let mut arguments = 0u64;
    for task in tasks {
        arguments += task.num_args as u64;
        for &(addr, is_write) in &task.accesses {
            let loc = locations.entry(addr).or_default();
            if is_write {
                loc.writes += 1;
            } else {
                loc.reads += 1;
            }
            *loc.per_hint.entry(task.hint).or_insert(0) += 1;
            loc.total += 1;
        }
    }

    let mut result = AccessClassification { arguments, ..Default::default() };
    for loc in locations.values() {
        let read_only =
            loc.writes == 0 || loc.reads >= loc.writes.saturating_mul(RO_READS_PER_WRITE);
        let max_one_hint = loc.per_hint.values().copied().max().unwrap_or(0);
        let single_hint =
            loc.total > 0 && (max_one_hint as f64 / loc.total as f64) > SINGLE_HINT_FRACTION;
        match (read_only, single_hint) {
            (true, true) => result.single_hint_ro += loc.total,
            (true, false) => result.multi_hint_ro += loc.total,
            (false, true) => result.single_hint_rw += loc.total,
            (false, false) => result.multi_hint_rw += loc.total,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(hint: u64, accesses: Vec<(u64, bool)>) -> CommittedTaskAccesses {
        CommittedTaskAccesses { hint: Hint::value(hint), num_args: 1, accesses }
    }

    #[test]
    fn single_hint_rw_location_is_classified() {
        // One location written repeatedly by tasks that all carry hint 7.
        let tasks: Vec<_> = (0..10).map(|_| task(7, vec![(0x100, true), (0x100, false)])).collect();
        let c = classify_accesses(&tasks);
        assert_eq!(c.single_hint_rw, 20);
        assert_eq!(c.multi_hint_rw, 0);
        assert_eq!(c.arguments, 10);
        assert!(c.single_hint_rw_share() > 0.99);
    }

    #[test]
    fn multi_hint_rw_location_is_classified() {
        let tasks: Vec<_> = (0..10).map(|h| task(h, vec![(0x200, true)])).collect();
        let c = classify_accesses(&tasks);
        assert_eq!(c.multi_hint_rw, 10);
        assert_eq!(c.single_hint_rw, 0);
    }

    #[test]
    fn never_written_location_is_read_only() {
        let tasks: Vec<_> = (0..5).map(|h| task(h, vec![(0x300, false)])).collect();
        let c = classify_accesses(&tasks);
        assert_eq!(c.multi_hint_ro, 5);
        assert_eq!(c.single_hint_ro + c.single_hint_rw + c.multi_hint_rw, 0);
    }

    #[test]
    fn read_mostly_location_respects_threshold() {
        // 1 write plus `reads` reads of one location, all from one hint.
        let classify = |reads: usize| {
            let mut accesses = vec![(0x400u64, true)];
            accesses.extend(std::iter::repeat_n((0x400u64, false), reads));
            classify_accesses(&[task(1, accesses)])
        };
        let below = classify(999);
        assert_eq!(below.single_hint_rw, 1000, "999 reads per write is read-write");
        assert_eq!(below.single_hint_ro, 0);
        let at = classify(1000);
        assert_eq!(at.single_hint_ro, 1001, "1000 reads per write is read-only");
        assert_eq!(at.single_hint_rw, 0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let tasks = vec![
            task(1, vec![(0x100, true), (0x200, false)]),
            task(2, vec![(0x100, true), (0x300, false)]),
        ];
        let c = classify_accesses(&tasks);
        let sum: f64 = AccessClass::ALL.iter().map(|&cl| c.fraction(cl)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn empty_input_yields_empty_classification() {
        let c = classify_accesses(&[]);
        assert_eq!(c.total(), 0);
        assert_eq!(c.fraction(AccessClass::Arguments), 0.0);
        assert_eq!(c.single_hint_rw_share(), 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            AccessClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
