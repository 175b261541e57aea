//! The analysis result type, and the swap cell serve mode publishes
//! it through.
//!
//! An [`EpochSnapshot`] is the complete, frozen result of one analysis
//! run — single-file or project, product or walk reference: the program
//! model (the linked one for a project), call graph, liveness, used-class
//! set, and the run's deterministic counters, stamped with an epoch id.
//! Every pipeline finishes through [`EpochSnapshot::new`], the one shared
//! tail. Snapshots are plain data — no locks, no interior mutability —
//! so behind an `Arc` any number of reader threads can answer
//! `report`/`explain`/`stats` queries from one concurrently, and cloning
//! the handle is a refcount bump.
//!
//! [`EpochCell`] is the single mutable point in serve mode: an
//! `ArcSwap`-style slot (hand-rolled over `Mutex<Option<Arc<_>>>`)
//! holding the current epoch. The builder thread constructs the next
//! snapshot entirely off to the side and publishes it with one
//! [`EpochCell::store`]; readers that loaded the previous `Arc` keep a
//! fully consistent world until they drop it. No reader can ever
//! observe a half-built epoch, because the only shared state is the
//! slot and the slot only ever holds finished snapshots.

use crate::explain::{explain, ExplainError};
use crate::liveness::Liveness;
use crate::report::{render_analysis, Report};
use ddm_callgraph::CallGraph;
use ddm_hierarchy::{ClassId, MemberRef, Program};
use ddm_telemetry::{Counters, EventClass, Telemetry};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// One frozen analysis result. See the module docs for the sharing
/// contract.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    program: Program,
    callgraph: CallGraph,
    liveness: Liveness,
    used: HashSet<ClassId>,
    counters: Counters,
}

impl EpochSnapshot {
    /// The tail every analysis path shares: counts the graph totals and
    /// the live / dead / unclassifiable verdicts into `telemetry`'s
    /// deterministic counters (also emitted as the det-class
    /// `classification` event and the `classify/*` gauges), then freezes
    /// the result with the handle's counter totals.
    pub fn new(
        epoch: u64,
        program: Program,
        callgraph: CallGraph,
        liveness: Liveness,
        used: HashSet<ClassId>,
        telemetry: &Telemetry,
    ) -> EpochSnapshot {
        let mut tail = Counters {
            reachable_functions: callgraph.reachable_count() as u64,
            callgraph_edges: callgraph.edge_count() as u64,
            instantiated_classes: callgraph.instantiated().len() as u64,
            ..Counters::default()
        };
        for (cid, class) in program.classes() {
            for idx in 0..class.members.len() {
                let m = MemberRef::new(cid, idx);
                // Mirror the report's precedence: unclassifiable trumps the
                // live/dead verdict.
                if liveness.is_unclassifiable(m) {
                    tail.members_unclassifiable += 1;
                } else if liveness.is_live(m) {
                    tail.members_live += 1;
                } else {
                    tail.members_dead += 1;
                }
            }
        }
        telemetry.add_counters(&tail);
        telemetry.event(EventClass::Deterministic, "classification", || {
            vec![
                ("reachable_functions", tail.reachable_functions.into()),
                ("callgraph_edges", tail.callgraph_edges.into()),
                ("instantiated_classes", tail.instantiated_classes.into()),
                ("live", tail.members_live.into()),
                ("dead", tail.members_dead.into()),
                ("unclassifiable", tail.members_unclassifiable.into()),
            ]
        });
        telemetry.metrics(|m| {
            m.gauge_set("classify/members_live", tail.members_live as i64);
            m.gauge_set("classify/members_dead", tail.members_dead as i64);
            m.gauge_set(
                "classify/members_unclassifiable",
                tail.members_unclassifiable as i64,
            );
        });
        EpochSnapshot {
            epoch,
            program,
            callgraph,
            liveness,
            used,
            counters: telemetry.counters(),
        }
    }

    /// The epoch id this snapshot was published as (one-shot runs: 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The analysed program model (the linked one for a project).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The call graph that scoped the analysis.
    pub fn callgraph(&self) -> &CallGraph {
        &self.callgraph
    }

    /// The per-member classification.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The used-class set.
    pub fn used(&self) -> &HashSet<ClassId> {
        &self.used
    }

    /// The deterministic counters the run accumulated on its telemetry
    /// handle. Meaningful when the build used a fresh enabled handle
    /// (serve mode builds one per epoch); all-zero under a disabled
    /// handle.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Builds the report.
    pub fn report(&self) -> Report {
        Report::new(&self.program, &self.liveness, &self.used)
    }

    /// The full analysis output, byte-identical to what a one-shot
    /// `ddm` run over the same files prints to stdout.
    pub fn render_report(&self, layout: bool) -> String {
        render_analysis(
            &self.program,
            &self.callgraph,
            &self.liveness,
            &self.report(),
            layout,
        )
    }

    /// The `--explain` text for `spec`, byte-identical to the one-shot
    /// CLI's stdout for the same query.
    ///
    /// # Errors
    ///
    /// Propagates [`ExplainError`] (`bad_request` for a malformed spec,
    /// `not_found` for a well-formed spec naming nothing).
    pub fn render_explain(&self, spec: &str) -> Result<String, ExplainError> {
        explain(&self.program, &self.callgraph, &self.liveness, spec)
    }

    /// The `== deterministic counters ==` section of `--stats`,
    /// byte-identical to the same section of a one-shot run's stderr
    /// (the deterministic-counter contract makes the section identical
    /// across jobs and cache states, so it is the one part of `--stats`
    /// a byte-equality oracle can pin).
    pub fn render_counters(&self) -> String {
        format!(
            "== deterministic counters ==\n{}",
            self.counters.render_table()
        )
    }
}

/// The swap cell serve mode publishes epochs through: readers
/// [`load`](EpochCell::load) the current `Arc` (a refcount bump under a
/// momentary mutex — never held across any analysis or rendering work),
/// the builder [`store`](EpochCell::store)s a finished snapshot to
/// publish it atomically. Readers holding the previous `Arc` are
/// undisturbed; the old epoch is freed when its last reader drops it.
#[derive(Debug, Default)]
pub struct EpochCell {
    slot: Mutex<Option<Arc<EpochSnapshot>>>,
}

impl EpochCell {
    /// An empty cell (no epoch published yet).
    pub fn new() -> EpochCell {
        EpochCell::default()
    }

    /// The current snapshot, or `None` before the first publish.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.slot.lock().expect("epoch cell poisoned").clone()
    }

    /// Atomically replaces the published snapshot.
    pub fn store(&self, snapshot: Arc<EpochSnapshot>) {
        *self.slot.lock().expect("epoch cell poisoned") = Some(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::project::ProjectPipeline;
    use ddm_callgraph::Algorithm;

    fn snapshot(epoch: u64) -> Arc<EpochSnapshot> {
        let inputs = vec![(
            "one.cpp".to_string(),
            "class A { public: int m; int w; }; int main() { A a; return a.m; }".to_string(),
        )];
        ProjectPipeline::run_epoch(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            None,
            &Telemetry::enabled(),
            epoch,
        )
        .expect("build")
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        let snap = snapshot(1);
        let report = snap.render_report(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snap = Arc::clone(&snap);
                let report = report.clone();
                scope.spawn(move || {
                    assert_eq!(snap.render_report(false), report);
                    assert_eq!(snap.epoch(), 1);
                });
            }
        });
    }

    #[test]
    fn cell_swaps_epochs_without_disturbing_held_readers() {
        let cell = EpochCell::new();
        assert!(cell.load().is_none());
        cell.store(snapshot(1));
        let held = cell.load().expect("published");
        cell.store(snapshot(2));
        assert_eq!(held.epoch(), 1, "a held Arc still sees its epoch");
        assert_eq!(cell.load().expect("published").epoch(), 2);
    }

    #[test]
    fn counters_capture_the_build_handles_totals() {
        let snap = snapshot(1);
        assert!(snap.counters().members_live >= 1);
        assert!(snap.render_counters().starts_with("== deterministic counters ==\n"));
        assert!(snap.render_counters().contains("members_live"));
    }
}
