//! `pipeline`: a mixed-phase pipeline — the second synthetic scenario
//! family.
//!
//! `items` work items flow through `stages` timestamp-banded phases: a
//! *produce* stage writes each item's private buffer word, middle
//! *transform* stages rewrite it (one task per item per stage, perfectly
//! parallel, item-line hints), and the final *reduce* stage folds every
//! item into one of a handful of shared accumulators (accumulator-line
//! hints). The program therefore alternates between a regime where hints
//! spread work perfectly and one where a few hot lines dominate — within a
//! single app, which no Table I workload does.
//!
//! The task graph is a fixed forest with globally distinct timestamps
//! (stage band × item), so the committed task count is
//! schedule-independent and the conformance kit pins it. Reductions use
//! commutative adds via `TaskCtx::update`, so the final memory is the same
//! under every serialization; [`Pipeline::validate`] checks buffers and
//! accumulators against a directly computed serial reference.

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{hashing, Hint, TaskFnId, Timestamp};

/// A seeded mixed-phase pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct PipelineWorkload {
    /// Work items flowing through the pipeline.
    pub items: usize,
    /// Total stages, including produce and reduce (minimum 2).
    pub stages: usize,
    /// Shared reduction accumulators (the hot lines of the final phase).
    pub accumulators: usize,
    /// Generator seed for the item payloads.
    pub seed: u64,
}

impl PipelineWorkload {
    pub fn generate(items: usize, stages: usize, accumulators: usize, seed: u64) -> Self {
        assert!(items >= 1, "pipeline needs at least one item");
        assert!(stages >= 2, "pipeline needs a produce and a reduce stage");
        assert!(accumulators >= 1, "pipeline needs at least one accumulator");
        PipelineWorkload { items, stages, accumulators, seed }
    }
}

/// The pipeline application over a [`PipelineWorkload`].
pub struct Pipeline {
    w: PipelineWorkload,
    buf: Region,
    acc: Region,
    /// Expected final buffer words (after the last transform stage).
    buf_reference: Vec<u64>,
    /// Expected final accumulator values.
    acc_reference: Vec<u64>,
}

/// One transform step: cheap, invertible-free mixing that keeps values
/// bounded so repeated stages cannot overflow.
fn transform(v: u64, stage: usize) -> u64 {
    (v.rotate_left(7) ^ (stage as u64).wrapping_mul(0x9E37)) & 0xFFFF_FFFF
}

impl Pipeline {
    pub fn new(w: PipelineWorkload) -> Self {
        let mut space = AddressSpace::new();
        // One word per item; accumulators on separate cache lines so the
        // reduce phase contends on hint locality, not false sharing.
        let buf = space.alloc_array("buf", w.items as u64);
        let acc = space.alloc_strided("acc", w.accumulators as u64, 8);
        // Serial reference: run the pipeline in plain Rust.
        let mut buf_reference = Vec::with_capacity(w.items);
        let mut acc_reference = vec![0u64; w.accumulators];
        for i in 0..w.items {
            let mut v = hashing::hash64(w.seed ^ i as u64) & 0xFFFF;
            for s in 1..w.stages - 1 {
                v = transform(v, s);
            }
            acc_reference[i % w.accumulators] = acc_reference[i % w.accumulators].wrapping_add(v);
            buf_reference.push(v);
        }
        Pipeline { w, buf, acc, buf_reference, acc_reference }
    }

    fn buf_addr(&self, i: usize) -> u64 {
        self.buf.addr_of(i as u64)
    }

    fn acc_addr(&self, i: usize) -> u64 {
        self.acc.addr_of((i % self.w.accumulators) as u64)
    }

    /// Timestamps are banded per stage so phases are globally ordered but
    /// items within a phase run in parallel.
    fn ts_of(&self, stage: usize, item: usize) -> u64 {
        (stage * self.w.items + item) as u64
    }
}

impl SwarmApp for Pipeline {
    fn name(&self) -> &str {
        "pipeline"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {}

    fn initial_tasks(&self) -> Vec<InitialTask> {
        (0..self.w.items)
            .map(|i| {
                InitialTask::new(
                    0,
                    self.ts_of(0, i),
                    Hint::cache_line(self.buf_addr(i)),
                    vec![i as u64],
                )
            })
            .collect()
    }

    fn run_task(&self, fid: TaskFnId, _ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let stage = fid as usize;
        let i = args[0] as usize;
        let last = self.w.stages - 1;
        if stage == 0 {
            // Produce: materialize the item's payload.
            ctx.write(self.buf_addr(i), hashing::hash64(self.w.seed ^ i as u64) & 0xFFFF);
        } else if stage < last {
            // Transform: rewrite the item's private word.
            let v = ctx.read(self.buf_addr(i));
            ctx.compute(20);
            ctx.write(self.buf_addr(i), transform(v, stage));
        } else {
            // Reduce: fold into a hot shared accumulator (commutative add).
            let v = ctx.read(self.buf_addr(i));
            ctx.compute(10);
            ctx.update(self.acc_addr(i), |acc| acc.wrapping_add(v));
        }
        if stage < last {
            let next = stage + 1;
            let hint = if next == last {
                Hint::cache_line(self.acc_addr(i))
            } else {
                Hint::cache_line(self.buf_addr(i))
            };
            ctx.enqueue(next as u16, self.ts_of(next, i), hint, &[i as u64]);
        }
    }

    fn num_task_fns(&self) -> usize {
        self.w.stages
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for (i, &want) in self.buf_reference.iter().enumerate() {
            let got = mem.load(self.buf_addr(i));
            if got != want {
                return Err(format!("pipeline: buffer {i} is {got}, expected {want}"));
            }
        }
        for (a, &want) in self.acc_reference.iter().enumerate() {
            let got = mem.load(self.acc.addr_of(a as u64));
            if got != want {
                return Err(format!("pipeline: accumulator {a} is {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_hints::Scheduler;
    use swarm_sim::Sim;

    fn run(w: PipelineWorkload, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(Pipeline::new(w))
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("pipeline must validate against its serial reference")
    }

    #[test]
    fn pipeline_matches_reference_single_core() {
        run(PipelineWorkload::generate(40, 3, 4, 5), Scheduler::Random, 1);
    }

    #[test]
    fn pipeline_matches_reference_under_every_scheduler() {
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(PipelineWorkload::generate(60, 4, 3, 6), s, 16);
        }
    }

    #[test]
    fn committed_tasks_equal_items_times_stages() {
        let stats = run(PipelineWorkload::generate(30, 4, 2, 7), Scheduler::Hints, 16);
        assert_eq!(stats.tasks_committed, 30 * 4);
    }

    #[test]
    fn two_stage_degenerate_pipeline_works() {
        // stages == 2 means produce feeds reduce directly.
        let stats = run(PipelineWorkload::generate(16, 2, 1, 8), Scheduler::Stealing, 4);
        assert_eq!(stats.tasks_committed, 16 * 2);
    }
}
