//! `genome`: gene sequencing (from STAMP).
//!
//! Unordered benchmark, structured in three phases separated by phase
//! timestamps (tasks within a phase share a timestamp and commit in any
//! order, like transactions):
//!
//! 1. **Deduplicate** the segment pool by inserting segment fingerprints
//!    into a hash table (hint: the cache line of the target bucket).
//! 2. **Index** unique segments by their prefix into a second hash table.
//! 3. **Match** each unique segment's suffix against indexed prefixes and
//!    claim the follower segment, building overlap links. Matching tasks do
//!    not know which buckets they will probe when created, so they carry
//!    `NOHINT`; the link-recording child they spawn inherits the parent's
//!    placement through `SAMEHINT` (the NOHINT/SAMEHINT pattern the paper
//!    describes for genome in Table I).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

const FID_DEDUP: TaskFnId = 0;
const FID_INDEX: TaskFnId = 1;
const FID_MATCH: TaskFnId = 2;
const FID_LINK: TaskFnId = 3;

/// Slots probed per hash bucket (open addressing within a bucket's line).
const BUCKET_SLOTS: u64 = 8;

const TS_DEDUP: Timestamp = 0;
const TS_INDEX: Timestamp = 1;
const TS_MATCH: Timestamp = 2;

/// The generated sequencing workload.
#[derive(Debug, Clone)]
pub struct GenomeWorkload {
    /// Length of each segment in bases.
    pub segment_length: usize,
    /// Overlap between consecutive segments (bases).
    pub overlap: usize,
    /// Segments cut from the master genome (with duplicates).
    pub segments: Vec<Vec<u8>>,
    /// Number of hash buckets in each table.
    pub buckets: u64,
}

impl GenomeWorkload {
    /// Cut `num_segments` segments of length `segment_length` from a random
    /// master genome, such that consecutive segments overlap by `overlap`
    /// bases; a fraction of segments are duplicated.
    pub fn generate(
        genome_length: usize,
        segment_length: usize,
        overlap: usize,
        num_segments: usize,
        seed: u64,
    ) -> Self {
        assert!(overlap < segment_length, "overlap must be smaller than a segment");
        assert!(genome_length >= segment_length, "genome must hold at least one segment");
        let mut rng = SmallRng::seed_from_u64(seed);
        let master: Vec<u8> = (0..genome_length).map(|_| rng.gen_range(0..4u8)).collect();
        let step = segment_length - overlap;
        let mut segments = Vec::with_capacity(num_segments);
        for i in 0..num_segments {
            let start = (i * step) % (genome_length - segment_length + 1);
            segments.push(master[start..start + segment_length].to_vec());
        }
        // Duplicate ~25% of segments to exercise deduplication.
        let dupes = num_segments / 4;
        for _ in 0..dupes {
            let pick = rng.gen_range(0..num_segments);
            let seg = segments[pick].clone();
            segments.push(seg);
        }
        let buckets = (num_segments as u64 * 2).next_power_of_two();
        GenomeWorkload { segment_length, overlap, segments, buckets }
    }

    /// Fingerprint of a full segment.
    pub fn fingerprint(seg: &[u8]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in seg {
            h ^= b as u64 + 1;
            h = h.wrapping_mul(0x100000001b3);
        }
        h | 1 // never zero, zero means "empty slot"
    }

    /// Fingerprint of a segment's leading `overlap` bases.
    pub fn prefix_fingerprint(&self, seg: &[u8]) -> u64 {
        Self::fingerprint(&seg[..self.overlap])
    }

    /// Fingerprint of a segment's trailing `overlap` bases.
    pub fn suffix_fingerprint(&self, seg: &[u8]) -> u64 {
        Self::fingerprint(&seg[seg.len() - self.overlap..])
    }

    /// Number of distinct segments (the serial phase-1 answer).
    pub fn unique_segments(&self) -> usize {
        let mut set = std::collections::HashSet::new();
        for seg in &self.segments {
            set.insert(Self::fingerprint(seg));
        }
        set.len()
    }
}

/// The genome benchmark.
pub struct Genome {
    workload: GenomeWorkload,
    /// Phase-1 hash table: fingerprints of unique segments.
    dedup_table: Region,
    /// Phase-2 hash table: (prefix fingerprint, segment id + 1) pairs.
    prefix_table: Region,
    /// Per-segment link word: the id + 1 of the segment that follows it.
    links: Region,
}

impl Genome {
    /// Build the benchmark around a generated workload.
    pub fn new(workload: GenomeWorkload) -> Self {
        let mut space = AddressSpace::new();
        let dedup_table = space.alloc_array("dedup", workload.buckets * BUCKET_SLOTS);
        let prefix_table = space.alloc_array("prefix", workload.buckets * BUCKET_SLOTS * 2);
        let links = space.alloc_array("links", workload.segments.len() as u64);
        Genome { workload, dedup_table, prefix_table, links }
    }

    fn dedup_bucket_addr(&self, fingerprint: u64, slot: u64) -> u64 {
        let bucket = fingerprint % self.workload.buckets;
        self.dedup_table.addr_of(bucket * BUCKET_SLOTS + slot)
    }

    fn prefix_slot_addr(&self, fingerprint: u64, slot: u64, field: u64) -> u64 {
        let bucket = fingerprint % self.workload.buckets;
        self.prefix_table.addr_of((bucket * BUCKET_SLOTS + slot) * 2 + field)
    }

    fn bucket_hint(&self, region: &Region, fingerprint: u64, slots_per_bucket: u64) -> Hint {
        let bucket = fingerprint % self.workload.buckets;
        Hint::cache_line(region.addr_of(bucket * slots_per_bucket))
    }
}

impl SwarmApp for Genome {
    fn name(&self) -> &str {
        "genome"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {}

    fn initial_tasks(&self) -> Vec<InitialTask> {
        let mut tasks = Vec::new();
        for (i, seg) in self.workload.segments.iter().enumerate() {
            let fp = GenomeWorkload::fingerprint(seg);
            // Phase 1: deduplicate.
            tasks.push(InitialTask::new(
                FID_DEDUP,
                TS_DEDUP,
                self.bucket_hint(&self.dedup_table, fp, BUCKET_SLOTS),
                vec![i as u64],
            ));
            // Phase 3: match. The bucket probed depends on this segment's
            // suffix, which the creating code does not inspect: NOHINT.
            tasks.push(InitialTask::new(FID_MATCH, TS_MATCH, Hint::None, vec![i as u64]));
        }
        tasks
    }

    fn run_task(&self, fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let seg_id = args[0] as usize;
        let seg = &self.workload.segments[seg_id];
        match fid {
            FID_DEDUP => {
                // Insert the segment fingerprint if not already present.
                let fp = GenomeWorkload::fingerprint(seg);
                ctx.compute(20);
                for slot in 0..BUCKET_SLOTS {
                    let addr = self.dedup_bucket_addr(fp, slot);
                    let value = ctx.read(addr);
                    if value == fp {
                        return; // duplicate
                    }
                    if value == 0 {
                        ctx.write(addr, fp);
                        // Phase 2: index this unique segment by its prefix.
                        let pfp = self.workload.prefix_fingerprint(seg);
                        ctx.enqueue(
                            FID_INDEX,
                            TS_INDEX.max(ts),
                            self.bucket_hint(&self.prefix_table, pfp, BUCKET_SLOTS * 2),
                            &[seg_id as u64],
                        );
                        return;
                    }
                }
                // Bucket overflow: drop the segment (kept rare by sizing the
                // table at 2x the segment count).
            }
            FID_INDEX => {
                let pfp = self.workload.prefix_fingerprint(seg);
                ctx.compute(20);
                for slot in 0..BUCKET_SLOTS {
                    let key_addr = self.prefix_slot_addr(pfp, slot, 0);
                    let key = ctx.read(key_addr);
                    if key == 0 {
                        ctx.write(key_addr, pfp);
                        ctx.write(self.prefix_slot_addr(pfp, slot, 1), seg_id as u64 + 1);
                        return;
                    }
                    if key == pfp {
                        return; // an equivalent prefix is already indexed
                    }
                }
            }
            FID_MATCH => {
                // Find a segment whose prefix matches this segment's suffix
                // and record the overlap link.
                let sfp = self.workload.suffix_fingerprint(seg);
                ctx.compute(30);
                for slot in 0..BUCKET_SLOTS {
                    let key = ctx.read(self.prefix_slot_addr(sfp, slot, 0));
                    if key == 0 {
                        return;
                    }
                    if key == sfp {
                        let follower = ctx.read(self.prefix_slot_addr(sfp, slot, 1));
                        if follower != 0 && follower != seg_id as u64 + 1 {
                            // Record the link from a SAMEHINT child so it
                            // runs wherever this (NOHINT) task was placed.
                            ctx.enqueue(FID_LINK, ts, Hint::Same, &[seg_id as u64, follower]);
                        }
                        return;
                    }
                }
            }
            FID_LINK => {
                let follower = args[1];
                ctx.write(self.links.addr_of(seg_id as u64), follower);
            }
            other => panic!("unknown genome task function {other}"),
        }
    }

    fn num_task_fns(&self) -> usize {
        4
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        // Phase 1: the number of distinct fingerprints stored in the dedup
        // table must match the serial dedup (inserts are idempotent so this
        // is order-independent).
        let expected_unique = self.workload.unique_segments() as u64;
        let mut counted = 0u64;
        for slot in 0..self.workload.buckets * BUCKET_SLOTS {
            if mem.load(self.dedup_table.addr_of(slot)) != 0 {
                counted += 1;
            }
        }
        if counted != expected_unique {
            return Err(format!("unique segments: got {counted}, expected {expected_unique}"));
        }
        // Phase 3: every recorded link must be a genuine overlap.
        for (i, seg) in self.workload.segments.iter().enumerate() {
            let link = mem.load(self.links.addr_of(i as u64));
            if link != 0 {
                let follower = &self.workload.segments[(link - 1) as usize];
                if self.workload.suffix_fingerprint(seg)
                    != self.workload.prefix_fingerprint(follower)
                {
                    return Err(format!("segment {i} linked to a non-overlapping follower"));
                }
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

    fn workload(seed: u64) -> GenomeWorkload {
        GenomeWorkload::generate(512, 16, 6, 120, seed)
    }

    fn run(app: Genome, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("genome must deduplicate and link correctly")
    }

    #[test]
    fn workload_has_duplicates_and_overlaps() {
        let w = workload(1);
        assert!(w.segments.len() > 120);
        assert!(w.unique_segments() < w.segments.len());
        // Consecutive cuts genuinely overlap.
        assert_eq!(w.suffix_fingerprint(&w.segments[0]), w.prefix_fingerprint(&w.segments[1]));
    }

    #[test]
    fn fingerprints_are_nonzero_and_stable() {
        let a = GenomeWorkload::fingerprint(&[0, 1, 2, 3]);
        let b = GenomeWorkload::fingerprint(&[0, 1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(a, GenomeWorkload::fingerprint(&[3, 2, 1, 0]));
    }

    #[test]
    fn matches_serial_dedup_on_one_core() {
        run(Genome::new(workload(2)), Scheduler::Random, 1);
    }

    #[test]
    fn matches_serial_dedup_under_all_schedulers() {
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Genome::new(workload(3)), s, 16);
        }
    }

    #[test]
    fn contended_hash_inserts_cause_aborts_under_random() {
        let stats = run(Genome::new(workload(4)), Scheduler::Random, 16);
        assert!(stats.tasks_committed > 200);
    }
}
