//! `des`: discrete event simulation of a digital circuit (Listing 1).
//!
//! Ordered benchmark: a task simulates one signal toggle arriving at a gate
//! input at a given simulated time (the task's timestamp). If the gate's
//! output changes, the task enqueues toggles for every connected input after
//! that gate's propagation delay. Each task reads and writes only its own
//! gate's state, so the gate id is a perfect spatial hint (Table I).
//!
//! The paper simulates `csaArray32` (an array of carry-select adders); we
//! generate a layered random circuit of the same flavour: a grid of 2-input
//! gates with random types, local wiring to the previous layer, and external
//! input waveforms driving the first layer.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use swarm_mem::{AddressSpace, Region, SimMemory};
use swarm_sim::{InitialTask, SwarmApp, TaskCtx};
use swarm_types::{Hint, TaskFnId, Timestamp};

/// Gate types supported by the circuit generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Exclusive OR.
    Xor,
    /// Negated AND.
    Nand,
    /// Negated OR.
    Nor,
}

impl GateKind {
    fn eval(self, a: u64, b: u64) -> u64 {
        let (a, b) = (a & 1, b & 1);
        match self {
            GateKind::And => a & b,
            GateKind::Or => a | b,
            GateKind::Xor => a ^ b,
            GateKind::Nand => 1 - (a & b),
            GateKind::Nor => 1 - (a | b),
        }
    }

    fn from_index(i: u64) -> Self {
        match i % 5 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Xor,
            3 => GateKind::Nand,
            _ => GateKind::Nor,
        }
    }
}

/// One 2-input gate of the generated netlist.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Propagation delay in simulated time units.
    pub delay: u64,
    /// Destination (gate, input index) pairs driven by this gate's output.
    pub fanout: Vec<(u32, u8)>,
}

/// A generated circuit: gates in layers plus external input waveforms.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// All gates.
    pub gates: Vec<Gate>,
    /// External stimuli: (time, destination gate, input index, value).
    pub waveforms: Vec<(u64, u32, u8, u64)>,
}

impl Circuit {
    /// Generate a layered random circuit with `layers` layers of `width`
    /// gates each, driven by `toggles` external toggles per primary input.
    pub fn layered(width: usize, layers: usize, toggles: usize, seed: u64) -> Self {
        assert!(width >= 2 && layers >= 2, "circuit must have at least 2x2 gates");
        let mut rng = SmallRng::seed_from_u64(seed);
        let num_gates = width * layers;
        let mut gates: Vec<Gate> = (0..num_gates)
            .map(|g| Gate {
                kind: GateKind::from_index(rng.gen_range(0..5)),
                delay: 1 + (g as u64 % 7),
                fanout: Vec::new(),
            })
            .collect();
        // Wire each gate in layer l (l >= 1) to two gates of layer l-1.
        for layer in 1..layers {
            for x in 0..width {
                let gate = (layer * width + x) as u32;
                for input in 0..2u8 {
                    let src_x = (x + rng.gen_range(0..3) + width - 1) % width;
                    let src = ((layer - 1) * width + src_x) as u32;
                    gates[src as usize].fanout.push((gate, input));
                }
            }
        }
        // External waveforms drive the first layer's inputs. The two inputs
        // of a gate toggle on opposite parities so the primary stimuli never
        // collide at a gate.
        let mut waveforms = Vec::new();
        for x in 0..width {
            let gate = x as u32;
            for input in 0..2u8 {
                let mut value = rng.gen_range(0..2u64);
                let mut time = input as u64;
                for _ in 0..toggles {
                    time += 2 * rng.gen_range(1..6u64);
                    value ^= 1;
                    waveforms.push((time, gate, input, value));
                }
            }
        }
        Circuit { gates, waveforms }
    }

    /// Emission slots per gate used in the timestamp encoding: up to this
    /// many output toggles of one gate can share a nominal arrival time
    /// before timestamps would collide.
    pub const EMIT_SLOTS: u64 = 1024;

    /// The factor by which event timestamps are scaled so that every event
    /// can carry the identity of its emitter in its low digits.
    ///
    /// Two events can arrive at a gate at the same *simulated time* (e.g.
    /// glitches reaching both inputs through paths of equal delay); their
    /// relative order then determines the gate's toggle count and the
    /// glitches it forwards. Encoding `(emitting gate, emission index)` into
    /// the timestamp makes every event's timestamp unique, so the commit
    /// order is fully determined by the program itself — identical for the
    /// serial reference and for any speculative schedule on any number of
    /// cores. (This is the standard deterministic tie-breaking trick of
    /// parallel discrete-event simulation.)
    pub fn ts_scale(&self) -> u64 {
        self.gates.len() as u64 * (Self::EMIT_SLOTS + 2)
    }

    /// Timestamp of an external waveform toggle on `(gate, input)` at `time`.
    pub fn waveform_ts(&self, time: u64, gate: u32, input: u8) -> u64 {
        time * self.ts_scale()
            + self.gates.len() as u64 * Self::EMIT_SLOTS
            + gate as u64 * 2
            + input as u64
    }

    /// Timestamp of the `emission`-th output toggle of `src_gate` arriving
    /// at `time`.
    pub fn event_ts(&self, time: u64, src_gate: u32, emission: u64) -> u64 {
        time * self.ts_scale() + src_gate as u64 * Self::EMIT_SLOTS + (emission % Self::EMIT_SLOTS)
    }

    /// The simulated time encoded in a timestamp.
    pub fn ts_time(&self, ts: u64) -> u64 {
        ts / self.ts_scale()
    }

    /// Serial event-driven reference simulation; returns the final output
    /// value and toggle count of every gate. Events are processed in exactly
    /// the encoded-timestamp order the speculative execution commits in.
    pub fn simulate_serial(&self) -> Vec<(u64, u64)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.gates.len();
        let mut inputs = vec![[0u64; 2]; n];
        let mut outputs = vec![0u64; n];
        let mut toggles = vec![0u64; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32, u8, u64)>> = BinaryHeap::new();
        for &(t, g, i, v) in &self.waveforms {
            heap.push(Reverse((self.waveform_ts(t, g, i), g, i, v)));
        }
        while let Some(Reverse((ts, g, i, v))) = heap.pop() {
            let gi = g as usize;
            inputs[gi][i as usize] = v;
            let new_out = self.gates[gi].kind.eval(inputs[gi][0], inputs[gi][1]);
            if new_out != outputs[gi] {
                outputs[gi] = new_out;
                let emission = toggles[gi];
                toggles[gi] += 1;
                let arrival = self.ts_time(ts) + self.gates[gi].delay;
                for &(dst, di) in &self.gates[gi].fanout {
                    heap.push(Reverse((self.event_ts(arrival, g, emission), dst, di, new_out)));
                }
            }
        }
        outputs.into_iter().zip(toggles).collect()
    }
}

/// Word offsets within each gate's private cache line.
const IN0: u64 = 0;
const IN1: u64 = 1;
const OUT: u64 = 2;
const TOGGLES: u64 = 3;

/// The des benchmark.
pub struct Des {
    circuit: Circuit,
    state: Region,
    reference: Vec<(u64, u64)>,
}

impl Des {
    /// Build the benchmark around a generated circuit.
    pub fn new(circuit: Circuit) -> Self {
        let mut space = AddressSpace::new();
        let state = space.alloc_strided("gates", circuit.gates.len() as u64, 8);
        let reference = circuit.simulate_serial();
        Des { circuit, state, reference }
    }

    fn addr(&self, gate: u32, field: u64) -> u64 {
        self.state.addr_of_field(gate as u64, field)
    }

    fn hint_for(&self, gate: u32) -> Hint {
        // The gate id; equivalent to the gate's cache line since each gate
        // occupies exactly one line.
        Hint::object(0, gate as u64)
    }
}

impl SwarmApp for Des {
    fn name(&self) -> &str {
        "des"
    }

    fn init_memory(&self, _mem: &mut SimMemory) {
        // All gate inputs and outputs start at zero, which is the default.
    }

    fn initial_tasks(&self) -> Vec<InitialTask> {
        self.circuit
            .waveforms
            .iter()
            .map(|&(t, g, i, v)| {
                let ts = self.circuit.waveform_ts(t, g, i);
                InitialTask::new(0, ts, self.hint_for(g), vec![g as u64, i as u64, v])
            })
            .collect()
    }

    fn run_task(&self, _fid: TaskFnId, ts: Timestamp, args: &[u64], ctx: &mut TaskCtx<'_>) {
        let gate = args[0] as u32;
        let input = args[1].min(1);
        let value = args[2] & 1;
        let gi = gate as usize;

        ctx.write(self.addr(gate, IN0 + input), value);
        let in0 = ctx.read(self.addr(gate, IN0));
        let in1 = ctx.read(self.addr(gate, IN1));
        let new_out = self.circuit.gates[gi].kind.eval(in0, in1);
        let old_out = ctx.read(self.addr(gate, OUT));
        ctx.compute(10);
        if new_out != old_out {
            ctx.write(self.addr(gate, OUT), new_out);
            let toggles = ctx.read(self.addr(gate, TOGGLES));
            ctx.write(self.addr(gate, TOGGLES), toggles + 1);
            let arrival = self.circuit.ts_time(ts) + self.circuit.gates[gi].delay;
            let child_ts = self.circuit.event_ts(arrival, gate, toggles);
            for &(dst, di) in &self.circuit.gates[gi].fanout {
                ctx.enqueue(0, child_ts, self.hint_for(dst), &[dst as u64, di as u64, new_out]);
            }
        }
    }

    fn num_task_fns(&self) -> usize {
        1
    }

    fn validate(&self, mem: &SimMemory) -> Result<(), String> {
        for (g, &(out, toggles)) in self.reference.iter().enumerate() {
            let got_out = mem.load(self.addr(g as u32, OUT));
            let got_toggles = mem.load(self.addr(g as u32, TOGGLES));
            if got_out != out {
                return Err(format!("gate {g} output: got {got_out}, expected {out}"));
            }
            if got_toggles != toggles {
                return Err(format!("gate {g} toggles: got {got_toggles}, expected {toggles}"));
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

    fn run(app: Des, scheduler: Scheduler, cores: u32) -> swarm_sim::RunStats {
        let mut engine = Sim::builder()
            .cores(cores)
            .app(app)
            .scheduler(scheduler)
            .build()
            .expect("valid simulation");
        engine.run().expect("des must match the serial event-driven simulation")
    }

    #[test]
    fn gate_kinds_evaluate_correctly() {
        assert_eq!(GateKind::And.eval(1, 1), 1);
        assert_eq!(GateKind::And.eval(1, 0), 0);
        assert_eq!(GateKind::Or.eval(0, 0), 0);
        assert_eq!(GateKind::Xor.eval(1, 1), 0);
        assert_eq!(GateKind::Nand.eval(1, 1), 0);
        assert_eq!(GateKind::Nor.eval(0, 0), 1);
    }

    #[test]
    fn serial_reference_propagates_events() {
        let c = Circuit::layered(4, 3, 3, 1);
        let result = c.simulate_serial();
        assert_eq!(result.len(), 12);
        // At least the first layer must have toggled.
        assert!(result.iter().take(4).any(|&(_, t)| t > 0));
    }

    #[test]
    fn speculative_des_matches_serial_single_core() {
        let c = Circuit::layered(6, 4, 4, 2);
        run(Des::new(c), Scheduler::Random, 1);
    }

    #[test]
    fn speculative_des_matches_serial_all_schedulers() {
        let c = Circuit::layered(6, 4, 4, 3);
        for s in [Scheduler::Random, Scheduler::Stealing, Scheduler::Hints, Scheduler::LbHints] {
            run(Des::new(c.clone()), s, 16);
        }
    }

    #[test]
    fn hints_reduce_aborts_on_des() {
        let c = Circuit::layered(8, 6, 6, 4);
        let random = run(Des::new(c.clone()), Scheduler::Random, 16);
        let hints = run(Des::new(c), Scheduler::Hints, 16);
        assert!(
            hints.tasks_aborted <= random.tasks_aborted,
            "hints aborted {} vs random {}",
            hints.tasks_aborted,
            random.tasks_aborted
        );
    }
}
