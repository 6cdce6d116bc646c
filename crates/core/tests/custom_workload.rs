//! A hand-built workload — event ids that are not schedule positions, one
//! event whose speculative view diverges — runs through every mode.
//!
//! The simulator executes only packed arenas; any other `Workload` is
//! packed once at entry. This pins that entry for custom workloads: the
//! divergence is recorded at the event's position, nothing panics,
//! retirement is exact, and reports equal those of the packed form.

use esp_core::{SampleParams, SimConfig, Simulator};
use esp_trace::{EventRecord, EventStream, Instr, PackedWorkload, VecEventStream, Workload};
use esp_types::{Addr, Cycle, EventId, EventKindId};

const EVENTS: u64 = 6;
const LEN: u64 = 400;
/// The event whose pre-execution veers off, at its first load (loads
/// sit at `i % 5 == 3`).
const DIVERGING: u64 = 2;
const DIVERGE_AT: u64 = 8;

/// Descending, sparse event ids: never equal to the position.
fn id_of(position: u64) -> EventId {
    EventId::new(1_000 - 10 * position)
}

/// Event `e`'s instructions: ALU work with a cold load every fifth slot.
fn trace(e: u64, data_base: u64) -> Vec<Instr> {
    (0..LEN)
        .map(|i| {
            let pc = Addr::new(0x40_0000 + e * 0x1_0000 + i * 4);
            if i % 5 == 3 {
                Instr::load(pc, Addr::new(data_base + (e * LEN + i) * 64), false)
            } else {
                Instr::alu(pc)
            }
        })
        .collect()
}

struct HandBuilt(Vec<EventRecord>);

impl Workload for HandBuilt {
    fn events(&self) -> &[EventRecord] {
        &self.0
    }

    fn actual_stream(&self, id: EventId) -> Box<dyn EventStream + '_> {
        let e = (0..EVENTS).find(|&e| id_of(e) == id).expect("known id");
        Box::new(VecEventStream::new(trace(e, 0x10_0000)))
    }

    fn speculative_stream(&self, id: EventId) -> Box<dyn EventStream + '_> {
        let e = (0..EVENTS).find(|&e| id_of(e) == id).expect("known id");
        let mut v = trace(e, 0x10_0000);
        if e == DIVERGING {
            // From the divergence point on, the loads touch other data.
            let at = DIVERGE_AT as usize;
            v[at..].copy_from_slice(&trace(e, 0x70_0000)[at..]);
        }
        Box::new(VecEventStream::new(v))
    }
}

#[test]
fn hand_built_workload_runs_exactly_in_every_mode() {
    let w = HandBuilt(
        (0..EVENTS)
            .map(|e| EventRecord {
                id: id_of(e),
                kind: EventKindId::new(0),
                handler_pc: Addr::new(0x40_0000 + e * 0x1_0000),
                arg_addr: Addr::new(0x8000_0000),
                approx_len: LEN,
                post_time: Cycle::ZERO,
                order_mispredicted: false,
            })
            .collect(),
    );
    let packed = PackedWorkload::from_workload(&w);
    for e in 0..EVENTS {
        let want = (e == DIVERGING).then_some(DIVERGE_AT);
        assert_eq!(packed.arena().event(e as usize).diverge_at(), want, "event {e}");
    }
    let configs = [
        ("base", SimConfig::base()),
        ("runahead", SimConfig::runahead()),
        ("esp", SimConfig::esp_nl()),
    ];
    for (name, config) in configs {
        let want_retired = EVENTS * (LEN + u64::from(config.looper_instrs));
        let sim = Simulator::new(config);
        let exact = sim.run(&w);
        assert_eq!(exact.engine.retired, want_retired, "{name}: exact retirement");
        assert!(name != "esp" || exact.esp.spec_instrs() > 0, "ESP must pre-execute");
        assert_eq!(format!("{exact:#?}"), format!("{:#?}", sim.run(&packed)), "{name}: exact");

        let params = SampleParams::new(100, 4);
        let sampled = sim.run_sampled(&w, params);
        assert!(!sampled.estimate.exact_fallback, "{name}: too small to sample");
        assert_eq!(sampled.report.engine.retired, want_retired, "{name}: sampled retirement");
        let want = sim.run_sampled(&packed, params);
        assert_eq!(format!("{sampled:#?}"), format!("{want:#?}"), "{name}: sampled");
    }
}
