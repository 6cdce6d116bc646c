//! The packed arena is the only form the simulator executes. These tests
//! pin the two properties that make its single kernel loop per mode
//! trustworthy.
//!
//! (a) **Encoding invariance.** The kernels batch runs of plain ALUs
//! (kind byte exactly `TAG_ALU`): exact mode charges a same-line run in
//! one step, sampled mode clips the run below the grain boundary, and
//! the warming walks sweep runs in bulk. A copy of an arena in which
//! every ALU carries an explicit pc operand decodes to the identical
//! instruction sequence but never batches, so every instruction takes
//! the per-step path. Reports over the two encodings must render
//! byte-identically — exact `RunReport`s with their CPI-stack JSON and
//! JSONL trace, `SampledRun`s, and learned `SampledRun`s — for every
//! family under Base, Runahead and ESP+NL. Together with
//! `kernel_table_equivalence` (in `esp-uarch`: `Engine::step_raw` ≡
//! `Engine::step_probed` per step) this is the decoded-versus-kernel
//! guarantee.
//!
//! (b) **Generic packer ≡ generator emitter.** Packing the regenerative
//! streams with `PackedWorkload::from_workload` yields the actual traces
//! and speculative views the generator's emitter materialises, and the
//! same reports.

use esp_bench::ConfigKey;
use esp_core::{LearnParams, SampleParams, Simulator};
use esp_obs::TraceProbe;
use esp_trace::kindbits::{EXPLICIT_PC, TAG_ALU, TAG_MASK};
use esp_trace::{record_stream, PackedEvent, PackedTrace, PackedWorkload, TraceArena, Workload};
use esp_workload::BenchmarkProfile;
use std::sync::Arc;

const SCALE: u64 = 18_000;
const SEED: u64 = 13;
const KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

/// `trace` re-encoded with an explicit pc operand on every ALU.
fn with_explicit_alu_pcs(trace: &PackedTrace) -> PackedTrace {
    let mut kinds = Vec::with_capacity(trace.len());
    let mut ops = Vec::with_capacity(trace.op_words().len() + trace.len());
    let mut cursor = trace.cursor();
    while let Some(step) = cursor.next_raw() {
        let tag = step.kind & TAG_MASK;
        let kind = if tag == TAG_ALU { step.kind | EXPLICIT_PC } else { step.kind };
        if kind & EXPLICIT_PC != 0 {
            ops.push(step.pc);
        }
        if tag != TAG_ALU {
            ops.push(step.op);
        }
        kinds.push(kind);
    }
    PackedTrace::from_raw_parts(trace.start_pc(), kinds, ops).expect("re-encoded trace validates")
}

/// A copy of `w` whose every trace never batches (see the module docs).
fn unbatched(w: &PackedWorkload) -> PackedWorkload {
    let events = (0..w.arena().len())
        .map(|i| {
            let ev = w.arena().event(i);
            PackedEvent::new(
                with_explicit_alu_pcs(ev.actual()),
                ev.diverge_at(),
                with_explicit_alu_pcs(ev.spec_tail()),
            )
        })
        .collect();
    let copy = PackedWorkload::new(
        w.events().to_vec(),
        Arc::new(TraceArena::new(events)),
        w.approx_total_instructions(),
    );
    let first = copy.arena().event(0).actual();
    assert!(!first.kind_bytes().contains(&TAG_ALU), "re-encoding must leave no plain ALU");
    copy
}

/// Every family's arena at the test scale, paired with its unbatched
/// copy.
fn arenas() -> Vec<(String, PackedWorkload, PackedWorkload)> {
    BenchmarkProfile::all_families()
        .into_iter()
        .map(|p| {
            let packed = p.scaled(SCALE).build(SEED).materialise_par(2);
            let plain = unbatched(&packed);
            (p.name().to_string(), packed, plain)
        })
        .collect()
}

#[test]
fn exact_reports_do_not_depend_on_alu_encoding() {
    for (name, packed, plain) in arenas() {
        for key in KEYS {
            let what = format!("{name} {key:?}");
            let mut probe_a = TraceProbe::new(&name, key.label());
            let mut probe_b = TraceProbe::new(&name, key.label());
            let a = Simulator::new(key.config()).run_probed(&packed, &mut probe_a);
            let b = Simulator::new(key.config()).run_probed(&plain, &mut probe_b);
            assert_eq!(format!("{a:#?}"), format!("{b:#?}"), "{what}: RunReport");
            assert_eq!(a.cpi_stack.to_json(), b.cpi_stack.to_json(), "{what}: CPI stack JSON");
            assert_eq!(probe_a.into_bytes(), probe_b.into_bytes(), "{what}: JSONL trace bytes");
        }
    }
}

#[test]
fn sampled_reports_do_not_depend_on_alu_encoding() {
    let params = SampleParams { grain_instrs: 500, period: 4 };
    for (name, packed, plain) in arenas() {
        for key in KEYS {
            let a = Simulator::new(key.config()).run_sampled(&packed, params);
            let b = Simulator::new(key.config()).run_sampled(&plain, params);
            assert!(!a.estimate.exact_fallback, "{name} {key:?}: sampling fell back to exact");
            assert_eq!(format!("{a:#?}"), format!("{b:#?}"), "{name} {key:?}: SampledRun");
        }
    }
}

#[test]
fn learned_reports_do_not_depend_on_alu_encoding() {
    // Fine grains give every family enough stretches to train and skip,
    // so the skip walk and the teed suffix walk are both exercised.
    let params = SampleParams::new(250, 10);
    let mut skipped = 0;
    for (name, packed, plain) in arenas() {
        for key in KEYS {
            let sim = Simulator::new(key.config());
            let a = sim.run_sampled_learned(&packed, params, LearnParams::default());
            let b = sim.run_sampled_learned(&plain, params, LearnParams::default());
            assert_eq!(format!("{a:#?}"), format!("{b:#?}"), "{name} {key:?}: learned SampledRun");
            skipped += a.learned.expect("learned run carries stats").skipped_grains;
        }
    }
    assert!(skipped > 0, "no learned cell skipped: the comparison is vacuous");
}

#[test]
fn generic_packer_matches_the_emitter() {
    let mut diverging = 0;
    for profile in BenchmarkProfile::all_families() {
        let walk = profile.scaled(30_000).build(7);
        let emitted = walk.materialise();
        let generic = PackedWorkload::from_workload(&walk);
        let name = profile.name();
        assert_eq!(generic.events(), emitted.events(), "{name}: event records");
        for i in 0..emitted.arena().len() {
            let (g, e) = (generic.arena().event(i), emitted.arena().event(i));
            assert_eq!(g.actual(), e.actual(), "{name} event {i}: actual trace");
            assert_eq!(
                record_stream(&mut g.speculative_cursor(), usize::MAX),
                record_stream(&mut e.speculative_cursor(), usize::MAX),
                "{name} event {i}: speculative view"
            );
            diverging += usize::from(g.diverge_at().is_some());
        }
        for key in KEYS {
            let sim = Simulator::new(key.config());
            assert_eq!(
                format!("{:#?}", sim.run(&generic)),
                format!("{:#?}", sim.run(&emitted)),
                "{name} {key:?}: RunReport"
            );
        }
    }
    assert!(diverging > 0, "no diverging event: the speculative tails went unchecked");
}

#[test]
fn differential_oracle_accepts_packed_replay() {
    // The esp-check oracle (event recount, serial timing bound, replay of
    // the component side-effect logs) runs against the packed form.
    for profile in [BenchmarkProfile::amazon(), BenchmarkProfile::pixlr()] {
        let packed = esp_workload::arena::packed_for(&profile.scaled(SCALE), SEED, 2);
        for key in KEYS {
            esp_check::check_run(&key.config(), &*packed)
                .unwrap_or_else(|e| panic!("{} {key:?}: {e}", profile.name()));
        }
    }
}
