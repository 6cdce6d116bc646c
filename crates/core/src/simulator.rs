//! The top-level simulation driver.

use crate::config::{SimConfig, SimMode};
use crate::esp_state::EspState;
use crate::lineset::LineSet;
use crate::replay::{ReplayLists, ReplayState};
use crate::report::RunReport;
use esp_branch::{BpOp, PredictorContext};
use esp_energy::{ActivityCounts, EnergyModel};
use esp_mem::{HierarchySnapshot, MemOp};
use esp_obs::{CycleClass, EventSpan, NullProbe, Probe, RunSummary, WindowRecord, WindowSpender};
use esp_stats::BranchStats;
use esp_trace::kindbits::{TAG_COND, TAG_LOAD, TAG_MASK, TAG_STORE};
use esp_trace::{EventCursor, EventStream, Instr, Workload, INSTR_BYTES};
use esp_types::Addr;
use esp_uarch::{Engine, KernelParams, KindTable, StallKind};

/// Code region of the synthetic looper (event-queue management): a small
/// hot loop executed between events.
const LOOPER_PC_BASE: u64 = 0x0040_0000;
/// Data region of the looper's queue structures.
const LOOPER_QUEUE_BASE: u64 = 0x0060_0000;

/// Every externally observable side effect a run applied to its memory
/// hierarchy and branch predictor, captured at the component boundary.
///
/// Produced by [`Simulator::run_logged`]. The `esp-check` oracle replays
/// `mem_ops` and `bp_ops` against fresh components of the same
/// configuration and asserts each recorded outcome and the final
/// [`HierarchySnapshot`] / per-context [`BranchStats`] reproduce exactly
/// — a differential check that the interval engine drives its
/// components only through their public entry points and that those
/// components are deterministic functions of their call sequence.
#[derive(Clone, Debug)]
pub struct SideEffectLog {
    /// Every memory-hierarchy mutation, in program order.
    pub mem_ops: Vec<MemOp>,
    /// Per-level counters at end of run.
    pub mem_snapshot: HierarchySnapshot,
    /// Every branch-predictor mutation, in program order.
    pub bp_ops: Vec<BpOp>,
    /// Per-context prediction statistics at end of run.
    pub bp_stats: [(PredictorContext, BranchStats); 3],
}

/// The end-of-run [`RunSummary`] every mode hands its probe: `report`'s
/// totals plus the hierarchy and ESP-context predictor counters of
/// `engine`.
pub(crate) fn run_summary(report: &RunReport, engine: &Engine) -> RunSummary {
    let mem = engine.mem().snapshot();
    let esp1 = engine.bp().stats(PredictorContext::Esp1);
    let esp2 = engine.bp().stats(PredictorContext::Esp2);
    RunSummary {
        total_cycles: report.total_cycles,
        events: report.events_run,
        retired: report.engine.retired,
        stack: report.cpi_stack,
        l1i: mem.l1i,
        l1d: mem.l1d,
        l2: mem.l2,
        branches: report.engine.branches,
        mispredicts: report.engine.mispredicts,
        esp_branches: esp1.total() + esp2.total(),
        esp_mispredicts: esp1.mispredicted + esp2.mispredicted,
    }
}

/// What one event's detailed stretches accumulated: branches retired
/// (the replay lists' branch clock) and pre-execution windows opened.
#[derive(Default)]
pub(crate) struct EventTally {
    pub branches: u64,
    pub windows: u64,
}

/// The ESP simulator: one machine configuration, runnable over any
/// [`Workload`].
///
/// # Examples
///
/// ```
/// use esp_core::{SimConfig, Simulator};
/// use esp_workload::BenchmarkProfile;
///
/// let w = BenchmarkProfile::pixlr().scaled(30_000).build(1);
/// let report = Simulator::new(SimConfig::base()).run(&w);
/// assert!(report.engine.retired > 30_000);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("invalid simulation configuration");
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The `i`-th instruction of the looper prologue executed before
    /// event `idx`: queue-management loads over a hot structure plus ALU
    /// work, all in one small code region (§3.6 observes ~70 such
    /// instructions). Generated in place — no per-event buffer.
    #[inline]
    pub(crate) fn looper_instr(idx: usize, i: u64) -> Instr {
        let pc = Addr::new(LOOPER_PC_BASE + (i % 32) * 4);
        if i % 4 == 1 {
            Instr::load(pc, Addr::new(LOOPER_QUEUE_BASE + ((idx as u64 + i) % 16) * 64), false)
        } else {
            Instr::alu(pc)
        }
    }

    /// Runs the workload to completion and reports. A workload that is
    /// not already a [`esp_trace::PackedWorkload`] is packed once first
    /// ([`Workload::to_packed`]).
    pub fn run(&self, workload: &dyn Workload) -> RunReport {
        self.run_probed(workload, &mut NullProbe)
    }

    /// [`Simulator::run`] with an observability probe (see `esp-obs`).
    ///
    /// The probe sees every stall charge, every spent pre-execution
    /// window, one [`EventSpan`] per event (whose stack tiles the run:
    /// span stacks sum to the total CPI stack), and a final
    /// [`RunSummary`]. Statically dispatched: `run` is this method
    /// monomorphized over the no-op probe, at identical speed.
    pub fn run_probed<P: Probe>(&self, workload: &dyn Workload, probe: &mut P) -> RunReport {
        self.run_inner(workload, probe, false).0
    }

    /// [`Simulator::run_probed`] with component side-effect recording: on
    /// top of the report, returns the [`SideEffectLog`] of every memory
    /// and branch-predictor mutation the run performed, for differential
    /// replay by `esp-check`.
    pub fn run_logged<P: Probe>(
        &self,
        workload: &dyn Workload,
        probe: &mut P,
    ) -> (RunReport, SideEffectLog) {
        let (report, log) = self.run_inner(workload, probe, true);
        (report, log.expect("recording was requested"))
    }

    /// The per-event loop behind [`Simulator::run_probed`] and
    /// [`Simulator::run_logged`]; `log_effects` turns on side-effect
    /// recording in the memory hierarchy and branch predictor.
    fn run_inner<P: Probe>(
        &self,
        workload: &dyn Workload,
        probe: &mut P,
        log_effects: bool,
    ) -> (RunReport, Option<SideEffectLog>) {
        let packed = workload.to_packed();
        let workload = &*packed;
        let mut engine = Engine::new(self.config.engine.clone());
        let mut esp: Option<EspState<'_>> = match &self.config.mode {
            SimMode::Esp(f) => Some(EspState::new(*f, workload)),
            _ => None,
        };
        let mut replay = ReplayState::default();
        if let Some(f) = self.config.esp_features() {
            replay.set_leads(f.prefetch_lead_instrs, f.bp_train_lead_branches);
        }
        let mut pending_lists: Option<ReplayLists> = None;
        if log_effects {
            engine.mem_mut().set_recording(true);
            engine.bp_mut().set_recording(true);
        }
        let events = workload.events();
        // Reused across events: cleared in O(1), allocation kept.
        let mut iws = LineSet::new();
        let mut dws = LineSet::new();
        let measure = self.config.esp_features().is_some_and(|f| f.measure_working_sets);
        let ideal = self.config.esp_features().is_some_and(|f| f.ideal);
        // Lower the configuration once: the event loop runs the fused
        // kernel through this flat parameter block + kind table.
        let kernel_params = engine.lower_kernel();
        let kind_table = KindTable::<P>::new(&kernel_params);
        let n_looper = self.config.looper_instrs as u64;

        for (idx, record) in events.iter().enumerate() {
            let span_start = engine.now();
            let stack_before = *engine.cpi_stack();
            let retired_before = engine.stats().retired;

            // The looper cannot dequeue an event before it is posted.
            engine.idle_until(record.post_time);

            // Arm replay with whatever the event's pre-execution gathered
            // and use the looper prologue as the prefetch head start.
            replay.arm(pending_lists.take(), ideal, &mut engine);
            for i in 0..n_looper {
                replay.tick(&mut engine, 0, 0);
                engine.step_probed(&Self::looper_instr(idx, i), probe);
            }

            // The arena is indexed by schedule position, not event id.
            let mut stream = workload.arena().event(idx).actual_cursor();
            let mut tally = EventTally::default();
            iws.clear();
            dws.clear();
            self.run_event(
                &mut stream,
                idx,
                &mut engine,
                &mut esp,
                &mut replay,
                probe,
                measure,
                &kernel_params,
                &kind_table,
                &mut iws,
                &mut dws,
                &mut tally,
                u64::MAX,
            );

            if let Some(esp) = esp.as_mut() {
                if measure {
                    esp.record_normal_working_set(iws.len(), dws.len());
                }
                pending_lists = esp.on_event_complete(idx + 1);
                engine.bp_mut().promote_event();
            }

            probe.on_event(&EventSpan {
                idx: idx as u64,
                start: span_start,
                end: engine.now(),
                retired: engine.stats().retired - retired_before,
                windows: tally.windows,
                stack: engine.cpi_stack().since(&stack_before),
            });
        }

        let log = log_effects.then(|| SideEffectLog {
            mem_ops: engine.mem_mut().take_ops(),
            mem_snapshot: engine.mem().snapshot(),
            bp_ops: engine.bp_mut().take_ops(),
            bp_stats: engine.bp().stats_all(),
        });
        let report = self.assemble_report(&engine, esp, replay, events.len() as u64);
        probe.on_run(&run_summary(&report, &engine));
        (report, log)
    }

    /// The detailed per-instruction loop, a fused kernel: runs up to
    /// `budget` instructions of one event, decode→predict→access→charge
    /// in one pass over the raw arena (no per-instruction [`Instr`]
    /// except for branches). Runs of plain same-line ALU instructions
    /// are batch-charged, clipped so the instruction that exhausts the
    /// budget is always stepped alone; batching performs the same
    /// engine-call sequence as stepping, so reports do not depend on how
    /// the arena encodes its ALUs (asserted by `packed_equivalence`).
    /// Exact mode runs whole events (`u64::MAX`), sampled mode one
    /// detailed grain at a time; `tally` accumulates over the calls of
    /// one event. Returns the number of instructions run, short of
    /// `budget` only at end of event.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_event<P: Probe>(
        &self,
        stream: &mut EventCursor<'_>,
        idx: usize,
        engine: &mut Engine,
        esp: &mut Option<EspState<'_>>,
        replay: &mut ReplayState,
        probe: &mut P,
        measure: bool,
        kp: &KernelParams,
        tbl: &KindTable<P>,
        iws: &mut LineSet,
        dws: &mut LineSet,
        tally: &mut EventTally,
        budget: u64,
    ) -> u64 {
        // Hot counters live in locals, written back once at the end.
        let mut done = 0u64;
        let mut branches = tally.branches;
        while done < budget {
            replay.tick(engine, stream.executed(), branches);
            // Grain batching: a run of plain ALU instructions on the
            // already-fetched line performs no fetch, branch, data, or
            // replay work — charge its base cycles in one accumulation.
            // (Replay must be drained: tick_slow's prefetch timing
            // depends on the per-instruction clock.)
            let headroom = budget - done - 1;
            if headroom > 0 && replay.drained() {
                let pc = stream.raw_pc();
                let line = pc >> kp.line_shift;
                if engine.on_fetch_line(line) {
                    let line_end = (line + 1) << kp.line_shift;
                    let max = ((line_end - pc) / INSTR_BYTES).min(headroom) as usize;
                    let n = stream.plain_run(max);
                    if n > 0 {
                        if measure {
                            // Same line for the whole run; the set insert
                            // is idempotent, as per-instruction inserts
                            // would be.
                            iws.insert(line);
                        }
                        stream.skip_plain(n);
                        engine.charge_plain_alus(n as u64, probe);
                        done += n as u64;
                        continue;
                    }
                }
            }
            let Some(rs) = stream.next_raw() else {
                break;
            };
            let tag = rs.kind & TAG_MASK;
            if measure {
                iws.insert(rs.pc >> kp.line_shift);
                if tag == TAG_LOAD || tag == TAG_STORE {
                    dws.insert(rs.op >> kp.line_shift);
                }
            }
            let out = engine.step_raw(kp, tbl, rs.kind, rs.pc, rs.op, probe);
            branches += u64::from(tag >= TAG_COND);
            if let Some(stall) = out.stall {
                self.spend_stall(stall, stream, idx, engine, esp, probe, &mut tally.windows);
            }
            done += 1;
        }
        tally.branches = branches;
        done
    }

    /// Spends one exposed LLC-miss stall window according to the mode —
    /// shared by the exact and sampled event loops. Runahead pre-executes
    /// from a copy of `stream`; the original resumes untouched.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn spend_stall<P: Probe>(
        &self,
        stall: esp_uarch::Stall,
        stream: &EventCursor<'_>,
        idx: usize,
        engine: &mut Engine,
        esp: &mut Option<EspState<'_>>,
        probe: &mut P,
        span_windows: &mut u64,
    ) {
        match &self.config.mode {
            SimMode::Baseline => {}
            SimMode::Runahead { data_only } => {
                if stall.kind == StallKind::DataLlcMiss {
                    *span_windows += 1;
                    let ra =
                        engine.run_runahead(stream.clone(), stall.start, stall.cycles, *data_only);
                    probe.on_window(&WindowRecord {
                        at: stall.start,
                        stall_class: CycleClass::DcacheLlc,
                        offered_cycles: stall.cycles,
                        utilized_cycles: ra.utilized_cycles,
                        instrs: ra.instrs,
                        spender: WindowSpender::Runahead,
                    });
                }
            }
            SimMode::Esp(_) => {
                let esp = esp.as_mut().expect("ESP mode without ESP state");
                *span_windows += 1;
                esp.spend_window_probed(engine, stall, idx, probe);
            }
        }
    }

    fn assemble_report(
        &self,
        engine: &Engine,
        esp: Option<EspState<'_>>,
        replay: ReplayState,
        events_run: u64,
    ) -> RunReport {
        let mut report = RunReport {
            total_cycles: engine.now().as_u64(),
            breakdown: engine.breakdown(),
            cpi_stack: *engine.cpi_stack(),
            engine: *engine.stats(),
            events_run,
            replay: replay.stats(),
            ..RunReport::default()
        };
        if let Some(mut esp) = esp {
            let measure = self
                .config
                .esp_features()
                .is_some_and(|f| f.measure_working_sets);
            if measure {
                report.working_sets = Some(esp.take_working_sets());
            }
            report.esp = esp.stats().clone();
        }
        let spec = report.esp.spec_instrs() + report.engine.runahead_instrs;
        report.activity = ActivityCounts {
            cycles: report.busy_cycles(),
            normal_instrs: report.engine.retired,
            spec_instrs: spec,
            mispredicts: report.engine.mispredicts,
        };
        report.energy = EnergyModel::mcpat_32nm().report(&report.activity);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use esp_uarch::PerfectFlags;
    use esp_workload::BenchmarkProfile;

    fn workload() -> esp_workload::GeneratedWorkload {
        BenchmarkProfile::amazon().scaled(120_000).build(42)
    }

    #[test]
    fn baseline_run_completes_and_counts() {
        let w = workload();
        let r = Simulator::new(SimConfig::base()).run(&w);
        assert_eq!(r.events_run, w.events().len() as u64);
        // Retired = workload instructions + looper prologues.
        let expected = w.schedule().total_instructions() + 70 * r.events_run;
        assert_eq!(r.engine.retired, expected);
        assert!(r.total_cycles > 0);
        assert!(r.ipc() > 0.1 && r.ipc() < 4.0, "ipc={}", r.ipc());
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload();
        let a = Simulator::new(SimConfig::esp_nl()).run(&w);
        let b = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.esp, b.esp);
    }

    #[test]
    fn perfect_all_is_fastest() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let perfect = Simulator::new(SimConfig::perfect(PerfectFlags::all())).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(perfect.busy_cycles() < base.busy_cycles());
        assert!(perfect.busy_cycles() < esp.busy_cycles());
    }

    #[test]
    fn next_line_beats_base() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let nl = Simulator::new(SimConfig::next_line()).run(&w);
        assert!(
            nl.busy_cycles() < base.busy_cycles(),
            "NL {} !< base {}",
            nl.busy_cycles(),
            base.busy_cycles()
        );
    }

    #[test]
    fn esp_beats_next_line() {
        let w = workload();
        let nl = Simulator::new(SimConfig::next_line()).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(
            esp.busy_cycles() < nl.busy_cycles(),
            "ESP+NL {} !< NL {}",
            esp.busy_cycles(),
            nl.busy_cycles()
        );
        assert!(esp.esp.spec_instrs() > 0, "ESP must actually pre-execute");
        assert!(esp.l1i_mpki() < nl.l1i_mpki(), "ESP must cut I-MPKI");
    }

    #[test]
    fn runahead_helps_data_but_less_than_esp() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let ra = Simulator::new(SimConfig::runahead()).run(&w);
        assert!(ra.busy_cycles() < base.busy_cycles());
        assert!(ra.engine.runahead_instrs > 0);
        assert!(ra.l1d_miss_rate_pct() < base.l1d_miss_rate_pct());
    }

    #[test]
    fn blist_improves_branch_prediction() {
        let w = workload();
        let without = Simulator::new(SimConfig::esp_bp_separate_context()).run(&w);
        let with = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(
            with.mispredict_rate_pct() < without.mispredict_rate_pct(),
            "B-list {} !< no-B-list {}",
            with.mispredict_rate_pct(),
            without.mispredict_rate_pct()
        );
    }

    #[test]
    fn working_sets_are_collected_in_probe_mode() {
        let w = BenchmarkProfile::pixlr().scaled(60_000).build(3);
        let r = Simulator::new(SimConfig::esp_depth_probe()).run(&w);
        let ws = r.working_sets.expect("probe mode must collect samples");
        assert!(!ws.normal_i.is_empty());
        assert!(!ws.by_depth_i[0].is_empty());
        // ESP-1 working sets are an order of magnitude below normal ones.
        let max_normal = *ws.normal_i.iter().max().unwrap();
        let max_esp1 = ws.by_depth_i[0].iter().max().copied().unwrap_or(0);
        assert!(max_esp1 <= max_normal, "esp1 {max_esp1} > normal {max_normal}");
    }
}
