//! The layers below the simulator, timed from outside.
//!
//! [`drain`] walks every packed event cursor with no simulator attached
//! (the replay floor of `esp-trace`). [`replay_mem`] and [`replay_bp`]
//! feed the side-effect log of [`esp_core::Simulator::run_logged`]
//! through fresh `esp-mem` and `esp-branch` components and count what
//! each layer did; a result that differs from what the run observed is
//! a divergence, and the cell fails.

use esp_branch::{BpOp, BranchPredictor, Prediction, SpeculativeCheckpoint};
use esp_core::{SideEffectLog, SimConfig};
use esp_mem::{MemLevel, MemOp, MemoryHierarchy, ServedAccess};
use esp_trace::{PackedWorkload, Workload, INSTR_BYTES};

/// Drains every actual-stream cursor once, the way the simulator's
/// kernel walks one: runs of plain ALU instructions within a 64-byte
/// fetch line are skipped in bulk, every other instruction is decoded
/// raw. Returns instructions walked.
pub fn drain(w: &PackedWorkload) -> u64 {
    const LINE_BYTES: u64 = 64;
    let mut n = 0u64;
    for r in w.events() {
        let mut c = w.arena().event(r.id.index() as usize).actual_cursor();
        loop {
            let pc = c.raw_pc();
            let plain = c.plain_run(((LINE_BYTES - pc % LINE_BYTES) / INSTR_BYTES) as usize);
            if plain > 0 {
                c.skip_plain(plain);
                n += plain as u64;
                continue;
            }
            let Some(step) = c.next_raw() else { break };
            std::hint::black_box(step);
            n += 1;
        }
    }
    n
}

/// Reads every op of a log without calling any component: the replay
/// harness's own cost, which the simulator's inlined calls do not pay.
pub fn walk<T: Copy>(ops: &[T]) {
    for &op in ops {
        std::hint::black_box(op);
    }
}

/// What one memory-hierarchy replay did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounts {
    /// Every op replayed.
    pub ops: u64,
    /// Demand instruction and data accesses.
    pub demand: u64,
    /// Prefetch requests of every kind.
    pub prefetch: u64,
    /// Prefetch requests that report whether they issued.
    pub prefetch_checked: u64,
    /// Of those, the non-redundant ones.
    pub prefetch_issued: u64,
    /// Demand instruction fetches.
    pub l1i_accesses: u64,
    /// Of those, L1-I misses (full or in-flight).
    pub l1i_misses: u64,
    /// Demand data accesses.
    pub l1d_accesses: u64,
    /// Of those, L1-D misses (full or in-flight).
    pub l1d_misses: u64,
    /// Demand accesses served beyond the L1.
    pub l2_accesses: u64,
    /// Of those, served by memory.
    pub l2_misses: u64,
}

impl MemCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &MemCounts) {
        self.ops += o.ops;
        self.demand += o.demand;
        self.prefetch += o.prefetch;
        self.prefetch_checked += o.prefetch_checked;
        self.prefetch_issued += o.prefetch_issued;
        self.l1i_accesses += o.l1i_accesses;
        self.l1i_misses += o.l1i_misses;
        self.l1d_accesses += o.l1d_accesses;
        self.l1d_misses += o.l1d_misses;
        self.l2_accesses += o.l2_accesses;
        self.l2_misses += o.l2_misses;
    }

    fn demand_result(&mut self, s: &ServedAccess) {
        self.demand += 1;
        if s.level != MemLevel::L1 {
            self.l2_accesses += 1;
            self.l2_misses += u64::from(s.level == MemLevel::Memory);
        }
    }

    fn prefetch_result(&mut self, issued: Option<bool>) {
        self.prefetch += 1;
        if let Some(issued) = issued {
            self.prefetch_checked += 1;
            self.prefetch_issued += u64::from(issued);
        }
    }
}

/// Replays `log.mem_ops` on a fresh hierarchy of `config`'s shape.
///
/// # Errors
///
/// The first op whose result differs from the recorded one, or a final
/// counter snapshot that differs from the run's.
pub fn replay_mem(config: &SimConfig, log: &SideEffectLog) -> Result<MemCounts, String> {
    let mut h = MemoryHierarchy::new(config.engine.machine.hierarchy.clone());
    let mut c = MemCounts { ops: log.mem_ops.len() as u64, ..MemCounts::default() };
    for (i, op) in log.mem_ops.iter().enumerate() {
        let diverged = match *op {
            MemOp::AccessInstr { line, now, served } => {
                let got = h.access_instr(line, now);
                c.demand_result(&got);
                c.l1i_accesses += 1;
                c.l1i_misses += u64::from(got.l1_miss);
                got != served
            }
            MemOp::AccessData { line, now, store, served } => {
                let got = h.access_data(line, now, store);
                c.demand_result(&got);
                c.l1d_accesses += 1;
                c.l1d_misses += u64::from(got.l1_miss);
                got != served
            }
            MemOp::PrefetchInstr { line, now, into_l1, issued } => {
                let got = h.prefetch_instr(line, now, into_l1);
                c.prefetch_result(Some(got));
                got != issued
            }
            MemOp::PrefetchData { line, now, into_l1, issued } => {
                let got = h.prefetch_data(line, now, into_l1);
                c.prefetch_result(Some(got));
                got != issued
            }
            MemOp::PrefetchInstrInstant { line, now } => {
                h.prefetch_instr_instant(line, now);
                c.prefetch_result(None);
                false
            }
            MemOp::PrefetchDataInstant { line, now } => {
                h.prefetch_data_instant(line, now);
                c.prefetch_result(None);
                false
            }
            MemOp::ResetStats => {
                h.reset_stats();
                false
            }
        };
        if diverged {
            return Err(format!("mem replay diverged at op {i}: {op:?}"));
        }
    }
    if h.snapshot() != log.mem_snapshot {
        return Err("mem replay final snapshot diverged".to_string());
    }
    Ok(c)
}

/// What one branch-predictor replay did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BpCounts {
    /// Every op replayed.
    pub ops: u64,
    /// Retiring-branch predictions, every context.
    pub predicts: u64,
    /// Of those, full mispredictions.
    pub mispredicts: u64,
    /// B-list replay training ahead of retirement.
    pub train_ahead: u64,
    /// Speculative-state checkpoints.
    pub checkpoints: u64,
}

impl BpCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &BpCounts) {
        self.ops += o.ops;
        self.predicts += o.predicts;
        self.mispredicts += o.mispredicts;
        self.train_ahead += o.train_ahead;
        self.checkpoints += o.checkpoints;
    }
}

/// Replays `log.bp_ops` on a fresh predictor of `config`'s shape.
///
/// # Errors
///
/// The first prediction whose outcome differs from the recorded one, an
/// unmatched restore, or final statistics that differ from the run's.
pub fn replay_bp(config: &SimConfig, log: &SideEffectLog) -> Result<BpCounts, String> {
    let mut p = BranchPredictor::new(config.engine.machine.branch.clone(), config.engine.bp_policy);
    let mut checkpoints: Vec<SpeculativeCheckpoint> = Vec::new();
    let mut c = BpCounts { ops: log.bp_ops.len() as u64, ..BpCounts::default() };
    for (i, op) in log.bp_ops.iter().enumerate() {
        match *op {
            BpOp::Predict { ctx, instr, outcome } => {
                let got = p.predict_and_update(ctx, &instr);
                c.predicts += 1;
                c.mispredicts += u64::from(got == Prediction::Mispredict);
                if got != outcome {
                    return Err(format!("bp replay diverged at op {i}: {op:?} gave {got:?}"));
                }
            }
            BpOp::TrainAhead { instr } => {
                p.train_ahead(&instr);
                c.train_ahead += 1;
            }
            BpOp::BeginReplay => p.begin_replay(),
            BpOp::ClearRas => p.clear_ras(),
            BpOp::Checkpoint => {
                checkpoints.push(p.checkpoint_speculative());
                c.checkpoints += 1;
            }
            BpOp::Restore => match checkpoints.pop() {
                Some(cp) => p.restore_speculative(cp),
                None => {
                    return Err(format!("bp replay diverged at op {i}: restore without checkpoint"))
                }
            },
            BpOp::Promote => p.promote_event(),
            BpOp::ResetStats => p.reset_stats(),
        }
    }
    if p.stats_all() != log.bp_stats {
        return Err("bp replay final statistics diverged".to_string());
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_core::Simulator;
    use esp_obs::NullProbe;
    use esp_workload::BenchmarkProfile;

    #[test]
    fn replays_reproduce_a_logged_run() {
        let w = BenchmarkProfile::amazon().scaled(20_000).build(3).materialise();
        let config = SimConfig::esp_nl();
        let (_, log) = Simulator::new(config.clone()).run_logged(&w, &mut NullProbe);
        let m = replay_mem(&config, &log).unwrap();
        let b = replay_bp(&config, &log).unwrap();
        assert!(m.demand > 0 && m.prefetch > 0);
        assert!(b.predicts > 0 && b.train_ahead > 0);
        assert!(drain(&w) > 20_000);
    }
}
