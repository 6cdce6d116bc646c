//! Decode-once packed traces: a struct-of-arrays instruction store.
//!
//! The generator in `esp-workload` re-derives an event's instruction
//! stream from its seed every time a stream is opened. That is perfect
//! for memory (nothing is stored) but wrong for the evaluation matrix,
//! where the *same* streams are replayed under dozens of machine
//! configurations: the dominant cost of a matrix run becomes stream
//! regeneration, not timing simulation. This module provides the
//! replay-many half of the trade:
//!
//! * [`PackedTrace`] — one instruction stream, packed into parallel
//!   arrays: one *kind byte* per instruction (discriminant + flags) and
//!   one `u64` operand slot per instruction that needs one. Program
//!   counters are not stored at all: within an event a trace is
//!   control-flow consistent (each instruction's `next_pc` is the next
//!   instruction's `pc`), so the cursor re-derives them; the rare
//!   discontinuity is flagged and spills an explicit pc operand.
//! * [`PackedCursor`] — an allocation-free [`EventStream`] over a
//!   packed trace: three integers of state, no heap, `Clone` for cheap
//!   forking.
//! * [`PackedEvent`] — one event's *actual* stream plus, when the event
//!   diverges, the speculative tail from the divergence point onward.
//!   A speculative cursor reads the shared actual arrays up to the
//!   divergence point and then switches to the tail — the prefix is
//!   stored exactly once.
//! * [`TraceArena`] / [`PackedWorkload`] — a whole program materialised
//!   event by event, shared (`Arc`) across every simulator configuration
//!   and worker thread that replays it.
//!
//! Packing is lossless: a cursor reproduces the recorded [`Instr`]
//! sequence bit for bit (the equivalence tests in `esp-bench` assert
//! byte-identical `RunReport`s and JSONL traces against the
//! regenerative walk).
//!
//! # Examples
//!
//! ```
//! use esp_trace::{EventStream, Instr, PackedTrace};
//! use esp_types::Addr;
//!
//! let instrs = vec![
//!     Instr::alu(Addr::new(0x100)),
//!     Instr::load(Addr::new(0x104), Addr::new(0x8000), false),
//!     Instr::cond_branch(Addr::new(0x108), true, Addr::new(0x100)),
//! ];
//! let packed = PackedTrace::from_instrs(&instrs);
//! let mut cursor = packed.cursor();
//! for want in &instrs {
//!     assert_eq!(cursor.next_instr().as_ref(), Some(want));
//! }
//! assert_eq!(cursor.next_instr(), None);
//! ```

use crate::instr::INSTR_BYTES;
use crate::{EventRecord, EventStream, Instr, InstrKind, Workload};
use esp_types::{Addr, EventId};
use std::sync::Arc;

/// A consumer of the functional-warming walk ([`PackedTrace::warm_walk`]):
/// the architectural-state updates a detailed engine would make — cache
/// tags/LRU, predictor tables, prefetcher training — minus all timing.
///
/// The walk is monomorphized over the sink, so a sink with `#[inline]`
/// methods warms at decode speed; instructions that carry no warmable
/// state (ALUs on an already-fetched line) cost one table lookup and two
/// adds.
pub trait WarmSink {
    /// The fetch stream entered instruction-cache line `line`
    /// (`pc / line_bytes`). Called once per run of same-line
    /// instructions, mirroring the detailed engine's fetch dedup.
    fn warm_fetch_line(&mut self, line: u64);
    /// A load at `pc` touched data address `addr`.
    fn warm_load(&mut self, pc: u64, addr: u64);
    /// A store touched data address `addr`.
    fn warm_store(&mut self, addr: u64);
    /// A branch executed; `instr` carries its kind, outcome, and target.
    fn warm_branch(&mut self, instr: &Instr);
}

/// The kind-byte encoding of a [`PackedTrace`], shared with the
/// specialised simulation kernels in `esp-uarch`: the kernel's flat
/// per-kind dispatch table is indexed directly by the low tag bits, so
/// the encoding is part of the crate's public contract.
pub mod kindbits {
    /// Plain ALU work (no operand slot).
    pub const TAG_ALU: u8 = 0;
    /// A load; the flag bit carries `chained`.
    pub const TAG_LOAD: u8 = 1;
    /// A store.
    pub const TAG_STORE: u8 = 2;
    /// A conditional branch; the flag bit carries `taken`.
    pub const TAG_COND: u8 = 3;
    /// An indirect branch.
    pub const TAG_IND_BRANCH: u8 = 4;
    /// An indirect call.
    pub const TAG_IND_CALL: u8 = 5;
    /// A direct call.
    pub const TAG_CALL: u8 = 6;
    /// A return.
    pub const TAG_RET: u8 = 7;
    /// Low bits holding the discriminant tag.
    pub const TAG_MASK: u8 = 0b0000_0111;
    /// Kind-byte flag: `chained` for loads, `taken` for conditional
    /// branches.
    pub const FLAG_BIT: u8 = 0b0000_1000;
    /// Kind-byte flag: this instruction's pc does not follow from the
    /// previous instruction's `next_pc`; an explicit pc operand precedes
    /// the instruction's own operand in the operand array.
    pub const EXPLICIT_PC: u8 = 0b0001_0000;
}
use kindbits::{
    EXPLICIT_PC, FLAG_BIT, TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_LOAD,
    TAG_MASK, TAG_RET, TAG_STORE,
};

/// One instruction decoded to its packed essentials: the raw kind byte,
/// the re-derived pc, and the single operand word (data address for
/// loads/stores, branch target for control flow, 0 for ALUs). The
/// specialised kernels consume this instead of a 32-byte [`Instr`]; the
/// mapping back to an `Instr` is total and lossless (see
/// [`PackedCursor::next`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawStep {
    /// The kind byte ([`kindbits`] tag + flags as stored).
    pub kind: u8,
    /// The instruction's program counter.
    pub pc: u64,
    /// The operand word; 0 for ALU instructions.
    pub op: u64,
}

impl RawStep {
    /// The total mapping back to a decoded [`Instr`] — exactly what
    /// [`PackedCursor::next`] would have produced for this step. The
    /// specialised kernels use it to materialise instructions only where
    /// a consumer needs the full form (the branch predictor).
    #[inline(always)]
    pub fn to_instr(&self) -> Instr {
        let pc = Addr::new(self.pc);
        let op = Addr::new(self.op);
        let flag = self.kind & FLAG_BIT != 0;
        match self.kind & TAG_MASK {
            TAG_ALU => Instr::alu(pc),
            TAG_LOAD => Instr::load(pc, op, flag),
            TAG_STORE => Instr::store(pc, op),
            TAG_COND => Instr::cond_branch(pc, flag, op),
            TAG_IND_BRANCH => Instr::indirect(pc, op),
            TAG_IND_CALL => Instr::indirect_call(pc, op),
            TAG_CALL => Instr::call(pc, op),
            _ => Instr::ret(pc, op),
        }
    }
}

/// A structural defect found while validating raw packed arrays
/// ([`PackedTrace::from_raw_parts`]) — the decode-side contract of the
/// on-disk ESPT format ([`crate::espt`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RawTraceError {
    /// A kind byte set one of the reserved high bits (5..=7), which v1
    /// of the encoding defines as zero.
    ReservedKindBits {
        /// Index of the offending instruction.
        index: u64,
        /// The raw kind byte.
        kind: u8,
    },
    /// The operand array ran out before the kind bytes' demand was met.
    MissingOperands {
        /// Operand slots the kind bytes consume.
        expected: u64,
        /// Operand words actually present.
        found: u64,
    },
    /// The operand array holds words no kind byte consumes.
    ExtraOperands {
        /// Operand slots the kind bytes consume.
        expected: u64,
        /// Operand words actually present.
        found: u64,
    },
    /// Re-deriving program counters overflowed the 64-bit address space;
    /// no generated or recorded trace does this, so the input is corrupt.
    PcOverflow {
        /// Index of the instruction whose sequential pc overflowed.
        index: u64,
    },
}

impl std::fmt::Display for RawTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RawTraceError::ReservedKindBits { index, kind } => {
                write!(f, "instruction {index}: kind byte {kind:#04x} sets reserved bits")
            }
            RawTraceError::MissingOperands { expected, found } => {
                write!(f, "operand array too short: kind bytes demand {expected} words, found {found}")
            }
            RawTraceError::ExtraOperands { expected, found } => {
                write!(f, "operand array too long: kind bytes demand {expected} words, found {found}")
            }
            RawTraceError::PcOverflow { index } => {
                write!(f, "instruction {index}: sequential pc overflows the address space")
            }
        }
    }
}

impl std::error::Error for RawTraceError {}

/// One instruction stream in struct-of-arrays form.
///
/// Layout: `kinds` holds one byte per instruction; `ops` holds one `u64`
/// per operand in stream order — an explicit pc first when the
/// `EXPLICIT_PC` kind bit is set, then the data address (loads/stores) or
/// branch target (control flow). ALU instructions consume no operand
/// slot, so a typical generated stream packs to ~5 bytes per
/// instruction versus the 32-byte in-memory [`Instr`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedTrace {
    start_pc: u64,
    kinds: Vec<u8>,
    ops: Vec<u64>,
    /// The pc the next pushed instruction is predicted to have
    /// (build-time state only; replay re-derives it).
    expect_pc: u64,
}

impl PackedTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty trace with room for `instrs` instructions and
    /// `ops` operand words, so a producer that knows its length up front
    /// packs without regrowing.
    pub fn with_capacity(instrs: usize, ops: usize) -> Self {
        PackedTrace {
            kinds: Vec::with_capacity(instrs),
            ops: Vec::with_capacity(ops),
            ..PackedTrace::default()
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, i: &Instr) {
        let (kind, op) = match i.kind {
            InstrKind::Alu => (TAG_ALU, 0),
            InstrKind::Load { addr, chained } => {
                (TAG_LOAD | if chained { FLAG_BIT } else { 0 }, addr.as_u64())
            }
            InstrKind::Store { addr } => (TAG_STORE, addr.as_u64()),
            InstrKind::CondBranch { taken, target } => {
                (TAG_COND | if taken { FLAG_BIT } else { 0 }, target.as_u64())
            }
            InstrKind::IndirectBranch { target } => (TAG_IND_BRANCH, target.as_u64()),
            InstrKind::IndirectCall { target } => (TAG_IND_CALL, target.as_u64()),
            InstrKind::Call { target } => (TAG_CALL, target.as_u64()),
            InstrKind::Return { target } => (TAG_RET, target.as_u64()),
        };
        self.push_raw(i.pc.as_u64(), kind, op);
    }

    /// Appends one instruction in raw form — the inverse of
    /// [`RawStep::to_instr`]: `kind` is a [`kindbits`] tag plus
    /// [`kindbits::FLAG_BIT`], and `op` the operand word (ignored for
    /// ALUs). The [`kindbits::EXPLICIT_PC`] flag is this method's to set:
    /// it marks `pc` when it does not follow the previous instruction.
    /// Producers that decode straight into kind bytes (the workload
    /// generator's packed emitter) skip building an [`Instr`].
    #[inline(always)]
    pub fn push_raw(&mut self, pc: u64, kind: u8, op: u64) {
        debug_assert_eq!(kind & !(TAG_MASK | FLAG_BIT), 0, "push_raw kind {kind:#04x}");
        let mut kind = kind;
        if self.kinds.is_empty() {
            self.start_pc = pc;
        } else if pc != self.expect_pc {
            kind |= EXPLICIT_PC;
            self.ops.push(pc);
        }
        let tag = kind & TAG_MASK;
        if tag != TAG_ALU {
            self.ops.push(op);
        }
        self.kinds.push(kind);
        // Mirror `Instr::next_pc`, as `PackedCursor::next_raw` does.
        self.expect_pc = if tag < TAG_COND || (tag == TAG_COND && kind & FLAG_BIT == 0) {
            pc.wrapping_add(INSTR_BYTES)
        } else {
            op
        };
    }

    /// Appends a straight-line run of `n` non-control instructions (ALU,
    /// load or store) at consecutive pcs from `pc`; `next(k)` yields the
    /// kind byte and operand of the `k`-th, as for
    /// [`PackedTrace::push_raw`]. Stores exactly what `n` `push_raw`
    /// calls would, but checks control-flow continuity once per run
    /// rather than per instruction.
    #[inline(always)]
    pub fn push_run(&mut self, pc: u64, n: usize, mut next: impl FnMut(usize) -> (u8, u64)) {
        if n == 0 {
            return;
        }
        let first = self.kinds.len();
        let explicit = if first == 0 {
            self.start_pc = pc;
            false
        } else {
            pc != self.expect_pc
        };
        if explicit {
            // The explicit pc precedes the first instruction's operand.
            self.ops.push(pc);
        }
        for k in 0..n {
            let (kind, op) = next(k);
            debug_assert!(kind & !(TAG_MASK | FLAG_BIT) == 0 && kind & TAG_MASK < TAG_COND);
            if kind & TAG_MASK != TAG_ALU {
                self.ops.push(op);
            }
            self.kinds.push(kind);
        }
        if explicit {
            self.kinds[first] |= EXPLICIT_PC;
        }
        self.expect_pc = pc.wrapping_add(n as u64 * INSTR_BYTES);
    }

    /// Drains `stream` to completion into a packed trace.
    pub fn from_stream(stream: &mut dyn EventStream) -> Self {
        let mut t = PackedTrace::new();
        while let Some(i) = stream.next_instr() {
            t.push(&i);
        }
        t
    }

    /// Packs a recorded instruction slice.
    pub fn from_instrs(instrs: &[Instr]) -> Self {
        let mut t = PackedTrace::new();
        for i in instrs {
            t.push(i);
        }
        t
    }

    /// The pc of the first instruction (0 for an empty trace) — the
    /// anchor every replay cursor re-derives pcs from.
    pub fn start_pc(&self) -> u64 {
        self.start_pc
    }

    /// The raw kind bytes, one per instruction, in the [`kindbits`]
    /// encoding. Together with [`PackedTrace::op_words`] and
    /// [`PackedTrace::start_pc`] this is the complete serialised form of
    /// the trace; [`PackedTrace::from_raw_parts`] is the inverse.
    pub fn kind_bytes(&self) -> &[u8] {
        &self.kinds
    }

    /// The raw operand words in stream order (explicit pcs interleaved
    /// where the [`kindbits::EXPLICIT_PC`] flag is set).
    pub fn op_words(&self) -> &[u64] {
        &self.ops
    }

    /// Reassembles a trace from its raw serialised arrays, validating
    /// the structural invariants replay relies on: no reserved kind
    /// bits, operand supply exactly matching the kind bytes' demand, and
    /// no pc overflow anywhere along the re-derived control flow. A
    /// trace accepted here replays safely with every cursor in this
    /// module and re-serialises to the identical arrays.
    ///
    /// # Errors
    ///
    /// Returns a [`RawTraceError`] naming the first violated invariant.
    pub fn from_raw_parts(start_pc: u64, kinds: Vec<u8>, ops: Vec<u64>) -> Result<Self, RawTraceError> {
        // Demand pass: how many operand words do the kind bytes consume?
        let mut demand: u64 = 0;
        for (i, &kind) in kinds.iter().enumerate() {
            if kind & !(TAG_MASK | FLAG_BIT | EXPLICIT_PC) != 0 {
                return Err(RawTraceError::ReservedKindBits { index: i as u64, kind });
            }
            if kind & EXPLICIT_PC != 0 {
                demand += 1;
            }
            if kind & TAG_MASK != TAG_ALU {
                demand += 1;
            }
        }
        let found = ops.len() as u64;
        if demand > found {
            return Err(RawTraceError::MissingOperands { expected: demand, found });
        }
        if demand < found {
            return Err(RawTraceError::ExtraOperands { expected: demand, found });
        }
        // Replay pass: mirror `PackedCursor::next_raw` with checked
        // arithmetic, landing on the trace's final expected pc. Replay
        // cursors repeat exactly this arithmetic unchecked, so passing
        // here guarantees they cannot overflow.
        let mut pc = start_pc;
        let mut op_idx = 0usize;
        for (i, &kind) in kinds.iter().enumerate() {
            if kind & EXPLICIT_PC != 0 {
                pc = ops[op_idx];
                op_idx += 1;
            }
            let tag = kind & TAG_MASK;
            let op = if tag == TAG_ALU {
                0
            } else {
                let v = ops[op_idx];
                op_idx += 1;
                v
            };
            pc = if tag < TAG_COND || (tag == TAG_COND && kind & FLAG_BIT == 0) {
                pc.checked_add(INSTR_BYTES)
                    .ok_or(RawTraceError::PcOverflow { index: i as u64 })?
            } else {
                op
            };
        }
        Ok(PackedTrace { start_pc, kinds, ops, expect_pc: pc })
    }

    /// The number of instructions stored.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Bytes of heap the packed arrays occupy (capacity, not length —
    /// what the process actually holds resident).
    pub fn resident_bytes(&self) -> u64 {
        (self.kinds.capacity() + self.ops.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Trims excess capacity left over from growth during recording.
    pub fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.ops.shrink_to_fit();
    }

    /// Opens an allocation-free replay cursor at the start.
    pub fn cursor(&self) -> PackedCursor<'_> {
        PackedCursor { trace: self, pos: 0, op_idx: 0, pc: self.start_pc }
    }

    /// Walks the whole trace feeding architectural state into `sink`
    /// without materialising an [`Instr`] per instruction — the
    /// functional-warming fast path of the sampling mode.
    ///
    /// Only branches are decoded into full instructions (the predictor
    /// needs kind, outcome, and target); loads and stores hand over raw
    /// addresses, and the fetch line is reported once per run of
    /// same-line pcs. Returns the number of instructions walked.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn warm_walk<S: WarmSink>(&self, line_bytes: u64, sink: &mut S) -> u64 {
        self.cursor().warm_walk_bounded(u64::MAX, line_bytes, sink)
    }
}

impl FromIterator<Instr> for PackedTrace {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        let mut t = PackedTrace::new();
        for i in iter {
            t.push(&i);
        }
        t
    }
}

/// An allocation-free [`EventStream`] cursor over a [`PackedTrace`].
///
/// Three words of state: position, operand index, and the re-derived
/// program counter. [`EventStream::fork`] boxes a plain copy, so forking
/// a pre-execution or runahead cursor costs a small fixed allocation
/// instead of cloning a generator (frames, pools, RNG).
#[derive(Clone, Debug)]
pub struct PackedCursor<'a> {
    trace: &'a PackedTrace,
    pos: usize,
    op_idx: usize,
    pc: u64,
}

impl PackedCursor<'_> {
    /// Decodes the next instruction, advancing the cursor.
    ///
    /// `inline(always)`: this is the grain of every simulation loop; when
    /// it stays a call, the `Option<Instr>` return travels through memory
    /// on every one of the run's hundreds of millions of instructions.
    // Deliberately named like `Iterator::next` but not an `Iterator` impl:
    // the simulator drives cursors through `EventStream`, and a borrowing
    // iterator adapter would add nothing but an extra vtable surface.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn next(&mut self) -> Option<Instr> {
        let kind = *self.trace.kinds.get(self.pos)?;
        let mut pc = self.pc;
        if kind & EXPLICIT_PC != 0 {
            pc = self.trace.ops[self.op_idx];
            self.op_idx += 1;
        }
        let pc = Addr::new(pc);
        let flag = kind & FLAG_BIT != 0;
        let mut operand = || {
            let v = Addr::new(self.trace.ops[self.op_idx]);
            self.op_idx += 1;
            v
        };
        let instr = match kind & TAG_MASK {
            TAG_ALU => Instr::alu(pc),
            TAG_LOAD => {
                let addr = operand();
                Instr::load(pc, addr, flag)
            }
            TAG_STORE => Instr::store(pc, operand()),
            TAG_COND => {
                let target = operand();
                Instr::cond_branch(pc, flag, target)
            }
            TAG_IND_BRANCH => Instr::indirect(pc, operand()),
            TAG_IND_CALL => Instr::indirect_call(pc, operand()),
            TAG_CALL => Instr::call(pc, operand()),
            _ => Instr::ret(pc, operand()),
        };
        self.pos += 1;
        self.pc = instr.next_pc().as_u64();
        Some(instr)
    }

    /// Instructions decoded so far.
    pub fn position(&self) -> u64 {
        self.pos as u64
    }

    /// Decodes the next instruction into its packed essentials without
    /// materialising an [`Instr`], advancing the cursor exactly as
    /// [`PackedCursor::next`] would. The kernel-specialised simulation
    /// loops consume this form; `RawStep` and `Instr` are related by a
    /// total, lossless mapping, so a raw walk and a decoded walk observe
    /// the same stream.
    #[inline(always)]
    pub fn next_raw(&mut self) -> Option<RawStep> {
        let kind = *self.trace.kinds.get(self.pos)?;
        if kind & EXPLICIT_PC != 0 {
            self.pc = self.trace.ops[self.op_idx];
            self.op_idx += 1;
        }
        let pc = self.pc;
        let tag = kind & TAG_MASK;
        let op = if tag == TAG_ALU {
            0
        } else {
            let v = self.trace.ops[self.op_idx];
            self.op_idx += 1;
            v
        };
        self.pos += 1;
        // Mirror `Instr::next_pc`: sequential for ALU/load/store and
        // not-taken conditionals, the target otherwise.
        self.pc = if tag < TAG_COND || (tag == TAG_COND && kind & FLAG_BIT == 0) {
            pc + INSTR_BYTES
        } else {
            op
        };
        Some(RawStep { kind, pc, op })
    }

    /// The pc the next decoded instruction would carry, assuming its kind
    /// byte has no [`kindbits::EXPLICIT_PC`] flag (plain-run batching
    /// checks the kind bytes first, which excludes explicit-pc entries).
    #[inline(always)]
    pub fn raw_pc(&self) -> u64 {
        self.pc
    }

    /// The length of the run of *plain* ALU instructions (kind byte
    /// exactly [`kindbits::TAG_ALU`]: no flags, no explicit pc) starting
    /// at the cursor, capped at `max`. The scan is a branch-free byte
    /// sweep over the kind array — the grain-batching probe of the
    /// specialised kernels.
    #[inline(always)]
    pub fn plain_alu_run(&self, max: usize) -> usize {
        let ks = &self.trace.kinds[self.pos.min(self.trace.kinds.len())..];
        let lim = ks.len().min(max);
        let mut n = 0;
        while n < lim && ks[n] == TAG_ALU {
            n += 1;
        }
        n
    }

    /// Skips `n` instructions previously sized with
    /// [`PackedCursor::plain_alu_run`]: plain ALUs consume no operand
    /// slot and advance the pc sequentially, so the cursor state after
    /// the skip equals `n` calls of [`PackedCursor::next`].
    #[inline(always)]
    pub fn skip_plain(&mut self, n: usize) {
        debug_assert!(self.trace.kinds[self.pos..self.pos + n].iter().all(|&k| k == TAG_ALU));
        self.pos += n;
        self.pc += n as u64 * INSTR_BYTES;
    }

    /// Bounded, resumable functional-warming walk: feeds up to
    /// `max_instrs` instructions into `sink` straight off the packed
    /// arrays — no [`Instr`] is materialised except for branches — and
    /// advances the cursor exactly as decoding them with
    /// [`PackedCursor::next`] would. Returns the number of instructions
    /// walked, which falls short of `max_instrs` only at end of trace.
    ///
    /// Fetch lines are reported on line *transitions within this call*;
    /// the first instruction always reports its line, so a sink that
    /// dedups fetch lines itself (as the engine does) sees the same
    /// sequence a per-instruction walk would.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn warm_walk_bounded<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        let shift = line_bytes.trailing_zeros();
        let mut last_line = u64::MAX;
        let mut walked = 0u64;
        while walked < max_instrs {
            // Batch runs of plain ALUs (kind byte exactly `TAG_ALU`): they
            // carry no operand and advance the pc sequentially, so the only
            // sink traffic is the fetch-line transitions the run crosses —
            // one call per line instead of one decode per instruction. The
            // reported line sequence is identical to the per-instruction
            // walk (sequential pcs enter each line exactly once).
            let cap = (max_instrs - walked).min(u32::MAX as u64) as usize;
            let run = self.plain_alu_run(cap);
            if run > 0 {
                let mut line = self.pc >> shift;
                if line != last_line {
                    sink.warm_fetch_line(line);
                }
                let end_line = (self.pc + (run as u64 - 1) * INSTR_BYTES) >> shift;
                while line < end_line {
                    line += 1;
                    sink.warm_fetch_line(line);
                }
                last_line = end_line;
                self.skip_plain(run);
                walked += run as u64;
                continue;
            }
            let Some(&kind) = self.trace.kinds.get(self.pos) else { break };
            if kind & EXPLICIT_PC != 0 {
                self.pc = self.trace.ops[self.op_idx];
                self.op_idx += 1;
            }
            let line = self.pc >> shift;
            if line != last_line {
                sink.warm_fetch_line(line);
                last_line = line;
            }
            match kind & TAG_MASK {
                TAG_ALU => self.pc += INSTR_BYTES,
                TAG_LOAD => {
                    sink.warm_load(self.pc, self.trace.ops[self.op_idx]);
                    self.op_idx += 1;
                    self.pc += INSTR_BYTES;
                }
                TAG_STORE => {
                    sink.warm_store(self.trace.ops[self.op_idx]);
                    self.op_idx += 1;
                    self.pc += INSTR_BYTES;
                }
                tag => {
                    let target = Addr::new(self.trace.ops[self.op_idx]);
                    self.op_idx += 1;
                    let at = Addr::new(self.pc);
                    let instr = match tag {
                        TAG_COND => Instr::cond_branch(at, kind & FLAG_BIT != 0, target),
                        TAG_IND_BRANCH => Instr::indirect(at, target),
                        TAG_IND_CALL => Instr::indirect_call(at, target),
                        TAG_CALL => Instr::call(at, target),
                        _ => Instr::ret(at, target),
                    };
                    sink.warm_branch(&instr);
                    self.pc = instr.next_pc().as_u64();
                }
            }
            self.pos += 1;
            walked += 1;
        }
        walked
    }

    /// Decode-free fast-forward: advances the cursor past up to
    /// `max_instrs` instructions with no sink, no [`Instr`], and no
    /// fetch-line tracking — just the position, operand-index, and pc
    /// bookkeeping [`PackedCursor::next`] would have performed. Plain-ALU
    /// runs are skipped with a single byte sweep; everything else is a
    /// three-field update per instruction. This is the learned sampling
    /// mode's skipped-grain walk: the cursor (and therefore retirement
    /// and the grain clock) stays exact while the walk touches none of
    /// the operand-derived state a warming walk would.
    pub fn skip_walk(&mut self, max_instrs: u64) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs {
            let cap = (max_instrs - walked).min(u32::MAX as u64) as usize;
            let run = self.plain_alu_run(cap);
            if run > 0 {
                self.skip_plain(run);
                walked += run as u64;
                continue;
            }
            let Some(&kind) = self.trace.kinds.get(self.pos) else { break };
            if kind & EXPLICIT_PC != 0 {
                self.pc = self.trace.ops[self.op_idx];
                self.op_idx += 1;
            }
            let tag = kind & TAG_MASK;
            if tag == TAG_ALU {
                self.pc += INSTR_BYTES;
            } else {
                let op = self.trace.ops[self.op_idx];
                self.op_idx += 1;
                // Mirror `Instr::next_pc`, as `next_raw` does.
                self.pc = if tag < TAG_COND || (tag == TAG_COND && kind & FLAG_BIT == 0) {
                    self.pc + INSTR_BYTES
                } else {
                    op
                };
            }
            self.pos += 1;
            walked += 1;
        }
        walked
    }

    /// [`PackedCursor::skip_walk`] with a memory-touch observer: fetch
    /// lines (on transitions, as in
    /// [`PackedCursor::warm_walk_bounded`]) and load/store addresses are
    /// reported to `sink`, but **`warm_branch` is never called** — no
    /// [`Instr`] is materialised, which is where most of the observed
    /// walk's cost over a bare fast-forward lives. The operand words are
    /// loaded for cursor advance anyway, so the reporting adds only the
    /// sink calls themselves. Observers that need branch outcomes must
    /// use the full warming walk.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn skip_walk_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        let shift = line_bytes.trailing_zeros();
        // Hot loop: cursor state lives in locals (written back once at
        // the end) so the compiler keeps it in registers across the
        // sink calls instead of reloading through `&mut self`.
        let kinds = self.trace.kinds.as_slice();
        let ops = self.trace.ops.as_slice();
        let start = self.pos;
        let mut pos = start;
        let mut op_idx = self.op_idx;
        let mut pc = self.pc;
        let end = start + ((kinds.len() - start.min(kinds.len())) as u64).min(max_instrs) as usize;
        let mut last_line = u64::MAX;
        while pos < end {
            let kind = kinds[pos];
            if kind == TAG_ALU {
                // Plain-ALU run: one fused scan sizes it, the fetch
                // lines it crosses are reported, and the cursor jumps.
                let mut n = pos + 1;
                while n < end && kinds[n] == TAG_ALU {
                    n += 1;
                }
                let run = (n - pos) as u64;
                let mut line = pc >> shift;
                if line != last_line {
                    sink.warm_fetch_line(line);
                }
                let end_line = (pc + (run - 1) * INSTR_BYTES) >> shift;
                while line < end_line {
                    line += 1;
                    sink.warm_fetch_line(line);
                }
                last_line = end_line;
                pc += run * INSTR_BYTES;
                pos = n;
                continue;
            }
            if kind & EXPLICIT_PC != 0 {
                pc = ops[op_idx];
                op_idx += 1;
            }
            let line = pc >> shift;
            if line != last_line {
                sink.warm_fetch_line(line);
                last_line = line;
            }
            let tag = kind & TAG_MASK;
            if tag == TAG_ALU {
                pc += INSTR_BYTES;
            } else {
                let op = ops[op_idx];
                op_idx += 1;
                if tag == TAG_LOAD {
                    sink.warm_load(pc, op);
                    pc += INSTR_BYTES;
                } else if tag == TAG_STORE {
                    sink.warm_store(op);
                    pc += INSTR_BYTES;
                } else {
                    // Branch tags: sequential only for a not-taken
                    // conditional, the target otherwise (as `next_raw`).
                    pc = if tag == TAG_COND && kind & FLAG_BIT == 0 {
                        pc + INSTR_BYTES
                    } else {
                        op
                    };
                }
            }
            pos += 1;
        }
        self.pos = pos;
        self.op_idx = op_idx;
        self.pc = pc;
        (pos - start) as u64
    }
}

impl EventStream for PackedCursor<'_> {
    #[inline]
    fn next_instr(&mut self) -> Option<Instr> {
        self.next()
    }

    #[inline]
    fn executed(&self) -> u64 {
        self.pos as u64
    }

    fn fork(&self) -> Box<dyn EventStream + '_> {
        Box::new(self.clone())
    }

    fn skip_region(&mut self, max_instrs: u64) -> u64 {
        self.skip_walk(max_instrs)
    }

    fn skip_region_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        self.skip_walk_observed(max_instrs, line_bytes, sink)
    }
}

/// One event's packed streams: the actual trace, and — when the event's
/// pre-execution diverges — the speculative tail from the divergence
/// point onward. The common prefix is stored once, in `actual`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedEvent {
    actual: PackedTrace,
    /// Instruction index at which a speculative view leaves the actual
    /// path, recorded at materialisation time. `None` for the > 98 % of
    /// events whose pre-execution matches reality.
    diverge_at: Option<u64>,
    /// The speculative stream from `diverge_at` onward (empty when the
    /// event never diverges within its budget).
    spec_tail: PackedTrace,
}

impl PackedEvent {
    /// Assembles a packed event. `spec_tail` must hold the speculative
    /// stream's instructions from `diverge_at` onward (callers record it
    /// by skipping `diverge_at` instructions of the speculative stream).
    pub fn new(actual: PackedTrace, diverge_at: Option<u64>, spec_tail: PackedTrace) -> Self {
        PackedEvent { actual, diverge_at, spec_tail }
    }

    /// The event's actual (authoritative) trace.
    pub fn actual(&self) -> &PackedTrace {
        &self.actual
    }

    /// The recorded divergence point, if any.
    pub fn diverge_at(&self) -> Option<u64> {
        self.diverge_at
    }

    /// The recorded speculative tail (empty when the event never
    /// diverges within its budget).
    pub fn spec_tail(&self) -> &PackedTrace {
        &self.spec_tail
    }

    /// Opens a cursor over the actual stream.
    pub fn actual_cursor(&self) -> EventCursor<'_> {
        EventCursor { event: self, seg: self.actual.cursor(), base: 0, speculative: false, in_tail: false }
    }

    /// Opens a cursor over the speculative view: the actual arrays up to
    /// the divergence point, then the speculative tail.
    pub fn speculative_cursor(&self) -> EventCursor<'_> {
        EventCursor { event: self, seg: self.actual.cursor(), base: 0, speculative: true, in_tail: false }
    }

    /// Bytes of heap this event's packed arrays occupy.
    pub fn resident_bytes(&self) -> u64 {
        self.actual.resident_bytes() + self.spec_tail.resident_bytes()
    }
}

/// A resumable cursor over one [`PackedEvent`], in either the actual or
/// the speculative view. Forking (for runahead) copies the cursor; no
/// event state is duplicated.
#[derive(Clone, Debug)]
pub struct EventCursor<'a> {
    event: &'a PackedEvent,
    seg: PackedCursor<'a>,
    /// Instructions emitted before the current segment (0 while reading
    /// the actual arrays; the divergence point once in the tail).
    base: u64,
    speculative: bool,
    in_tail: bool,
}

impl EventCursor<'_> {
    /// Raw twin of [`EventStream::next_instr`] for the specialised
    /// kernels: same divergence handling, no [`Instr`] materialised.
    #[inline(always)]
    pub fn next_raw(&mut self) -> Option<RawStep> {
        if self.speculative && !self.in_tail && Some(self.seg.position()) == self.event.diverge_at
        {
            self.base = self.seg.position();
            self.seg = self.event.spec_tail.cursor();
            self.in_tail = true;
        }
        self.seg.next_raw()
    }

    /// See [`PackedCursor::raw_pc`].
    #[inline(always)]
    pub fn raw_pc(&self) -> u64 {
        self.seg.raw_pc()
    }

    /// See [`PackedCursor::plain_alu_run`]; a speculative cursor's run is
    /// additionally clipped at the divergence point so batching never
    /// skips the segment switch.
    #[inline(always)]
    pub fn plain_run(&self, max: usize) -> usize {
        if self.speculative && !self.in_tail {
            if let Some(d) = self.event.diverge_at {
                let to_diverge = (d - self.seg.position()) as usize;
                return self.seg.plain_alu_run(max.min(to_diverge));
            }
        }
        self.seg.plain_alu_run(max)
    }

    /// See [`PackedCursor::skip_plain`].
    #[inline(always)]
    pub fn skip_plain(&mut self, n: usize) {
        self.seg.skip_plain(n);
    }
}

impl EventStream for EventCursor<'_> {
    #[inline(always)]
    fn next_instr(&mut self) -> Option<Instr> {
        if self.speculative && !self.in_tail && Some(self.seg.position()) == self.event.diverge_at
        {
            // The pre-execution veers off the actual path here; continue
            // in the recorded speculative tail.
            self.base = self.seg.position();
            self.seg = self.event.spec_tail.cursor();
            self.in_tail = true;
        }
        self.seg.next()
    }

    #[inline]
    fn executed(&self) -> u64 {
        self.base + self.seg.position()
    }

    fn fork(&self) -> Box<dyn EventStream + '_> {
        Box::new(self.clone())
    }

    fn warm_region<S: WarmSink>(&mut self, max_instrs: u64, line_bytes: u64, sink: &mut S) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs {
            let mut budget = max_instrs - walked;
            if self.speculative && !self.in_tail {
                if let Some(d) = self.event.diverge_at {
                    let to_diverge = d - self.seg.position();
                    if to_diverge == 0 {
                        self.base = self.seg.position();
                        self.seg = self.event.spec_tail.cursor();
                        self.in_tail = true;
                    } else {
                        budget = budget.min(to_diverge);
                    }
                }
            }
            let n = self.seg.warm_walk_bounded(budget, line_bytes, sink);
            walked += n;
            if n < budget {
                break;
            }
        }
        walked
    }

    fn skip_region(&mut self, max_instrs: u64) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs {
            let mut budget = max_instrs - walked;
            if self.speculative && !self.in_tail {
                if let Some(d) = self.event.diverge_at {
                    let to_diverge = d - self.seg.position();
                    if to_diverge == 0 {
                        self.base = self.seg.position();
                        self.seg = self.event.spec_tail.cursor();
                        self.in_tail = true;
                    } else {
                        budget = budget.min(to_diverge);
                    }
                }
            }
            let n = self.seg.skip_walk(budget);
            walked += n;
            if n < budget {
                break;
            }
        }
        walked
    }

    fn skip_region_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs {
            let mut budget = max_instrs - walked;
            if self.speculative && !self.in_tail {
                if let Some(d) = self.event.diverge_at {
                    let to_diverge = d - self.seg.position();
                    if to_diverge == 0 {
                        self.base = self.seg.position();
                        self.seg = self.event.spec_tail.cursor();
                        self.in_tail = true;
                    } else {
                        budget = budget.min(to_diverge);
                    }
                }
            }
            let n = self.seg.skip_walk_observed(budget, line_bytes, sink);
            walked += n;
            if n < budget {
                break;
            }
        }
        walked
    }
}

impl<'a> crate::ForkStream for EventCursor<'a> {
    type Forked<'s>
        = EventCursor<'a>
    where
        Self: 's;

    #[inline]
    fn fork_stream(&self) -> EventCursor<'a> {
        self.clone()
    }
}

/// Every event of one workload, packed. Simulations share one arena
/// read-only across all configurations and worker threads.
#[derive(Clone, Debug, Default)]
pub struct TraceArena {
    events: Vec<PackedEvent>,
}

impl TraceArena {
    /// Wraps materialised events (indexed by event id).
    pub fn new(events: Vec<PackedEvent>) -> Self {
        TraceArena { events }
    }

    /// The number of events stored.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the arena holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The packed streams of event `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn event(&self, idx: usize) -> &PackedEvent {
        &self.events[idx]
    }

    /// Total instructions stored across all actual streams.
    pub fn total_instructions(&self) -> u64 {
        self.events.iter().map(|e| e.actual.len() as u64).sum()
    }

    /// Bytes of heap the whole arena occupies.
    pub fn resident_bytes(&self) -> u64 {
        self.events.iter().map(PackedEvent::resident_bytes).sum()
    }
}

/// A [`Workload`] that replays a shared [`TraceArena`] instead of
/// regenerating streams: the decode-once, replay-many form of a
/// generated workload.
///
/// Opening a stream is O(1) and allocation-free apart from the trait
/// object box; the arena is behind an [`Arc`] so clones of the workload
/// (e.g. across worker threads) share the instruction store.
#[derive(Clone, Debug)]
pub struct PackedWorkload {
    records: Vec<EventRecord>,
    arena: Arc<TraceArena>,
    total_instructions: u64,
}

impl PackedWorkload {
    /// Builds a packed workload from its event metadata and arena.
    ///
    /// # Panics
    ///
    /// Panics if `records` and `arena` disagree on the event count.
    pub fn new(records: Vec<EventRecord>, arena: Arc<TraceArena>, total_instructions: u64) -> Self {
        assert_eq!(records.len(), arena.len(), "one packed event per record");
        PackedWorkload { records, arena, total_instructions }
    }

    /// The shared instruction store.
    pub fn arena(&self) -> &Arc<TraceArena> {
        &self.arena
    }

    /// Bytes of heap the shared arena occupies.
    pub fn resident_bytes(&self) -> u64 {
        self.arena.resident_bytes()
    }
}

impl Workload for PackedWorkload {
    fn events(&self) -> &[EventRecord] {
        &self.records
    }

    fn actual_stream(&self, id: EventId) -> Box<dyn EventStream + '_> {
        Box::new(self.arena.event(id.index() as usize).actual_cursor())
    }

    fn speculative_stream(&self, id: EventId) -> Box<dyn EventStream + '_> {
        Box::new(self.arena.event(id.index() as usize).speculative_cursor())
    }

    fn approx_total_instructions(&self) -> u64 {
        self.total_instructions
    }

    fn as_packed(&self) -> Option<&PackedWorkload> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_stream, VecEventStream};

    fn a(v: u64) -> Addr {
        Addr::new(v)
    }

    /// A control-flow-consistent stream exercising every kind.
    fn consistent() -> Vec<Instr> {
        vec![
            Instr::alu(a(0x1000)),
            Instr::load(a(0x1004), a(0x8000_0000), true),
            Instr::store(a(0x1008), a(0x7fff_0008)),
            Instr::cond_branch(a(0x100c), false, a(0x2000)),
            Instr::cond_branch(a(0x1010), true, a(0x2000)),
            Instr::indirect(a(0x2000), a(0x3000)),
            Instr::indirect_call(a(0x3000), a(0x4000)),
            Instr::call(a(0x4000), a(0x5000)),
            Instr::ret(a(0x5000), a(0x4004)),
            Instr::load(a(0x4004), a(0xdead_bee8), false),
        ]
    }

    /// A stream with pc discontinuities (as an arbitrary external trace
    /// may have).
    fn discontinuous() -> Vec<Instr> {
        vec![
            Instr::alu(a(0x1000)),
            Instr::alu(a(0x9000)),
            Instr::load(a(0x9004), a(0x100), false),
            Instr::alu(a(0x40)),
            Instr::ret(a(0x44), a(0x48)),
            Instr::alu(a(0x100)),
        ]
    }

    #[test]
    fn roundtrip_consistent_stream() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        assert_eq!(p.len(), v.len());
        let got = record_stream(&mut p.cursor(), usize::MAX);
        assert_eq!(got, v);
        // No discontinuities: every operand slot is a real operand (9
        // non-ALU instructions), no explicit pcs.
        assert_eq!(p.ops.len(), 9);
    }

    #[test]
    fn roundtrip_discontinuous_stream() {
        let v = discontinuous();
        let p = PackedTrace::from_instrs(&v);
        let got = record_stream(&mut p.cursor(), usize::MAX);
        assert_eq!(got, v);
        // 2 real operands + 4 explicit pcs (0x9000, 0x40, and 0x100
        // after the return... count via flags instead).
        let explicit = p.kinds.iter().filter(|&&k| k & EXPLICIT_PC != 0).count();
        assert!(explicit >= 3, "discontinuities must be flagged");
    }

    #[test]
    fn push_run_packs_like_single_pushes() {
        // Runs that continue the flow, start a trace, or follow a jump
        // (the explicit-pc case) store what one `push` each would.
        let body = |pc: u64| {
            vec![
                Instr::load(a(pc), a(0x8000), true),
                Instr::alu(a(pc + 4)),
                Instr::store(a(pc + 8), a(0x8008)),
            ]
        };
        let raw = |i: &Instr| match i.kind {
            InstrKind::Alu => (TAG_ALU, 0),
            InstrKind::Load { addr, chained } => {
                (TAG_LOAD | u8::from(chained) * FLAG_BIT, addr.as_u64())
            }
            InstrKind::Store { addr } => (TAG_STORE, addr.as_u64()),
            _ => unreachable!("runs hold no control flow"),
        };
        let mut want = body(0x1000);
        want.push(Instr::call(a(0x100c), a(0x2000)));
        want.extend(body(0x2000));
        want.push(Instr::ret(a(0x200c), a(0x1010)));
        want.extend(body(0x9000));
        let mut got = PackedTrace::with_capacity(want.len(), want.len());
        for (run, next) in [(0..3, Some(3)), (4..7, Some(7)), (8..11, None)] {
            let pc = want[run.start].pc.as_u64();
            let instrs = &want[run];
            got.push_run(pc, instrs.len(), |k| raw(&instrs[k]));
            if let Some(n) = next {
                got.push(&want[n]);
            }
        }
        assert_eq!(got, PackedTrace::from_instrs(&want));
        assert_ne!(got.kind_bytes()[8] & EXPLICIT_PC, 0, "the jump must mark the run's first pc");
    }

    #[test]
    fn packing_is_compact() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        let fat = std::mem::size_of::<Instr>() * v.len();
        assert!(
            (p.kinds.len() + p.ops.len() * 8) < fat,
            "packed {} !< fat {fat}",
            p.kinds.len() + p.ops.len() * 8
        );
        assert!(p.resident_bytes() > 0);
    }

    #[test]
    fn cursor_matches_vec_stream_incrementally() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        let mut cursor = p.cursor();
        let mut reference = VecEventStream::new(v);
        loop {
            assert_eq!(cursor.executed(), reference.executed());
            let (got, want) = (cursor.next_instr(), reference.next_instr());
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn fork_resumes_identically() {
        let p = PackedTrace::from_instrs(&consistent());
        let mut cur = p.cursor();
        cur.next_instr();
        cur.next_instr();
        let rest_forked = {
            let mut forked = cur.fork();
            assert_eq!(forked.executed(), cur.executed());
            record_stream(&mut *forked, usize::MAX)
        };
        let rest_original = record_stream(&mut cur, usize::MAX);
        assert_eq!(rest_forked, rest_original);
    }

    #[test]
    fn from_stream_drains_everything() {
        let v = consistent();
        let mut s = VecEventStream::new(v.clone());
        let p = PackedTrace::from_stream(&mut s);
        assert_eq!(p.len(), v.len());
        assert_eq!(record_stream(&mut p.cursor(), usize::MAX), v);
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let p = PackedTrace::new();
        assert!(p.is_empty());
        assert_eq!(p.cursor().next(), None);
    }

    fn diverging_event() -> (PackedEvent, Vec<Instr>, Vec<Instr>) {
        let actual = consistent();
        // The speculative view matches for 4 instructions, then veers.
        let mut spec = actual[..4].to_vec();
        spec.push(Instr::alu(a(0x8888)));
        spec.push(Instr::load(a(0x888c), a(0x42_0000), false));
        let tail = PackedTrace::from_instrs(&spec[4..]);
        let ev = PackedEvent::new(PackedTrace::from_instrs(&actual), Some(4), tail);
        (ev, actual, spec)
    }

    #[test]
    fn event_cursor_actual_ignores_divergence() {
        let (ev, actual, _) = diverging_event();
        let got = record_stream(&mut ev.actual_cursor(), usize::MAX);
        assert_eq!(got, actual);
    }

    #[test]
    fn event_cursor_speculative_switches_at_divergence() {
        let (ev, actual, spec) = diverging_event();
        let mut cur = ev.speculative_cursor();
        let got = record_stream(&mut cur, usize::MAX);
        assert_eq!(got, spec);
        assert_eq!(got[..4], actual[..4], "shared prefix reads the actual arrays");
        assert_eq!(cur.executed(), spec.len() as u64);
    }

    #[test]
    fn event_cursor_fork_across_divergence() {
        let (ev, _, spec) = diverging_event();
        let mut cur = ev.speculative_cursor();
        for _ in 0..3 {
            cur.next_instr();
        }
        let mut forked = cur.fork();
        let rest = record_stream(&mut *forked, usize::MAX);
        assert_eq!(rest, spec[3..]);
    }

    #[test]
    fn no_divergence_event_replays_actual_in_both_views() {
        let actual = consistent();
        let ev = PackedEvent::new(PackedTrace::from_instrs(&actual), None, PackedTrace::new());
        assert_eq!(record_stream(&mut ev.actual_cursor(), usize::MAX), actual);
        assert_eq!(record_stream(&mut ev.speculative_cursor(), usize::MAX), actual);
    }

    #[test]
    fn divergence_beyond_budget_never_triggers() {
        let actual = consistent();
        let ev =
            PackedEvent::new(PackedTrace::from_instrs(&actual), Some(10_000), PackedTrace::new());
        assert_eq!(record_stream(&mut ev.speculative_cursor(), usize::MAX), actual);
    }

    #[derive(Default)]
    struct RecordingSink {
        fetches: Vec<u64>,
        loads: Vec<(u64, u64)>,
        stores: Vec<u64>,
        branches: Vec<Instr>,
    }

    impl WarmSink for RecordingSink {
        fn warm_fetch_line(&mut self, line: u64) {
            self.fetches.push(line);
        }
        fn warm_load(&mut self, pc: u64, addr: u64) {
            self.loads.push((pc, addr));
        }
        fn warm_store(&mut self, addr: u64) {
            self.stores.push(addr);
        }
        fn warm_branch(&mut self, instr: &Instr) {
            self.branches.push(*instr);
        }
    }

    #[test]
    fn warm_walk_matches_cursor_replay() {
        for v in [consistent(), discontinuous()] {
            let p = PackedTrace::from_instrs(&v);
            let mut sink = RecordingSink::default();
            assert_eq!(p.warm_walk(64, &mut sink), v.len() as u64);
            let mut want = RecordingSink::default();
            let mut last_line = u64::MAX;
            for i in &v {
                let line = i.pc.as_u64() / 64;
                if line != last_line {
                    want.fetches.push(line);
                    last_line = line;
                }
                match i.kind {
                    InstrKind::Alu => {}
                    InstrKind::Load { addr, .. } => {
                        want.loads.push((i.pc.as_u64(), addr.as_u64()))
                    }
                    InstrKind::Store { addr } => want.stores.push(addr.as_u64()),
                    _ => want.branches.push(*i),
                }
            }
            assert_eq!(sink.fetches, want.fetches);
            assert_eq!(sink.loads, want.loads);
            assert_eq!(sink.stores, want.stores);
            assert_eq!(sink.branches, want.branches);
        }
    }

    #[test]
    fn skip_walk_lands_where_decoding_does() {
        // After fast-forwarding k instructions the cursor must decode
        // exactly the suffix a freshly decoded cursor would — position,
        // operand index, and pc all line up at every split point.
        for v in [consistent(), discontinuous()] {
            let p = PackedTrace::from_instrs(&v);
            for k in 0..=v.len() {
                let mut cur = p.cursor();
                assert_eq!(cur.skip_walk(k as u64), k as u64);
                assert_eq!(record_stream(&mut cur, usize::MAX), v[k..]);
            }
            // Budget past the end stops at the end.
            let mut cur = p.cursor();
            assert_eq!(cur.skip_walk(u64::MAX), v.len() as u64);
            assert_eq!(cur.next_instr(), None);
        }
    }

    #[test]
    fn skip_walk_observed_matches_warm_walk_touches_sans_branches() {
        // The observed fast-forward must report the same fetch lines,
        // loads, and stores as the full warming walk — branches are the
        // one documented omission — and land the cursor identically.
        for v in [consistent(), discontinuous()] {
            let p = PackedTrace::from_instrs(&v);
            let mut warm = RecordingSink::default();
            p.warm_walk(64, &mut warm);
            for k in 0..=v.len() {
                let mut sink = RecordingSink::default();
                let mut cur = p.cursor();
                assert_eq!(cur.skip_walk_observed(k as u64, 64, &mut sink), k as u64);
                assert_eq!(record_stream(&mut cur, usize::MAX), v[k..]);
                assert!(sink.branches.is_empty(), "observed walk must not decode branches");
                assert_eq!(sink.loads, warm.loads[..sink.loads.len()]);
                assert_eq!(sink.stores, warm.stores[..sink.stores.len()]);
            }
            // Over the whole trace the memory touches agree exactly.
            let mut sink = RecordingSink::default();
            let mut cur = p.cursor();
            assert_eq!(cur.skip_walk_observed(u64::MAX, 64, &mut sink), v.len() as u64);
            assert_eq!(sink.fetches, warm.fetches);
            assert_eq!(sink.loads, warm.loads);
            assert_eq!(sink.stores, warm.stores);
        }
    }

    #[test]
    fn raw_parts_roundtrip_rebuilds_equal_traces() {
        for v in [consistent(), discontinuous(), Vec::new()] {
            let p = PackedTrace::from_instrs(&v);
            let q = PackedTrace::from_raw_parts(
                p.start_pc(),
                p.kind_bytes().to_vec(),
                p.op_words().to_vec(),
            )
            .expect("serialised arrays of a built trace must validate");
            // Derived PartialEq covers expect_pc: the validation walk
            // must land on the same final pc the builder recorded.
            assert_eq!(p, q);
            assert_eq!(record_stream(&mut q.cursor(), usize::MAX), v);
        }
    }

    #[test]
    fn raw_parts_rejects_structural_defects() {
        let p = PackedTrace::from_instrs(&consistent());
        let (pc, kinds, ops) = (p.start_pc(), p.kind_bytes().to_vec(), p.op_words().to_vec());

        let mut reserved = kinds.clone();
        reserved[0] |= 0b0010_0000;
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, reserved, ops.clone()),
            Err(RawTraceError::ReservedKindBits { index: 0, .. })
        ));

        let mut short = ops.clone();
        short.pop();
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, kinds.clone(), short),
            Err(RawTraceError::MissingOperands { .. })
        ));

        let mut long = ops.clone();
        long.push(7);
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, kinds.clone(), long),
            Err(RawTraceError::ExtraOperands { .. })
        ));

        // An ALU at the top of the address space cannot advance.
        assert!(matches!(
            PackedTrace::from_raw_parts(u64::MAX - 1, vec![TAG_ALU], vec![]),
            Err(RawTraceError::PcOverflow { index: 0 })
        ));
    }

    #[test]
    fn arena_and_workload_accessors() {
        let (ev, actual, _) = diverging_event();
        let arena = Arc::new(TraceArena::new(vec![ev]));
        assert_eq!(arena.len(), 1);
        assert!(!arena.is_empty());
        assert_eq!(arena.total_instructions(), actual.len() as u64);
        assert!(arena.resident_bytes() > 0);
        let record = EventRecord {
            id: EventId::new(0),
            kind: esp_types::EventKindId::new(0),
            handler_pc: a(0x1000),
            arg_addr: a(0x8000_0000),
            approx_len: actual.len() as u64,
            post_time: esp_types::Cycle::ZERO,
            order_mispredicted: false,
        };
        let w = PackedWorkload::new(vec![record], arena, actual.len() as u64);
        assert_eq!(w.events().len(), 1);
        assert_eq!(w.approx_total_instructions(), actual.len() as u64);
        assert!(w.resident_bytes() > 0);
        let got = record_stream(&mut *w.actual_stream(EventId::new(0)), usize::MAX);
        assert_eq!(got, actual);
        let spec = record_stream(&mut *w.speculative_stream(EventId::new(0)), usize::MAX);
        assert_eq!(spec.len(), 4 + 2, "divergence prefix plus recorded tail");
    }
}
