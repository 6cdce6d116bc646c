//! The event walk: one event's deterministic instruction stream.
//!
//! A walk has two ways out. [`EventStream::next_instr`] steps one
//! instruction at a time: the regenerative stream the `Workload` impl
//! hands out. [`EventWalk::pack_into`] drains the walk straight into a
//! [`PackedTrace`], writing each straight-line body run as kind bytes
//! and operand words; that is how arenas are materialised. Both share
//! one emission core: body slots decode through [`Thresholds`] and
//! [`EventWalk::body_raw`], and terminators and the dispatcher always go
//! through the single-step code.

use crate::code::{slot_pc, Block, CodeImage, Terminator, INSTR_BYTES};
use crate::schedule::EventDetail;
use crate::WorkloadParams;
use esp_trace::kindbits::{FLAG_BIT, TAG_ALU, TAG_LOAD, TAG_STORE};
use esp_trace::{EventStream, Instr, PackedTrace, RawStep};
use esp_types::{Addr, EventKindId, Rng, SplitMix64, Xoshiro256pp};
use std::sync::atomic::{AtomicU8, Ordering};

/// Base of the (hot, small) stack region.
const STACK_BASE: u64 = 0x7fff_0000;
/// Stack working-set bytes.
const STACK_SPAN: u64 = 4096;
/// Base of the shared global region.
const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base of the per-kind data regions.
const KIND_BASE: u64 = 0x2000_0000;
/// Base of the per-event heap regions.
const HEAP_BASE: u64 = 0x4000_0000;
/// Share of data accesses that hit the hot object block.
const HOT_FRAC: f64 = 0.22;
/// The event's work-item dispatcher: a three-instruction loop that pops
/// the next work item and indirect-calls its root function. Roots return
/// to `DISPATCH_RET`, which the call pushed on the RAS, so returns
/// predict; the indirect call itself is the megamorphic dispatch site
/// the B-List-Target exists for.
const DISPATCH_PC: u64 = 0x0040_0000;
const DISPATCH_CALL: u64 = DISPATCH_PC + 4;
const DISPATCH_RET: u64 = DISPATCH_PC + 8;
/// Call-stack depth cap; deeper calls degrade to ALU slots.
const MAX_DEPTH: usize = 14;

/// The largest `t` in `0..=domain` with `x as f64 / domain as f64 < p`
/// for every `x < t` — the integer form of a `fraction < p` test over a
/// `domain`-valued hash field. Correctly rounded division is monotone in
/// `x`, so the predicate holds on a prefix and `x < t` reproduces it
/// exactly for every `x` in the domain.
fn threshold(domain: u32, p: f64) -> u32 {
    let (mut lo, mut hi) = (0u32, domain);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (mid as f64 / domain as f64) < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The data model's static per-slot probabilities as integer thresholds
/// over the slot hash's fields (see [`threshold`]); a body slot decodes
/// with integer compares only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Thresholds {
    /// `h % 10_000 < load` → load.
    load: u32,
    /// Otherwise `h % 10_000 < load_store` → store.
    load_store: u32,
    /// `h >> 60 < chained` → a chained load.
    chained: u32,
    /// `(h >> 16) & 0xff < streaming` → a streaming access.
    streaming: u32,
    /// `(h >> 24) & 0x3ff < region[i]` → region `i` (stack, hot
    /// objects, globals, kind data); past the last bound → heap.
    region: [u32; 4],
}

impl Thresholds {
    fn new(p: &WorkloadParams) -> Self {
        // Cumulative region bounds, summed left to right as the f64
        // chain `stack + hot + global + kind` does.
        let stack = p.stack_frac;
        let hot = stack + HOT_FRAC;
        let global = hot + p.global_frac;
        let kind = global + p.kind_frac;
        Thresholds {
            load: threshold(10_000, p.load_frac),
            load_store: threshold(10_000, p.load_frac + p.store_frac),
            chained: threshold(16, p.chained_frac),
            streaming: threshold(256, p.streaming_frac),
            region: [stack, hot, global, kind].map(|f| threshold(1024, f)),
        }
    }

    /// Decodes a body slot from its static hash.
    fn decode(&self, h: u64) -> SlotDecode {
        let roll = (h % 10_000) as u32;
        let tag = if roll < self.load {
            TAG_LOAD
        } else if roll < self.load_store {
            TAG_STORE
        } else {
            return SlotDecode(SlotDecode::KNOWN | TAG_ALU);
        };
        let chained = tag == TAG_LOAD && ((h >> 60) as u32) < self.chained;
        let bits = h >> 16;
        let streaming = ((bits & 0xff) as u32) < self.streaming;
        let region_roll = ((bits >> 8) & 0x3ff) as u32;
        let region = self.region.iter().take_while(|&&r| region_roll >= r).count() as u8;
        SlotDecode(
            SlotDecode::KNOWN
                | tag
                | if chained { FLAG_BIT } else { 0 }
                | if streaming { SlotDecode::STREAMING } else { 0 }
                | region << SlotDecode::REGION_SHIFT,
        )
    }
}

/// A body slot's static decode in one byte: the packed kind byte it
/// emits (an ALU, load or store tag in bits 0-1, the chained flag in
/// [`FLAG_BIT`]) plus, for memory slots, the streaming bit and the data
/// region (bits 5-7). Bit 2, which no body tag uses, is always set, so
/// a zeroed [`SlotMemo`] entry means "not decoded yet".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlotDecode(u8);

impl SlotDecode {
    const KNOWN: u8 = 0b0000_0100;
    const KIND_MASK: u8 = 0b0000_0011 | FLAG_BIT;
    const STREAMING: u8 = 0b0001_0000;
    const REGION_SHIFT: u32 = 5;

    /// The kind byte a [`PackedTrace`] stores for this slot.
    fn kind(self) -> u8 {
        self.0 & Self::KIND_MASK
    }

    fn streaming(self) -> bool {
        self.0 & Self::STREAMING != 0
    }

    /// 0 stack, 1 hot objects, 2 globals, 3 kind data, 4 heap.
    fn region(self) -> u8 {
        self.0 >> Self::REGION_SHIFT
    }
}

/// Static decodes of the image's body slots, filled in as one
/// materialisation's walks reach them and dropped with it. Each entry is
/// a pure function of its slot, so the walks of concurrent workers can
/// share the memo: a racing second writer stores the same byte.
pub(crate) struct SlotMemo(Vec<AtomicU8>);

impl SlotMemo {
    pub(crate) fn new(image: &CodeImage) -> Self {
        let slots = (image.footprint_bytes() / INSTR_BYTES) as usize;
        SlotMemo(std::iter::repeat_with(|| AtomicU8::new(0)).take(slots).collect())
    }

    /// The decode of image slot `slot`, computed by `decode` on first use.
    #[inline(always)]
    fn get_or(&self, slot: u32, decode: impl FnOnce() -> SlotDecode) -> SlotDecode {
        let entry = &self.0[slot as usize];
        match entry.load(Ordering::Relaxed) {
            0 => {
                let d = decode();
                entry.store(d.0, Ordering::Relaxed);
                d
            }
            known => SlotDecode(known),
        }
    }
}

#[derive(Clone, Debug)]
struct Frame {
    func: u32,
    /// The function's first block in the image's flat block array.
    first: u32,
    block: u16,
    instr: u16,
    ret_to: Addr,
    /// Active counted loops in this frame: (back-edge block, remaining
    /// back-jumps). Keyed per block so sibling/nested loops cannot reset
    /// each other's trip counters.
    loops: Vec<(u16, u16)>,
}

/// A resumable, deterministic walk over the code image for one event.
///
/// Two walks constructed with the same [`EventDetail`] produce identical
/// instruction streams — this is the property ESP's speculative
/// pre-execution relies on. The *speculative view* passes the detail's
/// divergence point; once reached, the walk re-seeds its dynamic
/// decisions and veers off, modelling the < 2 % of events whose
/// pre-execution did not match reality (§5).
///
/// # Examples
///
/// ```
/// use esp_workload::{BenchmarkProfile, EventWalk};
/// use esp_trace::{EventStream, Workload};
///
/// let w = BenchmarkProfile::pixlr().scaled(50_000).build(3);
/// let id = w.events()[0].id;
/// let mut a = w.actual_stream(id);
/// let mut b = w.actual_stream(id);
/// for _ in 0..1000 {
///     assert_eq!(a.next_instr(), b.next_instr());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct EventWalk<'a> {
    image: &'a CodeImage,
    params: &'a WorkloadParams,
    thresholds: Thresholds,
    kind: EventKindId,
    event_index: u64,
    rng: Xoshiro256pp,
    seed: u64,
    global_window: u64,
    kind_window: u64,
    stream_base: u64,
    stream_count: u32,
    hot_base: u64,
    frames: Vec<Frame>,
    pool: Vec<u32>,
    emitted: u64,
    budget: u64,
    diverge_at: Option<u64>,
    diverged: bool,
    /// Dispatcher micro-state: which of the three dispatcher slots to
    /// emit next when no frame is active (see `DISPATCH_PC`).
    dispatch_step: u8,
}

impl<'a> EventWalk<'a> {
    /// Opens a walk for `detail`. `speculative` selects the view a
    /// pre-execution would observe (divergence enabled).
    pub fn new(
        image: &'a CodeImage,
        params: &'a WorkloadParams,
        detail: &EventDetail,
        speculative: bool,
    ) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(detail.seed);
        // The work-item pool grows with the event's length: a bigger
        // event does *more different* work, not the same work more often,
        // which keeps the code-churn density (and hence I-MPKI)
        // independent of event size.
        let pool_size = (params.event_pool_size as u64 * detail.len
            / params.mean_event_len.max(1))
        .clamp(8, 768) as u32;
        let pool = image.sample_event_pool(detail.kind, pool_size, &mut rng);
        let global_window = rng.below((params.global_bytes - 4 * 1024).max(1)) & !63;
        let kind_window = rng.below((params.kind_bytes.saturating_sub(4 * 1024)).max(1)) & !63;
        let mut walk = EventWalk {
            image,
            params,
            thresholds: Thresholds::new(params),
            kind: detail.kind,
            event_index: detail.index,
            rng,
            seed: detail.seed,
            global_window,
            kind_window,
            stream_base: 0,
            stream_count: 0,
            hot_base: 0,
            frames: Vec::with_capacity(MAX_DEPTH),
            pool,
            emitted: 0,
            budget: detail.len,
            diverge_at: if speculative { detail.diverge_at } else { None },
            diverged: false,
            // The handler is entered through the dispatcher, so the
            // first emitted instructions are the dispatcher's.
            dispatch_step: 1,
        };
        walk.reseat_data_state();
        walk
    }

    fn new_frame(&self, func: u32, ret_to: Addr) -> Frame {
        let first = self.image.function(func).first;
        Frame { func, first, block: 0, instr: 0, ret_to, loops: Vec::new() }
    }

    /// The speculative view of this walk's event, resuming from this
    /// walk's current position. Valid while the walk has not passed the
    /// divergence point `at` (the views agree up to it); the returned
    /// walk veers off at `at`.
    pub(crate) fn speculative_from_here(&self, at: u64) -> Self {
        debug_assert!(self.diverge_at.is_none() && self.emitted <= at);
        EventWalk { diverge_at: Some(at), ..self.clone() }
    }

    /// Starts a new work item: re-seats the stream walk and the hot
    /// object block. Called at each root-function start, so streams are
    /// long enough for the prefetchers and the per-event cold footprint
    /// stays bounded.
    fn reseat_data_state(&mut self) {
        self.stream_base = if self.rng.chance(0.5) {
            self.heap_base() + (self.rng.below(self.params.heap_per_event.max(64)) & !63)
        } else {
            self.kind_base() + (self.rng.below(self.params.kind_bytes) & !63)
        };
        self.stream_count = 0;
        // The hot object block persists across most work items (the DOM
        // node or object graph an event keeps poking at); only sometimes
        // does a new item move to fresh objects.
        if self.hot_base == 0 || self.rng.chance(0.25) {
            self.hot_base =
                self.heap_base() + (self.rng.below(self.params.heap_per_event.max(1024)) & !63);
        }
    }

    fn heap_base(&self) -> u64 {
        HEAP_BASE + self.event_index * self.params.heap_per_event
    }

    fn kind_base(&self) -> u64 {
        KIND_BASE + self.kind.index() as u64 * self.params.kind_bytes
    }

    /// Static decode of body slot `instr` of block `block` in function
    /// `func`: identical for every dynamic execution of the slot.
    fn decode_slot(&self, func: u32, block: u16, instr: u16) -> SlotDecode {
        let slot = ((func as u64) << 28) | ((block as u64) << 12) | instr as u64;
        self.thresholds.decode(SplitMix64::derive(self.image.seed() ^ 0x0B0D, slot))
    }

    /// Emits one body slot as its packed kind byte and operand word (the
    /// data address; 0 for ALUs).
    #[inline(always)]
    fn body_raw(&mut self, d: SlotDecode) -> (u8, u64) {
        let kind = d.kind();
        if kind == TAG_ALU {
            return (kind, 0);
        }
        (kind, self.data_address(d))
    }

    #[inline(always)]
    fn data_address(&mut self, d: SlotDecode) -> u64 {
        // Streaming decision is static per slot; the stream position is
        // per-work-item dynamic state.
        if d.streaming() {
            // 8-byte element walks: eight accesses per cache line, so the
            // stride/DCU prefetchers have a pattern worth catching.
            let a = self.stream_base + self.stream_count as u64 * 8;
            self.stream_count += 1;
            return a;
        }
        let (base, span) = match d.region() {
            0 => (STACK_BASE - STACK_SPAN, STACK_SPAN),
            // Hot objects under manipulation: high L1 locality.
            1 => (self.hot_base, 512),
            // A per-event window into the globals, not the whole region:
            // real events manipulate a bounded slice of shared state.
            2 => (GLOBAL_BASE + self.global_window, 4 * 1024),
            3 => (self.kind_base() + self.kind_window, 4 * 1024),
            // A bounded window of the event's fresh heap (cold on first
            // touch, reused afterwards).
            _ => (self.heap_base(), self.params.heap_per_event.min(4 * 1024)),
        };
        base + (self.rng.below(span.max(8)) & !7)
    }

    /// Block `block` of the function whose first block is `first`.
    fn block_at(&self, first: u32, block: u16) -> &'a Block {
        let image: &'a CodeImage = self.image;
        &image.blocks()[first as usize + block as usize]
    }

    /// Emits the next instruction through the single-step path; the
    /// caller has checked the budget.
    fn step(&mut self) -> Instr {
        self.maybe_diverge();
        let instr = match self.frames.last() {
            // Between work items the walk runs the dispatcher loop.
            None => self.emit_dispatcher(),
            Some(frame) => {
                let b = self.block_at(frame.first, frame.block);
                if frame.instr < b.body_len {
                    let (func, block, instr) = (frame.func, frame.block, frame.instr);
                    let d = self.decode_slot(func, block, instr);
                    let pc = slot_pc(b.start + instr as u32).as_u64();
                    let (kind, op) = self.body_raw(d);
                    self.frames.last_mut().expect("frame").instr += 1;
                    RawStep { kind, pc, op }.to_instr()
                } else {
                    self.emit_terminator()
                }
            }
        };
        self.emitted += 1;
        instr
    }

    fn maybe_diverge(&mut self) {
        if !self.diverged && self.diverge_at == Some(self.emitted) {
            // The pre-execution veers off the real path: every dynamic
            // decision from here on comes from an unrelated stream.
            self.rng = Xoshiro256pp::seed_from_u64(SplitMix64::derive(self.seed, 0xD1FF));
            self.diverged = true;
        }
    }

    /// Drains the rest of the walk into `out` (see
    /// [`EventWalk::pack_until`]).
    pub(crate) fn pack_into(&mut self, out: &mut PackedTrace, memo: &SlotMemo) {
        self.pack_until(u64::MAX, out, memo);
    }

    /// Packs the walk into `out` until `limit` instructions have been
    /// emitted in total or the budget runs out, storing exactly what
    /// pushing each [`EventStream::next_instr`] would. Straight-line body
    /// runs are written in one loop with their static decodes taken from
    /// `memo`; terminators, the dispatcher and the divergence point take
    /// the single-step path.
    pub(crate) fn pack_until(&mut self, limit: u64, out: &mut PackedTrace, memo: &SlotMemo) {
        let end = limit.min(self.budget);
        while self.emitted < end {
            self.maybe_diverge();
            let body_left = self.frames.last().map_or(0, |f| {
                self.block_at(f.first, f.block).body_len - f.instr
            });
            if body_left == 0 {
                let i = self.step();
                out.push(&i);
                continue;
            }
            let mut n = (body_left as u64).min(end - self.emitted);
            if let (false, Some(at)) = (self.diverged, self.diverge_at) {
                // Stop short of the divergence point: it reseeds the RNG.
                n = n.min(at - self.emitted);
            }
            self.pack_body(n as u16, out, memo);
        }
    }

    /// Writes the next `n` body slots of the current block into `out`.
    fn pack_body(&mut self, n: u16, out: &mut PackedTrace, memo: &SlotMemo) {
        let f = self.frames.last().expect("body run with no frame");
        let (func, block, instr) = (f.func, f.block, f.instr);
        let slot0 = self.block_at(f.first, block).start + instr as u32;
        out.push_run(slot_pc(slot0).as_u64(), n as usize, |k| {
            let k = k as u16;
            let d = memo.get_or(slot0 + k as u32, || self.decode_slot(func, block, instr + k));
            self.body_raw(d)
        });
        self.frames.last_mut().expect("frame").instr += n;
        self.emitted += n as u64;
    }

    /// The dispatcher's next slot: loop back, pop a work item, or
    /// indirect-call its root function.
    fn emit_dispatcher(&mut self) -> Instr {
        match self.dispatch_step {
            0 => {
                // Loop back to the dispatcher head after a root
                // returned to DISPATCH_RET.
                self.dispatch_step = 1;
                Instr::cond_branch(Addr::new(DISPATCH_RET), true, Addr::new(DISPATCH_PC))
            }
            1 => {
                self.dispatch_step = 2;
                Instr::alu(Addr::new(DISPATCH_PC))
            }
            _ => {
                // Pick the next work item and indirect-call its root.
                self.dispatch_step = 0;
                let func = if self.emitted <= 2 {
                    self.image.handler_of_kind(self.kind)
                } else {
                    self.pool[self.rng.below(self.pool.len() as u64) as usize]
                };
                self.reseat_data_state();
                let entry = self.image.function(func).entry;
                let frame = self.new_frame(func, Addr::new(DISPATCH_RET));
                self.frames.push(frame);
                Instr::indirect_call(Addr::new(DISPATCH_CALL), entry)
            }
        }
    }

    /// Handles the terminator slot of the current block, emitting its
    /// control instruction and updating frame state.
    fn emit_terminator(&mut self) -> Instr {
        let frame = self.frames.last().expect("terminator with no frame");
        let (func, first, block_idx) = (frame.func, frame.first, frame.block);
        let b = self.block_at(first, block_idx);
        let pc = b.term_pc();
        match b.term {
            Terminator::FallThrough => {
                self.advance();
                Instr::alu(pc)
            }
            Terminator::CondSkip { taken_permille, skip } => {
                let taken = self.rng.below(1000) < taken_permille as u64;
                let n_blocks = self.image.function(func).len;
                let target_block = (block_idx + 1 + skip as u16).min(n_blocks - 1);
                let target = self.block_at(first, target_block).start_pc();
                let frame = self.frames.last_mut().expect("frame");
                frame.block = if taken { target_block } else { block_idx + 1 };
                frame.instr = 0;
                Instr::cond_branch(pc, taken, target)
            }
            Terminator::LoopBack { to_block, mean_trips } => {
                let frame = self.frames.last().expect("frame");
                let needs_draw = !frame.loops.iter().any(|&(b, _)| b == block_idx);
                // Trip counts are mostly stable per site (the loop
                // predictor's bread and butter), with occasional ±1
                // data-dependent wobble.
                let trips = if needs_draw {
                    let base = mean_trips.max(1) as u64;
                    if self.rng.chance(0.70) {
                        base as u16
                    } else if self.rng.chance(0.5) {
                        (base + 1) as u16
                    } else {
                        (base - 1).max(1) as u16
                    }
                } else {
                    0
                };
                let target = self.block_at(first, to_block).start_pc();
                let frame = self.frames.last_mut().expect("frame");
                if needs_draw {
                    frame.loops.push((block_idx, trips));
                }
                let entry = frame
                    .loops
                    .iter_mut()
                    .find(|(b, _)| *b == block_idx)
                    .expect("loop entry just ensured");
                if entry.1 > 0 {
                    entry.1 -= 1;
                    frame.block = to_block;
                    frame.instr = 0;
                    Instr::cond_branch(pc, true, target)
                } else {
                    frame.loops.retain(|&(b, _)| b != block_idx);
                    frame.block += 1;
                    frame.instr = 0;
                    Instr::cond_branch(pc, false, target)
                }
            }
            Terminator::Call { callee } => {
                if self.rng.chance(self.params.call_take_prob) {
                    self.emit_call(pc, callee, false)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::CallPool => {
                if self.rng.chance(self.params.call_take_prob) {
                    let callee = self.pool[self.rng.below(self.pool.len() as u64) as usize];
                    self.emit_call(pc, callee, false)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::Dispatch { base } => {
                if self.rng.chance(self.params.call_take_prob) {
                    // Dispatch targets are zipf-skewed: real dynamic
                    // sites have a hot receiver type with a tail of
                    // megamorphic cases.
                    let z = self.rng.unit_f64();
                    let i = ((z * z * z) * self.image.dispatch_fanout() as f64) as u32;
                    let callee =
                        self.image.dispatch_target(base, i.min(self.image.dispatch_fanout() - 1));
                    self.emit_call(pc, callee, true)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::Return => {
                let frame = self.frames.pop().expect("return with no frame");
                Instr::ret(pc, frame.ret_to)
            }
        }
    }

    /// A call site whose guard did not take this time: advances past the
    /// site as straight-line code.
    fn skip_call(&mut self, pc: Addr) -> Instr {
        self.advance();
        Instr::alu(pc)
    }

    fn emit_call(&mut self, pc: Addr, callee: u32, indirect: bool) -> Instr {
        self.advance();
        if self.frames.len() >= MAX_DEPTH {
            // Depth cap: degrade to a non-control slot.
            return Instr::alu(pc);
        }
        let entry = self.image.function(callee).entry;
        let frame = self.new_frame(callee, pc + INSTR_BYTES);
        self.frames.push(frame);
        if indirect {
            Instr::indirect_call(pc, entry)
        } else {
            Instr::call(pc, entry)
        }
    }

    fn advance(&mut self) {
        let frame = self.frames.last_mut().expect("advance with no frame");
        frame.block += 1;
        frame.instr = 0;
    }
}

impl EventStream for EventWalk<'_> {
    fn next_instr(&mut self) -> Option<Instr> {
        (self.emitted < self.budget).then(|| self.step())
    }

    fn executed(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeImage, CODE_BASE};
    use esp_trace::InstrKind;

    fn setup() -> (CodeImage, WorkloadParams) {
        let params = WorkloadParams::web_default();
        let image = CodeImage::build(&params, 11);
        (image, params)
    }

    fn detail(len: u64, diverge_at: Option<u64>) -> EventDetail {
        EventDetail {
            index: 3,
            kind: EventKindId::new(2),
            seed: 0xABCD,
            len,
            diverge_at,
            order_mispredicted: false,
        }
    }

    fn collect(walk: &mut EventWalk<'_>, n: usize) -> Vec<Instr> {
        (0..n).map_while(|_| walk.next_instr()).collect()
    }

    /// Every built-in profile's parameters, plus the generic default.
    fn all_params() -> Vec<WorkloadParams> {
        let mut v: Vec<WorkloadParams> =
            crate::BenchmarkProfile::all_families().iter().map(|p| p.params().clone()).collect();
        v.push(WorkloadParams::web_default());
        v
    }

    #[test]
    fn integer_thresholds_match_the_f64_predicates() {
        // The f64 tests the data model is specified by, verbatim over
        // each hash field's whole domain.
        for p in all_params() {
            let t = Thresholds::new(&p);
            for x in 0..10_000u32 {
                let roll = x as f64 / 10_000.0;
                assert_eq!(x < t.load, roll < p.load_frac, "load at {x}");
                assert_eq!(x < t.load_store, roll < p.load_frac + p.store_frac, "store at {x}");
            }
            for x in 0..16u32 {
                assert_eq!(x < t.chained, (x as f64) / 16.0 < p.chained_frac, "chained {x}");
            }
            for x in 0..256u32 {
                let streaming = (x as f64) / 256.0 < p.streaming_frac;
                assert_eq!(x < t.streaming, streaming, "streaming at {x}");
            }
            let bounds = [
                p.stack_frac,
                p.stack_frac + HOT_FRAC,
                p.stack_frac + HOT_FRAC + p.global_frac,
                p.stack_frac + HOT_FRAC + p.global_frac + p.kind_frac,
            ];
            for x in 0..1024u32 {
                let region = x as f64 / 1024.0;
                for (i, &b) in bounds.iter().enumerate() {
                    assert_eq!(x < t.region[i], region < b, "region bound {i} at {x}");
                }
            }
        }
    }

    #[test]
    fn threshold_covers_the_domain_edges() {
        assert_eq!(threshold(16, 0.0), 0);
        assert_eq!(threshold(16, -1.0), 0);
        assert_eq!(threshold(16, 1.0), 16);
        assert_eq!(threshold(16, 2.0), 16);
        assert_eq!(threshold(16, 0.25), 4);
        assert_eq!(threshold(16, 0.2501), 5);
    }

    #[test]
    fn slot_decode_round_trips_its_fields() {
        let (image, params) = setup();
        let w = EventWalk::new(&image, &params, &detail(10, None), false);
        let mut seen = [false; 3];
        for f in 0..200 {
            for instr in 0..12 {
                let d = w.decode_slot(f, 0, instr);
                assert_ne!(d.0, 0, "a decode must never look like an empty memo entry");
                let tag = d.kind() & esp_trace::kindbits::TAG_MASK;
                seen[tag as usize] = true;
                assert!(d.region() <= 4);
                if tag != TAG_LOAD {
                    assert_eq!(d.kind() & FLAG_BIT, 0, "only loads chain");
                }
            }
        }
        assert_eq!(seen, [true; 3], "ALU, load and store slots all occur");
    }

    #[test]
    fn stream_is_deterministic() {
        let (image, params) = setup();
        let d = detail(5000, None);
        let mut a = EventWalk::new(&image, &params, &d, false);
        let mut b = EventWalk::new(&image, &params, &d, false);
        assert_eq!(collect(&mut a, 5000), collect(&mut b, 5000));
    }

    #[test]
    fn budget_is_exact() {
        let (image, params) = setup();
        let d = detail(1234, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let got = collect(&mut w, 10_000);
        assert_eq!(got.len(), 1234);
        assert_eq!(w.executed(), 1234);
        assert!(w.next_instr().is_none());
    }

    #[test]
    fn speculative_view_matches_until_divergence() {
        let (image, params) = setup();
        let d = detail(4000, Some(1500));
        let mut actual = EventWalk::new(&image, &params, &d, false);
        let mut spec = EventWalk::new(&image, &params, &d, true);
        let a = collect(&mut actual, 4000);
        let s = collect(&mut spec, 4000);
        assert_eq!(a[..1500], s[..1500]);
        assert_ne!(a[1500..], s[1500..]);
    }

    #[test]
    fn speculative_view_without_divergence_matches_fully() {
        let (image, params) = setup();
        let d = detail(4000, None);
        let mut actual = EventWalk::new(&image, &params, &d, false);
        let mut spec = EventWalk::new(&image, &params, &d, true);
        assert_eq!(collect(&mut actual, 4000), collect(&mut spec, 4000));
    }

    #[test]
    fn clone_resumes_identically() {
        let (image, params) = setup();
        let d = detail(6000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        collect(&mut w, 2000);
        let mut snapshot = w.clone();
        assert_eq!(collect(&mut w, 1000), collect(&mut snapshot, 1000));
    }

    #[test]
    fn instruction_mix_is_close_to_params() {
        let (image, params) = setup();
        let d = detail(60_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 60_000);
        let n = instrs.len() as f64;
        let loads = instrs.iter().filter(|i| matches!(i.kind, InstrKind::Load { .. })).count() as f64;
        let stores = instrs.iter().filter(|i| matches!(i.kind, InstrKind::Store { .. })).count() as f64;
        let branches = instrs.iter().filter(|i| i.is_branch()).count() as f64;
        // Body slots are ~5/6 of the stream; loads ≈ 0.30 of body slots.
        assert!((0.15..0.35).contains(&(loads / n)), "load frac {}", loads / n);
        assert!((0.04..0.16).contains(&(stores / n)), "store frac {}", stores / n);
        assert!((0.08..0.30).contains(&(branches / n)), "branch frac {}", branches / n);
    }

    #[test]
    fn pcs_are_within_the_image() {
        let (image, params) = setup();
        let d = detail(20_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let hi = CODE_BASE + image.footprint_bytes();
        for i in collect(&mut w, 20_000) {
            let pc = i.pc.as_u64();
            let in_image = (CODE_BASE..hi).contains(&pc);
            let in_dispatcher = (DISPATCH_PC..=DISPATCH_RET).contains(&pc);
            assert!(in_image || in_dispatcher, "pc {pc:#x} outside image");
        }
    }

    #[test]
    fn control_flow_is_consistent() {
        // Each instruction's next_pc must equal the following
        // instruction's pc (single-threaded straight trace).
        let (image, params) = setup();
        let d = detail(30_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 30_000);
        let mut breaks = 0;
        for pair in instrs.windows(2) {
            if pair[0].next_pc() != pair[1].pc {
                breaks += 1;
            }
        }
        // With the dispatcher loop in the stream, control flow is fully
        // consistent: every instruction's next_pc is the next
        // instruction's pc.
        assert_eq!(breaks, 0, "control-flow breaks found");
    }

    #[test]
    fn different_events_use_different_heaps() {
        let (image, params) = setup();
        let d1 = EventDetail { index: 1, ..detail(5000, None) };
        let d2 = EventDetail { index: 2, ..detail(5000, None) };
        let heap_of = |d: &EventDetail| {
            let mut w = EventWalk::new(&image, &params, d, false);
            collect(&mut w, 5000)
                .iter()
                .filter_map(|i| i.mem_addr())
                .filter(|a| a.as_u64() >= HEAP_BASE)
                .map(|a| a.as_u64())
                .min()
        };
        let h1 = heap_of(&d1).unwrap();
        let h2 = heap_of(&d2).unwrap();
        assert!(h2 >= h1 + params.heap_per_event);
    }

    #[test]
    fn streaming_accesses_exist() {
        let (image, params) = setup();
        let d = detail(30_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 30_000);
        let addrs: Vec<u64> = instrs.iter().filter_map(|i| i.mem_addr()).map(|a| a.as_u64()).collect();
        // Look for +8 sequential pairs, the 8-byte-element streaming
        // signature.
        let sequential = addrs.windows(2).filter(|w| w[1] == w[0] + 8).count();
        assert!(sequential > 10, "sequential={sequential}");
    }
}
