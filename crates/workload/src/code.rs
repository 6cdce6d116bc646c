//! The generated code image.

use crate::WorkloadParams;
use esp_types::{Addr, EventKindId, Rng, SplitMix64, Xoshiro256pp};

/// Base virtual address of generated code.
pub(crate) const CODE_BASE: u64 = 0x0400_0000;
/// Architectural instruction width in bytes.
pub(crate) const INSTR_BYTES: u64 = 4;

/// Address of image instruction slot `slot`.
pub(crate) fn slot_pc(slot: u32) -> Addr {
    Addr::new(CODE_BASE + slot as u64 * INSTR_BYTES)
}

/// How a basic block ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Straight-line continuation into the next block (encoded as an ALU
    /// instruction so every block ends in a real instruction slot).
    FallThrough,
    /// A forward conditional branch skipping `skip` blocks when taken.
    CondSkip {
        /// Static taken probability in per-mille.
        taken_permille: u16,
        /// Blocks skipped on the taken path.
        skip: u8,
    },
    /// A backward conditional branch forming a counted loop.
    LoopBack {
        /// Loop header block index within the function.
        to_block: u16,
        /// Mean trip count for this site.
        mean_trips: u8,
    },
    /// A direct call to a fixed callee. Callees are drawn to mimic real
    /// call graphs: mostly into the hot shared runtime, otherwise near
    /// the caller — which is what gives events their code locality.
    Call {
        /// Callee function index.
        callee: u32,
    },
    /// A call whose callee is drawn from the executing event's function
    /// pool — the cross-event variety that defeats history predictors.
    CallPool,
    /// An indirect dispatch site (e.g. a JS property access): the target
    /// is one of [`WorkloadParams::dispatch_targets`] functions derived
    /// from `base`, chosen dynamically per execution.
    Dispatch {
        /// Anchor of the target set.
        base: u32,
    },
    /// Function return.
    Return,
}

/// One basic block: `body_len` straight-line instruction slots followed
/// by one terminator slot. Sixteen bytes; the image keeps every block of
/// every function in one flat array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Instruction-slot index of the first instruction, counted from the
    /// image base (slot `s` sits at `CODE_BASE + 4 s`).
    pub start: u32,
    /// Number of non-control body instructions.
    pub body_len: u16,
    /// The control instruction ending the block.
    pub term: Terminator,
}

impl Block {
    /// Address of the first instruction.
    pub fn start_pc(&self) -> Addr {
        slot_pc(self.start)
    }

    /// The slot just past the block (the next block's start).
    pub(crate) fn end_slot(&self) -> u32 {
        self.start + self.body_len as u32 + 1
    }

    /// Address of the terminator instruction.
    pub fn term_pc(&self) -> Addr {
        self.start_pc() + self.body_len as u64 * INSTR_BYTES
    }

    /// Total bytes occupied by the block.
    pub fn size_bytes(&self) -> u64 {
        (self.body_len as u64 + 1) * INSTR_BYTES
    }
}

/// One generated function: a contiguous range of the image's blocks,
/// the last of which ends in `Return`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Function {
    /// Entry address (== first block's start).
    pub entry: Addr,
    /// Index of the function's first block in [`CodeImage::blocks`].
    pub first: u32,
    /// Number of blocks.
    pub len: u16,
}

/// The whole generated program text: every function of the application
/// plus its shared runtime, laid out contiguously from a fixed base.
///
/// The image is built once per workload from a seed and shared by all
/// events; per-event variety comes from which functions an event's walk
/// visits, not from regenerating code.
///
/// # Examples
///
/// ```
/// use esp_workload::{CodeImage, WorkloadParams};
///
/// let image = CodeImage::build(&WorkloadParams::web_default(), 1);
/// assert!(image.n_functions() > 100);
/// assert!(image.footprint_bytes() > 1024 * 1024);
/// ```
#[derive(Clone, Debug)]
pub struct CodeImage {
    seed: u64,
    functions: Vec<Function>,
    blocks: Vec<Block>,
    footprint_bytes: u64,
    n_shared: u32,
    kind_pool_permille: u32,
    dispatch_targets: u32,
}

impl CodeImage {
    /// Generates the image for `params` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails validation.
    pub fn build(params: &WorkloadParams, seed: u64) -> Self {
        params.validate().expect("invalid workload parameters");
        let mut rng = Xoshiro256pp::seed_from_u64(SplitMix64::derive(seed, 0xC0DE));
        let mean_fn_bytes = (params.mean_blocks_per_fn as u64)
            * (params.mean_block_len as u64 + 1)
            * INSTR_BYTES;
        let n_fns = (params.code_footprint_bytes / mean_fn_bytes).max(16) as u32;

        let n_shared = (n_fns as u64 * params.shared_pool_permille as u64 / 1000).max(1) as u32;
        let mut functions = Vec::with_capacity(n_fns as usize);
        // Functions draw fewer than `2 * mean_blocks_per_fn` blocks each.
        let max_blocks = n_fns as usize * 2 * params.mean_blocks_per_fn as usize;
        let mut blocks = Vec::with_capacity(max_blocks);
        for idx in 0..n_fns {
            let f = Self::build_function(params, &mut rng, &mut blocks, idx, n_fns, n_shared);
            functions.push(f);
        }
        blocks.shrink_to_fit();
        let footprint_bytes = blocks.last().map_or(0, Block::end_slot) as u64 * INSTR_BYTES;
        CodeImage {
            seed,
            functions,
            blocks,
            footprint_bytes,
            n_shared,
            kind_pool_permille: params.kind_pool_permille,
            dispatch_targets: params.dispatch_targets,
        }
    }

    fn build_function(
        params: &WorkloadParams,
        rng: &mut Xoshiro256pp,
        blocks: &mut Vec<Block>,
        fn_idx: u32,
        n_fns: u32,
        n_shared: u32,
    ) -> Function {
        let n_blocks = rng.range(2, 2 * params.mean_blocks_per_fn as u64) as u16;
        let first = blocks.len() as u32;
        let mut start = blocks.last().map_or(0, Block::end_slot);
        let entry = slot_pc(start);
        for b in 0..n_blocks {
            let body_len = rng.range(1, 2 * params.mean_block_len as u64 + 1) as u16;
            let term = if b == n_blocks - 1 {
                Terminator::Return
            } else {
                Self::draw_terminator(params, rng, b, n_blocks, fn_idx, n_fns, n_shared)
            };
            let block = Block { start, body_len, term };
            start = block.end_slot();
            blocks.push(block);
        }
        Function { entry, first, len: n_blocks }
    }

    #[allow(clippy::too_many_arguments)]
    fn draw_terminator(
        params: &WorkloadParams,
        rng: &mut Xoshiro256pp,
        block: u16,
        n_blocks: u16,
        fn_idx: u32,
        n_fns: u32,
        n_shared: u32,
    ) -> Terminator {
        let roll = rng.unit_f64();
        let mut acc = params.call_frac;
        if roll < acc {
            // Real call graphs: ~40% of call sites hit the hot shared
            // runtime, ~25% call near the caller, the rest draw from the
            // event's function pool (cross-event variety).
            let kind = rng.unit_f64();
            return if kind < 0.20 {
                Terminator::Call { callee: rng.below(n_shared as u64) as u32 }
            } else if kind < 0.45 {
                let delta = rng.range(1, 33) as i64 * if rng.chance(0.5) { 1 } else { -1 };
                let callee = (fn_idx as i64 + delta).rem_euclid(n_fns as i64) as u32;
                Terminator::Call { callee }
            } else {
                Terminator::CallPool
            };
        }
        acc += params.dispatch_frac;
        if roll < acc {
            return Terminator::Dispatch { base: rng.below(n_fns as u64) as u32 };
        }
        acc += params.loop_frac;
        if roll < acc && block > 0 {
            let to_block = rng.below(block as u64) as u16;
            let mean_trips = rng.range(2, 2 * params.mean_loop_trips as u64) as u8;
            return Terminator::LoopBack { to_block, mean_trips };
        }
        // Conditional forward skip (the common case), occasionally a pure
        // fall-through.
        if rng.chance(0.12) {
            return Terminator::FallThrough;
        }
        let remaining = (n_blocks - 1 - block) as u64;
        let skip = rng.range(1, remaining.min(3) + 1) as u8;
        let taken_permille = if rng.chance(params.strong_bias_frac) {
            let p = (params.strong_bias_noise * 1000.0) as u16;
            // Forward branches are mostly NOT taken in real code (error
            // paths, guards), which is what makes BTFN static prediction
            // work on cold code.
            if rng.chance(0.90) {
                p
            } else {
                1000 - p
            }
        } else {
            rng.range(250, 751) as u16
        };
        Terminator::CondSkip { taken_permille, skip }
    }

    /// The image's generation seed (also salts static per-slot hashes).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of generated functions.
    pub fn n_functions(&self) -> u32 {
        self.functions.len() as u32
    }

    /// Looks up a function by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn function(&self, idx: u32) -> &Function {
        &self.functions[idx as usize]
    }

    /// Every block of the image in layout order; function `f` owns
    /// `blocks()[f.first .. f.first + f.len]`.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The blocks of function `idx` in layout order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn function_blocks(&self, idx: u32) -> &[Block] {
        let f = self.function(idx);
        &self.blocks[f.first as usize..f.first as usize + f.len as usize]
    }

    /// Total code bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Number of shared "runtime" functions (hot across all kinds).
    pub fn n_shared(&self) -> u32 {
        self.n_shared
    }

    /// The handler entry function for an event kind.
    pub fn handler_of_kind(&self, kind: EventKindId) -> u32 {
        (SplitMix64::derive(self.seed ^ 0xAB1E, kind.index() as u64) % self.n_functions() as u64)
            as u32
    }

    /// Whether function `f` belongs to kind `kind`'s pool.
    pub fn kind_pool_contains(&self, kind: EventKindId, f: u32) -> bool {
        if f < self.n_shared {
            return true;
        }
        let h = SplitMix64::derive(
            self.seed ^ 0xF00D,
            ((kind.index() as u64) << 32) | f as u64,
        );
        h % 1000 < self.kind_pool_permille as u64
    }

    /// Samples a dynamic event's function pool: `size` functions drawn
    /// from the kind's pool (shared runtime functions included).
    pub fn sample_event_pool(
        &self,
        kind: EventKindId,
        size: u32,
        rng: &mut impl Rng,
    ) -> Vec<u32> {
        let n = self.n_functions() as u64;
        let mut pool = Vec::with_capacity(size as usize);
        for _ in 0..size {
            // Rejection-sample a member of the kind pool; bound the work
            // so a tiny pool cannot stall generation.
            let mut pick = rng.below(n) as u32;
            for _ in 0..64 {
                if self.kind_pool_contains(kind, pick) {
                    break;
                }
                pick = rng.below(n) as u32;
            }
            pool.push(pick);
        }
        pool
    }

    /// Resolves the `i`-th target of a dispatch site anchored at `base`.
    pub fn dispatch_target(&self, base: u32, i: u32) -> u32 {
        (base + i * 7 + 1) % self.n_functions()
    }

    /// Number of dispatch targets per site.
    pub fn dispatch_fanout(&self) -> u32 {
        self.dispatch_targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> CodeImage {
        CodeImage::build(&WorkloadParams::web_default(), 42)
    }

    #[test]
    fn layout_is_contiguous_and_sized() {
        let img = image();
        let p = WorkloadParams::web_default();
        // Footprint should be within 50% of the requested size.
        let ratio = img.footprint_bytes() as f64 / p.code_footprint_bytes as f64;
        assert!((0.5..1.5).contains(&ratio), "ratio={ratio}");
        // Blocks within a function are contiguous; functions too.
        // The flat block array tiles the image.
        let mut expected = CODE_BASE;
        let mut next_block = 0;
        for fi in 0..img.n_functions() {
            let f = img.function(fi);
            assert_eq!(f.first, next_block, "function {fi} does not follow its predecessor");
            assert_eq!(f.entry.as_u64(), expected);
            for b in img.function_blocks(fi) {
                assert_eq!(b.start_pc().as_u64(), expected);
                expected += b.size_bytes();
            }
            next_block += f.len as u32;
        }
        assert_eq!(next_block as usize, img.blocks().len());
        assert_eq!(expected - CODE_BASE, img.footprint_bytes());
    }

    #[test]
    fn build_is_deterministic() {
        let a = CodeImage::build(&WorkloadParams::web_default(), 7);
        let b = CodeImage::build(&WorkloadParams::web_default(), 7);
        assert_eq!(a.n_functions(), b.n_functions());
        for i in 0..a.n_functions() {
            assert_eq!(a.function(i), b.function(i));
        }
        assert_eq!(a.blocks(), b.blocks());
        let c = CodeImage::build(&WorkloadParams::web_default(), 8);
        assert_ne!(a.function_blocks(0), c.function_blocks(0));
    }

    #[test]
    fn every_function_ends_in_return() {
        let img = image();
        for fi in 0..img.n_functions() {
            let blocks = img.function_blocks(fi);
            assert_eq!(blocks.last().unwrap().term, Terminator::Return);
            // Only the last block returns.
            assert!(blocks[..blocks.len() - 1].iter().all(|b| b.term != Terminator::Return));
        }
    }

    #[test]
    fn branch_targets_are_in_range() {
        let img = image();
        for fi in 0..img.n_functions() {
            let blocks = img.function_blocks(fi);
            for (bi, b) in blocks.iter().enumerate() {
                match b.term {
                    Terminator::CondSkip { skip, .. } => {
                        assert!(bi + 1 + skip as usize <= blocks.len(), "skip target out of range");
                    }
                    Terminator::LoopBack { to_block, .. } => {
                        assert!((to_block as usize) < bi);
                    }
                    Terminator::Call { callee } => {
                        assert!(callee < img.n_functions());
                    }
                    Terminator::Dispatch { base } => {
                        assert!(base < img.n_functions());
                        for i in 0..img.dispatch_fanout() {
                            assert!(img.dispatch_target(base, i) < img.n_functions());
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn terminator_mix_is_reasonable() {
        let img = image();
        let (mut cond, mut call, mut disp, mut lp, mut total) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for fi in 0..img.n_functions() {
            for b in img.function_blocks(fi) {
                total += 1;
                match b.term {
                    Terminator::CondSkip { .. } => cond += 1,
                    Terminator::Call { .. } | Terminator::CallPool => call += 1,
                    Terminator::Dispatch { .. } => disp += 1,
                    Terminator::LoopBack { .. } => lp += 1,
                    _ => {}
                }
            }
        }
        let f = |n: u64| n as f64 / total as f64;
        assert!(f(cond) > 0.3, "cond frac {}", f(cond));
        assert!((0.10..0.30).contains(&f(call)), "call frac {}", f(call));
        assert!(f(disp) > 0.01 && f(disp) < 0.10, "dispatch frac {}", f(disp));
        assert!(f(lp) > 0.03, "loop frac {}", f(lp));
    }

    #[test]
    fn blocks_and_functions_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Block>(), 16);
        assert_eq!(std::mem::size_of::<Function>(), 16);
    }

    #[test]
    fn kind_pools_share_runtime_and_differ_otherwise() {
        let img = image();
        let k0 = EventKindId::new(0);
        let k1 = EventKindId::new(1);
        // Shared functions belong to every pool.
        for f in 0..img.n_shared() {
            assert!(img.kind_pool_contains(k0, f));
            assert!(img.kind_pool_contains(k1, f));
        }
        // Pools differ somewhere beyond the shared prefix.
        let differs = (img.n_shared()..img.n_functions())
            .any(|f| img.kind_pool_contains(k0, f) != img.kind_pool_contains(k1, f));
        assert!(differs);
    }

    #[test]
    fn event_pool_sampling_respects_membership() {
        let img = image();
        let kind = EventKindId::new(3);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let pool = img.sample_event_pool(kind, 48, &mut rng);
        assert_eq!(pool.len(), 48);
        let members = pool.iter().filter(|&&f| img.kind_pool_contains(kind, f)).count();
        assert!(members >= 46, "members={members}");
    }

    #[test]
    fn handlers_are_stable_per_kind() {
        let img = image();
        let h0 = img.handler_of_kind(EventKindId::new(2));
        let h1 = img.handler_of_kind(EventKindId::new(2));
        assert_eq!(h0, h1);
        assert!(h0 < img.n_functions());
    }
}
