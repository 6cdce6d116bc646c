//! Resumable event instruction streams and the workload abstraction.

use crate::{EventRecord, Instr, InstrKind, PackedWorkload, WarmSink};
use esp_types::EventId;

/// A resumable cursor over one event's dynamic instruction stream.
///
/// The simulator never holds whole traces in memory; it pulls instructions
/// one at a time. Cursors must be *suspendable*: ESP pre-execution runs a
/// future event's stream for a while, gets switched away (miss resolved, or
/// a deeper jump), and later resumes **exactly where it left off** (§3.4,
/// "Persisting Event Execution Contexts"). Implementations therefore carry
/// all generator state internally.
pub trait EventStream {
    /// Produces the next instruction, or `None` when the event's handler
    /// returns to the looper.
    fn next_instr(&mut self) -> Option<Instr>;

    /// The number of instructions produced so far (the "instruction count
    /// from the beginning of the event" that list entries timestamp).
    fn executed(&self) -> u64;

    /// Checkpoints the cursor: returns an independent stream that
    /// continues from the current position. Runahead execution forks the
    /// current event's stream at the blocking load; the original cursor
    /// resumes normal execution untouched.
    fn fork(&self) -> Box<dyn EventStream + '_>;

    /// Consumes up to `max_instrs` instructions, feeding their
    /// architectural state into a functional-warming `sink` instead of
    /// returning them (the sampling mode's fast-forward). Returns the
    /// number of instructions consumed, short of `max_instrs` only at end
    /// of stream.
    ///
    /// The default decodes through [`EventStream::next_instr`]; packed
    /// cursors override it with a walk straight off the packed arrays
    /// (see `PackedCursor::warm_walk_bounded`). Fetch lines are reported
    /// on transitions within one call, first instruction included, so
    /// sinks that dedup fetch lines themselves see identical sequences
    /// from either path.
    fn warm_region<S: WarmSink>(&mut self, max_instrs: u64, line_bytes: u64, sink: &mut S) -> u64
    where
        Self: Sized,
    {
        let mut last_line = u64::MAX;
        let mut walked = 0u64;
        while walked < max_instrs {
            let Some(i) = self.next_instr() else { break };
            let line = i.pc.line(line_bytes).as_u64();
            if line != last_line {
                sink.warm_fetch_line(line);
                last_line = line;
            }
            match i.kind {
                InstrKind::Alu => {}
                InstrKind::Load { addr, .. } => sink.warm_load(i.pc.as_u64(), addr.as_u64()),
                InstrKind::Store { addr } => sink.warm_store(addr.as_u64()),
                _ => sink.warm_branch(&i),
            }
            walked += 1;
        }
        walked
    }

    /// Consumes up to `max_instrs` instructions with no observer at all —
    /// the learned sampling mode's skipped-grain fast-forward. The cursor
    /// advances exactly as [`EventStream::warm_region`] would (so
    /// retirement accounting stays exact), but no architectural state is
    /// reported anywhere. Returns the number of instructions consumed,
    /// short of `max_instrs` only at end of stream.
    ///
    /// The default decodes through [`EventStream::next_instr`]; packed
    /// cursors override it with a decode-free walk over the packed
    /// arrays (see `PackedCursor::skip_walk`).
    fn skip_region(&mut self, max_instrs: u64) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs && self.next_instr().is_some() {
            walked += 1;
        }
        walked
    }

    /// [`EventStream::skip_region`] with a memory-touch observer: fetch
    /// lines and load/store addresses are reported to `sink` so a
    /// footprint can be collected almost for free, but branch reporting
    /// is *not* guaranteed — packed cursors never call
    /// [`WarmSink::warm_branch`] here (see
    /// `PackedCursor::skip_walk_observed`), while this decoded default
    /// does. Sinks used with this method must not depend on the branch
    /// hook.
    fn skip_region_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64
    where
        Self: Sized,
    {
        self.warm_region(max_instrs, line_bytes, sink)
    }
}

impl<S: EventStream + ?Sized> EventStream for Box<S> {
    #[inline]
    fn next_instr(&mut self) -> Option<Instr> {
        (**self).next_instr()
    }

    #[inline]
    fn executed(&self) -> u64 {
        (**self).executed()
    }

    fn fork(&self) -> Box<dyn EventStream + '_> {
        (**self).fork()
    }

    #[inline]
    fn skip_region(&mut self, max_instrs: u64) -> u64 {
        (**self).skip_region(max_instrs)
    }
}

/// [`EventStream::fork`] without the mandatory box: implementors name
/// the concrete cursor type their fork produces, so a monomorphised
/// simulation loop (see `as_packed` on [`Workload`]) can spin off a
/// runahead side-execution with a plain struct copy instead of a heap
/// allocation and virtual dispatch per pre-executed instruction.
/// Runahead opens one fork per stall window — hundreds of thousands per
/// simulation.
pub trait ForkStream: EventStream {
    /// The stream type a fork yields.
    type Forked<'s>: EventStream
    where
        Self: 's;

    /// Checkpoints the cursor, like [`EventStream::fork`].
    fn fork_stream(&self) -> Self::Forked<'_>;
}

impl<S: EventStream + ?Sized> ForkStream for Box<S> {
    type Forked<'s>
        = Box<dyn EventStream + 's>
    where
        Self: 's;

    fn fork_stream(&self) -> Box<dyn EventStream + '_> {
        (**self).fork()
    }
}

/// A complete asynchronous program: an ordered schedule of events, each of
/// which can be opened for normal execution or for speculative
/// pre-execution.
///
/// The two stream methods model the paper's methodology (§5): the *actual*
/// stream is what the event does when it really runs; the *speculative*
/// stream is what a forked-off pre-execution observes. For most events they
/// are identical (the paper measured > 99 % match); a workload may inject
/// divergence to model inter-event dependences.
///
/// Workloads are `Sync`: one workload is shared by reference across the
/// matrix workers, each simulating a different configuration over it.
/// Implementations are immutable once built, so this is free.
pub trait Workload: Sync {
    /// The events of the program in execution order.
    fn events(&self) -> &[EventRecord];

    /// Opens the authoritative instruction stream of event `id`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `id` is out of range.
    fn actual_stream(&self, id: EventId) -> Box<dyn EventStream + '_>;

    /// Opens the stream a speculative pre-execution of event `id` would
    /// observe. May diverge from [`Workload::actual_stream`] part-way
    /// through.
    fn speculative_stream(&self, id: EventId) -> Box<dyn EventStream + '_>;

    /// Downcast hook for the decode-once arena: [`PackedWorkload`]
    /// returns itself, letting the simulator's per-instruction loops run
    /// over a concrete, inlinable cursor instead of a boxed trait object.
    /// Timing and statistics are identical on both paths — this is purely
    /// a dispatch optimisation.
    fn as_packed(&self) -> Option<&PackedWorkload> {
        None
    }

    /// Total dynamic instructions across all events (sum of `approx_len`
    /// unless an implementation knows better).
    fn approx_total_instructions(&self) -> u64 {
        self.events().iter().map(|e| e.approx_len).sum()
    }
}

/// An [`EventStream`] that replays a pre-recorded vector of instructions.
///
/// The workhorse of unit tests, and the replay side of [`record_stream`].
///
/// # Examples
///
/// ```
/// use esp_trace::{EventStream, Instr, VecEventStream};
/// use esp_types::Addr;
///
/// let mut s = VecEventStream::new(vec![Instr::alu(Addr::new(0))]);
/// assert_eq!(s.next_instr(), Some(Instr::alu(Addr::new(0))));
/// assert_eq!(s.next_instr(), None);
/// assert_eq!(s.executed(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecEventStream {
    instrs: Vec<Instr>,
    pos: usize,
}

impl VecEventStream {
    /// Creates a stream replaying `instrs` front to back.
    pub fn new(instrs: Vec<Instr>) -> Self {
        VecEventStream { instrs, pos: 0 }
    }

    /// Returns the instructions not yet produced.
    pub fn remaining(&self) -> &[Instr] {
        &self.instrs[self.pos..]
    }
}

impl EventStream for VecEventStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let i = self.instrs.get(self.pos).copied()?;
        self.pos += 1;
        Some(i)
    }

    fn executed(&self) -> u64 {
        self.pos as u64
    }

    fn fork(&self) -> Box<dyn EventStream + '_> {
        Box::new(self.clone())
    }
}

impl FromIterator<Instr> for VecEventStream {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        VecEventStream::new(iter.into_iter().collect())
    }
}

/// Drains `stream` to completion (or `limit` instructions, whichever comes
/// first) and returns the instructions it produced.
///
/// # Examples
///
/// ```
/// use esp_trace::{record_stream, Instr, VecEventStream};
/// use esp_types::Addr;
///
/// let mut s = VecEventStream::new(vec![Instr::alu(Addr::new(0)); 10]);
/// let got = record_stream(&mut s, 3);
/// assert_eq!(got.len(), 3);
/// ```
pub fn record_stream(stream: &mut dyn EventStream, limit: usize) -> Vec<Instr> {
    let mut out = Vec::new();
    while out.len() < limit {
        match stream.next_instr() {
            Some(i) => out.push(i),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::Addr;

    fn sample() -> Vec<Instr> {
        (0..5).map(|i| Instr::alu(Addr::new(i * 4))).collect()
    }

    #[test]
    fn vec_stream_replays_in_order() {
        let v = sample();
        let mut s = VecEventStream::new(v.clone());
        let got = record_stream(&mut s, usize::MAX);
        assert_eq!(got, v);
        assert_eq!(s.executed(), 5);
        assert!(s.next_instr().is_none());
        assert_eq!(s.executed(), 5);
    }

    #[test]
    fn record_stream_respects_limit() {
        let mut s = VecEventStream::new(sample());
        assert_eq!(record_stream(&mut s, 2).len(), 2);
        assert_eq!(s.remaining().len(), 3);
    }

    #[test]
    fn from_iterator() {
        let s: VecEventStream = sample().into_iter().collect();
        assert_eq!(s.remaining().len(), 5);
    }

    #[test]
    fn executed_counts_incrementally() {
        let mut s = VecEventStream::new(sample());
        assert_eq!(s.executed(), 0);
        s.next_instr();
        assert_eq!(s.executed(), 1);
        s.next_instr();
        s.next_instr();
        assert_eq!(s.executed(), 3);
    }
}
