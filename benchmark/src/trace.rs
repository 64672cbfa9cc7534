//! The benchmark's own span recorder: every call a workload makes into a
//! layer's public function is bracketed by [`Recorder::start`] /
//! [`Recorder::end`]. Counts are kept for every call; timing is sampled (see
//! [`SAMPLE_EVERY`]) so two clock reads do not double a 60 ns operation.
//!
//! Spans sit in a preallocated [`Region`] per worker — heap for threads, a
//! `MAP_SHARED` mapping for forked children, which must not allocate — and
//! the coordinator drains them between cells, while the workers are idle.
//!
//! Without the `trace` feature the recorder is a zero-sized type whose
//! methods are empty, so the plain build times exactly the bare calls.

use crate::sys::Region;

/// One item in this many has its calls timed. The same items carry the
/// plain build's latency sample, so a sampled item's spans share its id.
pub const SAMPLE_EVERY: u64 = 64;

/// Is `item` one whose calls are timed?
#[inline(always)]
pub fn sampled(item: u64) -> bool {
    item.is_multiple_of(SAMPLE_EVERY)
}

/// What a span or a count is about: `Item` is the root span of one item
/// (its end-to-end latency), the rest are the public functions the
/// workloads call, named `<module>.<function>`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u16)]
pub enum Name {
    None,
    Item,
    OptimalEnqueue,
    OptimalDequeue,
    BlockingSendAll,
    BlockingRecvMany,
    BlockingSend,
    BlockingRecv,
    AsyncTrySend,
    AsyncRecv,
    DistinctEnqueue,
    DistinctDequeue,
    ByteringTryGrant,
    ByteringTryRead,
    ShmEnqueue,
    ShmDequeue,
    /// Not a call: one iteration of a worker's own wait loop (a yield after
    /// a refusal). Counted, never timed.
    Spin,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::None => "",
            Name::Item => "item",
            Name::OptimalEnqueue => "optimal.enqueue",
            Name::OptimalDequeue => "optimal.dequeue",
            Name::BlockingSendAll => "blocking.send_all",
            Name::BlockingRecvMany => "blocking.recv_many",
            Name::BlockingSend => "blocking.send",
            Name::BlockingRecv => "blocking.recv",
            Name::AsyncTrySend => "async_queue.try_send",
            Name::AsyncRecv => "async_queue.recv",
            Name::DistinctEnqueue => "distinct.enqueue",
            Name::DistinctDequeue => "distinct.dequeue",
            Name::ByteringTryGrant => "bytering.try_grant",
            Name::ByteringTryRead => "bytering.try_read",
            Name::ShmEnqueue => "shm.queue.enqueue",
            Name::ShmDequeue => "shm.queue.dequeue",
            Name::Spin => "spin",
        }
    }
}

/// One recorded span. Spans of one item share `item`; `parent` names the
/// enclosing span of the same item (`Name::None` for a root).
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct Span {
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub name: Name,
    pub parent: Name,
    pub thread: u16,
    pub cell: u16,
}

/// What the coordinator drained from every worker's region after one cell.
#[derive(Default)]
pub struct CellTrace {
    calls: Vec<u64>,
    refused: Vec<u64>,
    spans: Vec<Span>,
}

impl CellTrace {
    /// Calls made into `name`, sampled or not.
    pub fn calls(&self, name: Name) -> u64 {
        self.calls.get(name as usize).copied().unwrap_or(0)
    }

    /// Calls into `name` that came back refused (full, empty, no room).
    pub fn refused(&self, name: Name) -> u64 {
        self.refused.get(name as usize).copied().unwrap_or(0)
    }

    /// `refused ÷ calls`, 0 when the workload never called `name`.
    pub fn refused_share(&self, names: &[Name]) -> f64 {
        let calls: u64 = names.iter().map(|&n| self.calls(n)).sum();
        let refused: u64 = names.iter().map(|&n| self.refused(n)).sum();
        if calls == 0 {
            0.0
        } else {
            refused as f64 / calls as f64
        }
    }

    /// Durations, in ns, of the sampled successful calls into `name`.
    pub fn durations(&self, name: Name) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).min(u32::MAX as u64) as u32)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(feature = "trace")]
mod on {
    use super::*;

    /// `Name` has this many variants; `Spin` is the last.
    const NAMES: usize = Name::Spin as usize + 1;
    const HDR_LEN: usize = 0;
    const HDR_CELL: usize = 1;
    const HDR_CALLS: usize = 2;
    const HDR_REFUSED: usize = HDR_CALLS + NAMES;
    const HDR_WORDS: usize = HDR_REFUSED + NAMES;
    const SPAN_WORDS: usize = std::mem::size_of::<Span>() / 8;

    /// Words a region needs to hold `spans` spans.
    pub fn region_words(spans: usize) -> usize {
        HDR_WORDS + spans * SPAN_WORDS
    }

    /// The writing end, owned by one worker.
    pub struct Recorder {
        base: *mut u64,
        cap: usize,
        thread: u16,
        /// Calls opened through [`start_nth`](Self::start_nth) so far.
        nth: u64,
    }

    // SAFETY: the recorder is the only writer of its region while a cell
    // runs; the coordinator reads it only between cells.
    unsafe impl Send for Recorder {}

    impl Recorder {
        pub fn new(region: &Region, thread: usize) -> Recorder {
            assert!(region.words() >= HDR_WORDS);
            Recorder {
                base: region.ptr(),
                cap: (region.words() - HDR_WORDS) / SPAN_WORDS,
                thread: thread as u16,
                nth: 0,
            }
        }

        #[inline(always)]
        fn word(&mut self, i: usize) -> &mut u64 {
            // SAFETY: `i < HDR_WORDS <= region.words()` at every call site.
            unsafe { &mut *self.base.add(i) }
        }

        /// The clock reading that opens a span, or 0 for an unsampled item.
        #[inline(always)]
        pub fn start(&self, sampled: bool) -> u64 {
            if sampled {
                crate::sys::now_ns()
            } else {
                0
            }
        }

        /// Like [`start`](Self::start) for a fast receive-side call, which
        /// learns its item's id only from what it returns: one call in
        /// [`SAMPLE_EVERY`] is timed, by call count, and its span carries
        /// the id of the item it returned.
        #[inline(always)]
        pub fn start_nth(&mut self) -> u64 {
            self.nth += 1;
            self.start(self.nth.is_multiple_of(SAMPLE_EVERY))
        }

        /// Close the call opened by [`start`](Self::start): count it, count
        /// it refused when `!ok`, and store the span of a sampled success.
        #[inline(always)]
        pub fn end(&mut self, name: Name, parent: Name, item: u64, start_ns: u64, ok: bool) {
            *self.word(HDR_CALLS + name as usize) += 1;
            if !ok {
                *self.word(HDR_REFUSED + name as usize) += 1;
            } else if start_ns != 0 {
                self.span(name, parent, item, start_ns, crate::sys::now_ns());
            }
        }

        /// Count `n` events under `name` without timing anything.
        #[inline(always)]
        pub fn add(&mut self, name: Name, n: u64) {
            *self.word(HDR_CALLS + name as usize) += n;
        }

        /// Store a span whose ends the caller read itself.
        #[inline(always)]
        pub fn span(&mut self, name: Name, parent: Name, item: u64, start_ns: u64, end_ns: u64) {
            let len = *self.word(HDR_LEN) as usize;
            if len == self.cap {
                return; // sized from the cell's op count; a full buffer drops
            }
            let cell = *self.word(HDR_CELL) as u16;
            let span = Span {
                item,
                start_ns,
                end_ns,
                name,
                parent,
                thread: self.thread,
                cell,
            };
            // SAFETY: `len < cap`, so the slot lies inside the region; the
            // region is 8-aligned and `Span` is `repr(C)` of u64s and u16s.
            unsafe {
                self.base
                    .add(HDR_WORDS + len * SPAN_WORDS)
                    .cast::<Span>()
                    .write(span)
            };
            *self.word(HDR_LEN) = len as u64 + 1;
        }
    }

    /// Drain every worker's region into one [`CellTrace`] and reset them for
    /// cell `next_cell`. Call only while the workers are idle between cells
    /// (after the completion message or flag that orders their writes
    /// before this read).
    pub fn collect(regions: &[Region], next_cell: usize) -> CellTrace {
        let mut out = CellTrace {
            calls: vec![0; NAMES],
            refused: vec![0; NAMES],
            spans: Vec::new(),
        };
        for region in regions {
            // SAFETY: the region holds `HDR_WORDS` header words followed by
            // `len` spans, each written whole by `Recorder::span` (so its
            // `Name`s are valid), and no worker writes it right now.
            unsafe {
                let base = region.ptr();
                let len = *base.add(HDR_LEN) as usize;
                for n in 0..NAMES {
                    out.calls[n] += *base.add(HDR_CALLS + n);
                    out.refused[n] += *base.add(HDR_REFUSED + n);
                }
                let spans = base.add(HDR_WORDS).cast::<Span>();
                out.spans
                    .extend_from_slice(std::slice::from_raw_parts(spans, len));
                std::ptr::write_bytes(base, 0, HDR_WORDS);
                *base.add(HDR_CELL) = next_cell as u64;
            }
        }
        out
    }
}

#[cfg(not(feature = "trace"))]
mod off {
    use super::*;

    pub fn region_words(_spans: usize) -> usize {
        0
    }

    /// The plain build's recorder: nothing is stored and every method is an
    /// empty inline body.
    pub struct Recorder;

    impl Recorder {
        pub fn new(_region: &Region, _thread: usize) -> Recorder {
            Recorder
        }

        #[inline(always)]
        pub fn start(&self, _sampled: bool) -> u64 {
            0
        }

        #[inline(always)]
        pub fn start_nth(&mut self) -> u64 {
            0
        }

        #[inline(always)]
        pub fn end(&mut self, _name: Name, _parent: Name, _item: u64, _start_ns: u64, _ok: bool) {}

        #[inline(always)]
        pub fn add(&mut self, _name: Name, _n: u64) {}

        #[inline(always)]
        pub fn span(&mut self, _n: Name, _p: Name, _item: u64, _start_ns: u64, _end_ns: u64) {}
    }

    pub fn collect(_regions: &[Region], _next_cell: usize) -> CellTrace {
        CellTrace::default()
    }
}

#[cfg(not(feature = "trace"))]
pub use off::{collect, region_words, Recorder};
#[cfg(feature = "trace")]
pub use on::{collect, region_words, Recorder};

/// Heap blocks allocated so far, process-wide, from `TrackingAlloc`. The
/// traced build installs it as the global allocator; the plain build does
/// not, and reads 0.
pub fn alloc_blocks() -> u64 {
    membq::memtrack::AllocStats::snapshot().allocated_blocks as u64
}

/// How much of `[start, end)` the intervals in `children` cover, each
/// clipped to the parent. A span's self time is its duration minus this.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut upto) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(upto), e.min(end));
        if e > s {
            covered += e - s;
            upto = e;
        }
    }
    covered
}

/// Render spans as JSON lines:
/// `{name, workload, thread, cell, item, parent, start_ns, end_ns, self_ns}`.
/// `parent` is the name of the enclosing span of the same item, or null.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    use std::collections::HashMap;
    use std::fmt::Write;
    // Children are the spans of the same item and cell that name this span's
    // kind as their parent.
    let mut by_parent: HashMap<(u16, u64, Name), Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != Name::None) {
        by_parent
            .entry((s.cell, s.item, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = String::new();
    for s in spans {
        let covered = by_parent
            .get_mut(&(s.cell, s.item, s.name))
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"workload\":\"{workload}\",\"thread\":{},\"cell\":{},\"item\":{},\"parent\":",
            s.name.as_str(),
            s.thread,
            s.cell,
            s.item
        );
        match s.parent {
            Name::None => out.push_str("null"),
            p => {
                let _ = write!(out, "\"{}\"", p.as_str());
            }
        }
        let _ = writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.start_ns,
            s.end_ns,
            (s.end_ns - s.start_ns).saturating_sub(covered)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_overlapping_children() {
        // Parent [100, 200); children overlap each other and the parent's
        // edges: [90,120) ∪ [110,150) ∪ [190,260) covers 20+30+10 = 60.
        let mut kids = vec![(110, 150), (90, 120), (190, 260)];
        assert_eq!(covered_ns(100, 200, &mut kids), 60);
        assert_eq!(covered_ns(100, 200, &mut []), 0);
    }

    #[test]
    fn jsonl_joins_children_to_their_item_root() {
        let span = |name: Name, parent: Name, item, start_ns, end_ns| Span {
            item,
            start_ns,
            end_ns,
            name,
            parent,
            thread: 0,
            cell: 1,
        };
        let text = to_jsonl(
            "solo",
            &[
                span(Name::Item, Name::None, 64, 1000, 1100),
                span(Name::OptimalEnqueue, Name::Item, 64, 1010, 1040),
                span(Name::OptimalDequeue, Name::Item, 64, 1050, 1090),
                span(Name::Item, Name::None, 128, 2000, 2050),
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":30"));
        assert!(lines[1].contains("\"parent\":\"item\"") && lines[1].contains("\"self_ns\":30"));
        assert!(lines[3].contains("\"item\":128") && lines[3].contains("\"self_ns\":50"));
    }
}
