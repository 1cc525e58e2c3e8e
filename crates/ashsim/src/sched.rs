//! Scheduling machinery of the executor ([`crate::exec`]): the channel
//! FIFO slab, the calendar event queue, and the small in-flight record
//! types (deliveries, LSQ requests, pending memory outputs, token
//! generators).

use pegasus::{FlatPorts, Graph, NodeId, VClass};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Deliver `value` from output `(node, port)` to all its consumers.
    /// `fire` is the producing firing's critical-path record (`NO_REC`
    /// when recording is off).
    Deliver { node: NodeId, port: u16, value: i64, fire: u32 },
    /// An LSQ slot frees up (`level`: hierarchy depth the access reached,
    /// for the memory timeline).
    LsqRelease { level: u8 },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct MemRequest {
    pub(crate) node: NodeId,
    pub(crate) addr: u64,
    pub(crate) value: i64, // store data
    pub(crate) is_store: bool,
    /// Cycle the request entered the LSQ queue (for port-stall profiling).
    pub(crate) enqueued: u64,
    /// The firing's critical-path record (`NO_REC` when recording is off).
    pub(crate) fire: u32,
}

/// One outstanding output slot of a memory node (see the executor's
/// `mem_out` field).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PendingOut {
    /// A queued LSQ request will fill this slot when it issues.
    Real,
    /// A nullified firing's instant value (and its critical-path record),
    /// blocked behind a `Real` slot.
    Null(i64, u32),
}

#[derive(Clone)]
pub(crate) struct TokenGenState {
    pub(crate) credits: u64,
    /// Predicates seen but not yet granted, in arrival order. `true`
    /// entries need a credit; `false` entries (the loop's exit wave, whose
    /// operations are nullified) are granted for free so the consumer ring
    /// can drain — the paper's counter reset plays the same role for its
    /// fully-serialized loop model.
    pub(crate) queue: VecDeque<bool>,
    /// Last absorbed input's `(arrival, record, class)` for critical-path
    /// attribution: a grant enabled purely by previously banked credits
    /// still chains to the most recent absorb instead of becoming a path
    /// root (an approximation — the credit that paid for the grant may be
    /// older).
    pub(crate) last_arrival: Option<(u64, u32, u8)>,
}

/// Capacity of the executor's always-on recent-firings ring.
pub(crate) const RECENT_CAP: usize = 64;

/// Orderable wrapper so the overflow heap can hold events (events are not
/// `Ord`; ties are broken by the sequence number next to it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvBox(pub(crate) Ev);

impl PartialEq for EvBox {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for EvBox {}
impl PartialOrd for EvBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Every channel FIFO, in one contiguous slab: port `p` owns the slot
/// range `[p·cap, (p+1)·cap)` as a circular buffer. The reservation
/// discipline bounds every channel at `channel_capacity` entries, so
/// fixed-size slots suffice and the delivery path never allocates; one
/// slab replaces a heap block per port.
#[derive(Clone)]
pub(crate) struct PortFifos {
    pub(crate) cap: usize,
    slots: Vec<(u64, i64)>,
    head: Vec<u32>,
    len: Vec<u32>,
}

impl PortFifos {
    pub(crate) fn new(num_ports: usize, cap: usize) -> PortFifos {
        PortFifos {
            cap,
            slots: vec![(0, 0); num_ports * cap],
            head: vec![0; num_ports],
            len: vec![0; num_ports],
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self, p: usize) -> bool {
        self.len[p] == 0
    }

    #[inline]
    pub(crate) fn len(&self, p: usize) -> usize {
        self.len[p] as usize
    }

    #[inline]
    pub(crate) fn front(&self, p: usize) -> Option<(u64, i64)> {
        if self.len[p] == 0 {
            None
        } else {
            Some(self.slots[p * self.cap + self.head[p] as usize])
        }
    }

    /// Pushes `entry` and returns the flat slot index it landed in, so the
    /// critical-path recorder can mirror the ring without duplicating its
    /// head/len state (ring offsets use a conditional subtract, not `%`:
    /// `cap` is a run-time value, so a modulo here is a hardware divide on
    /// the hottest path).
    #[inline]
    pub(crate) fn push_back(&mut self, p: usize, entry: (u64, i64)) -> usize {
        let len = self.len[p] as usize;
        debug_assert!(len < self.cap, "channel over capacity: reservation discipline broken");
        let mut off = self.head[p] as usize + len;
        if off >= self.cap {
            off -= self.cap;
        }
        let at = p * self.cap + off;
        self.slots[at] = entry;
        self.len[p] += 1;
        at
    }

    /// Pops the oldest entry with the flat slot index it came from (see
    /// [`Self::push_back`]).
    #[inline]
    pub(crate) fn pop_front(&mut self, p: usize) -> Option<((u64, i64), usize)> {
        if self.len[p] == 0 {
            return None;
        }
        let head = self.head[p] as usize;
        let at = p * self.cap + head;
        let next = head + 1;
        self.head[p] = (if next == self.cap { 0 } else { next }) as u32;
        self.len[p] -= 1;
        Some((self.slots[at], at))
    }
}

/// The value class each flat input port carries (what its consumer
/// expects there), built once at executor set-up for stall attribution.
pub(crate) fn input_classes(g: &Graph, flat: &FlatPorts) -> Vec<VClass> {
    let mut in_class = vec![VClass::Data; flat.num_in_ports()];
    for id in g.ids() {
        let k = g.kind(id);
        for p in 0..g.num_inputs(id) as u16 {
            in_class[flat.in_id(id, p) as usize] = k.input_class(p);
        }
    }
    in_class
}

/// Calendar-bucket ring size, in cycles. Covers every ALU latency and the
/// realistic memory hierarchy's worst case (TLB miss + L1 + L2 + DRAM +
/// word gaps ≈ 150 cycles); anything scheduled further out — e.g. a
/// `Perfect { latency }` model with a huge latency — takes the overflow
/// heap, which is correct at any horizon, just not O(1).
pub(crate) const RING: u64 = 256;

/// The simulator's event queue: a calendar of per-cycle buckets with a
/// fallback binary heap for far-future events.
///
/// The previous implementation kept every pending delivery in one
/// `BinaryHeap<Reverse<(cycle, seq, event)>>`: each push/pop paid
/// `O(log n)` three-word comparisons and the sift traffic dominated the
/// scheduler's profile. Almost all events land within a few cycles of
/// `now` (ALU latencies of 1–20, cache hits of 2–8), so a ring of `RING`
/// per-cycle `Vec` buckets makes push O(1) and pop a drain of the current
/// bucket. Bucket `Vec`s and the `due` scratch buffer are recycled, so in
/// steady state the queue performs no allocation at all.
///
/// Ordering contract (must match the old heap exactly): events are
/// processed in `(cycle, seq)` order. Within a bucket, pushes happen in
/// ascending `seq` order, so a bucket drain is already sorted; a sort is
/// needed only on the rare cycle where the overflow heap contributes too.
#[derive(Clone)]
pub(crate) struct EventQueue {
    /// `ring[t % RING]` holds `(t, seq, ev)` entries for cycle `t` (and,
    /// transiently, for `t + k·RING` — filtered on drain).
    ring: Vec<Vec<(u64, u64, Ev)>>,
    /// Events scheduled `RING` or more cycles ahead.
    overflow: BinaryHeap<Reverse<(u64, u64, EvBox)>>,
    /// Entries currently in the ring (not counting `overflow`).
    ring_len: usize,
    /// Cycles `<= drained` have been fully delivered (modulo stragglers
    /// pushed at `t == drained` after the drain, which the next call picks
    /// up because the scan restarts at `drained`).
    drained: u64,
    /// Recycled buffer for [`Self::take_due`].
    scratch: Vec<(u64, u64, Ev)>,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            ring: (0..RING).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            ring_len: 0,
            drained: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules `ev` at cycle `t` with tiebreaker `seq`. `t` must not lie
    /// in the past (callers schedule at `now` or later).
    pub(crate) fn push(&mut self, t: u64, seq: u64, ev: Ev) {
        if t < self.drained + RING {
            self.ring[(t % RING) as usize].push((t, seq, ev));
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((t, seq, EvBox(ev))));
        }
    }

    /// Removes and returns every event scheduled at cycle `now` or
    /// earlier, in `(cycle, seq)` order. The returned buffer must be
    /// handed back via [`Self::recycle`] after processing.
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<(u64, u64, Ev)> {
        let mut due = std::mem::take(&mut self.scratch);
        let mut from_overflow = false;
        while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            if t > now {
                break;
            }
            let Reverse((t, s, EvBox(ev))) = self.overflow.pop().expect("peeked");
            due.push((t, s, ev));
            from_overflow = true;
        }
        if self.ring_len > 0 {
            for c in self.drained..=now {
                let slot = &mut self.ring[(c % RING) as usize];
                if slot.is_empty() {
                    continue;
                }
                if slot.iter().all(|&(t, _, _)| t == c) {
                    // Common case: the whole bucket is due; moving it out
                    // keeps the bucket's capacity for reuse.
                    self.ring_len -= slot.len();
                    due.append(slot);
                } else {
                    // A wrapped entry (t = c + k·RING) shares the bucket:
                    // extract only the due ones, preserving order.
                    let before = slot.len();
                    slot.retain(|&e| {
                        if e.0 == c {
                            due.push(e);
                            false
                        } else {
                            true
                        }
                    });
                    self.ring_len -= before - slot.len();
                }
            }
        }
        self.drained = now;
        if from_overflow {
            // Overflow events were prepended; restore global order.
            due.sort_unstable_by_key(|&(t, s, _)| (t, s));
        }
        due
    }

    /// Returns the processed buffer from [`Self::take_due`] for reuse.
    pub(crate) fn recycle(&mut self, mut due: Vec<(u64, u64, Ev)>) {
        due.clear();
        self.scratch = due;
    }

    /// The earliest scheduled cycle, if any events are pending.
    pub(crate) fn next_time(&self) -> Option<u64> {
        let mut best = self.overflow.peek().map(|&Reverse((t, _, _))| t);
        if self.ring_len > 0 {
            // Every ring entry has t in [drained, drained + RING), so the
            // first cycle whose bucket holds a matching entry is the min.
            for k in 0..RING {
                let c = self.drained + k;
                if self.ring[(c % RING) as usize].iter().any(|&(t, _, _)| t == c) {
                    best = Some(best.map_or(c, |b| b.min(c)));
                    break;
                }
            }
        }
        best
    }
}
