//! The traced run's sink: timestamps token and barrier events out of band.
//!
//! [`StampSink`] is attached through `TraceHandle::to`. It stamps each
//! token and barrier event with a monotonic time and a global emission
//! number and keeps the stamps per thread in memory; nothing it records reaches the schedule
//! hash or a recording. In `kv_record` it wraps the `DiskSink`, forwarding
//! every event and every query, so the container it writes is the one the
//! untraced run writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dmt_api::{DomainId, Event, EventCounts, TraceSink};

/// One stamped event.
#[derive(Clone, Copy)]
pub struct Stamp {
    /// Emission number across all threads.
    pub seq: u64,
    /// Nanoseconds since the sink was created.
    pub ns: u64,
    /// The event itself.
    pub ev: Event,
}

/// Per-thread lanes of stamped events, optionally forwarding to an inner
/// sink.
pub struct StampSink {
    inner: Option<Arc<dyn TraceSink>>,
    t0: Instant,
    seq: AtomicU64,
    lanes: Vec<Mutex<Vec<Stamp>>>,
}

impl StampSink {
    /// A sink with `lanes` per-thread lanes (thread id modulo `lanes`).
    pub fn new(inner: Option<Arc<dyn TraceSink>>, lanes: usize) -> StampSink {
        StampSink {
            inner,
            t0: Instant::now(),
            seq: AtomicU64::new(0),
            lanes: (0..lanes.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Every stamp recorded so far, in emission order.
    pub fn take(&self) -> Vec<Stamp> {
        let mut all: Vec<Stamp> = self
            .lanes
            .iter()
            .flat_map(|l| std::mem::take(&mut *l.lock().expect("stamp lane poisoned")))
            .collect();
        all.sort_unstable_by_key(|s| s.seq);
        all
    }
}

impl TraceSink for StampSink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if let Some(inner) = &self.inner {
            inner.emit(ev, in_schedule, domain);
        }
        // Only the events the derived timings use are kept: stamping every
        // clock publication would multiply the traced run's overhead.
        if !matches!(
            ev,
            Event::TokenAcquire { .. }
                | Event::TokenRelease { .. }
                | Event::BarrierArrive { .. }
                | Event::BarrierOpen { .. }
        ) {
            return;
        }
        let ns = self.t0.elapsed().as_nanos() as u64;
        // Statistic only; the order it gives is the runtime's own emission
        // order, since these events are emitted under the runtime lock.
        let seq = self.seq.fetch_add(1, Relaxed);
        let lane = ev.tid().0 as usize % self.lanes.len();
        self.lanes[lane]
            .lock()
            .expect("stamp lane poisoned")
            .push(Stamp { seq, ns, ev: *ev });
    }

    fn schedule_hash(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.schedule_hash())
    }

    fn counts(&self) -> EventCounts {
        self.inner.as_ref().map(|s| s.counts()).unwrap_or_default()
    }

    fn occupancy(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.occupancy())
    }

    fn fault(&self) -> Option<String> {
        self.inner.as_ref().and_then(|s| s.fault())
    }

    fn durable_flushes(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.durable_flushes())
    }
}

/// Token and barrier timings of one run, derived from its stamps.
#[derive(Clone, Copy, Debug, Default)]
pub struct TokenTimes {
    /// Total time the token was held (TokenAcquire → TokenRelease).
    pub hold_ns: u64,
    /// Median single hold.
    pub hold_p50_ns: u64,
    /// Total handoff time: TokenRelease → the next TokenAcquire, when the
    /// acquirer is another thread.
    pub handoff_ns: u64,
    /// Median single handoff.
    pub handoff_p50_ns: u64,
    /// 90th percentile single handoff.
    pub handoff_p90_ns: u64,
    /// Total barrier time: first BarrierArrive → BarrierOpen of each
    /// generation.
    pub barrier_ns: u64,
}

/// Derives [`TokenTimes`] from one run's stamps (in emission order).
pub fn token_times(stamps: &[Stamp]) -> TokenTimes {
    let mut held: HashMap<u32, u64> = HashMap::new();
    let mut holds = Vec::new();
    let mut handoffs = Vec::new();
    let mut released: Option<(u32, u64)> = None;
    let mut first_arrive: HashMap<(usize, u64), u64> = HashMap::new();
    let mut barrier_ns = 0;
    for s in stamps {
        match s.ev {
            Event::TokenAcquire { tid, .. } => {
                if let Some((from, at)) = released.take() {
                    if from != tid.0 {
                        handoffs.push(s.ns.saturating_sub(at));
                    }
                }
                held.insert(tid.0, s.ns);
            }
            Event::TokenRelease { tid, .. } => {
                if let Some(at) = held.remove(&tid.0) {
                    holds.push(s.ns.saturating_sub(at));
                }
                released = Some((tid.0, s.ns));
            }
            Event::BarrierArrive { barrier, gen, .. } => {
                first_arrive.entry((barrier.index(), gen)).or_insert(s.ns);
            }
            Event::BarrierOpen { barrier, gen, .. } => {
                if let Some(at) = first_arrive.remove(&(barrier.index(), gen)) {
                    barrier_ns += s.ns.saturating_sub(at);
                }
            }
            _ => {}
        }
    }
    TokenTimes {
        hold_ns: holds.iter().sum(),
        hold_p50_ns: crate::stats::nearest_rank(&mut holds, 50.0).unwrap_or(0),
        handoff_ns: handoffs.iter().sum(),
        handoff_p50_ns: crate::stats::nearest_rank(&mut handoffs, 50.0).unwrap_or(0),
        handoff_p90_ns: crate::stats::nearest_rank(&mut handoffs, 90.0).unwrap_or(0),
        barrier_ns,
    }
}
