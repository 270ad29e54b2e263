//! Span/counter tracing for the phi-scf stack, armed at run time.
//!
//! The paper's headline claims are *timing-breakdown* claims: DLB wait
//! time, Fock-flush overhead, per-thread load imbalance (Fig. 8's
//! max/mean thread busy time). Aggregate counters cannot show where a
//! build spends its time, so this crate adds the missing layer: every
//! actor — an `(rank, thread)` pair — records a private, lock-free
//! stream of timestamped events, and a [`TraceSession`] collects the
//! streams into a [`TraceReport`] with per-stream span totals, imbalance
//! ratios, DLB wait totals, Chrome `trace_event` JSON export and the
//! four-number [`TraceSummary`] the CLI prints.
//!
//! # Cost model
//!
//! The recording runtime is always compiled; an active [`TraceSession`]
//! is the only thing that arms it.
//!
//! * **No session:** one relaxed atomic load per call.
//! * **Active session:** a `Vec` push into a thread-local buffer plus
//!   one monotonic-clock read. No locks are taken on the hot path;
//!   buffers drain into the global sink only when a thread exits
//!   (scoped rank/team threads) or its ids change.
//!
//! Instrumented code emits *O(tasks × threads)* events, never
//! per-quartet events; counters accumulate in plain locals and are
//! recorded once per thread per build. The overhead budget (active
//! session over no session ≤ 2 % on the engine-serial Fock build) is
//! asserted by `benches/trace_overhead.rs`.
//!
//! # Sessions are process-global
//!
//! Recording is armed for the whole process, so a session also absorbs
//! events from any other thread that runs instrumented code while it is
//! open. Tests that assert *exact* totals (counter sums, span counts,
//! stream counts) therefore live only in test binaries where every
//! test that runs instrumented code holds the session lock for the
//! whole of that code: this crate's unit tests, `tests/trace_invariants.rs`,
//! `tests/trace_faults.rs` and `tests/trace_golden_breakdown.rs`.
//!
//! # Span taxonomy
//!
//! | name | emitted by |
//! |------|------------|
//! | `omp.loop` | worksharing loop body (per-thread busy time) |
//! | `omp.barrier_wait` | team barrier wait |
//! | `dlb.wait` | `Rank::lease_next` (claim + poll until a task arrives) |
//! | `mpi.gsum` | fault-tolerant global sum |
//! | `mpi.barrier` | fault-tolerant world barrier |
//! | `fock.build` | one builder invocation (per rank) |
//! | `fock.flush_fi` / `fock.flush_fj` / `fock.flush_scatter` | shared-Fock / distributed and sharded flushes |
//! | `scf.iteration` / `scf.fock` / `scf.diag` / `scf.diis` | SCF driver phases |
//!
//! Instants: `rank.died` (value = rank id), `task.reissued`
//! (value = task, aux = original claimant). Counters: `quartets_computed`,
//! `flushes`, `dlb.calls`, `tasks.reclaimed` — each reconciles exactly
//! with the corresponding `FockBuildStats` field (see
//! `tests/trace_invariants.rs`).

mod chrome;
mod report;

pub use report::{InstantEvent, TraceReport, TraceSummary};

/// One timestamped trace event. Timestamps are nanoseconds since the
/// process-wide trace epoch (the first clock read in the process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Span open; closed by the matching `End` with the same name.
    Begin { name: &'static str, t: u64 },
    /// Span close. Spans on one stream close LIFO (RAII guards), so
    /// streams are always properly nested.
    End { name: &'static str, t: u64 },
    /// A point event: `value`/`aux` carry event-specific payload
    /// (e.g. the dead rank id, or a reissued task and its original
    /// claimant).
    Instant { name: &'static str, t: u64, value: u64, aux: u64 },
    /// A monotone counter contribution; the report sums all
    /// contributions with the same name.
    Counter { name: &'static str, t: u64, value: u64 },
}

impl Event {
    /// Timestamp of the event, ns since the trace epoch.
    pub fn t(&self) -> u64 {
        match *self {
            Event::Begin { t, .. }
            | Event::End { t, .. }
            | Event::Instant { t, .. }
            | Event::Counter { t, .. } => t,
        }
    }

    /// Name of the event.
    pub fn name(&self) -> &'static str {
        match *self {
            Event::Begin { name, .. }
            | Event::End { name, .. }
            | Event::Instant { name, .. }
            | Event::Counter { name, .. } => name,
        }
    }
}

/// The events recorded by one `(rank, thread)` actor, in program order.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    pub rank: u32,
    pub thread: u32,
    pub events: Vec<Event>,
}

// ---------------------------------------------------------------------
// Recording runtime
// ---------------------------------------------------------------------

mod rt {
    use super::{Event, Stream};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Instant;

    pub(crate) static ACTIVE: AtomicBool = AtomicBool::new(false);
    pub(crate) static SINK: Mutex<Vec<Stream>> = Mutex::new(Vec::new());
    pub(crate) static SESSION: Mutex<()> = Mutex::new(());
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    #[inline]
    pub(crate) fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    #[inline(never)]
    pub(crate) fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        // A poisoning panic in one tracing test must not wedge the rest
        // of the binary: the sink holds plain data, safe to keep using.
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-OS-thread event buffer. Flushes itself into the global sink
    /// when the thread exits (TLS destructor) — rank and team threads
    /// are joined by handle (a scope's implicit join would not wait for
    /// the destructor) before their world/team call returns, so by the
    /// time a build returns, every stream it produced is in the sink. The long-lived session thread is flushed by
    /// `TraceSession::finish`.
    pub(crate) struct Local {
        rank: u32,
        thread: u32,
        pub(crate) events: Vec<Event>,
    }

    impl Local {
        pub(crate) fn flush(&mut self) {
            if self.events.is_empty() {
                return;
            }
            let stream = Stream {
                rank: self.rank,
                thread: self.thread,
                events: std::mem::take(&mut self.events),
            };
            lock(&SINK).push(stream);
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static LOCAL: RefCell<Local> = const {
            RefCell::new(Local { rank: 0, thread: 0, events: Vec::new() })
        };
    }

    #[inline]
    pub(crate) fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|l| f(&mut l.borrow_mut()))
    }

    /// Out of line and cold, like [`now_ns`]: every instrumented
    /// function carries only the `active()` load and a branch on its
    /// hot path, whatever the TLS access, buffer growth and clock read
    /// of an armed session cost.
    #[cold]
    #[inline(never)]
    pub(crate) fn push(ev: Event) {
        with_local(|l| l.events.push(ev));
    }

    /// Tag the current OS thread as `(rank, thread)` for subsequent events.
    pub fn set_ids(rank: u32, thread: u32) {
        with_local(|l| {
            if (l.rank, l.thread) != (rank, thread) {
                // One OS thread can play several roles over time (the
                // session thread is also rank 0's master in serial
                // tests): close out the old stream segment first.
                l.flush();
                l.rank = rank;
                l.thread = thread;
            }
        });
    }

    /// Rank id last set on this thread (0 if never set).
    pub fn current_rank() -> u32 {
        with_local(|l| l.rank)
    }
}

// ---------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------

/// RAII span guard: records `Event::End` when dropped. Guards drop in
/// LIFO order, which is what guarantees streams nest properly.
#[must_use = "a span measures the scope of this guard; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            rt::push(Event::End { name, t: rt::now_ns() });
        }
    }
}

/// Open a span on the current thread's stream; it closes when the
/// returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if rt::active() {
        rt::push(Event::Begin { name, t: rt::now_ns() });
        SpanGuard { name: Some(name) }
    } else {
        SpanGuard { name: None }
    }
}

/// Record a point event with one payload value.
#[inline]
pub fn instant(name: &'static str, value: u64) {
    instant_with(name, value, 0);
}

/// Record a point event with two payload values.
#[inline]
pub fn instant_with(name: &'static str, value: u64, aux: u64) {
    if rt::active() {
        rt::push(Event::Instant { name, t: rt::now_ns(), value, aux });
    }
}

/// Add `value` to the counter `name`. Contributions from all streams
/// are summed by the report.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if rt::active() {
        rt::push(Event::Counter { name, t: rt::now_ns(), value });
    }
}

pub use rt::{current_rank, set_ids};

/// Tag the current OS thread as the master (thread 0) of `rank`.
#[inline(always)]
pub fn set_rank(rank: u32) {
    set_ids(rank, 0);
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// An exclusive recording window. `begin` clears the global sink and
/// arms recording; `finish` disarms it and returns everything recorded
/// in between as a [`TraceReport`].
///
/// Sessions hold a global lock, so two sessions in one process
/// serialize — concurrent `#[test]`s that trace do not corrupt each
/// other's reports.
pub struct TraceSession {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl TraceSession {
    pub fn begin() -> TraceSession {
        let guard = rt::lock(&rt::SESSION);
        // Drop anything the session thread buffered outside a session
        // (nothing should be there — recording is gated — but a
        // previous panicking session may have left partial state).
        rt::with_local(|l| l.events.clear());
        rt::lock(&rt::SINK).clear();
        rt::ACTIVE.store(true, std::sync::atomic::Ordering::SeqCst);
        TraceSession { _guard: guard }
    }

    pub fn finish(self) -> TraceReport {
        rt::ACTIVE.store(false, std::sync::atomic::Ordering::SeqCst);
        rt::with_local(|l| l.flush());
        let streams = std::mem::take(&mut *rt::lock(&rt::SINK));
        TraceReport::from_streams(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_free_session_is_empty() {
        let session = TraceSession::begin();
        let report = session.finish();
        assert!(report.streams.is_empty());
        assert_eq!(report.counter_total("anything"), 0);
    }

    #[test]
    fn spans_nest_and_counters_sum() {
        let session = TraceSession::begin();
        set_ids(0, 0);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter("work", 3);
            }
            counter("work", 4);
        }
        instant_with("mark", 7, 9);
        let report = session.finish();
        report.check_well_formed().unwrap();
        assert_eq!(report.counter_total("work"), 7);
        assert_eq!(report.span_count("outer"), 1);
        assert_eq!(report.span_count("inner"), 1);
        assert!(report.span_total_ns("outer") >= report.span_total_ns("inner"));
        let marks = report.instants("mark");
        assert_eq!(marks.len(), 1);
        assert_eq!((marks[0].value, marks[0].aux), (7, 9));
    }

    #[test]
    fn inactive_gap_records_nothing() {
        {
            // Holding the session lock keeps a sibling test's session
            // from being the one these land in.
            let _no_session = rt::lock(&rt::SESSION);
            let _orphan = span("orphan"); // no session: must not record
            counter("orphan", 1);
        }
        let session = TraceSession::begin();
        set_ids(0, 0);
        counter("live", 1);
        let report = session.finish();
        assert_eq!(report.counter_total("orphan"), 0);
        assert_eq!(report.counter_total("live"), 1);
        report.check_well_formed().unwrap();
    }

    #[test]
    fn threads_get_separate_streams() {
        let session = TraceSession::begin();
        set_ids(0, 0);
        let _root = span("root");
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..4u32)
                .map(|t| {
                    s.spawn(move || {
                        set_ids(0, t);
                        let _s = span("leaf");
                        counter("per_thread", 1);
                    })
                })
                .collect();
            // The scope's implicit join does not wait for TLS
            // destructors — the flush into the sink; `join` does.
            for w in workers {
                w.join().unwrap();
            }
        });
        drop(_root);
        let report = session.finish();
        report.check_well_formed().unwrap();
        assert_eq!(report.counter_total("per_thread"), 3);
        assert_eq!(report.span_count("leaf"), 3);
        // Three worker streams plus the session thread's own.
        assert_eq!(report.streams.len(), 4);
    }

    #[test]
    fn set_ids_splits_segments_and_report_remerges() {
        let session = TraceSession::begin();
        set_ids(2, 0);
        counter("a", 1);
        set_ids(3, 0); // flushes the (2, 0) segment
        counter("a", 2);
        set_ids(2, 0); // back: a second (2, 0) segment
        counter("a", 4);
        let report = session.finish();
        assert_eq!(report.counter_total("a"), 7);
        // Per-(rank, thread) merge: exactly two streams remain.
        assert_eq!(report.streams.len(), 2);
        let r2: Vec<_> = report.streams.iter().filter(|s| s.rank == 2).collect();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].events.len(), 2);
    }
}
