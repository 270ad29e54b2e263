//! Trace analysis: merging streams, deriving the paper's breakdown
//! metrics (per-thread busy time, imbalance ratio, DLB wait),
//! well-formedness checks, and the four-number summary the CLI prints.

use crate::{Event, Stream};
use std::collections::BTreeMap;

/// A point event, resolved with its owning stream's ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    pub rank: u32,
    pub thread: u32,
    pub name: &'static str,
    pub t: u64,
    pub value: u64,
    pub aux: u64,
}

/// Everything one [`crate::TraceSession`] recorded, merged per
/// `(rank, thread)` actor, plus derived breakdown metrics.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// One stream per `(rank, thread)` actor, sorted by ids; events in
    /// timestamp order (segments merged).
    pub streams: Vec<Stream>,
}

impl TraceReport {
    /// Merge raw stream segments (one per TLS flush) into one stream
    /// per `(rank, thread)` actor, in timestamp order. Segments of one
    /// actor are disjoint in time — an actor is a single OS thread at
    /// any given moment — except that the thread driving an SCF is
    /// `(0, 0)` too and holds its `scf.*` spans open around the world's
    /// rank-0 thread. It is blocked for exactly that long, so the
    /// stable sort interleaves the two into one properly nested stream.
    pub fn from_streams(segments: Vec<Stream>) -> Self {
        let mut by_id: BTreeMap<(u32, u32), Vec<Stream>> = BTreeMap::new();
        for seg in segments {
            if seg.events.is_empty() {
                continue;
            }
            by_id.entry((seg.rank, seg.thread)).or_default().push(seg);
        }
        let streams = by_id
            .into_iter()
            .map(|((rank, thread), mut segs)| {
                segs.sort_by_key(|s| s.events.first().map(Event::t).unwrap_or(0));
                let mut events: Vec<Event> = segs.into_iter().flat_map(|s| s.events).collect();
                events.sort_by_key(Event::t);
                Stream { rank, thread, events }
            })
            .collect();
        TraceReport { streams }
    }

    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Earliest and latest timestamp across all streams.
    pub fn time_bounds_ns(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for ev in self.streams.iter().flat_map(|s| s.events.iter()) {
            let t = ev.t();
            bounds = Some(match bounds {
                None => (t, t),
                Some((lo, hi)) => (lo.min(t), hi.max(t)),
            });
        }
        bounds
    }

    // -- counters ------------------------------------------------------

    pub fn counter_total(&self, name: &str) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| s.events.iter())
            .filter_map(|ev| match *ev {
                Event::Counter { name: n, value, .. } if n == name => Some(value),
                _ => None,
            })
            .sum()
    }

    // -- instants ------------------------------------------------------

    pub fn instants(&self, name: &str) -> Vec<InstantEvent> {
        let mut out = Vec::new();
        for s in &self.streams {
            for ev in &s.events {
                if let Event::Instant { name: n, t, value, aux } = *ev {
                    if n == name {
                        out.push(InstantEvent {
                            rank: s.rank,
                            thread: s.thread,
                            name: n,
                            t,
                            value,
                            aux,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|i| i.t);
        out
    }

    // -- spans ---------------------------------------------------------

    /// Walk every closed span of a stream: `f(name, t_begin, t_end,
    /// depth)` where depth 0 is top level. Spans close LIFO on a
    /// stream, so a simple stack recovers the tree.
    pub fn for_each_span_in(stream: &Stream, mut f: impl FnMut(&'static str, u64, u64, usize)) {
        let mut stack: Vec<(&'static str, u64)> = Vec::new();
        for ev in &stream.events {
            match *ev {
                Event::Begin { name, t } => stack.push((name, t)),
                Event::End { t, .. } => {
                    if let Some((name, t0)) = stack.pop() {
                        f(name, t0, t, stack.len());
                    }
                }
                _ => {}
            }
        }
    }

    /// Durations (ns) of every completed span named `name`.
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.streams {
            Self::for_each_span_in(s, |n, t0, t1, _| {
                if n == name {
                    out.push(t1.saturating_sub(t0));
                }
            });
        }
        out
    }

    pub fn span_count(&self, name: &str) -> usize {
        self.span_durations_ns(name).len()
    }

    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.span_durations_ns(name).iter().sum()
    }

    /// Total time in spans named `name`, per `(rank, thread)` stream.
    pub fn span_total_by_stream(&self, name: &str) -> BTreeMap<(u32, u32), u64> {
        let mut out = BTreeMap::new();
        for s in &self.streams {
            let mut total = 0u64;
            Self::for_each_span_in(s, |n, t0, t1, _| {
                if n == name {
                    total += t1.saturating_sub(t0);
                }
            });
            if total > 0 {
                out.insert((s.rank, s.thread), total);
            }
        }
        out
    }

    /// Total time in spans named `name`, per rank (all threads summed).
    pub fn span_total_by_rank(&self, name: &str) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((rank, _), ns) in self.span_total_by_stream(name) {
            *out.entry(rank).or_insert(0) += ns;
        }
        out
    }

    // -- the paper's breakdown metrics ---------------------------------

    /// Per-thread busy time: the sum of `omp.loop` span durations of
    /// each `(rank, thread)` stream — the time a thread spent inside
    /// worksharing loop bodies, the quantity behind the paper's Fig. 8.
    pub fn per_thread_busy_ns(&self) -> BTreeMap<(u32, u32), u64> {
        self.span_total_by_stream("omp.loop")
    }

    /// Fig. 8's load-imbalance metric for one rank's team: max/mean of
    /// per-thread busy time. 1.0 is perfect balance; `None` if the
    /// rank recorded no worksharing loops.
    pub fn imbalance_ratio(&self, rank: u32) -> Option<f64> {
        let busy: Vec<u64> = self
            .per_thread_busy_ns()
            .into_iter()
            .filter(|((r, _), _)| *r == rank)
            .map(|(_, ns)| ns)
            .collect();
        if busy.is_empty() {
            return None;
        }
        let max = *busy.iter().max().unwrap() as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            return None;
        }
        Some(max / mean)
    }

    /// Imbalance ratio for every rank that ran worksharing loops.
    pub fn imbalance_ratios(&self) -> BTreeMap<u32, f64> {
        let mut ranks: Vec<u32> = self.per_thread_busy_ns().keys().map(|&(r, _)| r).collect();
        ranks.dedup();
        ranks.into_iter().filter_map(|r| self.imbalance_ratio(r).map(|x| (r, x))).collect()
    }

    /// Total time all ranks spent waiting on the DLB counter.
    pub fn dlb_wait_total_ns(&self) -> u64 {
        self.span_total_ns("dlb.wait")
    }

    /// DLB wait per rank.
    pub fn dlb_wait_by_rank_ns(&self) -> BTreeMap<u32, u64> {
        self.span_total_by_rank("dlb.wait")
    }

    // -- well-formedness ----------------------------------------------

    /// Structural invariants every report must satisfy:
    /// * per stream, Begin/End bracket like parentheses with matching
    ///   names (RAII guards make this automatic);
    /// * timestamps are monotone non-decreasing within a stream;
    /// * every span ends no earlier than it begins;
    /// * no span is left open.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.streams {
            let who = format!("stream (rank {}, thread {})", s.rank, s.thread);
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            let mut prev_t = 0u64;
            for ev in &s.events {
                let t = ev.t();
                if t < prev_t {
                    return Err(format!(
                        "{who}: timestamp went backwards ({t} after {prev_t} at {ev:?})"
                    ));
                }
                prev_t = t;
                match *ev {
                    Event::Begin { name, t } => stack.push((name, t)),
                    Event::End { name, t } => match stack.pop() {
                        Some((open, t0)) => {
                            if open != name {
                                return Err(format!(
                                    "{who}: End({name}) closes Begin({open}) — spans must nest"
                                ));
                            }
                            if t < t0 {
                                return Err(format!("{who}: span {name} ends before it begins"));
                            }
                        }
                        None => return Err(format!("{who}: End({name}) with no open span")),
                    },
                    _ => {}
                }
            }
            if let Some((open, _)) = stack.last() {
                return Err(format!("{who}: span {open} never closed"));
            }
        }
        Ok(())
    }

    // -- exports -------------------------------------------------------

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev)). pid = rank, tid = thread.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::render(self)
    }

    /// The four-number breakdown `phi-scf --trace` prints:
    /// * `fock_seconds` — max over ranks of total `fock.build` time;
    /// * `reduction_seconds` — max over ranks of total `mpi.gsum` time;
    /// * `total_seconds` — wall span of the whole recording;
    /// * `busy_fraction` — mean/max of per-thread busy time (1.0 =
    ///   perfectly balanced team, the inverse view of
    ///   [`imbalance_ratio`](Self::imbalance_ratio)).
    pub fn summary(&self) -> TraceSummary {
        let ns = 1e-9;
        let fock_seconds =
            self.span_total_by_rank("fock.build").values().copied().max().unwrap_or(0) as f64 * ns;
        let reduction_seconds =
            self.span_total_by_rank("mpi.gsum").values().copied().max().unwrap_or(0) as f64 * ns;
        let total_seconds =
            self.time_bounds_ns().map(|(lo, hi)| (hi - lo) as f64 * ns).unwrap_or(0.0);
        let busy: Vec<u64> = self.per_thread_busy_ns().into_values().collect();
        let busy_fraction = if busy.is_empty() {
            1.0
        } else {
            let max = *busy.iter().max().unwrap() as f64;
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            if max == 0.0 {
                1.0
            } else {
                mean / max
            }
        };
        TraceSummary { fock_seconds, reduction_seconds, total_seconds, busy_fraction }
    }
}

/// Breakdown of one recording; see [`TraceReport::summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceSummary {
    pub fock_seconds: f64,
    pub reduction_seconds: f64,
    pub total_seconds: f64,
    pub busy_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_begin(name: &'static str, t: u64) -> Event {
        Event::Begin { name, t }
    }
    fn ev_end(name: &'static str, t: u64) -> Event {
        Event::End { name, t }
    }

    fn stream(rank: u32, thread: u32, events: Vec<Event>) -> Stream {
        Stream { rank, thread, events }
    }

    #[test]
    fn merges_segments_in_time_order() {
        let report = TraceReport::from_streams(vec![
            stream(0, 0, vec![ev_begin("b", 50), ev_end("b", 60)]),
            stream(0, 0, vec![ev_begin("a", 10), ev_end("a", 20)]),
        ]);
        assert_eq!(report.streams.len(), 1);
        report.check_well_formed().unwrap();
        assert_eq!(report.streams[0].events[0], ev_begin("a", 10));
        assert_eq!(report.time_bounds_ns(), Some((10, 60)));
    }

    #[test]
    fn span_totals() {
        let report = TraceReport::from_streams(vec![stream(
            0,
            0,
            vec![ev_begin("x", 0), ev_end("x", 100), ev_begin("x", 100), ev_end("x", 400)],
        )]);
        assert_eq!(report.span_count("x"), 2);
        assert_eq!(report.span_total_ns("x"), 400);
        assert_eq!(report.span_durations_ns("x"), vec![100, 300]);
    }

    #[test]
    fn imbalance_ratio_matches_hand_computation() {
        // Thread busy times 100 and 300 -> max/mean = 300/200 = 1.5.
        let report = TraceReport::from_streams(vec![
            stream(0, 0, vec![ev_begin("omp.loop", 0), ev_end("omp.loop", 100)]),
            stream(0, 1, vec![ev_begin("omp.loop", 0), ev_end("omp.loop", 300)]),
        ]);
        let r = report.imbalance_ratio(0).unwrap();
        assert!((r - 1.5).abs() < 1e-12, "got {r}");
        let s = report.summary();
        assert!((s.busy_fraction - 200.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn well_formed_rejects_mismatched_nesting() {
        let report = TraceReport::from_streams(vec![stream(
            0,
            0,
            vec![ev_begin("a", 0), ev_begin("b", 1), ev_end("a", 2), ev_end("b", 3)],
        )]);
        assert!(report.check_well_formed().is_err());
    }

    #[test]
    fn well_formed_rejects_unclosed_span() {
        let report = TraceReport::from_streams(vec![stream(0, 0, vec![ev_begin("a", 0)])]);
        assert!(report.check_well_formed().is_err());
    }
}
