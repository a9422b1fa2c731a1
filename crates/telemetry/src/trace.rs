//! Flight recorder: a lock-cheap, per-thread ring buffer of timestamped
//! trace events, exported as Chrome trace-event JSON.
//!
//! Where the [`crate::registry`] *aggregates* span durations, the flight
//! recorder remembers *when* things happened: every [`crate::span()`]
//! open/close is also recorded as a begin/end event (when tracing is on),
//! plus explicit [`instant`] markers and [`counter`] samples. The paper's
//! per-rank load-imbalance study (Fig. 9) needs events attributed to
//! simulated cluster ranks, so each thread carries an optional *lane*
//! ([`lane_scope`]): events recorded inside a lane scope are exported on
//! that lane's own timeline track instead of the host thread's.
//!
//! Recording is double-gated: the global [`crate::enabled()`] switch AND
//! the tracing switch ([`set_tracing`]) must both be on. While either is
//! off every entry point is one relaxed atomic load. Each thread owns a
//! bounded ring buffer (default [`DEFAULT_CAPACITY`] events): the hot path
//! takes one uncontended `Mutex` (owned by the recording thread; the lock
//! is shared only with the exporter) and overflow drops the *oldest*
//! events, counting them, so a long run degrades to "most recent window"
//! instead of unbounded memory.
//!
//! The export format is the Chrome trace-event JSON array (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>): `B`/`E` duration
//! events, `i` instants, `C` counters, and `M` thread-name metadata. One
//! event per line, flat objects (`args` at most one level deep), so
//! [`parse_chrome_trace`] reads traces back through the crate's one JSON
//! line reader, [`crate::parse_json_line`], without a JSON dependency.
//!
//! Timestamps are nanoseconds since the recorder epoch (first enable or
//! last [`clear`]). Traces are wall-clock artifacts and therefore exempt
//! from the crate's determinism contract — `TRACE_*.json` files are never
//! byte-compared across runs.

use crate::report::{json_f64, json_str};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What happened at an event's timestamp.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The most recent unmatched span closed.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled numeric series (memory level, rank load, temperature).
    Counter(f64),
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event name (span name, marker, or counter series).
    pub name: Cow<'static, str>,
    /// Kind of event.
    pub kind: EventKind,
    /// Nanoseconds since the recorder epoch.
    pub t_ns: u64,
    /// Lane (simulated cluster rank / MD lane) the event belongs to, if
    /// recorded inside a [`lane_scope`].
    pub lane: Option<u32>,
}

/// The ring buffer plus bookkeeping for one recording thread.
struct ThreadBuffer {
    /// Stable index of this thread in registration order.
    index: usize,
    /// OS thread name at registration, if any.
    thread_name: String,
    ring: Mutex<Ring>,
}

struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Read-only copy of one thread's recorded events.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Registration index of the thread.
    pub index: usize,
    /// OS thread name at registration (may be empty).
    pub thread_name: String,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events evicted by ring overflow.
    pub dropped: u64,
}

/// Read-only copy of the whole flight recorder.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Per-thread event streams, in registration order.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total recorded events across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

struct Recorder {
    tracing: AtomicBool,
    epoch: Mutex<Instant>,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    capacity: Mutex<usize>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        tracing: AtomicBool::new(false),
        epoch: Mutex::new(Instant::now()),
        buffers: Mutex::new(Vec::new()),
        capacity: Mutex::new(DEFAULT_CAPACITY),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Is event recording currently active (both the telemetry switch and the
/// tracing switch are on)?
#[inline]
pub fn tracing_enabled() -> bool {
    crate::enabled() && recorder().tracing.load(Ordering::Relaxed)
}

/// Turn the flight recorder on or off. Turning it on (re)arms the epoch if
/// the buffer is empty; recorded events are kept across off/on cycles
/// until [`clear`].
pub fn set_tracing(on: bool) {
    let r = recorder();
    if on && snapshot().is_empty() {
        *lock(&r.epoch) = Instant::now();
    }
    r.tracing.store(on, Ordering::Relaxed);
}

/// Set the per-thread ring capacity (applies to threads that record their
/// first event after the call).
#[cfg(test)]
fn set_capacity(events: usize) {
    *lock(&recorder().capacity) = events.max(16);
}

/// Drop every recorded event and re-arm the epoch.
pub fn clear() {
    let r = recorder();
    for buf in lock(&r.buffers).iter() {
        let mut ring = lock(&buf.ring);
        ring.events.clear();
        ring.dropped = 0;
    }
    *lock(&r.epoch) = Instant::now();
}

thread_local! {
    static THREAD_BUFFER: std::cell::OnceCell<Arc<ThreadBuffer>> =
        const { std::cell::OnceCell::new() };
    static CURRENT_LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

fn with_buffer(f: impl FnOnce(&ThreadBuffer)) {
    THREAD_BUFFER.with(|cell| {
        let buf = cell.get_or_init(|| {
            let r = recorder();
            let mut buffers = lock(&r.buffers);
            let buf = Arc::new(ThreadBuffer {
                index: buffers.len(),
                thread_name: std::thread::current().name().unwrap_or("").to_string(),
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    capacity: *lock(&r.capacity),
                    dropped: 0,
                }),
            });
            buffers.push(buf.clone());
            buf
        });
        f(buf);
    });
}

#[inline]
fn now_ns() -> u64 {
    lock(&recorder().epoch).elapsed().as_nanos() as u64
}

#[inline]
fn record(name: Cow<'static, str>, kind: EventKind) {
    let ev = Event { name, kind, t_ns: now_ns(), lane: CURRENT_LANE.with(Cell::get) };
    with_buffer(|buf| lock(&buf.ring).push(ev));
}

/// Record a span-begin event. No-op unless tracing is active.
#[inline]
pub fn begin(name: impl Into<Cow<'static, str>>) {
    if tracing_enabled() {
        record(name.into(), EventKind::Begin);
    }
}

/// Record a span-end event (closes the most recent unmatched begin on this
/// timeline). No-op unless tracing is active.
#[inline]
pub fn end(name: impl Into<Cow<'static, str>>) {
    if tracing_enabled() {
        record(name.into(), EventKind::End);
    }
}

/// Record a point-in-time marker. No-op unless tracing is active.
#[inline]
pub fn instant(name: impl Into<Cow<'static, str>>) {
    if tracing_enabled() {
        record(name.into(), EventKind::Instant);
    }
}

/// Sample a counter series (memory level, rank load, temperature). No-op
/// unless tracing is active.
#[inline]
pub fn counter(name: impl Into<Cow<'static, str>>, value: f64) {
    if tracing_enabled() {
        record(name.into(), EventKind::Counter(value));
    }
}

/// Guard restoring the previous lane on drop.
#[must_use = "the lane applies while the guard is alive"]
pub struct LaneGuard {
    prev: Option<u32>,
}

/// Attribute every event recorded on this thread, while the guard lives,
/// to `lane` (a simulated cluster rank or MD lane). Scopes nest; the
/// previous lane is restored on drop. Cheap and infallible even while
/// tracing is off, so callers need no gating.
pub fn lane_scope(lane: u32) -> LaneGuard {
    let prev = CURRENT_LANE.with(|l| l.replace(Some(lane)));
    LaneGuard { prev }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        CURRENT_LANE.with(|l| l.set(self.prev));
    }
}

/// Copy out every thread's recorded events.
pub fn snapshot() -> TraceSnapshot {
    let buffers = lock(&recorder().buffers);
    TraceSnapshot {
        threads: buffers
            .iter()
            .map(|buf| {
                let ring = lock(&buf.ring);
                ThreadTrace {
                    index: buf.index,
                    thread_name: buf.thread_name.clone(),
                    events: ring.events.iter().cloned().collect(),
                    dropped: ring.dropped,
                }
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Timeline track (`tid`) of an event: lanes get their own low-numbered
/// tracks, laneless events ride on `PLAIN_THREAD_TID_BASE + thread index`.
pub const PLAIN_THREAD_TID_BASE: u64 = 1000;

fn event_tid(ev: &Event, thread_index: usize) -> u64 {
    match ev.lane {
        Some(lane) => lane as u64,
        None => PLAIN_THREAD_TID_BASE + thread_index as u64,
    }
}

/// Render the snapshot as Chrome trace-event JSON: a `traceEvents` array
/// with one event object per line (flat except a one-level `args`).
pub fn render_chrome(snap: &TraceSnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut lines: Vec<String> = Vec::new();
    // Thread/lane name metadata first.
    let mut named: BTreeMap<u64, String> = BTreeMap::new();
    for t in &snap.threads {
        for ev in &t.events {
            let tid = event_tid(ev, t.index);
            named.entry(tid).or_insert_with(|| match ev.lane {
                Some(lane) => format!("rank {lane}"),
                None if !t.thread_name.is_empty() => {
                    format!("thread {} ({})", t.index, t.thread_name)
                }
                None => format!("thread {}", t.index),
            });
        }
    }
    for (tid, name) in &named {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_str(name)
        ));
    }
    // Event lines, globally time-sorted. With threaded rank execution a
    // lane (`tid`) collects events from more than one OS thread over the
    // run — per-thread buffers are individually ordered but their
    // concatenation is not, and the trace contract (`analysis::validate`)
    // requires non-decreasing timestamps per track. The stable sort keeps
    // same-thread same-timestamp pairs (e.g. a zero-width B/E) in emission
    // order; cross-thread events on one lane never overlap in a span
    // sense, because a rank is worked by one thread at a time.
    let mut timed: Vec<(u64, String)> = Vec::new();
    for t in &snap.threads {
        for ev in &t.events {
            let tid = event_tid(ev, t.index);
            let ts = ev.t_ns as f64 / 1e3; // Chrome wants microseconds.
            let (ph, extra) = match &ev.kind {
                EventKind::Begin => ('B', String::new()),
                EventKind::End => ('E', String::new()),
                EventKind::Instant => ('i', ",\"s\":\"t\"".to_string()),
                EventKind::Counter(v) => ('C', format!(",\"args\":{{\"v\":{}}}", json_f64(*v))),
            };
            timed.push((
                ev.t_ns,
                format!(
                    "{{\"name\":{},\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}{extra}}}",
                    json_str(&ev.name),
                    json_f64(ts)
                ),
            ));
        }
    }
    timed.sort_by_key(|(t_ns, _)| *t_ns);
    lines.extend(timed.into_iter().map(|(_, line)| line));
    out.push_str(&lines.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"dropped_events\":");
    out.push_str(&snap.dropped().to_string());
    out.push_str("}\n");
    out
}

/// Export the current recording to `path` as Chrome trace JSON.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    crate::write_report_file(path, &render_chrome(&snapshot()))
}

// ---------------------------------------------------------------------------
// Reading a trace back
// ---------------------------------------------------------------------------

/// One event parsed back from Chrome trace JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Chrome phase: `B`, `E`, `i`, `C`, or `M`.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Timeline track.
    pub tid: u64,
    /// Counter value (`C`) or metadata payload.
    pub arg: Option<f64>,
    /// Metadata string payload (`M` thread_name).
    pub arg_str: Option<String>,
}

/// Parse a whole Chrome trace document produced by [`render_chrome`] into
/// typed events (metadata `M` events included; malformed documents return
/// `None`).
pub fn parse_chrome_trace(text: &str) -> Option<Vec<ParsedEvent>> {
    let start = text.find("[\n")? + 2;
    let end = text.rfind("\n]")?;
    if end < start {
        return Some(Vec::new());
    }
    let mut events = Vec::new();
    for line in text[start..end].lines() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = crate::parse_json_line(line.trim().trim_end_matches(','))?;
        let unquote = |v: &String| v.trim_matches('"').to_string();
        events.push(ParsedEvent {
            name: fields.get("name").map(unquote)?,
            ph: fields.get("ph").map(|v| v.trim_matches('"').chars().next())??,
            ts_us: fields.get("ts").and_then(|v| v.parse().ok()).unwrap_or(0.0),
            tid: fields.get("tid").and_then(|v| v.parse().ok())?,
            arg: fields.get("args.v").and_then(|v| v.parse().ok()),
            arg_str: fields.get("args.name").map(unquote),
        });
    }
    Some(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset_all() {
        crate::set_enabled(true);
        set_tracing(true);
        clear();
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = crate::tests::test_lock();
        reset_all();
        clear();
        set_tracing(false);
        begin("a");
        end("a");
        instant("m");
        counter("c", 1.0);
        assert!(snapshot().is_empty());
        crate::set_enabled(false);
        set_tracing(true);
        begin("a");
        assert!(snapshot().is_empty(), "requires the global enabled switch too");
        set_tracing(false);
    }

    #[test]
    fn events_record_in_order_with_monotone_timestamps() {
        let _l = crate::tests::test_lock();
        reset_all();
        begin("outer");
        instant("tick");
        begin("inner");
        end("inner");
        end("outer");
        counter("mem", 42.5);
        let snap = snapshot();
        set_tracing(false);
        crate::set_enabled(false);
        let mine: Vec<&Event> = snap.threads.iter().flat_map(|t| &t.events).collect();
        assert_eq!(mine.len(), 6);
        assert_eq!(mine[0].kind, EventKind::Begin);
        assert_eq!(mine[5].kind, EventKind::Counter(42.5));
        assert!(mine.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let _l = crate::tests::test_lock();
        crate::set_enabled(true);
        set_tracing(true);
        clear();
        set_capacity(16);
        // A fresh thread picks up the small capacity.
        let trace = std::thread::spawn(|| {
            for i in 0..40u32 {
                counter("x", i as f64);
            }
            snapshot()
        })
        .join()
        .unwrap();
        set_capacity(DEFAULT_CAPACITY);
        set_tracing(false);
        crate::set_enabled(false);
        let t = trace
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "x"))
            .expect("worker buffer");
        assert_eq!(t.events.len(), 16);
        assert_eq!(t.dropped, 24);
        // The survivors are the most recent events.
        assert_eq!(t.events.last().unwrap().kind, EventKind::Counter(39.0));
        assert_eq!(t.events.first().unwrap().kind, EventKind::Counter(24.0));
    }

    #[test]
    fn lanes_scope_and_nest() {
        let _l = crate::tests::test_lock();
        reset_all();
        assert_eq!(CURRENT_LANE.with(Cell::get), None);
        begin("no_lane");
        {
            let _r0 = lane_scope(0);
            begin("in_rank0");
            {
                let _r1 = lane_scope(1);
                assert_eq!(CURRENT_LANE.with(Cell::get), Some(1));
                instant("in_rank1");
            }
            assert_eq!(CURRENT_LANE.with(Cell::get), Some(0));
            end("in_rank0");
        }
        end("no_lane");
        assert_eq!(CURRENT_LANE.with(Cell::get), None);
        let snap = snapshot();
        set_tracing(false);
        crate::set_enabled(false);
        let lane_of = |name: &str| {
            snap.threads.iter().flat_map(|t| &t.events).find(|e| e.name == name).unwrap().lane
        };
        assert_eq!(lane_of("no_lane"), None);
        assert_eq!(lane_of("in_rank0"), Some(0));
        assert_eq!(lane_of("in_rank1"), Some(1));
    }

    #[test]
    fn chrome_export_parses_and_pairs() {
        let _l = crate::tests::test_lock();
        reset_all();
        begin("step");
        {
            let _r = lane_scope(3);
            begin("work");
            counter("load", 128.0);
            end("work");
        }
        end("step");
        let text = render_chrome(&snapshot());
        set_tracing(false);
        crate::set_enabled(false);
        let events = parse_chrome_trace(&text).expect("trace parses");
        let step_b = events.iter().find(|e| e.name == "step" && e.ph == 'B').unwrap();
        let work_b = events.iter().find(|e| e.name == "work" && e.ph == 'B').unwrap();
        assert!(step_b.tid >= PLAIN_THREAD_TID_BASE, "laneless events ride the thread track");
        assert_eq!(work_b.tid, 3, "lane events ride the rank track");
        let load = events.iter().find(|e| e.name == "load" && e.ph == 'C').unwrap();
        assert_eq!(load.arg, Some(128.0));
        // Per-tid B/E balance.
        let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
        for e in &events {
            match e.ph {
                'B' => *depth.entry(e.tid).or_default() += 1,
                'E' => {
                    let d = depth.entry(e.tid).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "E without B on tid {}", e.tid);
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced spans: {depth:?}");
        // Rank lane is named.
        let meta = events.iter().find(|e| e.ph == 'M' && e.tid == 3).unwrap();
        assert_eq!(meta.arg_str.as_deref(), Some("rank 3"));
    }

    #[test]
    fn clear_empties_and_rearms() {
        let _l = crate::tests::test_lock();
        reset_all();
        instant("x");
        assert!(!snapshot().is_empty());
        clear();
        assert!(snapshot().is_empty());
        set_tracing(false);
        crate::set_enabled(false);
    }
}
