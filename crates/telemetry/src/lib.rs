//! Workspace-wide observability: a span/event tracer plus a metrics
//! registry, both hand-rolled (no external deps, matching the rest of the
//! workspace) and **zero-overhead when disabled**.
//!
//! # Design
//!
//! Recording is guarded twice:
//!
//! * **Compile time** — the `runtime` cargo feature (default on). With it
//!   off, every recording function below is an inline empty body: no
//!   collector, no mutex, not even the atomic flag survive in the binary.
//!   The overhead guard in `scripts/telemetry_overhead.sh` builds the
//!   bench workload both ways and fails on regression.
//! * **Run time** — a global [`AtomicBool`](std::sync::atomic::AtomicBool), off by default. Every
//!   recording function starts with one relaxed load and returns before
//!   touching its arguments. All payloads (field values, label vectors)
//!   are built by *closures* the disabled path never calls, so call sites
//!   pay one predictable branch and zero allocations until someone flips
//!   [`set_enabled`].
//!
//! # Spans, events, fields
//!
//! [`span`] opens a named node in a tree and returns a guard; dropping the
//! guard closes it and attaches it to its parent (or to the trace roots).
//! [`event`] records a leaf child of the currently open span. [`add_field`]
//! appends a key/value pair to the currently open span — used to record
//! results (cost, counters) that are only known at the end of a span.
//! "Currently open" is per thread: each thread nests its own spans on a
//! thread-local stack, untouched by what other threads record, and only a
//! finished top-level span (or a top-level event) is moved into the
//! shared, mutex-guarded collector. So a tree is always the work of one
//! thread, and concurrent recorders (`dss serve`'s worker, reader and
//! control threads; sibling tests) contend only when a root closes.
//! Neither the batch simulator nor the discrete-event runtime records:
//! both report through the metrics structs they return.
//!
//! # Metrics
//!
//! Counters ([`counter_add`]), gauges ([`gauge_set`]) and histograms
//! ([`histogram_record`]) are addressed by `(name, labels)` where labels
//! are `(key, value)` pairs — by convention `peer`, `stream`, `query`,
//! `flow`, `op`. Histograms keep count/sum/min/max plus log₂ buckets.
//!
//! [`snapshot_json`] serializes the registry and the trace tree to a JSON
//! document (schema in `schemas/trace.schema.json` at the workspace root);
//! [`snapshot`] returns the same data structurally for in-process
//! consumers like `dss explain`.

pub mod json;
pub mod schema;

use std::collections::BTreeMap;

/// A recorded field or label value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Float(f) => json::number(*f),
            Value::Str(s) => json::escape(s),
        }
    }
}

/// One node of the recorded trace tree. Events are spans without children
/// that were never "open" — structurally identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Span {
    pub name: String,
    pub fields: Vec<(String, Value)>,
    pub children: Vec<Span>,
}

impl Span {
    /// First field with the given key, if any.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Child spans/events with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    fn to_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        out.push_str(&json::escape(&self.name));
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::escape(k));
            out.push(':');
            out.push_str(&v.to_json());
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json(out);
        }
        out.push_str("]}");
    }
}

/// Histogram state: count/sum/min/max plus log₂ buckets. Bucket `i` counts
/// samples `v` with `2^(i-1) <= v < 2^i` (bucket 0: `v < 1`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    #[cfg_attr(not(feature = "runtime"), allow(dead_code))]
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v < 1.0 {
            0
        } else {
            64 - ((v.min(u64::MAX as f64)) as u64).leading_zeros()
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// One registry entry: a named, labelled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    pub name: String,
    /// Sorted `(key, value)` pairs.
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

impl MetricEntry {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn to_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        out.push_str(&json::escape(&self.name));
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::escape(k));
            out.push(':');
            out.push_str(&json::escape(v));
        }
        out.push_str("},");
        match &self.value {
            MetricValue::Counter(c) => {
                out.push_str("\"kind\":\"counter\",\"value\":");
                out.push_str(&c.to_string());
            }
            MetricValue::Gauge(g) => {
                out.push_str("\"kind\":\"gauge\",\"value\":");
                out.push_str(&json::number(*g));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                    h.count,
                    json::number(h.sum),
                    json::number(h.min),
                    json::number(h.max),
                ));
                for (i, (b, n)) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{b},{n}]"));
                }
                out.push(']');
            }
        }
        out.push('}');
    }
}

/// Structural copy of everything recorded since the last [`reset`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Closed top-level spans and events, in recording order.
    pub spans: Vec<Span>,
    /// Registry entries in `(name, labels)` order.
    pub metrics: Vec<MetricEntry>,
}

impl Snapshot {
    /// Top-level spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Serializes to the `schemas/trace.schema.json` document format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            m.to_json(&mut out);
        }
        out.push_str("],\"trace\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.to_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// Label list under construction. Built inside closures, so the disabled
/// path never allocates.
pub type Labels = Vec<(&'static str, String)>;

#[cfg(feature = "runtime")]
mod imp {
    use super::*;
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::thread::ThreadId;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static COLLECTOR: Mutex<Collector> = Mutex::new(Collector::new());
    /// Serializes tests and tools that flip the global flag.
    static SESSION: Mutex<()> = Mutex::new(());
    /// Bumped by every [`reset`] (under the collector lock). A thread's
    /// open-span stack belongs to the generation it was filled in; a stack
    /// or a guard from an older one is stale and never reaches the
    /// collector.
    static GENERATION: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// This thread's open spans, innermost last. Spans nest per
        /// thread: whatever other threads record meanwhile can neither
        /// land inside these nor close them.
        static OPEN: RefCell<OpenStack> = const {
            RefCell::new(OpenStack { generation: 0, spans: Vec::new() })
        };
    }

    struct OpenStack {
        generation: u64,
        spans: Vec<Span>,
    }

    /// Runs `f` on the calling thread's open spans, first discarding any
    /// left over from before the last [`reset`].
    fn with_open<R>(f: impl FnOnce(&mut OpenStack) -> R) -> R {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let now = GENERATION.load(Ordering::SeqCst);
            if open.generation != now {
                open.generation = now;
                open.spans.clear();
            }
            f(&mut open)
        })
    }

    struct Collector {
        /// Closed top-level spans and events with the thread that recorded
        /// each, in the order they were closed.
        roots: Vec<(ThreadId, Span)>,
        metrics: BTreeMap<(String, Vec<(String, String)>), MetricValue>,
    }

    impl Collector {
        const fn new() -> Collector {
            Collector {
                roots: Vec::new(),
                metrics: BTreeMap::new(),
            }
        }
    }

    fn lock() -> MutexGuard<'static, Collector> {
        COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves a finished top-level span into the collector, unless a
    /// [`reset`] has intervened since it was opened.
    fn push_root(generation: u64, span: Span) {
        let mut c = lock();
        if GENERATION.load(Ordering::SeqCst) == generation {
            c.roots.push((std::thread::current().id(), span));
        }
    }

    /// Is recording currently on? One relaxed atomic load.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns recording on or off globally.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Discards all recorded spans and metrics, and every thread's open
    /// spans with them: a span open across a reset is dropped when it
    /// closes.
    pub fn reset() {
        let mut c = lock();
        c.roots.clear();
        c.metrics.clear();
        GENERATION.fetch_add(1, Ordering::SeqCst);
    }

    /// Closes the span on drop. Tied to the thread that opened it.
    #[must_use = "the span closes when the guard drops"]
    pub struct SpanGuard {
        /// Generation of the open span this guard closes (`None`:
        /// recording was off when it was created).
        generation: Option<u64>,
        _this_thread: PhantomData<*const ()>,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(generation) = self.generation else {
                return;
            };
            let root = with_open(|open| {
                if open.generation != generation {
                    return None; // opened before a reset: already discarded
                }
                let done = open.spans.pop()?;
                match open.spans.last_mut() {
                    Some(parent) => {
                        parent.children.push(done);
                        None
                    }
                    None => Some(done),
                }
            });
            if let Some(done) = root {
                push_root(generation, done);
            }
        }
    }

    fn new_span<F, I>(name: &'static str, fields: F) -> Span
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        Span {
            name: name.to_string(),
            fields: fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            children: Vec::new(),
        }
    }

    /// Opens a span on the calling thread. `fields` is only invoked when
    /// recording is enabled.
    #[inline]
    pub fn span<F, I>(name: &'static str, fields: F) -> SpanGuard
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        SpanGuard {
            generation: enabled().then(|| open_span(name, fields)),
            _this_thread: PhantomData,
        }
    }

    /// The recording half of [`span`], out of line so that call sites
    /// carry only the flag check while recording is off.
    #[cold]
    #[inline(never)]
    fn open_span<F, I>(name: &'static str, fields: F) -> u64
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        let span = new_span(name, fields);
        with_open(|open| {
            open.spans.push(span);
            open.generation
        })
    }

    /// Records a leaf event under the calling thread's innermost open span
    /// (or at the trace root). `fields` is only invoked when recording is
    /// enabled.
    #[inline]
    pub fn event<F, I>(name: &'static str, fields: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        if enabled() {
            record_event(name, fields);
        }
    }

    /// The recording half of [`event`] (out of line, like [`open_span`]).
    #[cold]
    #[inline(never)]
    fn record_event<F, I>(name: &'static str, fields: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        let ev = new_span(name, fields);
        let root = with_open(|open| match open.spans.last_mut() {
            Some(parent) => {
                parent.children.push(ev);
                None
            }
            None => Some((open.generation, ev)),
        });
        if let Some((generation, ev)) = root {
            push_root(generation, ev);
        }
    }

    /// Appends a field to the calling thread's innermost open span.
    /// `value` is only invoked when recording is enabled and a span is
    /// open.
    #[inline]
    pub fn add_field<F>(key: &'static str, value: F)
    where
        F: FnOnce() -> Value,
    {
        if !enabled() {
            return;
        }
        with_open(|open| {
            if let Some(top) = open.spans.last_mut() {
                top.fields.push((key.to_string(), value()));
            }
        });
    }

    fn metric_key<F>(name: &'static str, labels: F) -> (String, Vec<(String, String)>)
    where
        F: FnOnce() -> Labels,
    {
        let mut l: Vec<(String, String)> = labels()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    /// Adds to a counter, creating it at zero. `labels` only runs enabled.
    #[inline]
    pub fn counter_add<F>(name: &'static str, labels: F, n: u64)
    where
        F: FnOnce() -> Labels,
    {
        if !enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut c = lock();
        match c.metrics.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += n,
            other => *other = MetricValue::Counter(n),
        }
    }

    /// Sets a gauge to its latest value. `labels` only runs enabled.
    #[inline]
    pub fn gauge_set<F>(name: &'static str, labels: F, v: f64)
    where
        F: FnOnce() -> Labels,
    {
        if !enabled() {
            return;
        }
        let key = metric_key(name, labels);
        lock().metrics.insert(key, MetricValue::Gauge(v));
    }

    /// Records a histogram sample. `labels` only runs enabled.
    #[inline]
    pub fn histogram_record<F>(name: &'static str, labels: F, v: f64)
    where
        F: FnOnce() -> Labels,
    {
        if !enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut c = lock();
        match c
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.record(v),
            other => {
                let mut h = Histogram::default();
                h.record(v);
                *other = MetricValue::Histogram(h);
            }
        }
    }

    /// Structural copy of everything recorded since the last [`reset`],
    /// by every thread. Open (unclosed) spans are not included.
    pub fn snapshot() -> Snapshot {
        snapshot_of(None)
    }

    /// [`snapshot`] with the trace narrowed to what `thread` recorded.
    fn snapshot_of(thread: Option<ThreadId>) -> Snapshot {
        let c = lock();
        Snapshot {
            spans: c
                .roots
                .iter()
                .filter(|(t, _)| thread.is_none_or(|only| *t == only))
                .map(|(_, span)| span.clone())
                .collect(),
            metrics: c
                .metrics
                .iter()
                .map(|((name, labels), value)| MetricEntry {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: value.clone(),
                })
                .collect(),
        }
    }

    /// An exclusive recording window: takes a global lock (serializing
    /// concurrent tests), clears prior state, and enables recording.
    /// Dropping the session disables recording and clears again.
    ///
    /// The flag is process-wide, so threads outside the session record
    /// while it is open (sibling tests of one test binary do). The
    /// session's own snapshots therefore hold only the spans of the thread
    /// that opened it; the free [`snapshot`] returns every thread's.
    pub struct Session {
        _lock: MutexGuard<'static, ()>,
        owner: ThreadId,
    }

    /// Opens a [`Session`]. Intended for tests and short-lived tools; the
    /// `--trace` bins flip [`set_enabled`] directly instead.
    pub fn session() -> Session {
        let lock = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        set_enabled(true);
        Session {
            _lock: lock,
            owner: std::thread::current().id(),
        }
    }

    impl Session {
        pub fn snapshot(&self) -> Snapshot {
            snapshot_of(Some(self.owner))
        }
        pub fn snapshot_json(&self) -> String {
            self.snapshot().to_json()
        }
    }

    impl Drop for Session {
        fn drop(&mut self) {
            set_enabled(false);
            reset();
        }
    }
}

#[cfg(not(feature = "runtime"))]
mod imp {
    //! Compiled-out mode: every recording call is an inline empty body.
    use super::*;

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }
    #[inline(always)]
    pub fn set_enabled(_on: bool) {}
    #[inline(always)]
    pub fn reset() {}

    #[must_use = "the span closes when the guard drops"]
    pub struct SpanGuard;

    #[inline(always)]
    pub fn span<F, I>(_name: &'static str, _fields: F) -> SpanGuard
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        SpanGuard
    }

    #[inline(always)]
    pub fn event<F, I>(_name: &'static str, _fields: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Value)>,
    {
    }

    #[inline(always)]
    pub fn add_field<F>(_key: &'static str, _value: F)
    where
        F: FnOnce() -> Value,
    {
    }

    #[inline(always)]
    pub fn counter_add<F>(_name: &'static str, _labels: F, _n: u64)
    where
        F: FnOnce() -> Labels,
    {
    }

    #[inline(always)]
    pub fn gauge_set<F>(_name: &'static str, _labels: F, _v: f64)
    where
        F: FnOnce() -> Labels,
    {
    }

    #[inline(always)]
    pub fn histogram_record<F>(_name: &'static str, _labels: F, _v: f64)
    where
        F: FnOnce() -> Labels,
    {
    }

    #[inline(always)]
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    pub struct Session;

    #[inline(always)]
    pub fn session() -> Session {
        Session
    }

    impl Session {
        pub fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
        pub fn snapshot_json(&self) -> String {
            Snapshot::default().to_json()
        }
    }
}

pub use imp::{
    add_field, counter_add, enabled, event, gauge_set, histogram_record, reset, session,
    set_enabled, snapshot, span, Session, SpanGuard,
};

/// [`Snapshot::to_json`] of the current state.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

#[cfg(all(test, feature = "runtime"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_skips_closures() {
        let _s = session();
        set_enabled(false);
        let mut ran = false;
        event("e", || {
            ran = true;
            [("k", Value::from(1u64))]
        });
        counter_add("c", || vec![("peer", "SP1".to_string())], 1);
        assert!(!ran, "field closure must not run while disabled");
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn span_tree_nests_and_events_attach() {
        let s = session();
        {
            let _outer = span("outer", || [("q", Value::from("q1"))]);
            event("hit", || [("peer", Value::from("SP2"))]);
            {
                let _inner = span("inner", Vec::new);
                add_field("cost", || 1.5.into());
            }
        }
        event("root-event", Vec::new);
        let snap = s.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.field("q"), Some(&Value::from("q1")));
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "hit");
        assert_eq!(outer.children[1].name, "inner");
        assert_eq!(outer.children[1].field("cost"), Some(&Value::from(1.5)));
        assert_eq!(snap.spans[1].name, "root-event");
    }

    /// Two threads open, fill and close spans in lock step. Each must get
    /// its own well-formed tree: with one process-wide open-span stack the
    /// second thread's span nested inside the first's, events landed under
    /// whichever span was opened last, and each guard closed the other
    /// thread's span.
    #[test]
    fn interleaved_threads_record_separate_trees() {
        use std::sync::{Arc, Barrier};

        let _s = session();
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|who| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let _outer = span("outer", || [("who", Value::from(who))]);
                    barrier.wait(); // both outer spans are open
                    event("step", || [("who", Value::from(who))]);
                    barrier.wait();
                    {
                        let _inner = span("inner", || [("who", Value::from(who))]);
                        barrier.wait(); // both inner spans are open
                        add_field("done", || Value::from(who));
                        barrier.wait();
                    }
                    barrier.wait(); // both inner spans are closed
                    event("after", || [("who", Value::from(who))]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The session's own snapshot is this thread's, which recorded
        // nothing; the process-wide one holds both workers' trees.
        assert_eq!(_s.snapshot().spans, Vec::new());
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 2, "one root per thread: {snap:?}");
        for who in ["a", "b"] {
            let me = Some(&Value::from(who));
            let outer = snap
                .spans
                .iter()
                .find(|s| s.field("who") == me)
                .unwrap_or_else(|| panic!("no tree for thread {who}: {snap:?}"));
            assert_eq!(outer.name, "outer");
            let names: Vec<&str> = outer.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["step", "inner", "after"], "thread {who}");
            for child in &outer.children {
                assert_eq!(child.field("who"), me, "stolen child in {who}'s tree");
            }
            let inner = &outer.children[1];
            assert_eq!(inner.field("done"), me, "field on the wrong span");
            assert!(inner.children.is_empty());
        }
    }

    /// A span left open across a `reset` is discarded when it closes, and
    /// does not swallow what the same thread records afterwards.
    #[test]
    fn reset_invalidates_open_spans() {
        let s = session();
        let stale = span("stale", Vec::new);
        reset();
        {
            let _fresh = span("fresh", Vec::new);
            event("inside", Vec::new);
        }
        drop(stale);
        event("root-event", Vec::new);
        let snap = s.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["fresh", "root-event"]);
        assert_eq!(snap.spans[0].children.len(), 1);
    }

    #[test]
    fn metrics_accumulate_by_name_and_labels() {
        let s = session();
        counter_add("drops", || vec![("peer", "SP1".to_string())], 2);
        counter_add("drops", || vec![("peer", "SP1".to_string())], 3);
        counter_add("drops", || vec![("peer", "SP2".to_string())], 1);
        gauge_set("load", || vec![("peer", "SP1".to_string())], 0.5);
        gauge_set("load", || vec![("peer", "SP1".to_string())], 0.7);
        histogram_record("svc", Vec::new, 3.0);
        histogram_record("svc", Vec::new, 5.0);
        let snap = s.snapshot();
        let drops1 = snap
            .metrics
            .iter()
            .find(|m| m.name == "drops" && m.label("peer") == Some("SP1"))
            .unwrap();
        assert_eq!(drops1.value, MetricValue::Counter(5));
        let load = snap.metrics.iter().find(|m| m.name == "load").unwrap();
        assert_eq!(load.value, MetricValue::Gauge(0.7));
        let svc = snap.metrics.iter().find(|m| m.name == "svc").unwrap();
        match &svc.value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 8.0);
                assert_eq!(h.min, 3.0);
                assert_eq!(h.max, 5.0);
                assert_eq!(h.mean(), 4.0);
                // 3.0 → bucket 2 (2 <= v < 4), 5.0 → bucket 3 (4 <= v < 8).
                assert_eq!(h.buckets.get(&2), Some(&1));
                assert_eq!(h.buckets.get(&3), Some(&1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let s = session();
        {
            let _sp = span("register", || {
                [("query", Value::from("q\"1")), ("cost", Value::from(0.25))]
            });
            event("visit", || [("peer", Value::from("SP1"))]);
        }
        counter_add("visits", || vec![("peer", "SP1".to_string())], 7);
        histogram_record("svc", || vec![("peer", "SP1".to_string())], 50.0);
        let text = s.snapshot_json();
        let doc = json::parse(&text).expect("snapshot must be valid JSON");
        let trace = doc.get("trace").and_then(json::Json::as_array).unwrap();
        assert_eq!(trace.len(), 1);
        let reg = &trace[0];
        assert_eq!(
            reg.get("name").and_then(json::Json::as_str),
            Some("register")
        );
        let fields = reg.get("fields").unwrap();
        assert_eq!(
            fields.get("query").and_then(json::Json::as_str),
            Some("q\"1")
        );
        assert_eq!(fields.get("cost").and_then(json::Json::as_f64), Some(0.25));
        let metrics = doc.get("metrics").and_then(json::Json::as_array).unwrap();
        assert_eq!(metrics.len(), 2);
    }

    #[test]
    fn session_drop_disables_and_clears() {
        {
            let _s = session();
            event("x", Vec::new);
            assert!(enabled());
        }
        assert!(!enabled());
        assert_eq!(snapshot(), Snapshot::default());
    }
}
