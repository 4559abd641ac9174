//! Sharded, lock-cheap metric registry.
//!
//! Collectors are `Arc`-shared handles over atomics: once looked up (or
//! cached in a struct field), recording is one relaxed atomic op — no lock
//! is held on the hot path. The registry itself is a fixed array of
//! `RwLock<HashMap>` shards keyed by the full metric key (name plus sorted
//! labels), so concurrent lookups from different services rarely contend.
//!
//! Keys render as `name{label=value,label2=value2}` (labels sorted by
//! name), or bare `name` when unlabelled. [`MetricsSnapshot`] is the
//! serializable point-in-time copy that travels over the wire for the
//! `Metrics` endpoint and feeds the AppSpector dashboard.

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of registry shards; a power of two so the hash masks cheaply.
const SHARDS: usize = 16;

/// Histogram bin count: bin 0 holds non-positive underflow, bins `1..=64`
/// cover `[2^-32, 2^32)` in powers of two (values beyond saturate into the
/// edge bins).
const BINS: usize = 65;

/// Process-global instrumentation switch. Defaults to on; see
/// [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn all collectors on or off process-wide.
///
/// When off, every record path returns after a single relaxed load — the
/// basis for the E20 overhead A/B measurement.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Lock-free compare-and-swap add for an `f64` stored as bits in an
/// [`AtomicU64`].
fn add_f64(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge over `f64` (stored as bits). Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: f64) {
        if enabled() {
            add_f64(&self.0, delta);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared storage behind a [`Histogram`].
#[derive(Debug)]
struct HistogramCore {
    bins: [AtomicU64; BINS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

/// Which bin a sample lands in: 0 for non-positive values, else the power
/// of two of its magnitude, shifted so bin 1 is `[2^-32, 2^-31)` and bin
/// 64 absorbs everything at or above `2^31`.
fn bin_of(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let exp = v.log2().floor() as i64;
    (exp + 33).clamp(1, 64) as usize
}

/// Lower bound of a bin's value range (geometric representative used when
/// estimating quantiles from bins).
fn bin_floor(bin: usize) -> f64 {
    if bin == 0 {
        0.0
    } else {
        (2.0f64).powi(bin as i32 - 33)
    }
}

/// A log-binned histogram over positive `f64` samples — powers-of-two
/// bins over atomics, so concurrent services can record without locking.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample (seconds, rounds, bytes — any positive quantity).
    #[inline]
    pub fn record(&self, v: f64) {
        if !enabled() {
            return;
        }
        self.0.bins[bin_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.0.sum_bits, v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Point-in-time copy of the bins.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut bins = Vec::new();
        for (i, b) in self.0.bins.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                bins.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            bins,
        }
    }
}

/// Serializable point-in-time copy of a [`Histogram`]: only non-empty
/// `(bin index, count)` pairs travel.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Sparse `(bin index, count)` pairs, ascending by bin.
    pub bins: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q <= 1`): the geometric midpoint of
    /// the bin holding the ranked sample. Bin-resolution only — good to a
    /// factor of two, which is what capacity planning needs.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bin, n) in &self.bins {
            seen += n;
            if seen >= rank {
                let lo = bin_floor(bin as usize);
                return if bin == 0 {
                    0.0
                } else {
                    lo * std::f64::consts::SQRT_2
                };
            }
        }
        bin_floor(64) // unreachable unless bins/count disagree
    }

    /// Approximate `q`-quantile with *within-bin linear interpolation*:
    /// the ranked sample's position inside its bin interpolates between
    /// the bin's edges instead of snapping to the geometric midpoint. On
    /// log-binned data this is what makes p999 extraction usable —
    /// adjacent high quantiles (p99 vs p999) land at distinct points
    /// inside the same power-of-two bin instead of collapsing onto one
    /// midpoint. Still bin-bounded: the returned value always lies
    /// inside the bin holding the ranked sample, so the error is at most
    /// one bin width. [`HistogramSnapshot::quantile`] is left unchanged
    /// for callers that want the coarser, midpoint-stable estimate.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for &(bin, n) in &self.bins {
            let below = seen as f64;
            seen += n;
            if seen as f64 >= rank {
                if bin == 0 {
                    return 0.0;
                }
                let lo = bin_floor(bin as usize);
                let frac = ((rank - below) / n as f64).clamp(0.0, 1.0);
                return lo + frac * lo; // bin spans [lo, 2·lo)
            }
        }
        bin_floor(64) // unreachable unless bins/count disagree
    }

    /// [`HistogramSnapshot::percentile`] over a battery of quantiles —
    /// the usual call is `&[0.5, 0.99, 0.999]`.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.percentile(q)).collect()
    }
}

/// One registered collector.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A sharded registry of named, labelled collectors.
///
/// Lookups take a shard read lock; first registration takes the write
/// lock. Returned handles are clones of the registered `Arc`s — cache them
/// in struct fields for hot paths. Asking for an existing key as a
/// *different* kind returns a detached handle (recorded values go nowhere)
/// rather than panicking; keys are namespaced well enough that this only
/// happens in misuse.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<RwLock<HashMap<String, Metric>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Render a full metric key: `name{k=v,k2=v2}` with labels sorted by name.
fn key_of(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

/// Does `key` have base name `name` and carry every label pair in
/// `labels`? Used to aggregate snapshot rows without parsing keys apart.
fn key_matches(key: &str, name: &str, labels: &[(&str, &str)]) -> bool {
    let (base, rest) = match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    };
    if base != name {
        return false;
    }
    labels.iter().all(|(k, v)| {
        let pair = format!("{k}={v}");
        rest.contains(&format!("{{{pair},"))
            || rest.contains(&format!(",{pair},"))
            || rest.contains(&format!("{{{pair}}}"))
            || rest.contains(&format!(",{pair}}}"))
    })
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Metric>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    fn get_or_insert(&self, key: String, make: impl FnOnce() -> Metric) -> Metric {
        let shard = self.shard(&key);
        if let Some(m) = shard.read().get(&key) {
            return m.clone();
        }
        shard.write().entry(key).or_insert_with(make).clone()
    }

    /// Look up (registering on first use) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(key_of(name, labels), || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// Look up (registering on first use) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(key_of(name, labels), || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// Look up (registering on first use) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(key_of(name, labels), || {
            Metric::Histogram(Histogram::default())
        }) {
            Metric::Histogram(h) => h,
            _ => Histogram::default(),
        }
    }

    /// Point-in-time copy of every collector, rows sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (key, metric) in shard.read().iter() {
                match metric {
                    Metric::Counter(c) => snap.counters.push((key.clone(), c.get())),
                    Metric::Gauge(g) => snap.gauges.push((key.clone(), g.get())),
                    Metric::Histogram(h) => snap.histograms.push((key.clone(), h.snapshot())),
                }
            }
        }
        snap.counters.sort();
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// The process-global default registry.
///
/// Services default to it unless handed an explicit registry; the sim and
/// core layers, which have no natural injection point, always use it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Serializable point-in-time copy of a whole [`Registry`]; what the
/// `Metrics` endpoint returns and the dashboard aggregates.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(key, value)` rows for counters, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` rows for gauges, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// `(key, snapshot)` rows for histograms, sorted by key.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter with this exact key, or 0.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of all counters with base name `name` carrying every pair in
    /// `labels` (other labels may also be present).
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| key_matches(k, name, labels))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of all gauges with base name `name` carrying every pair in
    /// `labels` (other labels may also be present). Summing gauges is the
    /// right aggregation for additive instantaneous quantities like
    /// per-endpoint inflight counts and queue depths.
    pub fn gauge_sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.gauges
            .iter()
            .filter(|(k, _)| key_matches(k, name, labels))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Maximum over all gauges with base name `name` carrying every pair
    /// in `labels`, or 0 when none match. The right aggregation for
    /// peak/high-water gauges (e.g. `fd_bid_queue_peak`).
    pub fn gauge_max(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.gauges
            .iter()
            .filter(|(k, _)| key_matches(k, name, labels))
            .map(|(_, v)| *v)
            .fold(0.0_f64, f64::max)
    }

    /// The histogram rows whose key matches `name` + `labels`.
    pub fn histogram_sum(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        let mut bins: HashMap<u8, u64> = HashMap::new();
        for (k, h) in &self.histograms {
            if key_matches(k, name, labels) {
                out.count += h.count;
                out.sum += h.sum;
                for &(b, n) in &h.bins {
                    *bins.entry(b).or_insert(0) += n;
                }
            }
        }
        out.bins = bins.into_iter().collect();
        out.bins.sort();
        out
    }
}

/// A bounded, sharded, append-only log — shared by the span log but kept
/// here so metrics-only users can also journal events if they need to.
/// A shard holds its items in fixed-size chunks that [`ShardedLog::clear`]
/// empties and keeps: a shard never copies a full buffer into a bigger one
/// (leaving the smaller behind in the allocator), and keeps room for its
/// fullest moment to the nearest chunk, not the next power of two.
#[derive(Debug)]
pub(crate) struct ShardedLog<T> {
    shards: Vec<Mutex<Shard<T>>>,
    /// The shard the next item goes to, modulo their count.
    next: AtomicUsize,
    cap_per_shard: usize,
    dropped: AtomicU64,
}

/// One shard: `len` items fill its chunks in order.
#[derive(Debug)]
struct Shard<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

/// Items per chunk of a [`ShardedLog`] shard.
const LOG_CHUNK: usize = 256;

impl<T: Clone> ShardedLog<T> {
    pub(crate) fn new(shards: usize, cap_per_shard: usize) -> Self {
        ShardedLog {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        chunks: Vec::new(),
                        len: 0,
                    })
                })
                .collect(),
            next: AtomicUsize::new(0),
            cap_per_shard,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append to the shards in turn, dropping (and counting) once the
    /// shard is full. Dealt by arrival, not by thread, the shards stay even
    /// however few threads record.
    pub(crate) fn push(&self, item: T) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = self.shards[i].lock();
        if shard.len >= self.cap_per_shard {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let at = shard.len / LOG_CHUNK;
        if at == shard.chunks.len() {
            shard.chunks.push(Vec::with_capacity(LOG_CHUNK));
        }
        shard.chunks[at].push(item);
        shard.len += 1;
    }

    /// Copy out every retained item.
    pub(crate) fn collect(&self) -> Vec<T> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().chunks.iter().flatten().cloned());
        }
        out
    }

    /// Remove all retained items.
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            shard.chunks.iter_mut().for_each(Vec::clear);
            shard.len = 0;
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_share() {
        let r = Registry::new();
        let a = r.counter("reqs", &[("service", "fs")]);
        let b = r.counter("reqs", &[("service", "fs")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "handles to one key share a cell");
        assert_eq!(r.snapshot().counter("reqs{service=fs}"), 3);
    }

    #[test]
    fn labels_sort_into_one_key() {
        let r = Registry::new();
        let a = r.counter("x", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.snapshot().counter("x{a=1,b=2}"), 1);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(0.001); // ~1ms
        }
        for _ in 0..10 {
            h.record(1.5); // slow tail
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile(0.5);
        assert!(p50 > 0.0005 && p50 < 0.002, "p50 ~1ms, got {p50}");
        let p99 = s.quantile(0.99);
        assert!(p99 > 0.9 && p99 < 3.0, "p99 in the slow bin, got {p99}");
        assert!((s.mean() - (90.0 * 0.001 + 10.0 * 1.5) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates_within_a_bin() {
        // 1000 samples spread across one power-of-two bin [1, 2): the
        // midpoint quantile() collapses every q onto sqrt(2), while
        // percentile() must separate p50 < p99 < p999 inside the bin.
        let h = Histogram::default();
        for i in 0..1000 {
            h.record(1.0 + i as f64 / 1000.0);
        }
        let s = h.snapshot();
        let ps = s.percentiles(&[0.5, 0.99, 0.999]);
        assert!(
            ps[0] < ps[1] && ps[1] < ps[2],
            "monotone within bin: {ps:?}"
        );
        for (&p, &q) in ps.iter().zip([0.5, 0.99, 0.999].iter()) {
            let exact = 1.0 + q;
            assert!(
                (1.0..2.0).contains(&p) && (p - exact).abs() < 0.01,
                "q={q}: got {p}, exact {exact}"
            );
        }
        // Empty snapshot and bin-zero samples stay at 0.
        assert_eq!(HistogramSnapshot::default().percentile(0.999), 0.0);
    }

    #[test]
    fn nonpositive_samples_land_in_bin_zero() {
        let h = Histogram::default();
        h.record(0.0);
        h.record(-4.0);
        h.record(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.bins, vec![(0, 3)]);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn counter_sum_matches_by_label() {
        let r = Registry::new();
        r.counter(
            "net_requests_total",
            &[("service", "fs"), ("endpoint", "Login")],
        )
        .add(2);
        r.counter(
            "net_requests_total",
            &[("service", "fs"), ("endpoint", "ListServers")],
        )
        .add(3);
        r.counter(
            "net_requests_total",
            &[("service", "fsx"), ("endpoint", "Login")],
        )
        .add(7);
        let s = r.snapshot();
        assert_eq!(s.counter_sum("net_requests_total", &[("service", "fs")]), 5);
        assert_eq!(
            s.counter_sum("net_requests_total", &[("service", "fsx")]),
            7
        );
        assert_eq!(s.counter_sum("net_requests_total", &[]), 12);
        assert_eq!(s.counter_sum("other", &[]), 0);
    }

    #[test]
    fn gauge_sum_and_max_aggregate_by_label() {
        let r = Registry::new();
        r.gauge(
            "net_inflight",
            &[("service", "fd"), ("endpoint", "RequestBid")],
        )
        .set(3.0);
        r.gauge("net_inflight", &[("service", "fd"), ("endpoint", "Award")])
            .set(1.0);
        r.gauge("net_inflight", &[("service", "fs"), ("endpoint", "Login")])
            .set(9.0);
        let s = r.snapshot();
        assert_eq!(s.gauge_sum("net_inflight", &[("service", "fd")]), 4.0);
        assert_eq!(s.gauge_sum("net_inflight", &[]), 13.0);
        assert_eq!(s.gauge_max("net_inflight", &[("service", "fd")]), 3.0);
        assert_eq!(s.gauge_max("net_inflight", &[]), 9.0);
        assert_eq!(s.gauge_sum("absent", &[]), 0.0);
        assert_eq!(s.gauge_max("absent", &[]), 0.0);
    }

    #[test]
    fn snapshot_round_trips_json() {
        let r = Registry::new();
        r.counter("a", &[]).inc();
        r.gauge("b", &[("x", "y")]).set(2.5);
        r.histogram("c", &[]).record(0.25);
        let s = r.snapshot();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn mismatched_kind_returns_detached_handle() {
        let r = Registry::new();
        r.counter("k", &[]).inc();
        let g = r.gauge("k", &[]);
        g.set(9.0); // goes nowhere
        assert_eq!(r.snapshot().counter("k"), 1);
    }
}
