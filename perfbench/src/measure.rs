//! Timing, allocation counting, order statistics and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use tagdist::obs::json::Value;

/// Counts allocations (calls and requested bytes) while [`TRACING`] is
/// on, and costs one relaxed load per allocation otherwise, so untraced
/// runs pay nearly nothing for it.
struct CountingAlloc;

/// Whether the counting allocator records. Set only around traced
/// repetitions.
pub static TRACING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if TRACING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns allocation counting on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

/// One timed call: wall seconds plus the allocations it made (zero
/// unless tracing is on).
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub seconds: f64,
    pub allocations: u64,
    pub bytes: u64,
}

/// An open span: started by [`Probe::start`], closed by [`Probe::stop`].
#[derive(Debug)]
pub struct Probe {
    t0: Instant,
    allocations: u64,
    bytes: u64,
}

impl Probe {
    pub fn start() -> Probe {
        Probe {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> Span {
        let seconds = self.t0.elapsed().as_secs_f64();
        Span {
            seconds,
            allocations: ALLOCATIONS.load(Ordering::Relaxed) - self.allocations,
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - self.bytes,
        }
    }
}

/// Runs `f`, returning its result and its [`Span`].
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let probe = Probe::start();
    let out = f();
    (out, probe.stop())
}

/// One traced repetition: its end-to-end seconds and one span per
/// layer, in the order of the layer table it was recorded against.
pub type TracedRep = (f64, Vec<Span>);

/// Records the median of each layer's seconds (and, where named, its
/// allocation count) over `reps`, then the ledger: the traced
/// end-to-end time, the sum of the layer times, what that sum leaves
/// unaccounted, and the traced ÷ untraced end-to-end ratio.
pub fn ledger(
    m: &mut Metrics,
    layers: &[(&str, Option<&str>)],
    reps: &[TracedRep],
    untraced_s: f64,
) {
    let over = |f: &dyn Fn(&TracedRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    for (i, &(name, alloc)) in layers.iter().enumerate() {
        m.set(name, over(&|r| r.1[i].seconds), "s");
        if let Some(alloc) = alloc {
            m.set(alloc, over(&|r| r.1[i].allocations as f64), "count");
        }
    }
    let layer_sum = |r: &TracedRep| r.1.iter().map(|s| s.seconds).sum::<f64>();
    let traced_s = over(&|r| r.0);
    m.set("traced_s", traced_s, "s");
    m.set("layers_s", over(&layer_sum), "s");
    m.set("unaccounted_s", over(&|r| r.0 - layer_sum(r)), "s");
    m.set("trace_overhead_ratio", traced_s / untraced_s, "ratio");
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "process status has no VmHWM line".to_owned())
}

/// Restarts the peak-RSS high-water mark from the current resident
/// set, so `peak_rss_mb` covers the measured phase rather than set-up.
/// Where the kernel refuses, the mark keeps covering set-up too.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: peak RSS includes set-up: cannot reset its mark: {e}");
    }
}

/// Named metrics with units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    fn to_value(&self) -> Result<Value, String> {
        let mut entries = Vec::with_capacity(self.0.len());
        for (name, &(value, unit)) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            entries.push((
                name.clone(),
                Value::Obj(vec![
                    ("value".to_owned(), Value::Num(format!("{value}"))),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            ));
        }
        Ok(Value::Obj(entries))
    }
}

/// What one workload run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Result<String, String> {
        let value = Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.failed == 0)),
            (
                "attempted".to_owned(),
                Value::Num(self.attempted.to_string()),
            ),
            ("failed".to_owned(), Value::Num(self.failed.to_string())),
            ("metrics".to_owned(), self.metrics.to_value()?),
        ]);
        let mut out = String::new();
        value.write(&mut out);
        Ok(out)
    }
}
