//! Measurement plumbing shared by the workloads: a seeded generator,
//! percentiles, process CPU and memory, an allocation counter, output
//! digests, the host index that scales timings to the reference host's
//! speed, and the end-to-end metric set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// splitmix64: a small, seedable generator. Every workload input is a
/// pure function of the seed and an op index, so two runs with the same
/// seed see the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer, also used to hash `(seed, index)` pairs.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generator for one `(seed, stream, index)` triple.
#[must_use]
pub fn rng_at(seed: u64, stream: u64, index: u64) -> Rng {
    Rng::new(mix(seed ^ mix(stream.wrapping_add(mix(index)))))
}

/// Size of the temperature index space; see [`unique_temperature`].
const TEMP_SLOTS: u64 = 1 << 40;

/// A junction temperature in the calibrated 300–400 K band that is
/// distinct for every `index < 2^40` under one seed: `index` maps
/// through an odd multiplier modulo a power of two (a bijection), so no
/// two indices share a temperature, and so no two ops share a
/// solve-cache key.
#[must_use]
pub fn unique_temperature(seed: u64, index: u64) -> f64 {
    let slot = index.wrapping_mul(0x9E37_79B9_7F4B).wrapping_add(mix(seed)) % TEMP_SLOTS;
    300.0 + 100.0 * slot as f64 / TEMP_SLOTS as f64
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean of samples (`NaN` when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds taken by `f`, with its result.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// CPU time of the whole process — every thread, live or exited — in
/// seconds, from `/proc/self/stat` (`utime + stime`, in clock ticks of
/// `USER_HZ` = 100 on Linux).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name is parenthesized and may hold spaces; fields
    // after it are space-separated, starting at field 3 (state).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map_or(f64::NAN, |t| t as f64)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Counts heap allocations while counting is switched on (traced runs
/// only), so untimed runs pay one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is delegated to `System` unchanged; the
// counter update neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switches allocation counting on or off.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (process-wide).
#[must_use]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// FNV-1a, for output digests that compare across processes and
/// commits (the standard hasher is randomly keyed).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The report text without its `Build:` line. That line bills the
/// solve-cache hits and misses of the build that produced the chip,
/// which depend on what the cache held at the time, not on the model.
#[must_use]
pub fn model_text(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("Build:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Solve-cache lookups (hits + misses) billed on a report's `Build:`
/// line: a property of the configuration, whatever the cache held.
#[must_use]
pub fn build_lookups(report: &str) -> Option<u64> {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("Build:"))?;
    let count = |tag: &str| -> Option<u64> {
        let end = line.find(tag)?;
        line[..end].split_whitespace().last()?.parse().ok()
    };
    Some(count(" hit(s)")? + count(" miss(es)")?)
}

/// Checks a report produced elsewhere (by the daemon, or by an earlier
/// run) against one rendered in this process for the same
/// configuration: byte-identical model text and the same number of
/// solve-cache lookups.
///
/// # Errors
///
/// A description of the first difference.
pub fn compare_reports(what: &str, got: &str, expected: &str) -> Result<(), String> {
    let (g, e) = (model_text(got), model_text(expected));
    if g != e {
        let line = g.lines().zip(e.lines()).find(|(a, b)| a != b).map_or_else(
            || "line count differs".to_owned(),
            |(a, b)| format!("got `{a}`, expected `{b}`"),
        );
        return Err(format!("{what}: report differs: {line}"));
    }
    if build_lookups(got) != build_lookups(expected) {
        return Err(format!(
            "{what}: solve-cache lookups differ: {:?} vs {:?}",
            build_lookups(got),
            build_lookups(expected)
        ));
    }
    Ok(())
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// One op as its caller saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Completion time, s after the phase started.
    pub done_s: f64,
    /// Latency, ms; `+inf` for a failed op, so it misses any latency
    /// limit.
    pub ms: f64,
    /// Work units retired: 1 per op (or the candidates of a DSE sweep),
    /// 0 when the op failed.
    pub units: f64,
}

impl OpSample {
    /// An op that started at `t0` and just completed, in a phase that
    /// started at `start`; `units` is `None` when it failed.
    #[must_use]
    pub fn now(start: Instant, t0: Instant, units: Option<f64>) -> OpSample {
        OpSample {
            done_s: secs(start),
            ms: units.map_or(f64::INFINITY, |_| secs(t0) * 1e3),
            units: units.unwrap_or(0.0),
        }
    }
}

/// Length of the slices a single-caller phase is cut into, s. The host
/// index is measured between slices.
pub const SLICE_S: f64 = 1.0;

/// Geometric mean of the three calibration loops' wall times on the
/// quiet 2-vCPU reference host, µs, rounded; a host-index reading is
/// about 1.0 there.
const REF_LOOPS_US: f64 = 2600.0;

/// Entries of the random-read table: 2 MiB, past a core's private
/// caches.
const READ_TABLE: usize = 1 << 18;

/// How much slower than the quiet reference host this host runs right
/// now, from three fixed loops in the benchmark's own code, so no change
/// to the program can move it: floating-point math on both vCPUs at
/// once, random reads from a 2 MiB table, and building and dropping a
/// `BTreeMap` of small vectors.
///
/// Other tenants of the shared host slow the program in two ways, for
/// seconds to minutes at a time (see README.md): they contend for the
/// cores and caches, which stretches CPU time and wall time alike, and
/// the hypervisor takes the vCPUs away (steal time), which stretches
/// wall time only. The loops' wall time sees both. Over four minutes of contention the geometric mean of the three
/// loops' wall-time slow-downs tracked `eval_cold`'s with a correlation
/// of 0.79 and a slope of 1.0, where any one loop alone reached 0.65.
pub struct HostIndex {
    table: Vec<u64>,
    floats: Vec<f64>,
}

impl Default for HostIndex {
    fn default() -> HostIndex {
        HostIndex {
            table: (0..READ_TABLE as u64).map(mix).collect(),
            floats: (1..=4096).map(|i| f64::from(i) * 0.731).collect(),
        }
    }
}

impl HostIndex {
    /// One reading: the geometric mean of the three loops' wall times
    /// over [`REF_LOOPS_US`]. `salt` varies the loops' inputs, not their
    /// amount of work.
    #[must_use]
    pub fn measure(&self, salt: u64) -> f64 {
        let (_, float_us) = time_us(|| {
            std::thread::scope(|s| {
                let other = s.spawn(|| float_loop(&self.floats));
                float_loop(&self.floats) + other.join().unwrap_or(f64::NAN)
            })
        });
        let (_, reads_us) = time_us(|| read_loop(&self.table, salt));
        let (_, alloc_us) = time_us(|| alloc_loop(salt));
        (float_us * reads_us * alloc_us).cbrt() / REF_LOOPS_US
    }
}

/// Steal and total time of all vCPUs so far, in clock ticks, from the
/// first line of `/proc/stat` (user, nice, system, idle, iowait, irq,
/// softirq, steal; guest time is already in user).
#[must_use]
pub fn steal_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// The share of vCPU time stolen between two [`steal_ticks`] readings.
#[must_use]
pub fn steal_share(from: (f64, f64), to: (f64, f64)) -> f64 {
    let total = to.1 - from.1;
    if total > 0.0 {
        ((to.0 - from.0) / total).clamp(0.0, 0.99)
    } else {
        0.0
    }
}

fn float_loop(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    for _ in 0..48 {
        for (i, &x) in xs.iter().enumerate() {
            acc[i & 7] += (x.ln() * 0.37).exp().sqrt();
        }
    }
    acc.iter().sum()
}

fn read_loop(table: &[u64], salt: u64) -> u64 {
    let mut r = Rng::new(salt);
    (0..500_000).fold(0u64, |acc, _| acc.wrapping_add(table[r.below(table.len())]))
}

fn alloc_loop(salt: u64) -> usize {
    let mut r = Rng::new(salt);
    let map: BTreeMap<u64, Vec<f64>> = (0..16_000)
        .map(|i| {
            let k = r.next_u64();
            (k, vec![f64::from(i); 1 + (k % 24) as usize])
        })
        .collect();
    map.values().map(Vec::len).sum()
}

/// One slice of a timed phase: when it ran (s after the phase started),
/// the process CPU time it took, the geometric mean of the host index
/// readings on either side of it, and the share of vCPU time stolen
/// during it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub start_s: f64,
    pub end_s: f64,
    pub cpu_s: f64,
    pub index: f64,
    pub steal: f64,
}

/// Runs a single-caller closed loop for `seconds`: `op` runs one op of
/// a phase that started at the given instant and returns its sample.
/// Before the first op and after every [`SLICE_S`] of ops, the loop
/// reads the host index; that time belongs to no op and no slice.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(Instant) -> OpSample) -> Timed {
    let host = HostIndex::default();
    let mut t = Timed::default();
    let mut index = host.measure(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut start_s, mut cpu0, mut steal0) = (0.0, process_cpu_s(), steal_ticks());
    while Instant::now() < deadline {
        t.push(op(start));
        let end_s = secs(start);
        if end_s - start_s >= SLICE_S || Instant::now() >= deadline {
            let (cpu_s, steal) = (process_cpu_s() - cpu0, steal_share(steal0, steal_ticks()));
            let next = host.measure(t.slices.len() as u64 + 1);
            t.slices.push(Slice {
                start_s,
                end_s,
                cpu_s,
                index: (index * next).sqrt(),
                steal,
            });
            index = next;
            (start_s, cpu0, steal0) = (secs(start), process_cpu_s(), steal_ticks());
        }
    }
    t
}

/// The end-to-end figures of one timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    /// Work units per second.
    pub rate: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub cpu_ms_per_op: f64,
}

/// What one timed phase observed.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every op.
    pub samples: Vec<OpSample>,
    /// The slices, in order; every op completed inside one.
    pub slices: Vec<Slice>,
    pub failed: u64,
}

impl Timed {
    pub fn push(&mut self, s: OpSample) {
        if s.units == 0.0 {
            self.failed += 1;
        }
        self.samples.push(s);
    }

    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    #[must_use]
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The figures at the reference host's speed, over the whole phase:
    /// throughput and p50 and p90 latency with every slice's duration and
    /// every op's latency divided by the slice's host index, and CPU per
    /// op with every slice's CPU time divided by its host index times its
    /// share of vCPU time not stolen (the loops' wall time counts steal
    /// time; CPU time does not).
    ///
    /// Why scale: on the shared 2-vCPU reference host, other tenants slow
    /// this process by up to 4x (see [`HostIndex`]). The calibration
    /// loops run on the same vCPUs moments apart from the ops and slow
    /// with them, while a change to the program moves only the program.
    #[must_use]
    pub fn figures(&self) -> Figures {
        self.figures_with(|s| s.index, |s| s.index * (1.0 - s.steal))
    }

    /// The figures as measured, with no host index.
    #[must_use]
    pub fn raw_figures(&self) -> Figures {
        self.figures_with(|_| 1.0, |_| 1.0)
    }

    fn figures_with(
        &self,
        index: impl Fn(&Slice) -> f64,
        cpu_index: impl Fn(&Slice) -> f64,
    ) -> Figures {
        let time: f64 = self
            .slices
            .iter()
            .map(|s| (s.end_s - s.start_s) / index(s))
            .sum();
        let cpu: f64 = self.slices.iter().map(|s| s.cpu_s / cpu_index(s)).sum();
        let mut lat: Vec<f64> = self
            .samples
            .iter()
            .map(|op| {
                let i = self.slices.partition_point(|s| s.end_s < op.done_s);
                op.ms / self.slices.get(i).map_or(f64::NAN, &index)
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        let units: f64 = self.samples.iter().map(|s| s.units).sum();
        Figures {
            rate: units / time,
            p50_ms: percentile(&lat, 0.5),
            p90_ms: percentile(&lat, 0.9),
            cpu_ms_per_op: cpu * 1e3 / self.samples.len().max(1) as f64,
        }
    }

    /// The median host index and the median steal share of the slices.
    #[must_use]
    pub fn host_index(&self) -> (f64, f64) {
        let of = |f: fn(&Slice) -> f64| median(&self.slices.iter().map(f).collect::<Vec<_>>());
        (of(|s| s.index), of(|s| s.steal))
    }
}

/// The end-to-end metric set every workload prints with tracing off.
#[must_use]
pub fn end_to_end(setup_s: f64, timed: &Timed, model_err_pct: f64) -> Metrics {
    let f = timed.figures();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("ops_per_s", f.rate, "op/s");
    m.push("p50_ms", f.p50_ms, "ms");
    m.push("tail_ms", f.p90_ms, "ms");
    m.push("cpu_ms_per_op", f.cpu_ms_per_op, "ms");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m.push("model_err_pct", model_err_pct, "%");
    m
}

/// One line with the phase's median host index and steal share and its
/// figures as measured, before they are scaled.
#[must_use]
pub fn host_note(workload: &str, timed: &Timed) -> String {
    let (f, (index, steal)) = (timed.raw_figures(), timed.host_index());
    format!(
        "host {workload} index {index:.4} steal {steal:.4} raw ops_per_s {:.2} p50_ms {:.4} tail_ms {:.4} cpu_ms_per_op {:.4}",
        f.rate,
        f.p50_ms,
        f.p90_ms,
        f.cpu_ms_per_op
    )
}

/// Mean absolute error, in percent, of peak power and die area of the
/// four validation chips against their published figures (the
/// comparison `tests/validation.rs` bounds).
///
/// # Errors
///
/// A validation chip that fails to build.
pub fn model_err_pct() -> Result<f64, String> {
    let mut errs = Vec::new();
    for chip in mcpat_bench::published_chips() {
        let built = mcpat::Processor::build(&(chip.config)())
            .map_err(|e| format!("validation chip {}: {e}", chip.name))?;
        errs.push((built.peak_power().total() - chip.power_w).abs() / chip.power_w);
        errs.push((built.die_area_mm2() - chip.area_mm2).abs() / chip.area_mm2);
    }
    Ok(100.0 * mean(&errs))
}

/// True for a finite, positive model output.
#[must_use]
pub fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }

    #[test]
    fn temperatures_are_distinct_and_in_band() {
        let mut seen: Vec<u64> = (0..5000)
            .map(|i| unique_temperature(7, i))
            .inspect(|t| assert!((300.0..400.0).contains(t)))
            .map(f64::to_bits)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5000);
    }

    #[test]
    fn build_lookups_reads_the_build_line() {
        let r = "x\n  Build: 2 thread(s), solve cache 5 hit(s) / 17 miss(es) / 3 eviction(s)\ny";
        assert_eq!(build_lookups(r), Some(22));
        assert_eq!(model_text(r), "x\ny");
    }

    #[test]
    fn figures_divide_each_slice_by_its_host_index() {
        // Two 1-s slices of two 10-ms ops each; the second ran on a host
        // twice as slow, so its ops took twice as long.
        let op = |done_s, ms| OpSample {
            done_s,
            ms,
            units: 1.0,
        };
        let t = Timed {
            samples: vec![op(0.5, 10.0), op(1.0, 10.0), op(1.5, 20.0), op(2.0, 20.0)],
            slices: vec![
                Slice {
                    start_s: 0.0,
                    end_s: 1.0,
                    cpu_s: 1.0,
                    index: 1.0,
                    steal: 0.0,
                },
                Slice {
                    start_s: 1.0,
                    end_s: 2.0,
                    cpu_s: 1.0,
                    index: 2.0,
                    steal: 0.5,
                },
            ],
            failed: 0,
        };
        let f = t.figures();
        // CPU: 1 s / 1 + 1 s / (2 × (1 − 0.5)) over 4 ops.
        assert_eq!(
            (f.rate, f.p50_ms, f.p90_ms, f.cpu_ms_per_op),
            (4.0 / 1.5, 10.0, 10.0, 500.0)
        );
        let raw = t.raw_figures();
        assert_eq!((raw.rate, raw.p50_ms, raw.p90_ms), (2.0, 10.0, 20.0));
        assert_eq!(t.host_index(), (1.0, 0.0));
    }
}
