//! Content-addressed memoization of array solves.
//!
//! An exploration sweep, a DVFS rebuild loop, or a temperature sweep
//! re-solves the *same physical array* — identical technology corner,
//! identical geometry, identical objective — many times over: every
//! candidate chip in the paper's manycore study shares its L1s, and a
//! repeated `Processor::build` re-solves every array from scratch. The
//! solve is a pure function of `(TechParams, ArraySpec, OptTarget)`, so
//! this module caches it process-wide.
//!
//! **Key canonicalization.** The key must be `Eq + Hash`, but both
//! `TechParams` and `ArraySpec` carry `f64` fields. Every float is keyed
//! by its IEEE-754 bit pattern via [`canon_f64`], with two adjustments
//! so that values that compare equal key equally: `-0.0` maps to `+0.0`,
//! and every NaN maps to one canonical NaN (NaNs never reach the solver
//! in practice — configs are validated — but a total function is
//! cheaper than an unreachable panic). The spec's `name` is deliberately
//! **excluded**: two arrays that differ only in their report label are
//! physically the same array. On a hit the stored result is re-labeled
//! with the requesting spec's name (errors included).
//!
//! **Thread safety.** The map is sharded 16 ways, each shard a
//! `Mutex<HashMap>`, so concurrent array solves from the core/chip
//! build fan-out rarely contend on the same lock. A poisoned shard
//! (impossible unless a panic escapes the panic-free core) is recovered
//! with [`std::sync::PoisonError::into_inner`] rather than propagated.
//! Misses solve *outside* the lock — no lock is held across a
//! (milliseconds-long) solve.
//!
//! **Concurrent misses.** No lookup ever waits on another thread: two
//! threads that miss on one key at once both solve it, and since the
//! solve is pure the first to store wins and the second stores nothing.
//! The serve daemon merges identical whole-chip requests; below it,
//! such races are rare enough that waiting on them buys nothing.

use crate::solve::{ArrayError, SolvedArray};
use crate::spec::{ArrayKind, ArraySpec, OptTarget};
use mcpat_tech::TechParams;
use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of independently locked map shards.
const SHARDS: usize = 16;

/// Approximate per-entry byte allowance used to derive each shard's
/// byte cap from its entry cap (key + entry struct + name heap are a
/// few hundred bytes; 1 KiB is a conservative upper bound).
const ENTRY_BYTE_ALLOWANCE: u64 = 1024;

/// Maps an `f64` to canonical key bits: `-0.0` and `+0.0` key equally,
/// and every NaN keys as one canonical NaN.
#[must_use]
pub fn canon_f64(x: f64) -> u64 {
    // lint: allow(L002, exact comparison is the point — ±0.0 must merge to one key; this is the designated canonical-bits seam)
    if x == 0.0 {
        0
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// The technology half of the cache key: every field of [`TechParams`]
/// that the solver can observe, floats in canonical bit form.
fn tech_words(tech: &TechParams) -> [u64; 16] {
    let d = &tech.device;
    [
        canon_f64(tech.node.feature_m()),
        u64::from(tech.device_type as u8),
        canon_f64(tech.temperature),
        u64::from(tech.projection as u8),
        u64::from(tech.long_channel_leakage),
        canon_f64(d.vdd),
        canon_f64(d.vth),
        canon_f64(d.l_phy),
        canon_f64(d.i_on_n),
        canon_f64(d.i_on_p),
        canon_f64(d.i_off_n_ref),
        canon_f64(d.i_g_n),
        canon_f64(d.c_g),
        canon_f64(d.c_d),
        canon_f64(d.long_channel_leakage_reduction),
        canon_f64(d.t_slope),
    ]
}

/// The full content-addressed cache key. The spec's `name` is excluded
/// on purpose — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    tech: [u64; 16],
    entries: u64,
    bits_per_entry: u32,
    access_bits: u32,
    search_bits: u32,
    kind: u8,
    ports: [u32; 4],
    max_cycle: u64,
    has_max_cycle: bool,
    target: u8,
}

impl Key {
    fn new(tech: &TechParams, spec: &ArraySpec, target: OptTarget) -> Key {
        Key {
            tech: tech_words(tech),
            entries: spec.entries,
            bits_per_entry: spec.bits_per_entry,
            access_bits: spec.access_bits,
            search_bits: spec.search_bits,
            kind: match spec.kind {
                ArrayKind::Ram => 0,
                ArrayKind::Cam => 1,
                ArrayKind::Edram => 2,
            },
            ports: [
                spec.ports.rw,
                spec.ports.read,
                spec.ports.write,
                spec.ports.search,
            ],
            max_cycle: spec.max_cycle_time.map_or(0, canon_f64),
            has_max_cycle: spec.max_cycle_time.is_some(),
            target: match target {
                OptTarget::Delay => 0,
                OptTarget::EnergyDelay => 1,
                OptTarget::EnergyDelaySquared => 2,
                OptTarget::Energy => 3,
                OptTarget::Area => 4,
            },
        }
    }

    fn shard(&self) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// One independently locked slice of the cache.
type Shard = Mutex<ShardState>;

/// One cached solve plus its CLOCK bookkeeping.
struct Entry {
    value: Result<SolvedArray, ArrayError>,
    /// Approximate resident bytes ([`approx_entry_bytes`]).
    bytes: u64,
    /// CLOCK referenced bit: set on every hit, cleared (one reprieve)
    /// when the eviction hand sweeps past.
    referenced: bool,
}

#[derive(Default)]
struct ShardState {
    map: HashMap<Key, Entry>,
    /// CLOCK ring of resident keys; the eviction hand is the front.
    ring: VecDeque<Key>,
    /// Approximate resident bytes across `map`.
    bytes: u64,
}

/// Approximate resident bytes of one cache entry: the key, the entry
/// struct, and the heap strings the stored value owns.
fn approx_entry_bytes(value: &Result<SolvedArray, ArrayError>) -> u64 {
    let heap = match value {
        Ok(s) => s.name.capacity(),
        Err(
            ArrayError::DegenerateSpec { name }
            | ArrayError::NoFeasiblePartition { name, .. }
            | ArrayError::Budget { name, .. },
        ) => name.capacity(),
        Err(ArrayError::Worker { name, detail }) => {
            name.capacity().saturating_add(detail.capacity())
        }
    };
    (std::mem::size_of::<Key>() + std::mem::size_of::<Entry>()) as u64 + heap as u64
}

/// Whether a solve result may be stored. Deterministic outcomes — a
/// successful solve, a degenerate spec, an infeasible partition — are
/// facts about the key and cache fine. Worker panics and budget trips
/// (cancellation, deadline) are facts about *this
/// call's circumstances*; caching one would poison the key for every
/// future caller, so they are never stored.
fn is_cacheable(value: &Result<SolvedArray, ArrayError>) -> bool {
    match value {
        Ok(_) | Err(ArrayError::DegenerateSpec { .. } | ArrayError::NoFeasiblePartition { .. }) => {
            true
        }
        Err(ArrayError::Worker { .. } | ArrayError::Budget { .. }) => false,
    }
}

/// Evicts entries CLOCK-style until the shard is within its entry and
/// byte caps. Returns the number of evictions. Each pop either drops a
/// ring slot or spends an entry's one reprieve (no hit can set it again
/// under the lock), so the sweep ends within two laps of the ring.
fn evict_over_cap(st: &mut ShardState, cap_entries: usize) -> u64 {
    if cap_entries == 0 {
        return 0; // Unbounded.
    }
    let cap_bytes = (cap_entries as u64).saturating_mul(ENTRY_BYTE_ALLOWANCE);
    let mut evicted = 0u64;
    while st.map.len() > cap_entries || st.bytes > cap_bytes {
        let Some(key) = st.ring.pop_front() else {
            break;
        };
        match st.map.get_mut(&key) {
            Some(entry) if entry.referenced => {
                entry.referenced = false;
                st.ring.push_back(key);
            }
            _ => {
                if let Some(old) = st.map.remove(&key) {
                    st.bytes = st.bytes.saturating_sub(old.bytes);
                    evicted += 1;
                }
            }
        }
    }
    evicted
}

fn shards() -> &'static [Shard; SHARDS] {
    static SHARDS_CELL: OnceLock<[Shard; SHARDS]> = OnceLock::new();
    SHARDS_CELL.get_or_init(|| std::array::from_fn(|_| Mutex::new(ShardState::default())))
}

fn lock(shard: &Shard) -> MutexGuard<'_, ShardState> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// In-process entry-cap override; `usize::MAX` means "not set" (fall
/// back to the `MCPAT_SOLVE_CACHE_CAP` knob).
static CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Overrides the cache's total entry cap for this process: `Some(0)`
/// disables the cap entirely, `None` restores the
/// `MCPAT_SOLVE_CACHE_CAP` knob (default 4096). Intended for tests and
/// benchmarks forcing eviction pressure without mutating the process
/// environment.
// lint: allow(L013, the in-process twin of MCPAT_SOLVE_CACHE_CAP; the chaos tests force evictions with it)
pub fn set_cap(cap: Option<usize>) {
    CAP_OVERRIDE.store(cap.unwrap_or(usize::MAX), Ordering::SeqCst);
}

/// The effective total entry cap (0 = unbounded). The
/// `MCPAT_SOLVE_CACHE_CAP` knob is read once per process: every insert
/// asks, and an environment read costs more than the insert.
fn total_cap() -> usize {
    static ENV_CAP: OnceLock<usize> = OnceLock::new();
    let forced = CAP_OVERRIDE.load(Ordering::SeqCst);
    if forced != usize::MAX {
        return forced;
    }
    *ENV_CAP.get_or_init(mcpat_par::knobs::solve_cache_cap)
}

/// The per-shard entry cap derived from [`total_cap`] (0 = unbounded).
fn shard_cap() -> usize {
    let total = total_cap();
    if total == 0 {
        0
    } else {
        total.div_ceil(SHARDS).max(1)
    }
}

/// Cache mode: 0 = auto (on unless `MCPAT_SOLVE_CACHE=0`),
/// 1 = forced on, 2 = forced off.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Forces the solve cache on or off for this process, overriding the
/// `MCPAT_SOLVE_CACHE` environment variable. Intended for benchmarks
/// and tests comparing cold against warm builds.
pub fn set_enabled(on: bool) {
    MODE.store(if on { 1 } else { 2 }, Ordering::SeqCst);
}

/// Restores the default behavior: enabled unless the
/// `MCPAT_SOLVE_CACHE` environment variable is set to `0`.
pub fn set_auto() {
    MODE.store(0, Ordering::SeqCst);
}

/// Whether lookups use the cache. The `MCPAT_SOLVE_CACHE` knob is read
/// once per process: every lookup asks, and an environment read costs
/// more than a cache hit.
fn enabled() -> bool {
    static ENV_ENABLED: OnceLock<bool> = OnceLock::new();
    match MODE.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => *ENV_ENABLED.get_or_init(mcpat_par::knobs::solve_cache),
    }
}

/// Drops every cached solve and zeroes the hit/miss counters.
pub fn clear() {
    for shard in shards() {
        let mut st = lock(shard);
        st.map.clear();
        st.ring.clear();
        st.bytes = 0;
    }
    HITS.store(0, Ordering::SeqCst);
    MISSES.store(0, Ordering::SeqCst);
    EVICTIONS.store(0, Ordering::SeqCst);
}

/// A snapshot of the solve cache's effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SolveCacheStats {
    /// Solves answered from the cache.
    pub hits: u64,
    /// Solves that ran the optimizer.
    pub misses: u64,
    /// Distinct (tech, spec, target) keys currently stored.
    pub entries: u64,
    /// Entries evicted by the CLOCK cap since the last [`clear`] —
    /// nonzero means the working set exceeds `MCPAT_SOLVE_CACHE_CAP`.
    pub evictions: u64,
    /// Approximate resident bytes across all shards.
    pub bytes: u64,
}

impl SolveCacheStats {
    /// Hits + misses.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    /// Well-defined on an untouched cache: zero lookups yield `0.0`,
    /// never NaN — telemetry consumers (the serve daemon's `stats`
    /// envelope, benchline rows) serialize this directly.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Current process-wide cache statistics.
#[must_use]
pub fn stats() -> SolveCacheStats {
    let (mut entries, mut bytes) = (0u64, 0u64);
    for shard in shards() {
        let st = lock(shard);
        entries += st.map.len() as u64;
        bytes = bytes.saturating_add(st.bytes);
    }
    SolveCacheStats {
        hits: HITS.load(Ordering::SeqCst),
        misses: MISSES.load(Ordering::SeqCst),
        entries,
        evictions: EVICTIONS.load(Ordering::SeqCst),
        bytes,
    }
}

/// Re-labels a cached result with the requesting spec's name, so the
/// name-agnostic key never leaks another array's label into reports.
fn relabel(
    mut res: Result<SolvedArray, ArrayError>,
    name: &str,
) -> Result<SolvedArray, ArrayError> {
    match &mut res {
        Ok(solved) => solved.name.replace_range(.., name),
        Err(
            ArrayError::DegenerateSpec { name: n }
            | ArrayError::NoFeasiblePartition { name: n, .. }
            | ArrayError::Worker { name: n, .. }
            | ArrayError::Budget { name: n, .. },
        ) => n.replace_range(.., name),
    }
    res
}

/// Answers a solve from the cache, or runs `solve_fn` and stores its
/// result when it is a fact about the key (`is_cacheable`:
/// successful solves and deterministic errors are stored — an
/// infeasible array is infeasible every time it is asked for — while
/// worker panics and budget trips are never stored). Storage is
/// bounded: each shard evicts CLOCK-style beyond its share of the
/// `MCPAT_SOLVE_CACHE_CAP` entry cap (see [`set_cap`]).
///
/// # Errors
///
/// Whatever `solve_fn` returns, possibly replayed from the cache with
/// the name re-labeled.
pub fn lookup_or_solve(
    tech: &TechParams,
    spec: &ArraySpec,
    target: OptTarget,
    solve_fn: impl FnOnce(&TechParams, &ArraySpec, OptTarget) -> Result<SolvedArray, ArrayError>,
) -> Result<SolvedArray, ArrayError> {
    if !enabled() {
        return solve_fn(tech, spec, target);
    }
    let key = Key::new(tech, spec, target);
    let Some(shard) = shards().get(key.shard()) else {
        // Unreachable — shard() reduces mod SHARDS — but a total
        // fallback (solve uncached) is cheaper than a panic path.
        return solve_fn(tech, spec, target);
    };

    let cached = lock(shard).map.get_mut(&key).map(|entry| {
        entry.referenced = true;
        entry.value.clone()
    });
    if let Some(cached) = cached {
        HITS.fetch_add(1, Ordering::SeqCst);
        mcpat_obs::record_solve(true);
        return relabel(cached, &spec.name);
    }
    MISSES.fetch_add(1, Ordering::SeqCst);
    mcpat_obs::record_solve(false);
    let res = solve_fn(tech, spec, target);
    if is_cacheable(&res) {
        let bytes = approx_entry_bytes(&res);
        let evicted = {
            let mut st = lock(shard);
            // A concurrent miss on this key may have stored the same
            // bits first; then there is nothing to add.
            if let Slot::Vacant(slot) = st.map.entry(key.clone()) {
                slot.insert(Entry {
                    value: res.clone(),
                    bytes,
                    referenced: false,
                });
                st.ring.push_back(key);
                st.bytes = st.bytes.saturating_add(bytes);
            }
            evict_over_cap(&mut st, shard_cap())
        };
        if evicted > 0 {
            EVICTIONS.fetch_add(evicted, Ordering::SeqCst);
            mcpat_obs::record_solve_evictions(evicted);
        }
    }
    res
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N45, DeviceType::Hp, 360.0)
    }

    #[test]
    fn hit_rate_is_well_defined_without_lookups() {
        // The empty-cache path: a fresh stats snapshot has performed
        // zero lookups, and the ratio must be 0.0, not NaN (it is
        // serialized straight into telemetry JSON).
        let empty = SolveCacheStats::default();
        assert_eq!(empty.lookups(), 0);
        assert_eq!(
            empty.hit_rate().to_bits(),
            0.0f64.to_bits(),
            "zero lookups must yield exactly 0.0"
        );
        assert!(empty.hit_rate().is_finite());
        let mixed = SolveCacheStats {
            hits: 3,
            misses: 1,
            ..SolveCacheStats::default()
        };
        assert!((mixed.hit_rate() - 0.75).abs() < 1e-12);
        let saturating = SolveCacheStats {
            hits: u64::MAX,
            misses: u64::MAX,
            ..SolveCacheStats::default()
        };
        assert!(saturating.hit_rate().is_finite());
        assert!(saturating.hit_rate() <= 1.0);
    }

    #[test]
    fn canon_f64_merges_zero_signs_and_nans() {
        assert_eq!(canon_f64(0.0), canon_f64(-0.0));
        assert_eq!(canon_f64(f64::NAN), canon_f64(-f64::NAN));
        assert_ne!(canon_f64(1.0), canon_f64(2.0));
        assert_eq!(canon_f64(1.5), 1.5f64.to_bits());
    }

    #[test]
    fn key_ignores_name_but_sees_everything_else() {
        let t = tech();
        let a = ArraySpec::ram(64 * 1024, 64).named("icache");
        let b = ArraySpec::ram(64 * 1024, 64).named("dcache");
        assert_eq!(
            Key::new(&t, &a, OptTarget::EnergyDelay),
            Key::new(&t, &b, OptTarget::EnergyDelay)
        );
        assert_ne!(
            Key::new(&t, &a, OptTarget::EnergyDelay),
            Key::new(&t, &a, OptTarget::Delay)
        );
        let c = ArraySpec::ram(64 * 1024, 32);
        assert_ne!(
            Key::new(&t, &a, OptTarget::EnergyDelay),
            Key::new(&t, &c, OptTarget::EnergyDelay)
        );
        let hot = TechParams::new(TechNode::N45, DeviceType::Hp, 380.0);
        assert_ne!(
            Key::new(&t, &a, OptTarget::EnergyDelay),
            Key::new(&hot, &a, OptTarget::EnergyDelay)
        );
        let scaled = t.with_vdd_scale(0.9);
        assert_ne!(
            Key::new(&t, &a, OptTarget::EnergyDelay),
            Key::new(&scaled, &a, OptTarget::EnergyDelay)
        );
    }

    #[test]
    fn unset_cycle_constraint_differs_from_zero() {
        let t = tech();
        let free = ArraySpec::ram(4096, 16);
        let pinned = ArraySpec::ram(4096, 16).with_max_cycle_time(0.0);
        assert_ne!(
            Key::new(&t, &free, OptTarget::EnergyDelay),
            Key::new(&t, &pinned, OptTarget::EnergyDelay)
        );
    }

    /// Serializes tests that flip the process-global cache mode.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn hit_replays_result_with_requesting_name() {
        // Use a geometry no other test solves, so this test owns its key
        // even though the whole test binary shares the process-wide
        // cache; count solver invocations directly instead of relying on
        // the global counters, which other tests bump concurrently.
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let t = tech();
        let calls = std::cell::Cell::new(0u32);
        let run = |name: &str| {
            lookup_or_solve(
                &t,
                &ArraySpec::table(977, 31).named(name),
                OptTarget::Area,
                |t, s, tg| {
                    calls.set(calls.get() + 1);
                    crate::solve::solve_uncached(t, s, tg)
                },
            )
            .unwrap()
        };
        let first = run("first");
        let second = run("second");
        set_auto();
        assert_eq!(calls.get(), 1, "second solve must be answered by the cache");
        assert_eq!(first.name, "first");
        assert_eq!(second.name, "second");
        assert_eq!(first.ndwl, second.ndwl);
        assert_eq!(first.access_time.to_bits(), second.access_time.to_bits());
        assert_eq!(first.area.to_bits(), second.area.to_bits());
    }

    #[test]
    fn errors_are_cached_and_relabeled() {
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let t = tech();
        let degenerate = |name: &str| {
            ArraySpec {
                entries: 0,
                ..ArraySpec::table(1, 13)
            }
            .named(name)
        };
        let e1 = degenerate("a").solve(&t, OptTarget::Delay).unwrap_err();
        let e2 = degenerate("b").solve(&t, OptTarget::Delay).unwrap_err();
        set_auto();
        assert_eq!(e1, ArrayError::DegenerateSpec { name: "a".into() });
        assert_eq!(e2, ArrayError::DegenerateSpec { name: "b".into() });
    }

    #[test]
    fn concurrent_misses_both_solve_and_store_once() {
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let t = tech();
        // Unique geometry so this test owns its key process-wide.
        let spec = ArraySpec::table(613, 29).named("racer");
        let key = Key::new(&t, &spec, OptTarget::Delay);
        let solo = approx_entry_bytes(&crate::solve::solve_uncached(&t, &spec, OptTarget::Delay));
        // Each solve waits until both are inside one; a timeout, not a
        // barrier, so a lookup that waits on the other fails, not hangs.
        let arrived = (Mutex::new(0u32), std::sync::Condvar::new());
        let collector = mcpat_obs::Collector::new();
        let lookup = || {
            let _scope = collector.enter();
            lookup_or_solve(&t, &spec, OptTarget::Delay, |t, s, tg| {
                let (n, cv) = &arrived;
                let mut n = n.lock().unwrap();
                *n += 1;
                cv.notify_all();
                let five_s = std::time::Duration::from_secs(5);
                let late = cv.wait_timeout_while(n, five_s, |n| *n < 2).unwrap().1;
                assert!(!late.timed_out(), "the other miss never started solving");
                crate::solve::solve_uncached(t, s, tg)
            })
            .unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(lookup), s.spawn(lookup));
            (a.join().unwrap(), b.join().unwrap())
        });
        // `{:?}` prints each f64 in shortest round-trip form, so equal
        // renderings are bit-identical results.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let snap = collector.snapshot();
        assert_eq!((snap.solve_cache_misses, snap.solve_cache_hits), (2, 0));
        let st = lock(&shards()[key.shard()]);
        let resident = st.ring.iter().filter(|k| **k == key).count();
        let others: u64 = st
            .map
            .iter()
            .filter(|(k, _)| **k != key)
            .map(|(_, e)| e.bytes)
            .sum();
        assert_eq!(
            (resident, st.bytes - others),
            (1, solo),
            "stored and billed once"
        );
        drop(st);
        let _scope = collector.enter();
        let third = lookup_or_solve(&t, &spec, OptTarget::Delay, |_, _, _| {
            panic!("solved twice")
        });
        set_auto();
        assert_eq!(format!("{:?}", third.unwrap()), format!("{a:?}"));
        assert_eq!(collector.snapshot().solve_cache_hits, 1);
    }

    #[test]
    fn budget_and_worker_errors_are_never_cached() {
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        let t = tech();
        let calls = std::cell::Cell::new(0u32);
        // Unique geometry so this test owns its key process-wide.
        let spec = ArraySpec::table(883, 17).named("flaky");
        #[derive(Clone, Copy)]
        enum Mode {
            Worker,
            Budget,
            Real,
        }
        let run = |mode: Mode| {
            lookup_or_solve(&t, &spec, OptTarget::Delay, |t, s, tg| {
                calls.set(calls.get() + 1);
                match mode {
                    Mode::Worker => Err(ArrayError::Worker {
                        name: s.name.clone(),
                        detail: "injected".into(),
                    }),
                    Mode::Budget => Err(ArrayError::Budget {
                        name: s.name.clone(),
                        reason: mcpat_obs::guard::GuardError::Cancelled {
                            progress: mcpat_obs::guard::Progress::default(),
                        },
                    }),
                    Mode::Real => crate::solve::solve_uncached(t, s, tg),
                }
            })
        };
        assert!(matches!(run(Mode::Worker), Err(ArrayError::Worker { .. })));
        assert!(matches!(run(Mode::Budget), Err(ArrayError::Budget { .. })));
        assert!(run(Mode::Real).is_ok(), "clean rerun must solve normally");
        assert!(run(Mode::Real).is_ok());
        set_auto();
        assert_eq!(
            calls.get(),
            3,
            "worker/budget errors must re-solve; only the success is cached"
        );
    }

    #[test]
    fn cap_bounds_entries_and_counts_evictions() {
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        set_cap(Some(1));
        let t = tech();
        let before = stats().evictions;
        let calls = std::cell::Cell::new(0u32);
        let run = |i: u64| {
            lookup_or_solve(
                &t,
                // Unique geometries so this test owns its keys.
                &ArraySpec::table(1009 + 2 * i, 19).named("capped"),
                OptTarget::Delay,
                |t, s, tg| {
                    calls.set(calls.get() + 1);
                    crate::solve::solve_uncached(t, s, tg)
                },
            )
            .unwrap()
        };
        for i in 0..40 {
            run(i);
        }
        let after = stats();
        // A total cap of 1 clamps every shard to one resident entry.
        assert!(
            after.entries <= SHARDS as u64,
            "cap must bound residency: {} entries",
            after.entries
        );
        // 40 inserts into <= SHARDS slots force evictions by pigeonhole.
        assert!(
            after.evictions - before >= 40 - SHARDS as u64,
            "expected evictions under pressure, got {}",
            after.evictions - before
        );
        assert!(after.bytes > 0, "resident entries must carry byte weight");
        // The most recent insert is still resident in its shard.
        let solved = calls.get();
        run(39);
        assert_eq!(calls.get(), solved, "latest entry must still hit");
        set_cap(None);
        set_auto();
    }

    #[test]
    fn disabled_cache_always_solves() {
        let _mode = MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        let t = tech();
        let calls = std::cell::Cell::new(0u32);
        for _ in 0..2 {
            lookup_or_solve(
                &t,
                &ArraySpec::table(499, 23).named("uncached"),
                OptTarget::Delay,
                |t, s, tg| {
                    calls.set(calls.get() + 1);
                    crate::solve::solve_uncached(t, s, tg)
                },
            )
            .unwrap();
        }
        set_auto();
        assert_eq!(calls.get(), 2, "disabled cache must always run the solver");
    }
}
