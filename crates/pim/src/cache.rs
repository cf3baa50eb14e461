//! Fleet-wide memoization of lowered programs.
//!
//! Lowering is pure: the machine instructions depend only on the IR
//! program, the [`LowerLevel`], the scratch pool, and the array
//! geometry. A serving fleet re-lowers the same five kernel programs
//! and five pose programs for every one of N sessions — identical
//! inputs, identical outputs, wasted host work. [`LoweredCache`]
//! memoizes by `(program hash, level, config hash)` so each distinct
//! triple is lowered exactly once per process, however many sessions,
//! trackers or pool rebuilds share it. Caching is host-side only:
//! simulated cycles and energy are untouched, and every consumer stays
//! bit-identical to the uncached path.

use crate::config::ArrayConfig;
use crate::ir::PimProgram;
use crate::lower::{lower, LowerError, LowerLevel, LoweredProgram, ScratchRows};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Hit/miss/size counters of a [`LoweredCache`], taken atomically with
/// [`LoweredCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoweredCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to lower (one per distinct triple).
    pub misses: u64,
    /// Distinct `(program, level, config)` triples resident.
    pub entries: u64,
    /// Approximate resident size of the cached programs in bytes.
    pub bytes: u64,
}

struct Inner {
    map: HashMap<(u64, LowerLevel, u64), Arc<LoweredProgram>>,
    hits: u64,
    misses: u64,
    bytes: u64,
}

/// A process-wide memo table of lowered programs, keyed by
/// `(program hash, level, machine-config hash)`.
///
/// The program hash covers the IR ops **and** the scratch pool (spill
/// placement depends on it); the config hash covers the
/// [`ArrayConfig`] geometry, so changing the machine invalidates every
/// entry by construction — stale entries are unreachable, never
/// served. Cloning the handle shares the underlying table; a fresh
/// independent table comes from [`LoweredCache::new`], and
/// [`LoweredCache::global`] hands out the per-process default used by
/// the kernel and pose entry points.
#[derive(Clone, Debug)]
pub struct LoweredCache {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.map.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl Default for LoweredCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LoweredCache {
    /// An empty cache with its own table (not shared with
    /// [`LoweredCache::global`]).
    #[must_use]
    pub fn new() -> Self {
        LoweredCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                bytes: 0,
            })),
        }
    }

    /// The process-wide default cache.
    pub fn global() -> &'static LoweredCache {
        static GLOBAL: OnceLock<LoweredCache> = OnceLock::new();
        GLOBAL.get_or_init(LoweredCache::new)
    }

    /// Lowers `prog` at `level` for a machine with geometry `config`,
    /// or returns the memoized result of an earlier identical call.
    ///
    /// The lowering runs under the table lock, so concurrent callers
    /// racing on the same triple still produce exactly one miss —
    /// the counters are the "lowered exactly once per distinct triple"
    /// evidence the fleet tests assert on.
    ///
    /// # Errors
    ///
    /// Propagates [`LowerError`] from [`lower`]. Failures are not
    /// cached.
    pub fn get_or_lower(
        &self,
        prog: &PimProgram,
        level: LowerLevel,
        scratch: &ScratchRows,
        config: &ArrayConfig,
    ) -> Result<Arc<LoweredProgram>, LowerError> {
        let key = (program_key(prog, scratch), level, config_key(config));
        let mut inner = self.lock();
        if let Some(hit) = inner.map.get(&key).map(Arc::clone) {
            inner.hits += 1;
            return Ok(hit);
        }
        let lowered = Arc::new(lower(prog, level, scratch)?);
        inner.misses += 1;
        inner.bytes += approx_bytes(&lowered);
        inner.map.insert(key, Arc::clone(&lowered));
        Ok(lowered)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> LoweredCacheStats {
        let inner = self.lock();
        LoweredCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
        }
    }

    /// Whether `other` is a handle on this cache's table (a clone of
    /// it), rather than on an independent one.
    #[must_use]
    pub fn same_table(&self, other: &LoweredCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Drops every entry and resets the counters (the handle stays
    /// shared).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.bytes = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn program_key(prog: &PimProgram, scratch: &ScratchRows) -> u64 {
    let mut h = DefaultHasher::new();
    prog.hash(&mut h);
    scratch.rows().hash(&mut h);
    h.finish()
}

fn config_key(config: &ArrayConfig) -> u64 {
    let mut h = DefaultHasher::new();
    config.hash(&mut h);
    h.finish()
}

fn approx_bytes(p: &LoweredProgram) -> u64 {
    let ops: u64 = p
        .ops()
        .iter()
        .map(|o| (std::mem::size_of_val(o) + o.label.len()) as u64)
        .sum();
    ops + p.name().len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Val;

    fn prog(name: &str) -> PimProgram {
        let mut p = PimProgram::new(name);
        let d = p.avg(Val::Row(0), Val::Row(1));
        let e = p.avg_sh(d.into(), d.into(), 1);
        p.store(e, 2);
        p
    }

    #[test]
    fn identical_triples_lower_once() {
        let cache = LoweredCache::new();
        let cfg = ArrayConfig::qvga();
        let scratch = ScratchRows::contiguous(100, 4);
        let p = prog("a");
        let first = cache
            .get_or_lower(&p, LowerLevel::Opt, &scratch, &cfg)
            .unwrap();
        for _ in 0..5 {
            let again = cache
                .get_or_lower(&p, LowerLevel::Opt, &scratch, &cfg)
                .unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (5, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn level_config_and_scratch_are_part_of_the_key() {
        let cache = LoweredCache::new();
        let p = prog("a");
        let cfg = ArrayConfig::qvga();
        let scratch = ScratchRows::contiguous(100, 4);
        cache
            .get_or_lower(&p, LowerLevel::Opt, &scratch, &cfg)
            .unwrap();
        cache
            .get_or_lower(&p, LowerLevel::Naive, &scratch, &cfg)
            .unwrap();
        cache
            .get_or_lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(110, 4), &cfg)
            .unwrap();
        cache
            .get_or_lower(&p, LowerLevel::Opt, &scratch, &ArrayConfig::qvga_banks(2))
            .unwrap();
        // a different program with the same shape also misses
        cache
            .get_or_lower(&prog("b"), LowerLevel::Opt, &scratch, &cfg)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 5, 5));
    }

    #[test]
    fn cached_program_is_bit_identical_to_direct_lowering() {
        let cache = LoweredCache::new();
        let p = prog("a");
        let cfg = ArrayConfig::qvga();
        let scratch = ScratchRows::contiguous(100, 4);
        let direct = lower(&p, LowerLevel::Opt, &scratch).unwrap();
        let cached = cache
            .get_or_lower(&p, LowerLevel::Opt, &scratch, &cfg)
            .unwrap();
        assert_eq!(*cached, direct);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = LoweredCache::new();
        let p = prog("a");
        let cfg = ArrayConfig::qvga();
        let scratch = ScratchRows::contiguous(100, 4);
        for _ in 0..2 {
            assert!(cache
                .get_or_lower(&p, LowerLevel::MultiReg(0), &scratch, &cfg)
                .is_err());
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn clones_share_the_table_and_new_caches_do_not() {
        let cache = LoweredCache::new();
        assert!(cache.same_table(&cache.clone()));
        assert!(!cache.same_table(&LoweredCache::new()));
    }

    #[test]
    fn clear_resets_table_and_counters() {
        let cache = LoweredCache::new();
        let cfg = ArrayConfig::qvga();
        let scratch = ScratchRows::contiguous(100, 4);
        cache
            .get_or_lower(&prog("a"), LowerLevel::Opt, &scratch, &cfg)
            .unwrap();
        cache.clear();
        assert_eq!(cache.stats(), LoweredCacheStats::default());
    }
}
