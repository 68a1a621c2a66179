//! Cross-request [`GoldenTrace`] cache.
//!
//! Building the golden trace is the dominant per-job fixed cost for the
//! differential engine, and concurrent tenants overwhelmingly re-run the
//! same models under the same tours. The cache keys traces by *(machine
//! fingerprint, test-set fingerprint)* — the same FNV-64 identities the
//! checkpoint journal binds to — so any two jobs whose machine and tests
//! are identical share one immutable [`Arc`]'d trace built by
//! [`GoldenTrace::build`]. The engine audit reads the same trace, so a
//! job that degrades from the symbolic engine to the differential one
//! reuses it too.
//!
//! Capacity is bounded with LRU eviction, and concurrent requests for
//! the same missing key are deduplicated: the first requester builds,
//! later ones block on a condvar and count as *hits*. That makes the
//! `serve.cache_hits`/`serve.cache_misses` split a function of the job
//! stream alone, not of worker scheduling — a requirement for
//! byte-identical server traces across worker counts.

use simcov_core::fingerprint::{hash_tests, machine_fingerprint};
use simcov_core::GoldenTrace;
use simcov_fsm::ExplicitMealy;
use simcov_obs::fnv::Fnv64;
use simcov_tour::TestSet;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Cache key: (machine fingerprint, test-set fingerprint).
pub type TraceKey = (u64, u64);

enum Slot {
    /// Some thread is building this trace; waiters block on the condvar.
    Building,
    /// The finished trace.
    Ready(Arc<GoldenTrace>),
}

struct CacheState {
    slots: HashMap<TraceKey, Slot>,
    /// Ready keys in least-recently-used-first order.
    lru: Vec<TraceKey>,
}

impl CacheState {
    fn touch(&mut self, key: TraceKey) {
        self.lru.retain(|k| *k != key);
        self.lru.push(key);
    }

    fn evict_to(&mut self, capacity: usize) {
        while self.lru.len() > capacity {
            let victim = self.lru.remove(0);
            self.slots.remove(&victim);
        }
    }
}

/// A bounded, thread-safe golden-trace cache. See the module docs.
pub struct TraceCache {
    capacity: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
}

impl TraceCache {
    /// Creates a cache holding at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceCache {
        TraceCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                lru: Vec::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// The cache key for a (machine, test set) pair.
    pub fn key(m: &ExplicitMealy, tests: &TestSet) -> TraceKey {
        let mut h = Fnv64::new();
        hash_tests(&mut h, tests);
        (machine_fingerprint(m), h.finish())
    }

    /// Returns the cached trace for `(m, tests)`, building it under this
    /// call if absent. The boolean is `true` on a hit — including the
    /// "waited for a concurrent builder" case, which found the work
    /// already in flight.
    pub fn get_or_build(&self, m: &ExplicitMealy, tests: &TestSet) -> (Arc<GoldenTrace>, bool) {
        let key = Self::key(m, tests);
        let mut state = self.lock();
        loop {
            match state.slots.get(&key) {
                Some(Slot::Ready(trace)) => {
                    let trace = Arc::clone(trace);
                    state.touch(key);
                    return (trace, true);
                }
                Some(Slot::Building) => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                None => {
                    state.slots.insert(key, Slot::Building);
                    drop(state);
                    // Build outside the lock: other keys stay servable.
                    let trace = Arc::new(GoldenTrace::build(m, tests));
                    let mut state = self.lock();
                    state.slots.insert(key, Slot::Ready(Arc::clone(&trace)));
                    state.touch(key);
                    state.evict_to(self.capacity);
                    drop(state);
                    self.ready.notify_all();
                    return (trace, false);
                }
            }
        }
    }

    /// Number of ready traces currently held.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// Whether the cache holds no ready traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::extend_cyclically;
    use simcov_tour::{generate_tour_traced, TourKind};

    fn machine(which: &str) -> (ExplicitMealy, TestSet) {
        let n = crate::jobs::dlx_netlist(which).unwrap();
        let m = crate::jobs::enumerate(&n).unwrap();
        let tel = simcov_obs::Telemetry::new();
        let tour = generate_tour_traced(&m, TourKind::Postman, &tel).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
        (m, tests)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = TraceCache::new(4);
        let (m, tests) = machine("reduced-obs");
        let (a, hit_a) = cache.get_or_build(&m, &tests);
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_build(&m, &tests);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hits share the same trace");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = TraceCache::new(1);
        let (m1, t1) = machine("reduced-obs");
        let (m2, t2) = machine("reduced");
        let (_, h1) = cache.get_or_build(&m1, &t1);
        assert!(!h1);
        let (_, h2) = cache.get_or_build(&m2, &t2);
        assert!(!h2, "different machine is a miss");
        assert_eq!(cache.len(), 1, "capacity 1 evicted the older trace");
        let (_, h3) = cache.get_or_build(&m1, &t1);
        assert!(!h3, "evicted trace rebuilds");
    }

    #[test]
    fn concurrent_requests_deduplicate_the_build() {
        let cache = TraceCache::new(4);
        let (m, tests) = machine("reduced-obs");
        let misses = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (_, hit) = cache.get_or_build(&m, &tests);
                    if !hit {
                        misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            misses.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one thread builds; the rest hit"
        );
        assert_eq!(cache.len(), 1);
    }
}
