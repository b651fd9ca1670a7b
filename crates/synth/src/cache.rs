//! Process-wide memoization of [`generate`](crate::generate::generate).
//!
//! Generation is deterministic per `(spec, seed)` — the generator seeds
//! its RNG from exactly those two values — so the result can be shared
//! behind an [`Arc`] by every consumer that asks for the same pair: the
//! sweep executor fanning one dataset across ten learners, `run_seeds`
//! repeating it per seed, and the `experiments/*` drivers that used to
//! call `generate` ad hoc. The cache is bounded (FIFO) so a full-registry
//! sweep cannot pin all 55 datasets in memory at once.

use crate::generate::generate;
use crate::spec::StreamSpec;
use oeb_tabular::StreamDataset;
use oeb_trace::counters::{SYNTH_CACHE_EVICT, SYNTH_CACHE_HIT, SYNTH_CACHE_MISS};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

struct GenCache {
    map: BTreeMap<(String, u64), Arc<StreamDataset>>,
    order: VecDeque<(String, u64)>,
    capacity: usize,
}

static CACHE: Mutex<Option<GenCache>> = Mutex::new(None);

/// Default number of `(spec, seed)` entries kept resident.
const DEFAULT_CAPACITY: usize = 16;

fn capacity() -> usize {
    std::env::var("OEBENCH_SYNTH_CACHE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_CAPACITY)
}

/// Memoized [`generate`]: returns a shared handle to the dataset for
/// `(spec, seed)`, generating it on first request. A capacity of zero
/// (via `OEBENCH_SYNTH_CACHE=0`) disables retention — every call
/// regenerates.
///
/// The key is the spec's full `Debug` rendering plus the seed, so any
/// field change (rows, drift pattern, window, ...) is a distinct entry.
pub fn generate_cached(spec: &StreamSpec, seed: u64) -> Arc<StreamDataset> {
    let key = (format!("{spec:?}"), seed);
    let mut guard = CACHE.lock();
    let cache = guard.get_or_insert_with(|| GenCache {
        map: BTreeMap::new(),
        order: VecDeque::new(),
        capacity: capacity(),
    });
    if let Some(hit) = cache.map.get(&key) {
        SYNTH_CACHE_HIT.incr();
        return hit.clone();
    }
    SYNTH_CACHE_MISS.incr();
    // Generate while holding the lock: concurrent requests for the same
    // pair would otherwise duplicate the (deterministic) work, and
    // generation is cheap relative to the downstream evaluation.
    let dataset = Arc::new(generate(spec, seed));
    if cache.capacity > 0 {
        cache.map.insert(key.clone(), dataset.clone());
        cache.order.push_back(key);
        while cache.order.len() > cache.capacity {
            if let Some(evicted) = cache.order.pop_front() {
                cache.map.remove(&evicted);
                SYNTH_CACHE_EVICT.incr();
            }
        }
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry_scaled;

    #[test]
    fn second_call_returns_the_same_arc() {
        let entries = registry_scaled(0.02);
        let spec = &entries[0].spec;
        let a = generate_cached(spec, 7);
        let b = generate_cached(spec, 7);
        assert!(Arc::ptr_eq(&a, &b), "same (spec, seed) should share");
        let c = generate_cached(spec, 8);
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
    }

    #[test]
    fn cached_matches_direct_generation() {
        let entries = registry_scaled(0.02);
        let spec = &entries[1].spec;
        let cached = generate_cached(spec, 3);
        let direct = generate(spec, 3);
        assert_eq!(cached.fingerprint(), direct.fingerprint());
    }
}
