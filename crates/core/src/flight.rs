//! A single-flight memo, behind both the session's simulation memo and
//! the model context's calibration memo. Invariants:
//!
//! * each key is computed once: a caller claims the keys nobody holds
//!   before computing them, and waits out the ones claimed elsewhere;
//! * distinct keys compute concurrently: the lock guards only the
//!   claim table, never a computation;
//! * no deadlock: [`Claim::wait`] releases the caller's own claims
//!   before it blocks, so no wait chain returns to a claimant, whatever
//!   other claims (serve's coalescing cache) the waiters hold;
//! * failures strand no waiter: a [`Claim`] dropped unpublished (an
//!   error, a panic) releases its keys for the next caller to claim.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The claim table: `None` while a key's claimant computes it.
pub(crate) struct SingleFlight<K, V> {
    slots: Mutex<BTreeMap<K, Option<V>>>,
    settled: Condvar,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            settled: Condvar::new(),
        }
    }
}

/// What [`SingleFlight::claim`] found for a set of keys. The keys in
/// `mine` are released on drop unless published.
pub(crate) struct Claim<'a, K: Ord + Clone, V: Clone> {
    memo: &'a SingleFlight<K, V>,
    /// Already computed.
    pub(crate) ready: Vec<(K, V)>,
    /// Newly claimed by the caller.
    pub(crate) mine: Vec<K>,
    /// Being computed by another caller.
    pub(crate) elsewhere: Vec<K>,
}

impl<K: Ord + Clone, V: Clone> Claim<'_, K, V> {
    /// Publishes `values` for the claimed keys in claim order and wakes
    /// the waiters; keys left without a value stay claimed.
    pub(crate) fn publish(&mut self, values: Vec<V>) -> Vec<(K, V)> {
        let n = values.len().min(self.mine.len());
        let keys: Vec<K> = self.mine.drain(..n).collect();
        let mut slots = self.memo.slots();
        for (key, value) in keys.iter().zip(&values) {
            slots.insert(key.clone(), Some(value.clone()));
        }
        drop(slots);
        self.memo.settled.notify_all();
        keys.into_iter().zip(values).collect()
    }

    /// Releases the caller's unpublished claims, then blocks until no
    /// key in `elsewhere` is in flight: each is computed, or released
    /// and free to claim.
    pub(crate) fn wait(mut self) {
        let (memo, elsewhere) = (self.memo, std::mem::take(&mut self.elsewhere));
        drop(self);
        let mut slots = memo.slots();
        while elsewhere.iter().any(|k| matches!(slots.get(k), Some(None))) {
            slots = memo
                .settled
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<K: Ord + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        if self.mine.is_empty() {
            return;
        }
        let mut slots = self.memo.slots();
        for key in self.mine.drain(..) {
            if matches!(slots.get(&key), Some(None)) {
                slots.remove(&key);
            }
        }
        drop(slots);
        self.memo.settled.notify_all();
    }
}

impl<K: Ord + Clone, V: Clone> SingleFlight<K, V> {
    fn slots(&self) -> MutexGuard<'_, BTreeMap<K, Option<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sorts `keys` into computed, newly claimed and in flight.
    pub(crate) fn claim<'k>(&self, keys: impl IntoIterator<Item = &'k K>) -> Claim<'_, K, V>
    where
        K: 'k,
    {
        let mut claim = Claim {
            memo: self,
            ready: Vec::new(),
            mine: Vec::new(),
            elsewhere: Vec::new(),
        };
        let mut slots = self.slots();
        for key in keys {
            match slots.get(key) {
                Some(Some(value)) => claim.ready.push((key.clone(), value.clone())),
                Some(None) => claim.elsewhere.push(key.clone()),
                None => {
                    slots.insert(key.clone(), None);
                    claim.mine.push(key.clone());
                }
            }
        }
        claim
    }

    /// The value of `key`, computed by `compute` only if nobody has or
    /// is computing it.
    pub(crate) fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        loop {
            let mut claim = self.claim([key]);
            if let Some((_, value)) = claim.ready.pop() {
                return value;
            }
            if !claim.mine.is_empty() {
                let value = compute();
                claim.publish(vec![value.clone()]);
                return value;
            }
            claim.wait();
        }
    }

    /// Computes every key of `keys` that nobody has computed, one claim
    /// at a time, and returns how many this call computed. Keys in
    /// flight elsewhere are skipped until the free ones are done, then
    /// waited out (and computed if their claimant released them), so
    /// callers that need the same keys split the work between them.
    pub(crate) fn compute_each(&self, keys: &[K], compute: impl Fn(usize) -> V) -> usize {
        let mut computed = 0;
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        while !pending.is_empty() {
            let mut busy = Vec::new();
            for i in pending {
                let mut claim = self.claim([&keys[i]]);
                if !claim.mine.is_empty() {
                    claim.publish(vec![compute(i)]);
                    computed += 1;
                } else if !claim.elsewhere.is_empty() {
                    busy.push(i);
                }
            }
            if let Some(&first) = busy.first() {
                self.claim([&keys[first]]).wait();
            }
            pending = busy;
        }
        computed
    }

    /// A memo holding this one's computed values and nothing in flight.
    pub(crate) fn settled_copy(&self) -> Self {
        let slots = self.slots();
        let settled = slots.iter().filter(|(_, value)| value.is_some());
        Self {
            slots: Mutex::new(settled.map(|(k, v)| (k.clone(), v.clone())).collect()),
            settled: Condvar::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn each_key_computes_once_however_many_callers_race() {
        let memo: SingleFlight<u32, u32> = SingleFlight::default();
        let runs = AtomicUsize::new(0);
        let gate = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    gate.wait();
                    for key in 0..8 {
                        let value = memo.get_or_compute(&key, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            key * 10
                        });
                        assert_eq!(value, key * 10);
                    }
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn distinct_keys_compute_concurrently() {
        // Each computation waits for the other to start: under one
        // lock held across computations this would never return.
        let memo: SingleFlight<u32, u32> = SingleFlight::default();
        let both_running = Barrier::new(2);
        std::thread::scope(|s| {
            for key in 0..2 {
                let (memo, both_running) = (&memo, &both_running);
                s.spawn(move || {
                    memo.get_or_compute(&key, || {
                        both_running.wait();
                        key
                    })
                });
            }
        });
    }

    #[test]
    fn callers_needing_the_same_keys_split_them() {
        // Each computation waits for a second one to start: a caller
        // that computed both keys alone would never return.
        let memo: SingleFlight<u32, u32> = SingleFlight::default();
        let both_running = Barrier::new(2);
        let computed = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        memo.compute_each(&[0, 1], |i| {
                            both_running.wait();
                            i as u32
                        })
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(computed, [1, 1]);
        assert_eq!(memo.claim(&[0, 1]).ready, [(0, 0), (1, 1)]);
    }

    #[test]
    fn a_panicking_computation_releases_its_claim() {
        let memo: SingleFlight<u32, Arc<str>> = SingleFlight::default();
        let attempt = std::panic::AssertUnwindSafe(|| memo.get_or_compute(&1, || panic!("boom")));
        assert!(std::panic::catch_unwind(attempt).is_err());
        assert_eq!(&*memo.get_or_compute(&1, || "ok".into()), "ok");
        assert_eq!(&*memo.get_or_compute(&1, || "again".into()), "ok");
    }

    #[test]
    fn unpublished_keys_are_released_and_copies_skip_claims() {
        let memo: SingleFlight<u32, u32> = SingleFlight::default();
        let mut claim = memo.claim(&[1, 2]);
        assert_eq!(claim.mine, [1, 2]);
        assert_eq!(claim.publish(vec![10]), [(1, 10)]);
        assert_eq!(claim.mine, [2], "a short publish leaves key 2 claimed");
        let copy = memo.settled_copy();
        assert_eq!(copy.claim(&[2]).mine, [2], "claims are not copied");
        let other = memo.claim(&[1, 2]);
        assert_eq!(
            (other.ready.as_slice(), other.elsewhere.as_slice()),
            (&[(1, 10)][..], &[2][..])
        );
        drop(claim);
        other.wait();
        assert_eq!(memo.claim(&[2]).mine, [2], "the drop released key 2");
    }
}
