//! The byte-budgeted LRU map of the prepared-cell cache and the result
//! cache, each behind its own lock. Recency is a lazy queue of `(key,
//! stamp)` slots: a hit pushes a fresh slot, and eviction skips slots whose
//! stamp no longer matches. The queue is rebuilt from the live entries once
//! stale slots outnumber them, so it stays within `2 × entries + 16` slots
//! however often one key is hit.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

struct Slot<V> {
    value: V,
    bytes: u64,
    /// Matches the newest queue slot of this key.
    stamp: u64,
}

pub(crate) struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Least recent first; slots whose stamp no longer matches are stale.
    queue: VecDeque<(K, u64)>,
    tick: u64,
    bytes: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            bytes: 0,
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// Look up `key`, making it the most recently used entry.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let slot = self.map.get_mut(key)?;
        slot.stamp = self.tick;
        self.queue.push_back((*key, self.tick));
        self.tidy();
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Insert `value` charged at `bytes`, replacing any entry under `key`,
    /// then evict least-recently-used entries until the total fits
    /// `budget` (the new entry is never evicted; callers reject entries
    /// larger than the whole budget). Returns how many entries were
    /// evicted; a replaced entry is not counted.
    pub(crate) fn insert(&mut self, key: K, value: V, bytes: u64, budget: u64) -> u64 {
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        let mut evicted = 0;
        while self.bytes + bytes > budget {
            let Some((victim, stamp)) = self.queue.pop_front() else {
                break;
            };
            if self.map.get(&victim).is_some_and(|s| s.stamp == stamp) {
                let slot = self.map.remove(&victim).expect("checked above");
                self.bytes -= slot.bytes;
                evicted += 1;
            }
        }
        self.tick += 1;
        let stamp = self.tick;
        self.queue.push_back((key, stamp));
        self.map.insert(
            key,
            Slot {
                value,
                bytes,
                stamp,
            },
        );
        self.bytes += bytes;
        self.tidy();
        evicted
    }

    /// Look up `key` without touching its recency.
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Remove `key`'s entry, refunding its bytes.
    pub(crate) fn remove(&mut self, key: &K) {
        if let Some(slot) = self.map.remove(key) {
            self.bytes -= slot.bytes;
        }
    }

    /// Keep only the entries `keep` accepts; returns how many were removed.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, slot| keep(k, &slot.value));
        self.bytes = self.map.values().map(|slot| slot.bytes).sum();
        self.tidy();
        (before - self.map.len()) as u64
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes charged by the resident entries.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rebuild the queue from the live entries once stale slots outnumber
    /// them.
    fn tidy(&mut self) {
        if self.queue.len() <= 2 * self.map.len() + 16 {
            return;
        }
        let mut live: Vec<(K, u64)> = self.map.iter().map(|(k, s)| (*k, s.stamp)).collect();
        live.sort_unstable_by_key(|&(_, stamp)| stamp);
        self.queue = live.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_recency_and_a_bounded_queue() {
        let mut lru: Lru<u32, &str> = Lru::default();
        assert_eq!(lru.insert(1, "a", 40, 100), 0);
        assert_eq!(lru.insert(2, "b", 40, 100), 0);
        // Touch 1 so 2 is the victim.
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.insert(3, "c", 40, 100), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!((lru.len(), lru.bytes()), (2, 80));
        // Replacing a key refunds its old bytes and evicts nothing.
        assert_eq!(lru.insert(3, "c'", 50, 100), 0);
        assert_eq!((lru.len(), lru.bytes()), (2, 90));
        // One hot key: the queue stays bounded by the live entries.
        for _ in 0..100_000 {
            assert!(lru.get(&1).is_some());
            assert!(lru.queue.len() <= 2 * lru.len() + 16);
        }
        // 3 is now least recent, then 1.
        assert_eq!(lru.insert(4, "d", 40, 100), 1);
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.insert(5, "e", 60, 100), 1);
        assert_eq!(lru.get(&1), None);
        assert_eq!((lru.len(), lru.bytes()), (2, 100));
        // A peek leaves recency alone; a removal refunds its bytes.
        assert_eq!(lru.peek(&4), Some(&"d"));
        assert_eq!(lru.insert(6, "f", 40, 100), 1);
        assert_eq!(lru.peek(&4), None);
        lru.remove(&6);
        assert_eq!((lru.len(), lru.bytes()), (1, 60));
        assert_eq!(lru.retain(|k, _| *k == 5), 0);
        assert_eq!((lru.len(), lru.bytes()), (1, 60));
        assert_eq!(lru.retain(|_, _| false), 1);
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }
}
