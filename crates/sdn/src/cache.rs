//! The enforcement-rule cache (Sect. V).
//!
//! "Enforcement rules are stored in a hash table structure to minimize
//! the lookup time as the enforcement rule cache grows." The cache also
//! tracks lookup statistics and its approximate memory footprint, which
//! the Fig. 6c experiment sweeps against the rule count, and supports
//! removing rules for departed devices, the paper's strategy for
//! bounding memory use.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use sentinel_netproto::MacAddr;

use crate::EnforcementRule;

/// Fixed per-entry bookkeeping overhead used in the memory estimate
/// (hash bucket, recency stamp, table slack). It defines the Fig. 6c
/// counter, so it stays fixed while the entry layout shrinks.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// One cached rule: stored once, keyed by its own MAC. The set hands out
/// only shared references, so the recency stamp a lookup writes is a
/// `Cell`.
struct Entry {
    rule: EnforcementRule,
    last_used: Cell<u64>,
}

impl Borrow<MacAddr> for Entry {
    fn borrow(&self) -> &MacAddr {
        &self.rule.mac
    }
}

// Hash and equality see only the MAC, as `Borrow` requires.
impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rule.mac.hash(state);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rule.mac == other.rule.mac
    }
}

impl Eq for Entry {}

/// A MAC-keyed hash cache of [`EnforcementRule`]s with O(1) lookup.
#[derive(Default)]
pub struct RuleCache {
    entries: HashSet<Entry>,
    lookups: u64,
    hits: u64,
    clock: u64,
    generation: u64,
}

impl std::fmt::Debug for RuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleCache")
            .field("rules", &self.entries.len())
            .field("lookups", &self.lookups)
            .field("hits", &self.hits)
            .finish()
    }
}

impl RuleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the rule for the rule's device, returning the
    /// previous rule if one existed.
    pub fn insert(&mut self, rule: EnforcementRule) -> Option<EnforcementRule> {
        self.clock += 1;
        self.generation += 1;
        self.entries
            .replace(Entry {
                rule,
                last_used: Cell::new(self.clock),
            })
            .map(|e| e.rule)
    }

    /// Looks up the rule for `mac`, updating hit statistics and recency.
    pub fn lookup(&mut self, mac: MacAddr) -> Option<&EnforcementRule> {
        self.lookups += 1;
        self.clock += 1;
        match self.entries.get(&mac) {
            Some(entry) => {
                self.hits += 1;
                entry.last_used.set(self.clock);
                Some(&entry.rule)
            }
            None => None,
        }
    }

    /// Reads the rule for `mac` without touching statistics.
    pub fn get(&self, mac: MacAddr) -> Option<&EnforcementRule> {
        self.entries.get(&mac).map(|e| &e.rule)
    }

    /// Removes the rule for `mac` (a device leaving the network).
    pub fn remove(&mut self, mac: MacAddr) -> Option<EnforcementRule> {
        let removed = self.entries.take(&mac)?;
        self.generation += 1;
        Some(removed.rule)
    }

    /// A counter that moves whenever the rule set changes
    /// ([`insert`](Self::insert), [`remove`](Self::remove),
    /// [`evict_to`](Self::evict_to)). Whoever caches a decision derived
    /// from these rules — the switch's flow table — remembers the
    /// generation it decided under and discards its cache when this
    /// differs, so a changed or departed rule reaches flows that were
    /// already installed.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The number of cached rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no rules.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total lookup hits. Fleet-level aggregation must sum `hits` and
    /// `lookups` across caches and divide once — averaging per-cache
    /// ratios lets idle gateways skew the fleet number.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup hit ratio in `[0, 1]`. A cache that has never been looked
    /// up has no hits to report, so the ratio is 0.0 — not 1.0, which
    /// would inflate aggregation over mostly-idle caches.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Approximate memory footprint of the cache in bytes (the Fig. 6c
    /// quantity): the rules and their per-entry bookkeeping, not the
    /// cache-wide counters.
    pub fn memory_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.rule.memory_bytes() + ENTRY_OVERHEAD_BYTES)
            .sum()
    }

    /// Evicts least-recently-used rules until at most `max_rules` remain,
    /// returning the evicted rules ("removing unused enforcement rules …
    /// from the cache", Sect. VI-C).
    pub fn evict_to(&mut self, max_rules: usize) -> Vec<EnforcementRule> {
        if self.entries.len() <= max_rules {
            return Vec::new();
        }
        let mut order: Vec<(u64, MacAddr)> = self
            .entries
            .iter()
            .map(|e| (e.last_used.get(), e.rule.mac))
            .collect();
        order.sort_unstable();
        let excess = self.entries.len() - max_rules;
        order
            .into_iter()
            .take(excess)
            .filter_map(|(_, mac)| self.remove(mac))
            .collect()
    }

    /// Iterates over the cached rules in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &EnforcementRule> {
        self.entries.iter().map(|e| &e.rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([0, 0, 0, 0, 0, last])
    }

    #[test]
    fn insert_lookup_remove() {
        let mut cache = RuleCache::new();
        assert!(cache.is_empty());
        cache.insert(EnforcementRule::trusted(mac(1)));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(mac(1)).is_some());
        assert!(cache.lookup(mac(2)).is_none());
        assert_eq!(cache.hit_ratio(), 0.5);
        assert_eq!((cache.hits(), cache.lookups()), (1, 2));
        assert!(cache.remove(mac(1)).is_some());
        assert!(cache.is_empty());
    }

    #[test]
    fn idle_cache_reports_zero_hit_ratio() {
        // Regression: a never-looked-up cache used to report 1.0, which
        // ratio-averaging over a mostly-idle fleet would inflate.
        let cache = RuleCache::new();
        assert_eq!(cache.hit_ratio(), 0.0);
        let mut warm = RuleCache::new();
        warm.insert(EnforcementRule::strict(mac(1)));
        assert_eq!(warm.hit_ratio(), 0.0, "inserts alone are not lookups");
        warm.lookup(mac(1));
        assert_eq!(warm.hit_ratio(), 1.0);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut cache = RuleCache::new();
        cache.insert(EnforcementRule::strict(mac(1)));
        let old = cache.insert(EnforcementRule::trusted(mac(1)));
        assert_eq!(old.unwrap().level, crate::IsolationLevel::Strict);
        assert_eq!(
            cache.get(mac(1)).unwrap().level,
            crate::IsolationLevel::Trusted
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn memory_grows_linearly_with_rules() {
        let mut cache = RuleCache::new();
        let mut previous = cache.memory_bytes();
        let mut deltas = Vec::new();
        for i in 0..100u8 {
            cache.insert(EnforcementRule::strict(mac(i)));
            let now = cache.memory_bytes();
            deltas.push(now - previous);
            previous = now;
        }
        assert!(
            deltas.windows(2).all(|w| w[0] == w[1]),
            "constant per-rule cost"
        );
        assert!(previous > 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = RuleCache::new();
        for i in 0..4u8 {
            cache.insert(EnforcementRule::strict(mac(i)));
        }
        // Touch 0 and 1 so 2 becomes the coldest.
        cache.lookup(mac(0));
        cache.lookup(mac(1));
        let evicted = cache.evict_to(2);
        let evicted_macs: Vec<MacAddr> = evicted.iter().map(|r| r.mac).collect();
        assert_eq!(evicted.len(), 2);
        assert!(evicted_macs.contains(&mac(2)));
        assert!(evicted_macs.contains(&mac(3)));
        assert!(cache.get(mac(0)).is_some());
        assert!(cache.get(mac(1)).is_some());
    }

    #[test]
    fn generation_moves_exactly_when_the_rule_set_does() {
        let mut cache = RuleCache::new();
        let mut last = cache.generation();
        let mut moved = |cache: &RuleCache| {
            std::mem::replace(&mut last, cache.generation()) != cache.generation()
        };
        cache.insert(EnforcementRule::strict(mac(1)));
        assert!(moved(&cache), "insert");
        cache.insert(EnforcementRule::trusted(mac(1)));
        assert!(moved(&cache), "replace");
        cache.insert(EnforcementRule::strict(mac(2)));
        assert!(moved(&cache));
        cache.lookup(mac(1));
        cache.get(mac(2));
        cache.remove(mac(9));
        cache.evict_to(2);
        assert!(!moved(&cache), "reads, absent removals, no-op evictions");
        cache.evict_to(1);
        assert!(moved(&cache), "eviction");
        cache.remove(mac(1));
        assert!(moved(&cache), "remove");
    }

    #[test]
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn evict_noop_when_under_limit() {
        let mut cache = RuleCache::new();
        cache.insert(EnforcementRule::strict(mac(1)));
        assert!(cache.evict_to(10).is_empty());
        assert_eq!(cache.len(), 1);
    }
}
