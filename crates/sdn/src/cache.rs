//! The enforcement-rule cache (Sect. V).
//!
//! "Enforcement rules are stored in a hash table structure to minimize
//! the lookup time as the enforcement rule cache grows." The cache also
//! counts lookups and hits and estimates its memory footprint, which
//! the Fig. 6c experiment sweeps against the rule count, and removes the
//! rules of departed devices, the paper's strategy for bounding memory
//! use.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use sentinel_netproto::MacAddr;

use crate::EnforcementRule;

/// Fixed per-entry bookkeeping overhead used in the memory estimate
/// (hash bucket, table slack). It defines the Fig. 6c counter, so it
/// stays fixed while the entry layout shrinks.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// One cached rule: stored once, keyed by its own MAC.
struct Entry {
    rule: EnforcementRule,
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
        self.generation += 1;
        self.entries.replace(Entry { rule }).map(|e| e.rule)
    }

    /// Looks up the rule for `mac`, updating hit statistics.
    pub fn lookup(&mut self, mac: MacAddr) -> Option<&EnforcementRule> {
        self.lookups += 1;
        let rule = self.entries.get(&mac).map(|e| &e.rule);
        self.hits += u64::from(rule.is_some());
        rule
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
    /// ([`insert`](Self::insert), [`remove`](Self::remove)). Whoever
    /// caches a decision derived from these rules — the switch's flow
    /// table — remembers the generation it decided under and discards its
    /// cache when this differs, so a changed or departed rule reaches
    /// flows that were already installed.
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

    /// Approximate memory footprint of the cache in bytes (the Fig. 6c
    /// quantity): the rules and their per-entry bookkeeping, not the
    /// cache-wide counters.
    pub fn memory_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.rule.memory_bytes() + ENTRY_OVERHEAD_BYTES)
            .sum()
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
        assert_eq!((cache.hits(), cache.lookups()), (1, 2));
        assert!(cache.remove(mac(1)).is_some());
        assert!(cache.is_empty());
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
        assert!(!moved(&cache), "reads and absent removals");
        cache.remove(mac(1));
        assert!(moved(&cache), "remove");
    }

    #[test]
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        // No interior mutability is left, so a cache can be shared.
        fn is_sync<T: Sync>() {}
        is_sync::<RuleCache>();
    }
}
