//! Cross-trigger fuzzy-score caching for host ranking.
//!
//! The server-selection score is a pure function of the ten crisp
//! [`crate::inputs::ServerInputs`] lanes and the engine (action kind +
//! service-specific rule base, if any). Two layers exploit that:
//!
//! - a **pattern memo** keyed on the exact `[u64; 10]` bit pattern of the
//!   lanes — a large pool is mostly identical idle servers, which collapse
//!   to one engine evaluation per distinct tier/load combination. Because
//!   the score depends on nothing but the engine and the bit pattern, the
//!   memo is *revision-independent*: it survives landscape mutations and
//!   only empties on engine swaps (`ScoreCache::clear`) or capacity
//!   overflow. A hit returns the exact bits an engine evaluation of the
//!   same pattern produced, so persistence cannot perturb outputs;
//! - an **incremental verdict layer** keyed per server: the input bits and
//!   score of the server's last evaluation. When the server's lanes are
//!   bit-for-bit unchanged since then, the cached verdict is reused — a
//!   dense array probe instead of hashing the 88-byte pattern key, and
//!   trivially bit-identical to re-inference. Unlike the pattern memo this
//!   layer is epoch-cleared: any landscape mutation (seen via
//!   [`autoglobe_landscape::Landscape::revision`]) flushes it, keeping the
//!   per-server anchors scoped to one allocation.
//!
//! Both layers are bounded; overflowing the size caps below flushes the
//! overflowing layer.

use autoglobe_landscape::{ActionKind, ServerId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic multiply-rotate hasher for the cache maps.
///
/// The keys here are content-derived (`[u64; 10]` input lanes, server ids,
/// engine slots), not attacker-controlled, and map iteration order is never
/// observed — only `get`/`insert` — so SipHash's DoS resistance buys
/// nothing while dominating lookup cost on the 88-byte pattern keys. One
/// multiply + rotate per word is plenty of diffusion for bit patterns of
/// load values, and being deterministic it cannot perturb reproducibility.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` over the deterministic [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Pattern-memo capacity; overflow clears the memo (a full clear is cheaper
/// and simpler than eviction, and patterns re-memoize in one pass).
const MAX_PATTERN_ENTRIES: usize = 1 << 16;

/// Verdict-layer capacity (naturally bounded by servers × engines, but
/// capped defensively all the same).
const MAX_VERDICT_ENTRIES: usize = 1 << 18;

/// Counters and sizes of the controller's score cache, for tests, consoles
/// and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreCacheStats {
    /// Lookups answered by the exact-bit-pattern memo.
    pub pattern_hits: u64,
    /// Lookups answered by the per-server verdict layer.
    pub incremental_hits: u64,
    /// Lookups that fell through to engine evaluation.
    pub misses: u64,
    /// Times the cache was flushed (landscape revision change, manual
    /// clear, or capacity overflow).
    pub clears: u64,
    /// Live pattern-memo entries.
    pub pattern_entries: usize,
    /// Live verdict entries.
    pub verdict_entries: usize,
}

/// A server's last evaluated input bits and the score they produced.
/// `epoch` stamps the flush generation the verdict was stored in; a stale
/// stamp reads as absent, so flushing the dense layer is one counter bump
/// instead of a wipe.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    epoch: u64,
    bits: [u64; 10],
    score: f64,
}

impl Verdict {
    /// A never-valid slot filler: epoch 0 predates the first live epoch.
    const EMPTY: Verdict = Verdict {
        epoch: 0,
        bits: [0; 10],
        score: 0.0,
    };
}

/// The bounded, epoch-cleared score cache held by the controller.
#[derive(Debug)]
pub(crate) struct ScoreCache {
    /// Landscape revision the cached entries were computed against.
    revision: Option<u64>,
    /// Interned `(action kind, engine key)` pairs; index = engine slot.
    /// Engine keys follow [`crate::selection::ServerSelector::engine_key`],
    /// so services sharing the default-base engine share cache entries too.
    engines: Vec<(ActionKind, String)>,
    patterns: FastMap<(u32, [u64; 10]), f64>,
    /// Dense verdict layer: `verdicts[slot][server.index()]`, epoch-stamped.
    /// Ranking touches every eligible server each call, so the layer is hit
    /// and re-anchored thousands of times per tick — a direct array access
    /// beats hashing an 88-byte key on both sides, and an epoch bump makes
    /// the per-revision flush free instead of a full-map wipe.
    verdicts: Vec<Vec<Verdict>>,
    /// Flush generation; only verdicts stamped with it are live.
    epoch: u64,
    /// Live verdict count (entries stamped with the current epoch).
    verdict_count: usize,
    pattern_hits: u64,
    incremental_hits: u64,
    misses: u64,
    clears: u64,
}

impl Default for ScoreCache {
    fn default() -> Self {
        ScoreCache {
            revision: None,
            engines: Vec::new(),
            patterns: FastMap::default(),
            verdicts: Vec::new(),
            // Epoch 0 is reserved for [`Verdict::EMPTY`]; live epochs start
            // above it so freshly grown slots never read as valid.
            epoch: 1,
            verdict_count: 0,
            pattern_hits: 0,
            incremental_hits: 0,
            misses: 0,
            clears: 0,
        }
    }
}

impl ScoreCache {
    /// Flush the per-server verdict layer if the landscape changed since its
    /// anchors were stored. The pattern memo deliberately survives: a score
    /// is a pure function of engine slot and input bits, so a pattern entry
    /// stays exact across any allocation change, while verdict anchors are
    /// per-server state that should not outlive the allocation they
    /// described.
    pub(crate) fn sync_revision(&mut self, revision: u64) {
        if self.revision != Some(revision) {
            if self.revision.is_some() {
                self.clears += 1;
            }
            self.flush_verdicts();
            self.revision = Some(revision);
        }
    }

    /// Invalidate every verdict by moving to the next epoch; storage is
    /// kept for reuse.
    fn flush_verdicts(&mut self) {
        self.epoch += 1;
        self.verdict_count = 0;
    }

    /// Unconditionally flush all cached scores (e.g. after swapping rule
    /// bases or engine configuration).
    pub(crate) fn clear(&mut self) {
        self.patterns.clear();
        self.flush_verdicts();
        self.revision = None;
        self.clears += 1;
    }

    /// Intern an `(action, engine key)` pair into a compact slot id.
    pub(crate) fn engine_slot(&mut self, kind: ActionKind, engine_key: &str) -> u32 {
        if let Some(i) = self
            .engines
            .iter()
            .position(|(k, s)| *k == kind && s == engine_key)
        {
            return i as u32;
        }
        self.engines.push((kind, engine_key.to_string()));
        (self.engines.len() - 1) as u32
    }

    /// The incremental layer: the cached verdict for `server`, if its input
    /// bits are unchanged since the last evaluation.
    pub(crate) fn incremental_lookup(
        &mut self,
        slot: u32,
        server: ServerId,
        bits: &[u64; 10],
    ) -> Option<f64> {
        let verdict = self
            .verdicts
            .get(slot as usize)?
            .get(server.index())
            .filter(|v| v.epoch == self.epoch && v.bits == *bits)?;
        self.incremental_hits += 1;
        Some(verdict.score)
    }

    /// The pattern memo: the score of an exact input bit pattern, if any
    /// server with these inputs was evaluated this epoch.
    pub(crate) fn pattern_lookup(&mut self, slot: u32, bits: &[u64; 10]) -> Option<f64> {
        match self.patterns.get(&(slot, *bits)) {
            Some(&score) => {
                self.pattern_hits += 1;
                Some(score)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a freshly evaluated pattern.
    pub(crate) fn insert_pattern(&mut self, slot: u32, bits: [u64; 10], score: f64) {
        if self.patterns.len() >= MAX_PATTERN_ENTRIES {
            self.patterns.clear();
            self.clears += 1;
        }
        self.patterns.insert((slot, bits), score);
    }

    /// Anchor a server's verdict at the inputs it was scored at (a verdict
    /// hit already holds its anchor, so callers skip it).
    pub(crate) fn store_verdict(
        &mut self,
        slot: u32,
        server: ServerId,
        bits: [u64; 10],
        score: f64,
    ) {
        if self.verdict_count >= MAX_VERDICT_ENTRIES {
            self.flush_verdicts();
            self.clears += 1;
        }
        let slot = slot as usize;
        if self.verdicts.len() <= slot {
            self.verdicts.resize(slot + 1, Vec::new());
        }
        let lane = &mut self.verdicts[slot];
        let at = server.index();
        if lane.len() <= at {
            lane.resize(at + 1, Verdict::EMPTY);
        }
        if lane[at].epoch != self.epoch {
            self.verdict_count += 1;
        }
        lane[at] = Verdict {
            epoch: self.epoch,
            bits,
            score,
        };
    }

    /// Current counters and sizes.
    pub(crate) fn stats(&self) -> ScoreCacheStats {
        ScoreCacheStats {
            pattern_hits: self.pattern_hits,
            incremental_hits: self.incremental_hits,
            misses: self.misses,
            clears: self.clears,
            pattern_entries: self.patterns.len(),
            verdict_entries: self.verdict_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

    #[test]
    fn pattern_memo_survives_revisions_while_verdicts_flush() {
        let mut cache = ScoreCache::default();
        cache.sync_revision(7);
        let slot = cache.engine_slot(ActionKind::Move, "");
        let server = ServerId::new(3);
        assert_eq!(cache.pattern_lookup(slot, &BITS), None);
        cache.insert_pattern(slot, BITS, 0.75);
        cache.store_verdict(slot, server, BITS, 0.75);
        assert_eq!(cache.pattern_lookup(slot, &BITS), Some(0.75));
        // Same revision: both layers survive.
        cache.sync_revision(7);
        assert_eq!(cache.pattern_lookup(slot, &BITS), Some(0.75));
        assert_eq!(cache.incremental_lookup(slot, server, &BITS), Some(0.75));
        // Landscape changed: verdict anchors flush, the pure-function
        // pattern memo stays warm.
        cache.sync_revision(8);
        assert_eq!(cache.incremental_lookup(slot, server, &BITS), None);
        assert_eq!(cache.pattern_lookup(slot, &BITS), Some(0.75));
        let stats = cache.stats();
        assert_eq!(stats.clears, 1);
        assert_eq!(stats.verdict_entries, 0);
        assert_eq!(stats.pattern_entries, 1);
        // Engine swap: everything goes.
        cache.clear();
        assert_eq!(cache.pattern_lookup(slot, &BITS), None);
    }

    #[test]
    fn engine_slots_separate_actions_and_service_keys() {
        let mut cache = ScoreCache::default();
        let a = cache.engine_slot(ActionKind::Move, "");
        let b = cache.engine_slot(ActionKind::ScaleUp, "");
        let c = cache.engine_slot(ActionKind::Move, "DB");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cache.engine_slot(ActionKind::Move, ""));
        cache.insert_pattern(a, BITS, 0.5);
        assert_eq!(cache.pattern_lookup(b, &BITS), None, "slots are isolated");
    }

    #[test]
    fn incremental_gate_is_exact_bit_equality() {
        let mut cache = ScoreCache::default();
        let slot = cache.engine_slot(ActionKind::Move, "");
        let server = ServerId::new(3);
        cache.store_verdict(slot, server, BITS, 0.6);
        assert_eq!(cache.incremental_lookup(slot, server, &BITS), Some(0.6));
        let mut moved_bits = BITS;
        moved_bits[0] ^= 1;
        assert_eq!(
            cache.incremental_lookup(slot, server, &moved_bits),
            None,
            "any bit change defeats the exact gate"
        );
    }

    #[test]
    fn capacity_overflow_flushes_instead_of_growing() {
        let mut cache = ScoreCache::default();
        let slot = cache.engine_slot(ActionKind::Move, "");
        for i in 0..(MAX_PATTERN_ENTRIES + 10) as u64 {
            let mut bits = BITS;
            bits[0] = i;
            cache.insert_pattern(slot, bits, 0.5);
        }
        assert!(cache.stats().pattern_entries <= MAX_PATTERN_ENTRIES);
        assert!(cache.stats().clears >= 1);
    }
}
