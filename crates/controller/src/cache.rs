//! Cross-trigger fuzzy-score caching for host ranking.
//!
//! The server-selection score is a pure function of the engine (action
//! kind + service-specific rule base, if any) and the ten crisp
//! [`crate::inputs::ServerInputs`] lanes. The controller's cache keeps one
//! exact verdict per engine slot and server: the ten input bits the server
//! was last scored at, and the score they produced. A lookup hits only when
//! all ten bits are equal, so a hit returns exactly the bits an engine
//! evaluation of those inputs would.
//!
//! That is why no landscape revision flushes a verdict. An allocation
//! change reaches a server's score only through its lanes
//! (`instancesOnServer`), and a changed lane is a changed bit: that server
//! misses and is re-scored, while every server the change did not touch
//! keeps its verdict. Only [`AutoGlobeController::clear_score_cache`] — an
//! engine swap — empties the lanes.
//!
//! Memory is one 88-byte verdict per engine slot and server scored under
//! it; nothing is sized by a constant.
//!
//! [`AutoGlobeController::clear_score_cache`]: crate::AutoGlobeController::clear_score_cache

use autoglobe_landscape::{ActionKind, ServerId};

/// Counters and sizes of the controller's score cache, for tests, consoles
/// and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreCacheStats {
    /// Always 0. It counted the exact-pattern memo's hits; verdicts that
    /// outlive landscape revisions left that memo nothing to answer, and
    /// it was removed.
    pub pattern_hits: u64,
    /// Lookups answered by the server's verdict.
    pub incremental_hits: u64,
    /// Lookups that fell through to engine evaluation.
    pub misses: u64,
    /// Manual clears ([`crate::AutoGlobeController::clear_score_cache`]);
    /// landscape revisions never clear the cache.
    pub clears: u64,
    /// Live verdicts.
    pub verdict_entries: usize,
}

/// A server's last evaluated input bits and the score they produced.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    bits: [u64; 10],
    score: f64,
}

impl Verdict {
    /// An empty entry. Its bits are all ones, a NaN in every lane, and
    /// lookups take rows of finite lanes only, so it never hits.
    const EMPTY: Verdict = Verdict {
        bits: [u64::MAX; 10],
        score: 0.0,
    };
}

/// The exact per-server score cache held by the controller.
#[derive(Debug, Default)]
pub(crate) struct ScoreCache {
    /// Interned `(action kind, engine key)` pairs; index = engine slot.
    /// Engine keys follow [`crate::selection::ServerSelector::engine_key`],
    /// so services sharing the default-base engine share verdicts too.
    engines: Vec<(ActionKind, String)>,
    /// One dense verdict lane per engine slot: `lanes[slot][server.index()]`.
    lanes: Vec<Vec<Verdict>>,
    /// Live verdicts over all lanes.
    verdict_count: usize,
    incremental_hits: u64,
    misses: u64,
    clears: u64,
}

impl ScoreCache {
    /// Drop every verdict (after swapping rule bases or engine
    /// configuration).
    pub(crate) fn clear(&mut self) {
        self.lanes.clear();
        self.verdict_count = 0;
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

    /// The score `server` was last given under `slot`, if it was scored at
    /// exactly `bits` — a row of finite lanes.
    pub(crate) fn lookup(&mut self, slot: u32, server: ServerId, bits: &[u64; 10]) -> Option<f64> {
        let score = self
            .lanes
            .get(slot as usize)
            .and_then(|lane| lane.get(server.index()))
            .filter(|v| v.bits == *bits)
            .map(|v| v.score);
        match score {
            Some(_) => self.incremental_hits += 1,
            None => self.misses += 1,
        }
        score
    }

    /// Store `server`'s verdict under `slot`: the score its inputs `bits`
    /// produced.
    pub(crate) fn store(&mut self, slot: u32, server: ServerId, bits: [u64; 10], score: f64) {
        let slot = slot as usize;
        if self.lanes.len() <= slot {
            self.lanes.resize_with(slot + 1, Vec::new);
        }
        let lane = &mut self.lanes[slot];
        let at = server.index();
        if lane.len() <= at {
            lane.resize(at + 1, Verdict::EMPTY);
        }
        if lane[at].bits == Verdict::EMPTY.bits {
            self.verdict_count += 1;
        }
        lane[at] = Verdict { bits, score };
    }

    /// Current counters and sizes.
    pub(crate) fn stats(&self) -> ScoreCacheStats {
        ScoreCacheStats {
            pattern_hits: 0,
            incremental_hits: self.incremental_hits,
            misses: self.misses,
            clears: self.clears,
            verdict_entries: self.verdict_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

    #[test]
    fn engine_slots_separate_actions_and_service_keys() {
        let mut cache = ScoreCache::default();
        let a = cache.engine_slot(ActionKind::Move, "");
        let b = cache.engine_slot(ActionKind::ScaleUp, "");
        let c = cache.engine_slot(ActionKind::Move, "DB");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cache.engine_slot(ActionKind::Move, ""));
        let server = ServerId::new(3);
        cache.store(a, server, BITS, 0.5);
        assert_eq!(cache.lookup(b, server, &BITS), None, "slots are isolated");
        assert_eq!(cache.lookup(a, server, &BITS), Some(0.5));
    }

    #[test]
    fn incremental_gate_is_exact_bit_equality() {
        let mut cache = ScoreCache::default();
        let slot = cache.engine_slot(ActionKind::Move, "");
        let server = ServerId::new(3);
        cache.store(slot, server, BITS, 0.6);
        assert_eq!(cache.lookup(slot, server, &BITS), Some(0.6));
        for lane in 0..10 {
            let mut moved_bits = BITS;
            moved_bits[lane] ^= 1;
            assert_eq!(
                cache.lookup(slot, server, &moved_bits),
                None,
                "a bit change in lane {lane} defeats the exact gate"
            );
        }
        assert_eq!(
            cache.lookup(slot, ServerId::new(2), &BITS),
            None,
            "verdicts are per server"
        );
        let stats = cache.stats();
        assert_eq!((stats.incremental_hits, stats.misses), (1, 11));
    }

    #[test]
    fn only_a_clear_empties_the_lanes() {
        let mut cache = ScoreCache::default();
        let slot = cache.engine_slot(ActionKind::Move, "");
        cache.store(slot, ServerId::new(0), BITS, 0.25);
        cache.store(slot, ServerId::new(4), BITS, 0.75);
        cache.store(slot, ServerId::new(4), BITS, 0.75);
        assert_eq!(cache.stats().verdict_entries, 2);
        assert_eq!(cache.lookup(slot, ServerId::new(4), &BITS), Some(0.75));
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.verdict_entries, stats.clears), (0, 1));
        assert_eq!(cache.lookup(slot, ServerId::new(4), &BITS), None);
        assert_eq!(cache.lookup(slot, ServerId::new(0), &BITS), None);
    }
}
