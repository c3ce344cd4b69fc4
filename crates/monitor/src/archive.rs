//! The load archive: persistent aggregated historic load data.
//!
//! "A load archive stores aggregated historic load data. This data is used
//! to calculate the average load of services during their watchTime and to
//! initialize all resource variables of the fuzzy controller" (Section 2).
//! The paper's future work additionally mines it for load prediction — the
//! `autoglobe-forecast` crate consumes the daily-profile queries below.
//!
//! # Layout
//!
//! The archive is a list of *blocks*, kept sorted by start. A block covers
//! 64 consecutive bucket indices (index = time / bucket width), starting at
//! a multiple of 64. A subject gets a dense *slot* the first time one of its
//! samples is recorded, and a block holds one run of 64 cells per slot,
//! slot after slot: the cell of bucket `index` is
//! `cells[slot · 64 + (index − start)]`. A cell is 32 bytes: the CPU and
//! memory sums, the CPU maximum and the sample count; a count of 0 means
//! the bucket holds no data. Slots are dense over archived subjects, not
//! over ids, so an archive fed one shard's subjects stores only their runs.
//!
//! - A sample for the newest block is one write at a constant stride:
//!   O(1). A slot that first appears in the middle of a block appends its
//!   run to that block.
//! - A sample for an older block binary-searches the blocks: O(log b).
//!   When its block does not exist yet, the block is inserted in start
//!   order, shifting the later ones. An out-of-order sample lands in the
//!   same bucket, with the same effect on the sums, as it would have in
//!   time order, and a far-future timestamp adds one block, not a gap.
//! - A query for one subject binary-searches its first block and walks the
//!   subject's 64-cell run in each block up to its last, in ascending bucket
//!   order, so every float sum is taken in the same order whatever order
//!   the samples arrived in.
//!
//! # Input rules
//!
//! - Loads are clamped to `[0, 1]`; ±∞ clamp to 1 or 0.
//! - A sample whose CPU or memory load is NaN is dropped. One NaN would
//!   poison its bucket's sums and, through them, the same time-of-day slot
//!   of every later [`LoadArchive::daily_profile`].

use crate::subject::Subject;
use crate::time::{SimDuration, SimTime};

/// Bucket indices per block.
const SPAN: u64 = 64;

/// Cells per slot in a block.
const RUN: usize = SPAN as usize;

/// Slot-lane entry of a subject that was never archived.
const NO_SLOT: u32 = u32::MAX;

/// One aggregation bucket of one subject; `count == 0` means no data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Cell {
    sum_cpu: f64,
    sum_mem: f64,
    max_cpu: f64,
    count: u32,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 32);

impl Cell {
    fn add(&mut self, cpu: f64, mem: f64) {
        self.sum_cpu += cpu;
        self.sum_mem += mem;
        self.max_cpu = self.max_cpu.max(cpu);
        self.count += 1;
    }

    fn avg_cpu(&self) -> f64 {
        self.sum_cpu / self.count as f64
    }

    fn avg_mem(&self) -> f64 {
        self.sum_mem / self.count as f64
    }
}

/// The cells of 64 consecutive bucket indices from `start`, one run per
/// slot. Slots at or past `cells.len() / 64` hold no data here.
#[derive(Debug, Clone)]
struct Block {
    start: u64,
    cells: Vec<Cell>,
}

impl Block {
    /// The last bucket index the block covers. Inclusive, because the end
    /// `start + 64` of the block holding `u64::MAX` does not fit a `u64`.
    fn last(&self) -> u64 {
        self.start + (SPAN - 1)
    }

    fn run(&self, slot: usize) -> Option<&[Cell]> {
        self.cells.get(slot * RUN..(slot + 1) * RUN)
    }
}

/// The slot lane of `subject`'s kind, and its raw id.
fn lane_of(subject: Subject) -> (usize, usize) {
    match subject {
        Subject::Server(id) => (0, id.index()),
        Subject::Service(id) => (1, id.index()),
        Subject::Instance(id) => (2, id.index()),
    }
}

/// An aggregated load point returned by archive queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchivePoint {
    /// Start of the aggregation bucket.
    pub time: SimTime,
    /// Average CPU load in the bucket.
    pub avg_cpu: f64,
    /// Average memory load in the bucket.
    pub avg_mem: f64,
    /// Maximum CPU load in the bucket.
    pub max_cpu: f64,
}

/// Time-bucketed aggregated load storage, keyed by subject.
///
/// Blocks of 64 buckets hold every archived subject's cells (see the module
/// docs). Servers, services and instances each map their raw id to a slot
/// through one dense lane (ids are dense in this system), so the per-tick
/// record path resolves its subject with one array access.
#[derive(Debug, Clone)]
pub struct LoadArchive {
    bucket: SimDuration,
    /// Per kind (servers, services, instances): raw id → slot, or
    /// `NO_SLOT`.
    slots: [Vec<u32>; 3],
    /// The subject of each slot, in the order the slots were assigned.
    owners: Vec<Subject>,
    blocks: Vec<Block>,
}

impl LoadArchive {
    /// An archive aggregating into buckets of the given width
    /// (typical: one minute).
    ///
    /// # Panics
    /// Panics on a zero-width bucket.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket.as_secs() > 0, "bucket width must be positive");
        LoadArchive {
            bucket,
            slots: Default::default(),
            owners: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// The bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    fn bucket_index(&self, time: SimTime) -> u64 {
        time.as_secs() / self.bucket.as_secs()
    }

    fn slot(&self, subject: Subject) -> Option<usize> {
        let (kind, id) = lane_of(subject);
        match self.slots[kind].get(id) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    fn slot_or_insert(&mut self, subject: Subject) -> usize {
        let (kind, id) = lane_of(subject);
        let lane = &mut self.slots[kind];
        if lane.len() <= id {
            lane.resize(id + 1, NO_SLOT);
        }
        if lane[id] == NO_SLOT {
            lane[id] = self.owners.len() as u32;
            self.owners.push(subject);
        }
        lane[id] as usize
    }

    /// The block holding bucket `index`, inserted in start order when
    /// missing. A new block reserves a run for every slot known so far.
    fn block_mut(&mut self, index: u64) -> &mut Block {
        let start = index - index % SPAN;
        let at = match self.blocks.last() {
            Some(last) if last.start > start => self.blocks.partition_point(|b| b.start < start),
            Some(last) if last.start == start => self.blocks.len() - 1,
            _ => self.blocks.len(),
        };
        if self.blocks.get(at).is_none_or(|b| b.start != start) {
            let cells = Vec::with_capacity(self.owners.len() * RUN);
            self.blocks.insert(at, Block { start, cells });
        }
        &mut self.blocks[at]
    }

    /// Visit `subject`'s cells that hold data, for bucket indices in
    /// `[first, last]` (`first ≤ last`), in ascending index order.
    fn for_each_cell(
        &self,
        subject: Subject,
        first: u64,
        last: u64,
        mut visit: impl FnMut(u64, &Cell),
    ) {
        let Some(slot) = self.slot(subject) else {
            return;
        };
        let from = self.blocks.partition_point(|b| b.last() < first);
        for block in &self.blocks[from..] {
            if block.start > last {
                break;
            }
            let Some(run) = block.run(slot) else {
                continue;
            };
            let lo = first.saturating_sub(block.start) as usize;
            let hi = (last - block.start).min(SPAN - 1) as usize;
            for (offset, cell) in (lo as u64..).zip(&run[lo..=hi]) {
                if cell.count > 0 {
                    visit(block.start + offset, cell);
                }
            }
        }
    }

    /// Record a measurement. Loads are clamped to `[0, 1]`; a sample with
    /// a NaN load is dropped (see the module docs).
    pub fn record(&mut self, subject: Subject, time: SimTime, cpu: f64, mem: f64) {
        if cpu.is_nan() || mem.is_nan() {
            return;
        }
        let index = self.bucket_index(time);
        let slot = self.slot_or_insert(subject);
        let block = self.block_mut(index);
        let at = slot * RUN + (index - block.start) as usize;
        if block.cells.len() <= at {
            block.cells.resize((slot + 1) * RUN, Cell::default());
        }
        block.cells[at].add(cpu.clamp(0.0, 1.0), mem.clamp(0.0, 1.0));
    }

    /// Average CPU load of `subject` over `[from, to)`. `None` if nothing
    /// was recorded there. When `to` falls in `from`'s bucket or before
    /// it, the range is `from`'s bucket alone.
    pub fn average_cpu(&self, subject: Subject, from: SimTime, to: SimTime) -> Option<f64> {
        let (lo, hi) = (self.bucket_index(from), self.bucket_index(to));
        let mut sum = 0.0;
        let mut count = 0u64;
        self.for_each_cell(subject, lo, hi.saturating_sub(1).max(lo), |_, cell| {
            sum += cell.sum_cpu;
            count += cell.count as u64;
        });
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// The aggregated series of `subject` over `[from, to)`, one point per
    /// bucket that holds data.
    pub fn series(&self, subject: Subject, from: SimTime, to: SimTime) -> Vec<ArchivePoint> {
        let (lo, hi) = (self.bucket_index(from), self.bucket_index(to));
        let mut points = Vec::new();
        if hi > lo {
            self.for_each_cell(subject, lo, hi - 1, |index, cell| {
                points.push(ArchivePoint {
                    time: SimTime::from_secs(index * self.bucket.as_secs()),
                    avg_cpu: cell.avg_cpu(),
                    avg_mem: cell.avg_mem(),
                    max_cpu: cell.max_cpu,
                });
            });
        }
        points
    }

    /// The average *daily profile* of `subject`: average CPU load per
    /// time-of-day slot of width `slot`, across all recorded days. Slot `i`
    /// covers `[i · slot, (i+1) · slot)` of the day. Slots with no data are
    /// 0. This is the pattern-matching substrate for load forecasting
    /// (paper Section 7 / \[8\]).
    pub fn daily_profile(&self, subject: Subject, slot: SimDuration) -> Vec<f64> {
        let slot_secs = slot.as_secs().max(1);
        let slots = (86_400 / slot_secs) as usize;
        let mut sums = vec![0.0; slots];
        let mut counts = vec![0u64; slots];
        self.for_each_cell(subject, 0, u64::MAX, |index, cell| {
            let start = index * self.bucket.as_secs();
            let slot_idx = ((start % 86_400) / slot_secs) as usize;
            if slot_idx < slots {
                sums[slot_idx] += cell.sum_cpu;
                counts[slot_idx] += cell.count as u64;
            }
        });
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Subjects with recorded data: servers, then services, then instances,
    /// each in ascending id order (the order of [`Subject`]'s derived `Ord`).
    pub fn subjects(&self) -> impl Iterator<Item = Subject> + '_ {
        let mut present: Vec<Subject> = (0..self.owners.len())
            .filter(|&slot| {
                self.blocks
                    .iter()
                    .filter_map(|b| b.run(slot))
                    .any(|run| run.iter().any(|c| c.count > 0))
            })
            .map(|slot| self.owners[slot])
            .collect();
        present.sort_unstable();
        present.into_iter()
    }

    /// Total number of non-empty buckets across all subjects (a size gauge).
    pub fn bucket_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.cells)
            .filter(|c| c.count > 0)
            .count()
    }

    /// Drop all data older than `horizon` before `now` (archive compaction):
    /// the blocks wholly below the cutoff, and the part of the first kept
    /// block below it.
    pub fn retain_recent(&mut self, now: SimTime, horizon: SimDuration) {
        let cutoff = self.bucket_index(now - horizon);
        let stale = self.blocks.partition_point(|b| b.last() < cutoff);
        self.blocks.drain(..stale);
        if let Some(block) = self.blocks.first_mut() {
            if block.start < cutoff {
                let cut = (cutoff - block.start) as usize;
                for run in block.cells.chunks_exact_mut(RUN) {
                    run[..cut].fill(Cell::default());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoglobe_landscape::ServerId;

    fn subject() -> Subject {
        Subject::Server(ServerId::new(0))
    }

    fn minute_archive() -> LoadArchive {
        LoadArchive::new(SimDuration::from_minutes(1))
    }

    #[test]
    fn record_and_average() {
        let mut a = minute_archive();
        let s = subject();
        a.record(s, SimTime::from_secs(10), 0.4, 0.1);
        a.record(s, SimTime::from_secs(20), 0.6, 0.1);
        a.record(s, SimTime::from_secs(70), 1.0, 0.2);
        // First bucket avg = 0.5; both buckets avg = (0.4+0.6+1.0)/3.
        assert!(
            (a.average_cpu(s, SimTime::ZERO, SimTime::from_secs(60))
                .unwrap()
                - 0.5)
                .abs()
                < 1e-12
        );
        assert!(
            (a.average_cpu(s, SimTime::ZERO, SimTime::from_secs(120))
                .unwrap()
                - 2.0 / 3.0)
                .abs()
                < 1e-12
        );
        assert_eq!(
            a.average_cpu(s, SimTime::from_hours(5), SimTime::from_hours(6)),
            None
        );
    }

    #[test]
    fn series_reports_buckets() {
        let mut a = minute_archive();
        let s = subject();
        for sec in [0u64, 30, 60, 90, 600] {
            a.record(s, SimTime::from_secs(sec), 0.5, 0.25);
        }
        let series = a.series(s, SimTime::ZERO, SimTime::from_minutes(11));
        assert_eq!(series.len(), 3); // buckets 0, 1, 10
        assert_eq!(series[0].time, SimTime::ZERO);
        assert_eq!(series[2].time, SimTime::from_minutes(10));
        assert!((series[0].avg_cpu - 0.5).abs() < 1e-12);
        assert!((series[0].avg_mem - 0.25).abs() < 1e-12);
        assert!((series[0].max_cpu - 0.5).abs() < 1e-12);
        assert!(a
            .series(
                Subject::Server(ServerId::new(9)),
                SimTime::ZERO,
                SimTime::from_hours(1)
            )
            .is_empty());
    }

    #[test]
    fn daily_profile_averages_across_days() {
        let mut a = LoadArchive::new(SimDuration::from_hours(1));
        let s = subject();
        // Two days: 08:00 load 0.8 / 0.6; 02:00 load 0.1 both days.
        a.record(s, SimTime::from_hours(8), 0.8, 0.0);
        a.record(s, SimTime::from_hours(24 + 8), 0.6, 0.0);
        a.record(s, SimTime::from_hours(2), 0.1, 0.0);
        a.record(s, SimTime::from_hours(24 + 2), 0.1, 0.0);
        let profile = a.daily_profile(s, SimDuration::from_hours(1));
        assert_eq!(profile.len(), 24);
        assert!((profile[8] - 0.7).abs() < 1e-12);
        assert!((profile[2] - 0.1).abs() < 1e-12);
        assert_eq!(profile[15], 0.0);
    }

    #[test]
    fn retain_recent_compacts() {
        let mut a = minute_archive();
        let s = subject();
        for minute in 0..120 {
            a.record(s, SimTime::from_minutes(minute), 0.5, 0.0);
        }
        assert_eq!(a.bucket_count(), 120);
        a.retain_recent(SimTime::from_minutes(120), SimDuration::from_minutes(30));
        assert_eq!(a.bucket_count(), 30);
        // Old range now empty.
        assert_eq!(
            a.average_cpu(s, SimTime::ZERO, SimTime::from_minutes(60)),
            None
        );
        // Recent range still there.
        assert!(a
            .average_cpu(s, SimTime::from_minutes(100), SimTime::from_minutes(120))
            .is_some());
    }

    #[test]
    fn retain_recent_drops_empty_subjects() {
        let mut a = minute_archive();
        a.record(subject(), SimTime::ZERO, 0.5, 0.0);
        a.retain_recent(SimTime::from_hours(10), SimDuration::from_minutes(1));
        assert_eq!(a.subjects().count(), 0);
    }

    #[test]
    fn loads_are_clamped() {
        let mut a = minute_archive();
        let s = subject();
        a.record(s, SimTime::ZERO, 5.0, -1.0);
        let series = a.series(s, SimTime::ZERO, SimTime::from_minutes(1));
        assert_eq!(series[0].avg_cpu, 1.0);
        assert_eq!(series[0].avg_mem, 0.0);
    }

    #[test]
    fn far_future_sample_adds_one_bucket() {
        let mut a = minute_archive();
        let s = subject();
        a.record(s, SimTime::ZERO, 0.5, 0.1);
        a.record(s, SimTime::from_secs(u64::MAX - 7), 0.25, 0.1);
        assert_eq!(a.bucket_count(), 2);
        let end = SimTime::from_secs(u64::MAX);
        assert_eq!(a.average_cpu(s, end, end), Some(0.25));
        assert_eq!(a.series(s, SimTime::ZERO, end).len(), 1);
    }

    #[test]
    fn the_block_holding_u64_max_is_queryable() {
        // At a 1-s width the last block starts 64 s before u64::MAX; its
        // end does not fit a u64.
        let mut a = LoadArchive::new(SimDuration::from_secs(1));
        let s = subject();
        for secs in [u64::MAX - 64, u64::MAX - 63, u64::MAX] {
            a.record(s, SimTime::from_secs(secs), 0.5, 0.1);
        }
        let (from, end) = (
            SimTime::from_secs(u64::MAX - 63),
            SimTime::from_secs(u64::MAX),
        );
        assert_eq!(a.series(s, SimTime::ZERO, end).len(), 2);
        assert_eq!(a.average_cpu(s, end, end), Some(0.5));
        a.retain_recent(end, end.since(from));
        assert_eq!(a.bucket_count(), 2);
        assert_eq!(a.subjects().collect::<Vec<_>>(), vec![s]);
    }

    #[test]
    fn out_of_order_samples_land_in_their_bucket() {
        let mut in_order = minute_archive();
        let mut shuffled = minute_archive();
        let s = subject();
        let samples = [(0u64, 0.1), (30, 0.2), (60, 0.3), (600, 0.4), (610, 0.5)];
        for &(sec, cpu) in &samples {
            in_order.record(s, SimTime::from_secs(sec), cpu, 0.0);
        }
        for &i in &[3usize, 0, 4, 2, 1] {
            let (sec, cpu) = samples[i];
            shuffled.record(s, SimTime::from_secs(sec), cpu, 0.0);
        }
        let (from, to) = (SimTime::ZERO, SimTime::from_minutes(11));
        assert_eq!(shuffled.bucket_count(), 3);
        assert_eq!(shuffled.series(s, from, to), in_order.series(s, from, to));
    }

    #[test]
    fn nan_samples_are_dropped() {
        let mut clean = minute_archive();
        let mut dirty = minute_archive();
        let (s, other) = (subject(), Subject::Server(ServerId::new(1)));
        for minute in 0..5 {
            let t = SimTime::from_minutes(minute);
            clean.record(s, t, 0.2 * minute as f64, 0.3);
            dirty.record(s, t, 0.2 * minute as f64, 0.3);
            if minute == 2 {
                dirty.record(s, t, f64::NAN, 0.3);
                dirty.record(s, t + SimDuration::from_secs(5), 0.4, f64::NAN);
                dirty.record(other, t, f64::NAN, f64::NAN);
            }
        }
        let (from, to) = (SimTime::ZERO, SimTime::from_minutes(5));
        assert_eq!(
            dirty.average_cpu(s, from, to),
            clean.average_cpu(s, from, to)
        );
        assert_eq!(dirty.series(s, from, to), clean.series(s, from, to));
        let hour = SimDuration::from_hours(1);
        assert_eq!(dirty.daily_profile(s, hour), clean.daily_profile(s, hour));
        assert_eq!(dirty.subjects().collect::<Vec<_>>(), vec![s]);
        assert_eq!(dirty.bucket_count(), clean.bucket_count());
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        LoadArchive::new(SimDuration::ZERO);
    }
}
