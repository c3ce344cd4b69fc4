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
//! Each subject owns one contiguous `Vec` of buckets, kept sorted by the
//! bucket index (time / bucket width) stored in each bucket. A bucket is
//! 40 bytes: the index, the CPU and memory sums, the CPU maximum and the
//! sample count. Only buckets that hold data exist, so a far-future
//! timestamp adds one bucket, not a gap.
//!
//! - A sample for the subject's newest bucket, or a later one, is a tail
//!   update or a push: amortised O(1).
//! - An out-of-order sample binary-searches its bucket and, when the
//!   bucket is new, inserts it: O(log n) plus the shift of the later
//!   buckets. It lands in the same bucket, with the same effect on the
//!   sums, as it would have in time order.
//! - A range query is two binary searches and a walk over the slice
//!   between them, in ascending bucket order, so every float sum is taken
//!   in the same order whatever order the samples arrived in.
//!
//! # Input rules
//!
//! - Loads are clamped to `[0, 1]`; ±∞ clamp to 1 or 0.
//! - A sample whose CPU or memory load is NaN is dropped. One NaN would
//!   poison its bucket's sums and, through them, the same time-of-day slot
//!   of every later [`LoadArchive::daily_profile`].

use crate::subject::Subject;
use crate::time::{SimDuration, SimTime};
use autoglobe_landscape::{InstanceId, ServerId, ServiceId};

/// One aggregation bucket, tagged with its index so a subject's buckets
/// can live in one sorted `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Bucket {
    index: u64,
    sum_cpu: f64,
    sum_mem: f64,
    max_cpu: f64,
    count: u32,
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 40);

impl Bucket {
    fn add(&mut self, cpu: f64, mem: f64) {
        self.sum_cpu += cpu;
        self.sum_mem += mem;
        self.max_cpu = self.max_cpu.max(cpu);
        self.count += 1;
    }

    fn avg_cpu(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_cpu / self.count as f64
        }
    }

    fn avg_mem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_mem / self.count as f64
        }
    }
}

/// The buckets of a sorted slice whose index lies in `[first, last]`
/// (`first ≤ last`).
fn window(buckets: &[Bucket], first: u64, last: u64) -> &[Bucket] {
    let start = buckets.partition_point(|b| b.index < first);
    let end = buckets.partition_point(|b| b.index <= last);
    &buckets[start..end]
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
/// The per-subject bucket arrays live in dense per-kind lanes indexed by
/// the raw id (ids are dense in this system): the per-tick record path
/// resolves its subject with one array access. An empty array is a subject
/// without data.
#[derive(Debug, Clone)]
pub struct LoadArchive {
    bucket: SimDuration,
    servers: Vec<Vec<Bucket>>,
    services: Vec<Vec<Bucket>>,
    instances: Vec<Vec<Bucket>>,
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
            servers: Vec::new(),
            services: Vec::new(),
            instances: Vec::new(),
        }
    }

    /// The bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    fn bucket_index(&self, time: SimTime) -> u64 {
        time.as_secs() / self.bucket.as_secs()
    }

    fn buckets(&self, subject: Subject) -> &[Bucket] {
        let (lane, idx) = match subject {
            Subject::Server(id) => (&self.servers, id.index()),
            Subject::Service(id) => (&self.services, id.index()),
            Subject::Instance(id) => (&self.instances, id.index()),
        };
        lane.get(idx).map_or(&[], Vec::as_slice)
    }

    /// Record a measurement. Loads are clamped to `[0, 1]`; a sample with
    /// a NaN load is dropped (see the module docs).
    pub fn record(&mut self, subject: Subject, time: SimTime, cpu: f64, mem: f64) {
        if cpu.is_nan() || mem.is_nan() {
            return;
        }
        let index = self.bucket_index(time);
        let (lane, i) = match subject {
            Subject::Server(id) => (&mut self.servers, id.index()),
            Subject::Service(id) => (&mut self.services, id.index()),
            Subject::Instance(id) => (&mut self.instances, id.index()),
        };
        if lane.len() <= i {
            lane.resize_with(i + 1, Vec::new);
        }
        let buckets = &mut lane[i];
        let at = match buckets.last() {
            Some(last) if last.index > index => buckets.partition_point(|b| b.index < index),
            Some(last) if last.index == index => buckets.len() - 1,
            _ => buckets.len(),
        };
        if buckets.get(at).is_none_or(|b| b.index != index) {
            buckets.insert(
                at,
                Bucket {
                    index,
                    ..Bucket::default()
                },
            );
        }
        buckets[at].add(cpu.clamp(0.0, 1.0), mem.clamp(0.0, 1.0));
    }

    /// Average CPU load of `subject` over `[from, to)`. `None` if nothing
    /// was recorded there. When `to` falls in `from`'s bucket or before
    /// it, the range is `from`'s bucket alone.
    pub fn average_cpu(&self, subject: Subject, from: SimTime, to: SimTime) -> Option<f64> {
        let (lo, hi) = (self.bucket_index(from), self.bucket_index(to));
        let mut sum = 0.0;
        let mut count = 0u64;
        for b in window(self.buckets(subject), lo, hi.saturating_sub(1).max(lo)) {
            sum += b.sum_cpu;
            count += b.count as u64;
        }
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
        if hi <= lo {
            return Vec::new();
        }
        window(self.buckets(subject), lo, hi - 1)
            .iter()
            .map(|b| ArchivePoint {
                time: SimTime::from_secs(b.index * self.bucket.as_secs()),
                avg_cpu: b.avg_cpu(),
                avg_mem: b.avg_mem(),
                max_cpu: b.max_cpu,
            })
            .collect()
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
        for b in self.buckets(subject) {
            let start = b.index * self.bucket.as_secs();
            let slot_idx = ((start % 86_400) / slot_secs) as usize;
            if slot_idx < slots {
                sums[slot_idx] += b.sum_cpu;
                counts[slot_idx] += b.count as u64;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Subjects with recorded data: servers, then services, then instances,
    /// each in ascending id order (the order of [`Subject`]'s derived `Ord`).
    pub fn subjects(&self) -> impl Iterator<Item = Subject> + '_ {
        let present = |lane: &[Vec<Bucket>]| {
            lane.iter()
                .enumerate()
                .filter(|(_, buckets)| !buckets.is_empty())
                .map(|(i, _)| i as u32)
                .collect::<Vec<_>>()
        };
        present(&self.servers)
            .into_iter()
            .map(|i| Subject::Server(ServerId::new(i)))
            .chain(
                present(&self.services)
                    .into_iter()
                    .map(|i| Subject::Service(ServiceId::new(i))),
            )
            .chain(
                present(&self.instances)
                    .into_iter()
                    .map(|i| Subject::Instance(InstanceId::new(i))),
            )
    }

    /// Total number of non-empty buckets across all subjects (a size gauge).
    pub fn bucket_count(&self) -> usize {
        self.servers
            .iter()
            .chain(&self.services)
            .chain(&self.instances)
            .map(Vec::len)
            .sum()
    }

    /// Drop all data older than `horizon` before `now` (archive compaction).
    pub fn retain_recent(&mut self, now: SimTime, horizon: SimDuration) {
        let cutoff = self.bucket_index(now - horizon);
        for buckets in self
            .servers
            .iter_mut()
            .chain(&mut self.services)
            .chain(&mut self.instances)
        {
            let stale = buckets.partition_point(|b| b.index < cutoff);
            if stale == buckets.len() {
                *buckets = Vec::new();
            } else {
                buckets.drain(..stale);
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
