//! Seeded property tests for the monitoring stack's invariants.

use autoglobe_landscape::{InstanceId, ServerId, ServiceId};
use autoglobe_monitor::{
    Advisor, LoadArchive, LoadMonitor, LoadSample, SimDuration, SimTime, Subject, SubjectConfig,
    TriggerKind,
};
use autoglobe_rng::{check, Rng};
use std::collections::BTreeMap;

fn subject() -> Subject {
    Subject::Server(ServerId::new(0))
}

#[test]
fn monitor_average_matches_reference() {
    // The windowed average always lies within the min/max of the recorded
    // samples and matches a straightforward recomputation.
    check::cases(192, |rng| {
        let n = 1 + rng.random_below(119);
        let loads: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..=1.0)).collect();
        let mut monitor = LoadMonitor::new(SimDuration::from_hours(4));
        for (minute, &cpu) in loads.iter().enumerate() {
            monitor.record(LoadSample::new(
                SimTime::from_minutes(minute as u64),
                cpu,
                cpu / 2.0,
            ));
        }
        let from = SimTime::ZERO;
        let to = SimTime::from_minutes(loads.len() as u64);
        let avg = monitor.average_cpu(from, to).unwrap();
        let reference: f64 = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!((avg - reference).abs() < 1e-9);
        let lo = loads.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = loads.iter().copied().fold(0.0f64, f64::max);
        assert!(avg >= lo - 1e-12 && avg <= hi + 1e-12);
        assert!((monitor.max_cpu(from, to).unwrap() - hi).abs() < 1e-12);
    });
}

#[test]
fn advisor_triggers_are_sound_and_live() {
    // An advisor never raises an overload trigger unless the watch-time
    // average actually exceeded the threshold; and for persistently hot
    // input it must eventually raise one.
    check::cases(192, |rng| {
        let base = rng.random_range(0.0..=1.0);
        let hot = rng.random_bool(0.5);
        let config = SubjectConfig::paper_defaults(1.0);
        let mut advisor = Advisor::new(subject(), config);
        let level = if hot {
            0.75 + base * 0.25
        } else {
            base.min(0.65)
        };
        let mut triggered = Vec::new();
        for minute in 0..40u64 {
            let sample = LoadSample::new(SimTime::from_minutes(minute), level, 0.2);
            if let Some(t) = advisor.observe(sample) {
                triggered.push(t);
            }
        }
        if level >= config.overload_threshold {
            assert!(
                triggered
                    .iter()
                    .any(|t| t.kind == TriggerKind::ServerOverloaded),
                "persistent {level} must trigger"
            );
        }
        for t in &triggered {
            if t.kind == TriggerKind::ServerOverloaded {
                assert!(t.average_cpu >= config.overload_threshold - 1e-9);
            }
            if t.kind == TriggerKind::ServerIdle {
                assert!(t.average_cpu <= config.idle_threshold + 1e-9);
            }
        }
    });
}

#[test]
fn archive_aggregates_stay_bounded() {
    // Archive averages are consistent with the recorded values regardless of
    // bucket boundaries, and the daily profile is a convex combination of
    // recorded loads.
    check::cases(128, |rng| {
        let n = 10 + rng.random_below(190);
        let loads: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..=1.0)).collect();
        let bucket_minutes = rng.random_int(1..=29);
        let mut archive = LoadArchive::new(SimDuration::from_minutes(bucket_minutes));
        for (minute, &cpu) in loads.iter().enumerate() {
            archive.record(
                subject(),
                SimTime::from_minutes(minute as u64 * 3),
                cpu,
                0.1,
            );
        }
        let to = SimTime::from_minutes(loads.len() as u64 * 3 + bucket_minutes);
        let avg = archive.average_cpu(subject(), SimTime::ZERO, to).unwrap();
        let reference: f64 = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!(
            (avg - reference).abs() < 1e-9,
            "bucketing must not distort the mean"
        );

        let profile = archive.daily_profile(subject(), SimDuration::from_hours(1));
        let lo = loads.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = loads.iter().copied().fold(0.0f64, f64::max);
        for &value in profile.iter().filter(|v| **v > 0.0) {
            assert!(value >= lo - 1e-12 && value <= hi + 1e-12);
        }
    });
}

#[test]
fn archive_retention_is_a_clean_cut() {
    // After `retain_recent`, no bucket older than the horizon answers
    // queries, and recent data is untouched.
    check::cases(64, |rng| {
        let horizon_minutes = rng.random_int(5..=59);
        let mut archive = LoadArchive::new(SimDuration::from_minutes(1));
        for minute in 0..120u64 {
            archive.record(subject(), SimTime::from_minutes(minute), 0.5, 0.1);
        }
        let now = SimTime::from_minutes(120);
        archive.retain_recent(now, SimDuration::from_minutes(horizon_minutes));
        let cutoff = now - SimDuration::from_minutes(horizon_minutes);
        if cutoff.as_secs() >= 60 {
            let old = archive.average_cpu(
                subject(),
                SimTime::ZERO,
                cutoff - SimDuration::from_minutes(1),
            );
            assert!(old.is_none(), "old data must be gone");
        }
        let recent = archive.average_cpu(subject(), cutoff, now);
        assert!(recent.is_some(), "recent data must remain");
    });
}

/// One bucket of [`ReferenceArchive`].
#[derive(Debug, Default)]
struct ReferenceBucket {
    sum_cpu: f64,
    sum_mem: f64,
    max_cpu: f64,
    count: u32,
}

/// The archive's semantics on one `BTreeMap` of buckets per subject — the
/// tree-backed store `LoadArchive` replaced, kept here as its oracle.
struct ReferenceArchive {
    width: u64,
    subjects: BTreeMap<Subject, BTreeMap<u64, ReferenceBucket>>,
}

impl ReferenceArchive {
    fn new(width: u64) -> Self {
        ReferenceArchive {
            width,
            subjects: BTreeMap::new(),
        }
    }

    fn record(&mut self, subject: Subject, time: SimTime, cpu: f64, mem: f64) {
        if cpu.is_nan() || mem.is_nan() {
            return;
        }
        let (cpu, mem) = (cpu.clamp(0.0, 1.0), mem.clamp(0.0, 1.0));
        let bucket = self
            .subjects
            .entry(subject)
            .or_default()
            .entry(time.as_secs() / self.width)
            .or_default();
        bucket.sum_cpu += cpu;
        bucket.sum_mem += mem;
        bucket.max_cpu = bucket.max_cpu.max(cpu);
        bucket.count += 1;
    }

    /// Buckets from `from`'s bucket onwards, in ascending order.
    fn buckets_from(
        &self,
        subject: Subject,
        from: SimTime,
    ) -> impl Iterator<Item = (u64, &ReferenceBucket)> {
        self.subjects
            .get(&subject)
            .into_iter()
            .flat_map(move |b| b.range(from.as_secs() / self.width..))
            .map(|(&i, b)| (i, b))
    }

    /// `[from, to)` by bucket, or `from`'s bucket alone when `to` does not
    /// lie past it.
    fn average_cpu(&self, subject: Subject, from: SimTime, to: SimTime) -> Option<f64> {
        let (lo, hi) = (from.as_secs() / self.width, to.as_secs() / self.width);
        let mut sum = 0.0;
        let mut count = 0u64;
        for (_, b) in self
            .buckets_from(subject, from)
            .take_while(|&(i, _)| i < hi || i == lo)
        {
            sum += b.sum_cpu;
            count += b.count as u64;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// `(start, avg_cpu, avg_mem, max_cpu)` per bucket in `[from, to)`.
    fn series(&self, subject: Subject, from: SimTime, to: SimTime) -> Vec<(u64, f64, f64, f64)> {
        let hi = to.as_secs() / self.width;
        self.buckets_from(subject, from)
            .take_while(|&(i, _)| i < hi)
            .map(|(i, b)| {
                let n = b.count as f64;
                (i * self.width, b.sum_cpu / n, b.sum_mem / n, b.max_cpu)
            })
            .collect()
    }

    fn daily_profile(&self, subject: Subject, slot: u64) -> Vec<f64> {
        let slots = (86_400 / slot) as usize;
        let mut sums = vec![0.0; slots];
        let mut counts = vec![0u64; slots];
        for (i, b) in self.buckets_from(subject, SimTime::ZERO) {
            let s = ((i * self.width % 86_400) / slot) as usize;
            if s < slots {
                sums[s] += b.sum_cpu;
                counts[s] += b.count as u64;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    fn retain_recent(&mut self, now: SimTime, horizon: SimDuration) {
        let cutoff = (now - horizon).as_secs() / self.width;
        for buckets in self.subjects.values_mut() {
            *buckets = buckets.split_off(&cutoff);
        }
        self.subjects.retain(|_, b| !b.is_empty());
    }

    fn bucket_count(&self) -> usize {
        self.subjects.values().map(BTreeMap::len).sum()
    }
}

/// A load: mostly in `[0, 1]`, sometimes out of range, infinite or NaN.
fn random_load(rng: &mut Rng) -> f64 {
    match rng.random_below(20) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => rng.random_range(-0.5..=1.5),
        _ => rng.random_range(0.0..=1.0),
    }
}

/// Every query of `archive` agrees with `reference` bit for bit.
fn assert_archives_agree(
    archive: &LoadArchive,
    reference: &ReferenceArchive,
    subjects: &[Subject],
    rng: &mut Rng,
    (clock, latest): (u64, u64),
) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(
        archive.subjects().collect::<Vec<_>>(),
        reference.subjects.keys().copied().collect::<Vec<_>>()
    );
    assert_eq!(archive.bucket_count(), reference.bucket_count());
    for &subject in subjects {
        let mut windows = vec![(0, u64::MAX), (u64::MAX - 3_600, u64::MAX)];
        for _ in 0..3 {
            // Mostly the dense stretch behind the clock, sometimes all of it.
            let end = if rng.random_bool(0.8) {
                clock + 7_200
            } else {
                latest
            };
            windows.push((rng.random_int(0..=end), rng.random_int(0..=end)));
        }
        for (a, b) in windows {
            let (from, to) = (SimTime::from_secs(a), SimTime::from_secs(b));
            assert_eq!(
                bits(archive.average_cpu(subject, from, to)),
                bits(reference.average_cpu(subject, from, to)),
                "average_cpu of {subject} over [{a}, {b})"
            );
            let series: Vec<_> = archive
                .series(subject, from, to)
                .iter()
                .map(|p| {
                    let f = |v: f64| v.to_bits();
                    (p.time.as_secs(), f(p.avg_cpu), f(p.avg_mem), f(p.max_cpu))
                })
                .collect();
            let expected: Vec<_> = reference
                .series(subject, from, to)
                .into_iter()
                .map(|(t, c, m, x)| (t, c.to_bits(), m.to_bits(), x.to_bits()))
                .collect();
            assert_eq!(series, expected, "series of {subject} over [{a}, {b})");
        }
        let slot = *rng.choice(&[420u64, 1_800, 3_600, 86_400]);
        let profile: Vec<u64> = archive
            .daily_profile(subject, SimDuration::from_secs(slot))
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let expected: Vec<u64> = reference
            .daily_profile(subject, slot)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            profile, expected,
            "daily profile of {subject}, slot {slot}s"
        );
    }
}

/// A `LoadArchive` and its reference, fed the same stream.
struct Replay {
    archive: LoadArchive,
    reference: ReferenceArchive,
    /// The latest timestamp recorded so far.
    latest: u64,
}

impl Replay {
    fn new(width: u64) -> Self {
        Replay {
            archive: LoadArchive::new(SimDuration::from_secs(width)),
            reference: ReferenceArchive::new(width),
            latest: 0,
        }
    }

    /// Record one sample with random, sometimes hostile, loads.
    fn record(&mut self, rng: &mut Rng, subject: Subject, time: u64) {
        let (cpu, mem) = (random_load(rng), random_load(rng));
        self.archive
            .record(subject, SimTime::from_secs(time), cpu, mem);
        self.reference
            .record(subject, SimTime::from_secs(time), cpu, mem);
        self.latest = self.latest.max(time);
    }

    fn retain_recent(&mut self, now: u64, horizon: u64) {
        let (now, horizon) = (SimTime::from_secs(now), SimDuration::from_secs(horizon));
        self.archive.retain_recent(now, horizon);
        self.reference.retain_recent(now, horizon);
    }

    fn assert_agree(&self, subjects: &[Subject], rng: &mut Rng, clock: u64) {
        assert_archives_agree(
            &self.archive,
            &self.reference,
            subjects,
            rng,
            (clock, self.latest),
        );
    }
}

/// Bucket indices per `LoadArchive` block.
const BLOCK: u64 = 64;

#[test]
fn flat_archive_matches_the_tree_oracle() {
    // Streams over all three subject kinds, each subject first recorded
    // mid-stream in an order unlike its id:
    // - a dense in-order stretch over at least three consecutive 64-bucket
    //   blocks, from block 2 or later;
    // - out-of-order samples into blocks that do not exist yet, before the
    //   stretch and in a gap after a far-ahead sample;
    // - a retention cut inside a block, then more samples, some of them
    //   below the cut in the block it kept;
    // - a random walk of in-order, same-bucket, out-of-order and far-apart
    //   timestamps (one within 10,000 s of u64::MAX, often within 64 s, so
    //   that at a 1-s width it lands in the block holding u64::MAX),
    //   hostile loads and retention cuts.
    // After every step of the walk, and throughout the structured phases,
    // each query must equal the tree-backed reference bit for bit.
    let subjects = [
        Subject::Server(ServerId::new(0)),
        Subject::Server(ServerId::new(3)),
        Subject::Service(ServiceId::new(1)),
        Subject::Service(ServiceId::new(2)),
        Subject::Instance(InstanceId::new(0)),
        Subject::Instance(InstanceId::new(5)),
    ];
    check::cases(96, |rng| {
        let width = *rng.choice(&[1u64, 7, 60, 3_600]);
        let mut replay = Replay::new(width);
        let at = |rng: &mut Rng, bucket: u64| bucket * width + rng.random_int(0..=width - 1);

        // First-record order: shuffled, never ascending, each subject
        // joining at its own bucket of the dense stretch.
        let mut order = subjects.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_below(i + 1));
        }
        if order.is_sorted() {
            order.reverse();
        }
        let first_bucket = rng.random_int(2 * BLOCK..=10 * BLOCK);
        let end_bucket =
            first_bucket.next_multiple_of(BLOCK) + 3 * BLOCK + rng.random_int(0..=BLOCK - 1);
        let mut joins: Vec<u64> = (1..order.len())
            .map(|_| rng.random_int(first_bucket + 1..=end_bucket - 1))
            .collect();
        joins.sort_unstable();
        joins.insert(0, first_bucket);

        // Dense stretch.
        let mut active = 0;
        for bucket in first_bucket..end_bucket {
            let joined = active;
            while active < order.len() && joins[active] == bucket {
                active += 1;
            }
            for (i, &subject) in order[..active].iter().enumerate() {
                if i >= joined || rng.random_bool(0.75) {
                    for _ in 0..1 + rng.random_below(2) {
                        let time = at(rng, bucket);
                        replay.record(rng, subject, time);
                    }
                }
            }
            if active > joined || bucket % BLOCK == BLOCK - 1 || rng.random_below(16) == 0 {
                replay.assert_agree(&subjects, rng, bucket * width);
            }
        }
        let mut clock = end_bucket * width;

        // Out of order into missing blocks: one before the stretch, and one
        // in the gap behind a sample two or more blocks ahead.
        let record_at = |rng: &mut Rng, replay: &mut Replay, bucket: u64| {
            let (subject, time) = (*rng.choice(&subjects), at(rng, bucket));
            replay.record(rng, subject, time);
        };
        let before = rng.random_int(0..=first_bucket - first_bucket % BLOCK - 1);
        record_at(rng, &mut replay, before);
        replay.assert_agree(&subjects, rng, clock);
        let ahead = end_bucket.next_multiple_of(BLOCK) + rng.random_int(2..=5) * BLOCK;
        record_at(rng, &mut replay, ahead);
        let gap = rng.random_int(end_bucket.next_multiple_of(BLOCK)..=ahead - 1);
        record_at(rng, &mut replay, gap);
        replay.assert_agree(&subjects, rng, clock);

        // A retention cut inside a block, then more samples: in order, and
        // below the cut in the block it kept.
        let cut = loop {
            let c = rng.random_int(first_bucket + 1..=end_bucket - 1);
            if c % BLOCK != 0 {
                break c;
            }
        };
        replay.retain_recent(clock, clock - cut * width);
        replay.assert_agree(&subjects, rng, clock);
        for bucket in end_bucket..end_bucket + BLOCK {
            for &subject in &subjects {
                if rng.random_bool(0.75) {
                    let time = at(rng, bucket);
                    replay.record(rng, subject, time);
                }
            }
            if rng.random_below(8) == 0 {
                let below = rng.random_int(cut - cut % BLOCK..=cut - 1);
                record_at(rng, &mut replay, below);
            }
            if bucket % BLOCK == BLOCK - 1 || rng.random_below(16) == 0 {
                replay.assert_agree(&subjects, rng, bucket * width);
            }
        }
        clock = (end_bucket + BLOCK) * width;

        // Random walk.
        let near_max_step = rng.random_below(80);
        for step in 0..80 {
            let subject = *rng.choice(&subjects);
            let time = if step == near_max_step {
                if rng.random_bool(0.5) {
                    u64::MAX - rng.random_int(0..=BLOCK - 1)
                } else {
                    u64::MAX - rng.random_int(0..=10_000)
                }
            } else {
                match rng.random_below(10) {
                    0..=3 => {
                        clock += rng.random_int(0..=2 * width);
                        clock
                    }
                    4 | 5 => clock - clock % width + rng.random_int(0..=width - 1),
                    6 | 7 => rng.random_int(0..=clock),
                    8 => clock + rng.random_int(1_000_000..=1_000_000_000_000),
                    _ => {
                        let now = rng.random_int(0..=replay.latest);
                        let horizon = rng.random_int(0..=replay.latest);
                        replay.retain_recent(now, horizon);
                        replay.assert_agree(&subjects, rng, clock);
                        continue;
                    }
                }
            };
            replay.record(rng, subject, time);
            replay.assert_agree(&subjects, rng, clock);
        }
    });
}

#[test]
fn time_arithmetic_laws() {
    // SimTime arithmetic: associativity with durations and day wrapping.
    check::cases(512, |rng| {
        let a = rng.random_int(0..=999_999);
        let b = rng.random_int(0..=499_999);
        let c = rng.random_int(0..=499_999);
        let t = SimTime::from_secs(a);
        let d1 = SimDuration::from_secs(b);
        let d2 = SimDuration::from_secs(c);
        assert_eq!((t + d1) + d2, t + (d1 + d2));
        assert_eq!((t + d1).since(t), d1);
        let wrapped = SimTime::from_secs(a).second_of_day();
        assert!(wrapped < 86_400);
        assert!(SimTime::from_secs(a).hour_of_day() < 24.0);
    });
}
